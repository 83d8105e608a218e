"""The lattice profiler: exact per-view statistics.

The demo's "Exploration of the Full Lattice" step computes, for every view
of a facet, the quantities the cost models disagree about: result rows
(aggregated values), encoded triples, distinct nodes, and measured
evaluation time.  The profiler computes all four *without* materializing
any RDF — it evaluates each view query once and derives the exact encoding
footprint from the result table (the materializer's unit tests pin the
formulas to reality).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import CostModelError
from ..rdf.graph import Graph
from ..rdf.stats import GraphStatistics
from ..rdf.terms import Term
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.view import ViewDefinition
from ..sparql.engine import QueryEngine

__all__ = ["ViewProfile", "BaseProfile", "LatticeProfile"]


@dataclass(frozen=True)
class ViewProfile:
    """Exact footprint and measured cost of one (not yet materialized) view."""

    mask: int
    label: str
    level: int
    rows: int
    triples: int
    nodes: int
    eval_seconds: float
    dim_cardinalities: tuple[int, ...] = ()


@dataclass(frozen=True)
class BaseProfile:
    """The same quantities for the raw graph G (the no-view fallback)."""

    triples: int
    rows: int                      # bindings of the facet pattern P
    nodes: int
    eval_seconds: float


@dataclass
class LatticeProfile:
    """Per-view statistics for a whole lattice over a fixed graph."""

    facet: AnalyticalFacet
    base: BaseProfile
    graph_stats: GraphStatistics
    views: dict[int, ViewProfile] = field(default_factory=dict)
    profile_seconds: float = 0.0

    @classmethod
    def profile(cls, lattice: ViewLattice, engine: QueryEngine
                ) -> "LatticeProfile":
        """Evaluate every view query once and record exact statistics."""
        started = time.perf_counter()
        facet = lattice.facet
        graph = engine.graph
        graph_stats = GraphStatistics.of(graph)

        base_start = time.perf_counter()
        base_table = engine.query(facet.binding_query())
        base_seconds = time.perf_counter() - base_start
        base = BaseProfile(
            triples=len(graph),
            rows=len(base_table),
            nodes=graph.node_count(),
            eval_seconds=base_seconds,
        )

        profile = cls(facet=facet, base=base, graph_stats=graph_stats)
        for view in lattice:
            profile.views[view.mask] = _profile_view(view, engine)
        profile.profile_seconds = time.perf_counter() - started
        return profile

    # -- cost-model accessors -----------------------------------------------

    def of(self, view: ViewDefinition) -> ViewProfile:
        if view.facet != self.facet:
            raise CostModelError(
                f"view {view.label!r} belongs to facet "
                f"{view.facet.name!r}, not to the profiled facet "
                f"{self.facet.name!r}")
        entry = self.views.get(view.mask)
        if entry is None:
            raise CostModelError(
                f"view {view.label!r} was not profiled (partial profile)")
        return entry

    def rows(self, view: ViewDefinition) -> int:
        """|V(G)| — the aggregated-values cost (paper model 3)."""
        return self.of(view).rows

    def triples(self, view: ViewDefinition) -> int:
        """|G_V| — the triple-count cost (paper model 2)."""
        return self.of(view).triples

    def nodes(self, view: ViewDefinition) -> int:
        """|I∪B∪L| of the view graph — the node-count cost (paper model 4)."""
        return self.of(view).nodes

    def eval_seconds(self, view: ViewDefinition) -> float:
        """Measured seconds to evaluate the view query on G."""
        return self.of(view).eval_seconds

    def by_level(self) -> list[list[ViewProfile]]:
        """Profiles grouped by lattice level (apex first)."""
        out: list[list[ViewProfile]] = [
            [] for _ in range(self.facet.dimension_count + 1)]
        for mask in sorted(self.views):
            entry = self.views[mask]
            out[entry.level].append(entry)
        return out

    def total_triples(self) -> int:
        """Triples needed to materialize the *entire* lattice."""
        return sum(v.triples for v in self.views.values())

    def full_lattice_amplification(self) -> float:
        """(|G| + all views) / |G| — why full materialization is impractical."""
        if not self.base.triples:
            return 0.0
        return (self.base.triples + self.total_triples()) / self.base.triples

    def __iter__(self) -> Iterator[ViewProfile]:
        for mask in sorted(self.views):
            yield self.views[mask]


def _profile_view(view: ViewDefinition, engine: QueryEngine) -> ViewProfile:
    query = view.materialization_query()
    start = time.perf_counter()
    table = engine.query(query)
    elapsed = time.perf_counter() - start

    dims = view.variables
    columns = {v: i for i, v in enumerate(table.variables)}
    dim_indexes = [columns[v] for v in dims]
    value_indexes = [i for v, i in columns.items() if v not in dims]

    # Exact encoding footprint, mirroring materialize_view_from_table's
    # §3.1 encoding: per group one view-link triple, one triple per
    # *bound* dimension, one per bound stored value, one groupCount triple.
    triples = 0
    distinct_objects: set[Term] = set()
    dim_distinct: list[set[Term]] = [set() for _ in dim_indexes]
    for row in table.rows:
        triples += 2  # view link + groupCount (count is always bound)
        for slot, idx in enumerate(dim_indexes):
            value = row[idx]
            if value is not None:
                triples += 1
                distinct_objects.add(value)
                dim_distinct[slot].add(value)
        for idx in value_indexes:
            value = row[idx]
            if value is not None:
                # groupCount was already charged; measure/sum charged here.
                if table.variables[idx].name == "__count":
                    distinct_objects.add(value)
                    continue
                triples += 1
                distinct_objects.add(value)

    nodes = len(table.rows) + (1 if table.rows else 0) + len(distinct_objects)
    return ViewProfile(
        mask=view.mask,
        label=view.label,
        level=view.level,
        rows=len(table),
        triples=triples,
        nodes=nodes,
        eval_seconds=elapsed,
        dim_cardinalities=tuple(len(s) for s in dim_distinct),
    )
