"""The catalog of materialized views inside an expanded dataset.

The catalog owns the bookkeeping half of the offline module: which views
of which facet are materialized, in which named graph, with what exact
storage footprint.  It is the source of truth the router consults and the
storage-amplification panels read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at, suppressed
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.view import ViewDefinition
from ..sparql.grouptable import KIND_BY_AGGREGATE
from ..sparql.engine import QueryEngine
from .materializer import materialize_view_from_table

__all__ = ["MaterializedView", "ViewCatalog"]

_LOG = get_logger("views.catalog")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_MATERIALIZED = _REG.counter(
    "views_materialized_total", "views built into the catalog")
_REFRESHES = _REG.counter(
    "views_refreshed_total", "single-view full rebuilds (refresh)")
_QUARANTINE_EVENTS = _REG.counter(
    "views_quarantine_events_total",
    "views pulled from serving pending a rebuild")


@dataclass(frozen=True)
class MaterializedView:
    """A catalog entry: the definition plus its exact materialized footprint.

    ``base_version`` snapshots the base graph's mutation counter at build
    time; the catalog compares it against the current version to detect
    stale views after base-graph updates.
    """

    definition: ViewDefinition
    groups: int
    triples: int
    nodes: int
    build_seconds: float
    base_version: int = 0
    maintain_seconds: float = 0.0
    maintain_count: int = 0

    @property
    def mask(self) -> int:
        return self.definition.mask

    @property
    def label(self) -> str:
        return self.definition.label

    @property
    def upkeep_seconds(self) -> float:
        """Observed cost of keeping this view current, per window.

        The *mean* incremental patching cost when the view has any
        maintenance history (a total would penalize long-lived, cheaply
        patched views), the full-rebuild cost otherwise — the
        delta-aware signal the router uses to break ranking ties in
        favour of views that are cheap to keep fresh.
        """
        if self.maintain_count > 0:
            return self.maintain_seconds / self.maintain_count
        return self.build_seconds


class ViewCatalog:
    """Materialized views of one facet, stored as named graphs of a dataset.

    Views are written id-natively, so ``engine`` must run over a graph
    sharing the dataset's term dictionary (its default graph, usually).
    """

    def __init__(self, dataset: Dataset, engine: QueryEngine | None = None
                 ) -> None:
        if engine is not None and \
                engine.graph.dictionary is not dataset.dictionary:
            raise ViewError("the catalog's engine must share the dataset's "
                            "term dictionary")
        self._dataset = dataset
        self._engine = engine if engine is not None \
            else QueryEngine(dataset.default)
        self._entries: dict[int, MaterializedView] = {}
        # Group indexes recovered by persistence (mask → GroupIndex); a
        # ViewMaintainer attached to this catalog adopts them so loaded
        # views can be patched without a fresh view-graph scan.
        self.restored_group_indexes: dict[int, object] = {}
        # Views the auditor (or a failed rebuild) has pulled from serving:
        # mask → human-readable reason.  Routing skips them like stale
        # views; refresh clears the flag on a successful rebuild.
        self._quarantined: dict[int, str] = {}
        # Set by persistence.load_expanded(recover=True) to describe what
        # survived a corrupted on-disk catalog (a CatalogRecovery).
        self.recovery: object | None = None

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def base_engine(self) -> QueryEngine:
        """Engine over the base graph G (used to build views)."""
        return self._engine

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, view: ViewDefinition) -> bool:
        return view.mask in self._entries

    def __iter__(self) -> Iterator[MaterializedView]:
        for mask in sorted(self._entries):
            yield self._entries[mask]

    # -- mutation ----------------------------------------------------------

    def materialize(self, view: ViewDefinition) -> MaterializedView:
        """Build one view into its named graph and register it (a
        one-view :meth:`materialize_all` batch)."""
        return self.materialize_all([view])[0]

    def materialize_all(self, views: Iterable[ViewDefinition]
                        ) -> list[MaterializedView]:
        """Materialize a batch of views through the rollup planner.

        Instead of re-evaluating the facet query once per view, each
        facet's batch evaluates its pattern **once** into an id-space
        group table at the union grain and derives every view from that
        table — or from the smallest already-built ancestor, chosen via
        :meth:`ViewLattice.cheapest_source` with actual group counts.

        The batch is atomic at the catalog level: if any view fails to
        materialize, every view the batch already built is dropped
        before the error propagates, so a failed batch never leaves the
        catalog half-registered.  Target graphs that already existed in
        the dataset (a :meth:`refresh_stale` rebuild-in-place) are
        cleared rather than dropped, so cached engine references stay
        valid and the caller can restore a snapshot into them.  Entries
        return in input order.
        """
        batch = list(views)
        seen: set[int] = set()
        for view in batch:
            if view.mask in self._entries or view.mask in seen:
                raise ViewError(
                    f"view {view.label!r} is already materialized")
            seen.add(view.mask)
        fail_at("catalog.materialize_all")
        pre_existing = {view.mask for view in batch
                        if self._dataset.get_graph(view.iri) is not None}
        built: list[MaterializedView] = []
        try:
            with _TRACER.span("catalog.materialize_all", views=len(batch)):
                self._materialize_batch(batch, built)
        except BaseException:
            with suppressed():
                for view in batch:
                    self._entries.pop(view.mask, None)
                    self.restored_group_indexes.pop(view.mask, None)
                    if view.mask in pre_existing:
                        graph = self._dataset.get_graph(view.iri)
                        if graph is not None:
                            graph.clear()
                    else:
                        # the in-flight view's (empty or partially
                        # written) target graph must not survive either
                        self._dataset.drop(view.iri)
            raise
        by_mask = {entry.mask: entry for entry in built}
        return [by_mask[view.mask] for view in batch]

    # -- the rollup build path ---------------------------------------------

    def _materialize_batch(self, batch: list[ViewDefinition],
                           built: list[MaterializedView]) -> None:
        """Build a validated batch, appending entries as they land."""
        by_facet: dict[AnalyticalFacet, list[ViewDefinition]] = {}
        for view in batch:
            by_facet.setdefault(view.facet, []).append(view)
        for facet, group in by_facet.items():
            self._materialize_rollup(facet, group, built)

    def _materialize_rollup(self, facet: AnalyticalFacet,
                            group: list[ViewDefinition],
                            built: list[MaterializedView]) -> None:
        """Shared-scan build of one facet's views, finest first."""
        plan = ViewLattice.rollup_plan(v.mask for v in group)
        engine = self._engine
        executor = engine.executor
        kind = KIND_BY_AGGREGATE[facet.aggregate.name]

        with _TRACER.span("catalog.rollup_scan", facet=facet.name) as sp:
            scan_start = time.perf_counter()
            prepared = engine.prepare(facet.binding_query())
            table = executor.group_table(
                prepared.plan, facet.mask_variables(plan.table_mask),
                facet.operand_variable, kind,
                keep_max=facet.aggregate.name == "MAX")
            scan_seconds = time.perf_counter() - scan_start
            sp.set_tags(groups=len(table), views=len(group))

        tables = {plan.table_mask: table}
        views_by_mask = {v.mask: v for v in group}
        for step in plan.steps:
            fail_at("catalog.materialize.view")
            view = views_by_mask[step.mask]
            source_mask = ViewLattice.cheapest_source(
                step.mask, tables,
                sizes={m: len(t) for m, t in tables.items()})
            source = tables[source_mask]
            if source.variables != view.variables:
                source = source.project_variables(view.variables)
            tables[step.mask] = source
            target = self._dataset.graph(view.iri)
            stats, index = materialize_view_from_table(
                view, engine, target, source)
            entry = MaterializedView(
                definition=view,
                groups=stats.groups,
                triples=stats.triples,
                nodes=stats.nodes,
                # The shared scan is paid once for the whole batch; each
                # view carries an equal share so per-view build costs
                # stay comparable (and total_build_seconds ≈ wall time).
                build_seconds=stats.build_seconds
                + scan_seconds / len(plan.steps),
                base_version=engine.graph.version,
            )
            self._entries[view.mask] = entry
            if index is not None:
                # Seed incremental maintenance: a maintainer adopting
                # this index can patch the view without a graph scan.
                self.restored_group_indexes[view.mask] = index
            else:
                self.restored_group_indexes.pop(view.mask, None)
            built.append(entry)
            _MATERIALIZED.inc()

    def drop(self, view: ViewDefinition) -> bool:
        """Drop a view's graph, catalog entry, and any quarantine flag."""
        self._entries.pop(view.mask, None)
        self.restored_group_indexes.pop(view.mask, None)
        self._quarantined.pop(view.mask, None)
        return self._dataset.drop(view.iri)

    def drop_all(self) -> None:
        for entry in list(self._entries.values()):
            self.drop(entry.definition)

    # -- lookup ---------------------------------------------------------------

    def get(self, view: ViewDefinition) -> MaterializedView | None:
        return self._entries.get(view.mask)

    def graph_of(self, view: ViewDefinition) -> Graph:
        """The named graph holding a materialized view's triples."""
        graph = self._dataset.get_graph(view.iri)
        if graph is None or view.mask not in self._entries:
            raise ViewError(f"view {view.label!r} is not materialized")
        return graph

    def covering(self, required_mask: int) -> list[MaterializedView]:
        """Materialized views able to answer a query with this mask."""
        return [entry for mask, entry in sorted(self._entries.items())
                if (required_mask & mask) == required_mask]

    # -- maintenance -----------------------------------------------------------

    @property
    def base_version(self) -> int:
        """The base graph's current mutation counter."""
        return self._engine.graph.version

    def note_maintained(self, view: ViewDefinition, *, groups: int,
                        triples: int, nodes: int,
                        seconds: float = 0.0) -> MaterializedView:
        """Record that a view was brought current by incremental patching.

        The entry keeps its original ``build_seconds`` (the full-rebuild
        cost the profiler reasons about) and accumulates patching time in
        ``maintain_seconds``; ``base_version`` snaps to the current base
        graph so the view reads as fresh.
        """
        entry = self._entries.get(view.mask)
        if entry is None:
            raise ViewError(f"view {view.label!r} is not materialized")
        updated = MaterializedView(
            definition=entry.definition,
            groups=groups,
            triples=triples,
            nodes=nodes,
            build_seconds=entry.build_seconds,
            base_version=self._engine.graph.version,
            maintain_seconds=entry.maintain_seconds + seconds,
            maintain_count=entry.maintain_count + 1,
        )
        self._entries[view.mask] = updated
        return updated

    def is_stale(self, view: ViewDefinition) -> bool:
        """True when the base graph changed after this view was built.

        Staleness is conservative: any base mutation marks every view
        stale, even mutations that cannot affect the facet pattern.
        """
        entry = self._entries.get(view.mask)
        if entry is None:
            raise ViewError(f"view {view.label!r} is not materialized")
        return entry.base_version != self._engine.graph.version

    def stale_views(self) -> list[MaterializedView]:
        """All catalog entries whose base graph has moved on."""
        current = self._engine.graph.version
        return [entry for entry in self if entry.base_version != current]

    # -- quarantine (degraded serving) --------------------------------------

    def quarantine(self, view: ViewDefinition, reason: str) -> None:
        """Pull a materialized view from serving until it is rebuilt.

        Quarantined views are skipped by the router exactly like stale
        ones; queries that would have used them fall back to the base
        graph (flagged ``degraded``) and the next maintenance cycle or
        :meth:`refresh_stale` rebuilds them.
        """
        if view.mask not in self._entries:
            raise ViewError(f"view {view.label!r} is not materialized")
        self._quarantined[view.mask] = reason
        # Counter and quarantine map move together: the robustness
        # benchmark cross-checks this count against observed reports.
        _QUARANTINE_EVENTS.inc()
        _LOG.warning("quarantined view %s: %s", view.label, reason)

    def clear_quarantine(self, view: ViewDefinition) -> bool:
        """Return a view to serving; True when it was quarantined."""
        return self._quarantined.pop(view.mask, None) is not None

    def is_quarantined(self, view: ViewDefinition) -> bool:
        return view.mask in self._quarantined

    def quarantine_reason(self, view: ViewDefinition) -> str | None:
        return self._quarantined.get(view.mask)

    def quarantined_views(self) -> list[ViewDefinition]:
        """Definitions of all quarantined views, in mask order."""
        return [self._entries[mask].definition
                for mask in sorted(self._quarantined)
                if mask in self._entries]

    def refresh(self, view: ViewDefinition) -> MaterializedView:
        """Rebuild one view against the current base graph, atomically.

        The rebuild happens *in place* — the view's named graph object is
        cleared and refilled rather than replaced — so query engines and
        any other holders of the graph reference observe the fresh data.
        If the rebuild fails partway, the previous view content and
        catalog entry are restored from an id-space snapshot before the
        error propagates: the catalog never serves a half-built graph.
        A successful rebuild lifts any quarantine on the view.
        """
        entry = self._entries.get(view.mask)
        if entry is None:
            raise ViewError(f"view {view.label!r} is not materialized")
        fail_at("catalog.refresh")
        with _TRACER.span("catalog.refresh", view=view.label):
            refreshed = self._rebuild([entry])
        _REFRESHES.inc()
        return refreshed[0]

    def refresh_stale(self) -> list[MaterializedView]:
        """Rebuild every stale or quarantined view as one batch, atomically.

        Like :meth:`refresh`, but for all pending views at once: one
        shared scan per facet instead of one per view.  Returns the
        refreshed entries; a failed batch leaves the catalog exactly as
        it found it.
        """
        fail_at("catalog.refresh_stale")
        current = self._engine.graph.version
        pending = [entry for entry in self
                   if entry.base_version != current
                   or entry.mask in self._quarantined]
        if not pending:
            return []
        with _TRACER.span("catalog.refresh_stale", views=len(pending)):
            return self._rebuild(pending)

    def _rebuild(self, entries: list[MaterializedView]
                 ) -> list[MaterializedView]:
        """Clear the entries' graphs in place and rebuild them as one
        :meth:`materialize_all` batch, restoring every graph and entry
        from its id-space snapshot if the batch fails.  The rebuild
        mints fresh group nodes, so old restored group indexes are
        dropped (the batch deposits fresh ones); success lifts any
        quarantine."""
        snapshots: list[tuple[MaterializedView, Graph,
                              list[tuple[int, int, int]]]] = []
        for entry in entries:
            graph = self._dataset.graph(entry.definition.iri)
            snapshots.append((entry, graph, graph.snapshot_ids()))
            graph.clear()
            del self._entries[entry.mask]
            self.restored_group_indexes.pop(entry.mask, None)
        try:
            refreshed = self.materialize_all(e.definition for e in entries)
        except BaseException:
            with suppressed():
                for entry, graph, snapshot in snapshots:
                    graph.clear()
                    if snapshot:
                        graph.add_ids_bulk(snapshot)
                    self._entries[entry.mask] = entry
            raise
        for entry in entries:
            self._quarantined.pop(entry.mask, None)
        return refreshed

    # -- storage accounting -------------------------------------------------------

    @property
    def total_triples(self) -> int:
        """Extra triples stored by all materialized views together."""
        return sum(entry.triples for entry in self._entries.values())

    @property
    def total_build_seconds(self) -> float:
        return sum(entry.build_seconds for entry in self._entries.values())

    def storage_amplification(self) -> float:
        """|G+| / |G| — the space-amplification shown in the demo GUI."""
        base = len(self._dataset.default)
        if base == 0:
            return 0.0
        return (base + self.total_triples) / base

    def __repr__(self) -> str:
        labels = ", ".join(e.label for e in self)
        return f"<ViewCatalog [{labels}] {self.total_triples} extra triples>"
