"""Analytical facets: the ⟨X, P, agg(u)⟩ triples that induce view lattices.

A facet (paper §3) has the shape of an analytical query — grouping
variables X, a graph pattern P, and an aggregation agg(u) — and determines
which part of the graph is the target of analytical queries.  The library
builds facets by parsing an ordinary SPARQL template, so a facet is
declared exactly the way the demo's "query facet" templates are shown to
participants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import FacetError
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Variable
from ..sparql.ast import AggregateExpr, BindElement, GroupPattern, \
    ProjectionItem, SelectQuery, VarExpr
from ..sparql.parser import parse_query

__all__ = ["AnalyticalFacet", "OPERAND_VAR", "ROLLUP_AGGREGATES"]

#: Facet aggregates that can be re-aggregated from materialized groups.
#: SUM/COUNT/MIN/MAX are distributive; AVG is algebraic and handled by
#: materializing (SUM, COUNT) pairs.  DISTINCT aggregates are holistic and
#: rejected.
ROLLUP_AGGREGATES = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})

#: Reserved variable an expression operand (``SUM(?v * 2)``) is bound to
#: in :meth:`AnalyticalFacet.binding_query`.
OPERAND_VAR = Variable("__operand")


@dataclass(frozen=True)
class AnalyticalFacet:
    """A facet F = ⟨X, P, agg(u)⟩ over a knowledge graph.

    ``grouping_variables`` keeps the declaration order of X — view subsets,
    bitmask ids, and rendered queries all use this canonical order so every
    run of the system is deterministic.
    """

    name: str
    grouping_variables: tuple[Variable, ...]
    pattern: GroupPattern
    aggregate: AggregateExpr
    measure_alias: Variable
    description: str = ""
    template_text: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.grouping_variables:
            raise FacetError(f"facet {self.name!r} needs grouping variables")
        if len(set(self.grouping_variables)) != len(self.grouping_variables):
            raise FacetError(f"facet {self.name!r} has duplicate grouping "
                             "variables")
        agg = self.aggregate
        if agg.name not in ROLLUP_AGGREGATES:
            raise FacetError(
                f"facet {self.name!r}: aggregate {agg.name} cannot be "
                "materialized (supported: " + ", ".join(sorted(
                    ROLLUP_AGGREGATES)) + ")")
        if agg.distinct:
            raise FacetError(
                f"facet {self.name!r}: DISTINCT aggregates are holistic and "
                "cannot be rolled up from materialized views")
        pattern_vars = self.pattern.variables()
        if OPERAND_VAR in pattern_vars:
            raise FacetError(
                f"facet {self.name!r}: ?{OPERAND_VAR.name} is reserved")
        for var in self.grouping_variables:
            if var not in pattern_vars:
                raise FacetError(
                    f"facet {self.name!r}: grouping variable ?{var.name} "
                    "does not occur in the pattern")
        if agg.operand is not None:
            for var in agg.operand.variables():
                if var not in pattern_vars:
                    raise FacetError(
                        f"facet {self.name!r}: measured variable ?{var.name} "
                        "does not occur in the pattern")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_query(cls, name: str, query_text: str,
                   prefixes: PrefixMap | None = None,
                   description: str = "") -> "AnalyticalFacet":
        """Build a facet from an analytical SPARQL template.

        The template must have the paper's canonical shape::

            SELECT ?x1 ... ?xn (AGG(?u) AS ?m) WHERE { P } GROUP BY ?x1 ... ?xn
        """
        ast = parse_query(query_text, prefixes)
        return cls.from_ast(name, ast, description)

    @classmethod
    def from_ast(cls, name: str, ast: SelectQuery,
                 description: str = "") -> "AnalyticalFacet":
        if not ast.group_by:
            raise FacetError(
                f"facet {name!r}: template must have a GROUP BY clause")
        aggregates: list[tuple[Variable, AggregateExpr]] = []
        for item in ast.projection:
            if item.expression is None:
                continue
            aggs = item.expression.aggregates()
            if not aggs:
                raise FacetError(
                    f"facet {name!r}: projection expression for "
                    f"?{item.var.name} must be a single aggregate")
            if len(aggs) != 1 or aggs[0] is not item.expression:
                raise FacetError(
                    f"facet {name!r}: composite aggregate expressions are "
                    "not supported in facet templates")
            aggregates.append((item.var, aggs[0]))
        if len(aggregates) != 1:
            raise FacetError(
                f"facet {name!r}: template must have exactly one aggregate, "
                f"found {len(aggregates)}")
        alias, aggregate = aggregates[0]
        return cls(
            name=name,
            grouping_variables=ast.group_by,
            pattern=ast.where,
            aggregate=aggregate,
            measure_alias=alias,
            description=description,
            template_text=ast.text,
        )

    # -- derived queries -------------------------------------------------------

    @property
    def dimension_count(self) -> int:
        return len(self.grouping_variables)

    @property
    def lattice_size(self) -> int:
        """Number of views the facet induces (2^|X|)."""
        return 1 << len(self.grouping_variables)

    def variable_index(self, var: Variable) -> int:
        """Position of a grouping variable in the canonical order."""
        try:
            return self.grouping_variables.index(var)
        except ValueError as exc:
            raise FacetError(
                f"?{var.name} is not a grouping variable of facet "
                f"{self.name!r}") from exc

    def subset_mask(self, variables: tuple[Variable, ...] | frozenset[Variable]
                    ) -> int:
        """The bitmask encoding of a subset of X (bit i = i-th variable)."""
        mask = 0
        for var in variables:
            mask |= 1 << self.variable_index(var)
        return mask

    def mask_variables(self, mask: int) -> tuple[Variable, ...]:
        """The canonical-order variable tuple for a bitmask."""
        if mask < 0 or mask >= self.lattice_size:
            raise FacetError(f"mask {mask} out of range for facet "
                             f"{self.name!r}")
        return tuple(v for i, v in enumerate(self.grouping_variables)
                     if mask & (1 << i))

    def template_query(self) -> SelectQuery:
        """The facet itself rendered back as a SELECT query (all of X)."""
        projection = tuple(
            [ProjectionItem(v) for v in self.grouping_variables]
            + [ProjectionItem(self.measure_alias, self.aggregate)])
        return SelectQuery(projection=projection, where=self.pattern,
                           group_by=self.grouping_variables)

    @property
    def operand_variable(self) -> Optional[Variable]:
        """The variable holding the aggregate's operand in
        :meth:`binding_query` rows: None for ``COUNT(*)``, the measured
        variable for a plain operand, :data:`OPERAND_VAR` otherwise."""
        operand = self.aggregate.operand
        if operand is None:
            return None
        if isinstance(operand, VarExpr):
            return operand.var
        return OPERAND_VAR

    def binding_query(self) -> SelectQuery:
        """The *unaggregated* pattern query: one row per binding of P.

        Its cardinality is the base-relation size the cost models compare
        views against, and its projection feeds the dimension-value domains
        used by the workload generator and the operand column the group
        table folds.  An expression operand is evaluated per row by a
        BIND onto :data:`OPERAND_VAR` appended to P (an erroring
        expression leaves it unbound, as the aggregate would skip it).
        """
        pattern = self.pattern
        operand = self.aggregate.operand
        measure_vars: tuple[Variable, ...] = ()
        if operand is not None:
            measure_vars = tuple(sorted(operand.variables()))
            if not isinstance(operand, VarExpr):
                pattern = GroupPattern(
                    pattern.elements + (BindElement(operand, OPERAND_VAR),))
                measure_vars += (OPERAND_VAR,)
        projection = tuple(ProjectionItem(v) for v in
                           tuple(self.grouping_variables) + tuple(
                               v for v in measure_vars
                               if v not in self.grouping_variables))
        return SelectQuery(projection=projection, where=pattern)

    def __repr__(self) -> str:
        dims = ", ".join(f"?{v.name}" for v in self.grouping_variables)
        return (f"<AnalyticalFacet {self.name!r} X=[{dims}] "
                f"agg={self.aggregate.name}>")
