"""The Sofos facade: the whole system behind one object.

    sofos = Sofos(graph, facet)
    selection, catalog = sofos.select_and_materialize("agg_values", k=2)
    answer = sofos.answer(query)                      # uses the views
    report = sofos.compare_cost_models(k=2)           # the headline demo

``Sofos`` wires the offline module (lattice profiling, selection,
materialization) to the online module (routing, rewriting, measured
execution) over a single expanded dataset, and implements the demo's
cost-model comparison loop.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ReproError
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cost.base import CostModel, create_model
from ..cost.profiler import LatticeProfile
from ..selection.greedy import GreedySelector
from ..selection.plans import SelectionResult
from ..views.catalog import ViewCatalog
from ..views.maintenance import MAINTENANCE_POLICIES, MaintenanceReport, \
    ViewMaintainer, ViewMaintenance
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from .metrics import Timer, WorkloadRun
from .offline import OfflineModule, Selector
from .online import Answer, OnlineModule
from .report import ComparisonReport, ComparisonRow

__all__ = ["Sofos", "DEFAULT_MODELS"]

#: The automatic cost models compared by default (the paper's models 1-5;
#: model 6 — user defined — needs a human and joins via ``UserSelection``).
DEFAULT_MODELS = ("random", "triples", "agg_values", "nodes", "learned")


class Sofos:
    """Materialized-view selection and comparison over one facet."""

    def __init__(self, graph: Graph | Dataset, facet: AnalyticalFacet,
                 seed: int = 0, maintenance: str = "rebuild") -> None:
        if maintenance not in MAINTENANCE_POLICIES:
            raise ReproError(
                f"unknown maintenance policy {maintenance!r}; expected one "
                "of " + ", ".join(MAINTENANCE_POLICIES))
        if isinstance(graph, Dataset):
            self._dataset = graph
        else:
            self._dataset = Dataset.wrap(graph)
        self._facet = facet
        self._seed = seed
        self._maintenance = maintenance
        self._offline = OfflineModule(self._dataset, facet)
        self._catalog: ViewCatalog | None = None
        self._online: OnlineModule | None = None
        self._maintainer: ViewMaintainer | None = None

    # -- introspection ------------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def facet(self) -> AnalyticalFacet:
        return self._facet

    @property
    def offline(self) -> OfflineModule:
        return self._offline

    @property
    def lattice(self) -> ViewLattice:
        return self._offline.lattice

    @property
    def catalog(self) -> ViewCatalog | None:
        """The current materialized views (None before materialization)."""
        return self._catalog

    @property
    def maintenance_policy(self) -> str:
        """How stale views are reconciled (rebuild|incremental|deferred)."""
        return self._maintenance

    @property
    def maintainer(self) -> ViewMaintainer | None:
        """The incremental maintainer (None under the rebuild policy)."""
        return self._maintainer

    def profile(self) -> LatticeProfile:
        """Full-lattice statistics (computed once, cached)."""
        return self._offline.profile()

    # -- offline ---------------------------------------------------------------

    def _resolve_model(self, model: str | CostModel) -> CostModel:
        if isinstance(model, CostModel):
            return model
        return create_model(model)

    def select(self, model: str | CostModel = "agg_values", k: int = 2,
               workload: Sequence[AnalyticalQuery] | None = None,
               selector: Selector | None = None) -> SelectionResult:
        """Choose k views (greedy under ``model`` unless a selector is given)."""
        if selector is None:
            selector = GreedySelector(self._resolve_model(model),
                                      seed=self._seed)
        return self._offline.select(selector, k, workload)

    def materialize(self, selection: SelectionResult) -> ViewCatalog:
        """Materialize a selection, replacing any current views.

        Under the ``incremental`` and ``deferred`` policies a
        :class:`ViewMaintainer` is attached to the fresh catalog, so
        subsequent base-graph updates are captured as deltas from the
        moment the views are built.
        """
        self.drop_views()
        catalog = self._offline.materialize(selection)
        self._catalog = catalog
        if self._maintenance != "rebuild":
            self._maintainer = ViewMaintainer(catalog)
        self._online = OnlineModule(catalog, maintainer=self._maintainer,
                                    policy=self._maintenance)
        return catalog

    def select_and_materialize(self, model: str | CostModel = "agg_values",
                               k: int = 2,
                               workload: Sequence[AnalyticalQuery] |
                               None = None
                               ) -> tuple[SelectionResult, ViewCatalog]:
        selection = self.select(model, k, workload)
        catalog = self.materialize(selection)
        return selection, catalog

    def refresh_views(self) -> list:
        """Rebuild any materialized views made stale by base-graph updates."""
        if self._catalog is None:
            return []
        return self._catalog.refresh_stale()

    def maintain(self) -> MaintenanceReport:
        """Reconcile stale views according to the maintenance policy.

        Under ``incremental``/``deferred`` the maintainer drains the
        change log and patches (falling back to rebuilds when a window is
        not incrementalizable); under ``rebuild`` every stale view is
        re-materialized.  Either way the returned report itemizes what
        happened to each view.
        """
        if self._maintainer is not None:
            return self._maintainer.synchronize()
        report = MaintenanceReport()
        if self._catalog is None:
            return report
        version = self._catalog.base_version
        report.from_version = report.to_version = version
        # One plan-driven batch: stale views of a facet share a single
        # base scan instead of re-evaluating the query per view.
        for entry in self._catalog.refresh_stale():
            report.views.append(ViewMaintenance(
                label=entry.label, action="rebuilt",
                seconds=entry.build_seconds, reason="rebuild policy"))
        return report

    def audit(self, *, sample_groups: int | None = None,
              quarantine: bool = True):
        """Cross-check every view against recomputed ground truth.

        Runs a :class:`~repro.resilience.audit.ConsistencyAuditor` over
        the catalog: each fresh view's graph is compared with a recomputed
        aggregation of the current base graph (all groups, or a seeded
        sample of ``sample_groups``) and with the maintainer's cached
        group index.  Corrupt views are quarantined (unless
        ``quarantine=False``) so routing degrades to the base graph until
        :meth:`maintain` or :meth:`refresh_views` rebuilds them.  Returns
        the :class:`~repro.resilience.audit.AuditReport`.
        """
        if self._catalog is None:
            raise ReproError(
                "no views are materialized; nothing to audit")
        from ..resilience.audit import ConsistencyAuditor
        auditor = ConsistencyAuditor(self._catalog, self._maintainer,
                                     sample_groups=sample_groups,
                                     seed=self._seed)
        return auditor.audit(quarantine=quarantine)

    def memory_report(self) -> dict[str, int]:
        """Estimated bytes per graph of the expanded dataset (G and views)."""
        from ..rdf.memory import dataset_memory_report
        return dataset_memory_report(self._dataset)

    def drop_views(self) -> None:
        """Drop all materialized views (back to the bare graph G)."""
        if self._maintainer is not None:
            self._maintainer.close()
            self._maintainer = None
        if self._catalog is not None:
            self._catalog.drop_all()
        self._catalog = None
        self._online = None

    # -- online ------------------------------------------------------------------

    def _require_online(self) -> OnlineModule:
        if self._online is None:
            raise ReproError(
                "no views are materialized; call select_and_materialize() "
                "first (or use answer_from_base)")
        return self._online

    def answer(self, query: AnalyticalQuery) -> Answer:
        """Answer a query using the materialized views when possible."""
        return self._require_online().answer(query)

    @property
    def obs(self):
        """The process-global :class:`~repro.obs.ObservabilityHub`.

        ``sofos.obs.enable()`` switches on metrics + span collection;
        ``sofos.obs.snapshot()`` returns the combined dump rendered in
        the console's observability panel.
        """
        from ..obs import hub
        return hub()

    def explain(self, query: AnalyticalQuery | str):
        """EXPLAIN ANALYZE one query, including the routing decision.

        Accepts an :class:`AnalyticalQuery` or raw SPARQL text (matched
        against this facet the same way :meth:`answer_sparql` does).
        The query executes for real; the returned
        :class:`~repro.obs.explain.RoutedExplain` reports which view
        answered (or why the base graph did), candidate/quarantined
        views, rewrite cost, and per-operator wall time and row counts.
        """
        from ..obs.explain import RoutedExplain

        if isinstance(query, str):
            from ..views.analyzer import analyze_query
            engine = self._offline.engine
            prepared = engine.prepare(query)
            ast = prepared.ast
            analytical = analyze_query(ast, self._facet) \
                if self._online is not None else None
            if analytical is None:
                plan = engine.explain(prepared)
                return RoutedExplain(
                    query=ast.text or "<sparql>", route="base",
                    why="query does not target the facet"
                    if self._online is not None
                    else "no views are materialized",
                    view=None, candidates=[], quarantined=[],
                    rewrite_seconds=0.0, plan=plan)
            query = analytical
        if self._online is not None:
            return self._online.explain(query)
        plan = self._offline.engine.explain(query.to_select_query())
        return RoutedExplain(
            query=query.describe(), route="base",
            why="no views are materialized", view=None, candidates=[],
            quarantined=[], rewrite_seconds=0.0, plan=plan)

    def answer_from_base(self, query: AnalyticalQuery) -> Answer:
        """Answer a query directly on G, ignoring any views."""
        if self._online is not None:
            return self._online.answer_from_base(query)
        return OnlineModule(ViewCatalog(self._dataset,
                                        self._offline.engine)
                            ).answer_from_base(query)

    def run_workload(self, queries: Sequence[AnalyticalQuery],
                     force_base: bool = False) -> WorkloadRun:
        if force_base and self._online is None:
            module = OnlineModule(ViewCatalog(self._dataset,
                                              self._offline.engine))
            return module.run_workload(queries, force_base=True)
        return self._require_online().run_workload(queries,
                                                   force_base=force_base)

    def answer_sparql(self, query_text: str) -> Answer:
        """Answer raw SPARQL, routing through views when the query targets
        this facet (paper §3.2: "given any query Q targeting F").

        The query is recognized via :func:`repro.views.analyzer.analyze_query`;
        on a match it is answered from the best materialized view (with the
        measure column renamed back to the query's own alias), otherwise it
        executes directly on the base graph.  The text is compiled through
        the base engine's prepared-query memo, so repeated texts skip the
        parse (the shared AST is only read).
        """
        from ..sparql.ast import AggregateExpr
        from ..views.analyzer import analyze_query
        from .metrics import QueryOutcome

        engine = self._offline.engine
        prepared = engine.prepare(query_text)
        ast = prepared.ast
        analytical = analyze_query(ast, self._facet) \
            if self._online is not None else None
        if analytical is None:
            table, seconds = engine.timed_query(prepared)
            outcome = QueryOutcome(query=analytical, rows=len(table),
                                   seconds=seconds, view_label=None)
            return Answer(table=table, outcome=outcome)

        answer = self._online.answer(analytical)
        # restore the caller's aggregate alias on the measure column
        for item in ast.projection:
            if item.expression is not None and isinstance(
                    item.expression, AggregateExpr):
                table = answer.table
                table.variables = [
                    item.var if v == self._facet.measure_alias else v
                    for v in table.variables]
                break
        return answer

    def generate_workload(self, size: int = 50,
                          config: WorkloadConfig | None = None
                          ) -> list[AnalyticalQuery]:
        """A deterministic random workload over this facet."""
        if config is None:
            config = WorkloadConfig(size=size, seed=self._seed)
        generator = WorkloadGenerator(self._facet, self._offline.engine,
                                      config)
        return generator.generate(size)

    # -- the headline comparison ---------------------------------------------------

    def compare_cost_models(self, models: Sequence[str | CostModel] =
                            DEFAULT_MODELS, k: int = 2,
                            workload: Sequence[AnalyticalQuery] | None = None,
                            dataset_name: str = "?",
                            selection_workload: Sequence[AnalyticalQuery] |
                            None = None,
                            extra_selectors: Sequence[tuple[str, Selector]] |
                            None = None) -> ComparisonReport:
        """Run the demo's cost-model comparison end to end.

        For every model: select k views greedily, materialize them, run the
        workload over G+, measure, drop the views — then report everything
        against the no-views baseline.  ``selection_workload`` (default:
        the lattice proxy) is what drives selection; ``workload`` (default:
        a generated 50-query workload) is what gets executed.

        ``extra_selectors`` adds labelled non-greedy contenders — most
        importantly the paper's model (6): pass
        ``[("user", UserSelection([...]))]`` to put a human selection in
        the same table as the automatic cost models.
        """
        if workload is None:
            workload = self.generate_workload()
        base_run = self.run_workload(workload, force_base=True)
        report = ComparisonReport(
            dataset=dataset_name,
            facet=self._facet.name,
            k=k,
            workload_size=len(workload),
            base_workload_seconds=base_run.total_seconds,
        )
        base_triples = len(self._dataset.default)
        for model_spec in models:
            model = self._resolve_model(model_spec)
            selection = self.select(model, k, selection_workload)
            with Timer() as materialize_timer:
                catalog = self.materialize(selection)
            run = self.run_workload(workload)
            speedup = (base_run.total_seconds / run.total_seconds
                       if run.total_seconds > 0 else float("inf"))
            report.add(ComparisonRow(
                model=model.describe(),
                selected_views=tuple(selection.labels),
                select_seconds=selection.select_seconds,
                materialize_seconds=materialize_timer.seconds,
                storage_triples=catalog.total_triples,
                storage_amplification=(
                    (base_triples + catalog.total_triples) / base_triples
                    if base_triples else 0.0),
                workload_seconds=run.total_seconds,
                mean_query_seconds=run.mean_seconds,
                hit_rate=run.hit_rate,
                speedup_vs_base=speedup,
            ))
            self.drop_views()
        for label, selector in (extra_selectors or ()):
            selection = self._offline.select(selector, k,
                                             selection_workload)
            with Timer() as materialize_timer:
                catalog = self.materialize(selection)
            run = self.run_workload(workload)
            speedup = (base_run.total_seconds / run.total_seconds
                       if run.total_seconds > 0 else float("inf"))
            report.add(ComparisonRow(
                model=label,
                selected_views=tuple(selection.labels),
                select_seconds=selection.select_seconds,
                materialize_seconds=materialize_timer.seconds,
                storage_triples=catalog.total_triples,
                storage_amplification=(
                    (base_triples + catalog.total_triples) / base_triples
                    if base_triples else 0.0),
                workload_seconds=run.total_seconds,
                mean_query_seconds=run.mean_seconds,
                hit_rate=run.hit_rate,
                speedup_vs_base=speedup,
            ))
            self.drop_views()
        return report
