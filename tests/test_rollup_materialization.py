"""Rollup materialization: parity, planning, batching, and seeding.

The contract under test: a view built by the shared-scan rollup path
(``ViewCatalog.materialize_all`` → group table → ``project`` →
``materialize_view_from_table``) is **triple-for-triple identical** — up
to blank-node labels — to one built alone (``materialize``, a one-view
batch scanning at the view's own grain), and both agree with the seed
tuple-at-a-time :class:`ReferenceExecutor` running the view's
materialization query.  Around that core: the lattice's
cheapest-ancestor planner, batch atomicity (rollback on mid-batch
failure), iterable acceptance, group-index seeding of incremental
maintenance, and the router's upkeep-history tie-break.
"""

from __future__ import annotations

import pytest

from repro.cube import AnalyticalFacet, AnalyticalQuery, ViewLattice
from repro.cube.lattice import RollupPlan
from repro.errors import CubeError, ViewError
from repro.rdf import Dataset, Graph, Namespace, parse_turtle
from repro.rdf.namespace import SOFOS
from repro.sparql import PreparedQuery, ReferenceExecutor
from repro.views import ViewCatalog, ViewMaintainer, ViewRouter, \
    dimension_predicate
from repro.views.catalog import MaterializedView

EX = Namespace("http://example.org/")

#: Observations over two dimensions; obs9 has no measure value, so the
#: OPTIONAL-pattern facets exercise unbound-operand (poison) semantics.
AGG_TTL = """
@prefix ex: <http://example.org/> .

ex:obs1 ex:a ex:a1 ; ex:b ex:b1 ; ex:v 4 .
ex:obs2 ex:a ex:a1 ; ex:b ex:b1 ; ex:v 7 .
ex:obs3 ex:a ex:a1 ; ex:b ex:b2 ; ex:v 1 .
ex:obs4 ex:a ex:a2 ; ex:b ex:b1 ; ex:v 9 .
ex:obs5 ex:a ex:a2 ; ex:b ex:b2 ; ex:v 2 .
ex:obs6 ex:a ex:a2 ; ex:b ex:b2 ; ex:v 2 .
ex:obs7 ex:a ex:a3 ; ex:b ex:b1 ; ex:v 5 .
ex:obs8 ex:a ex:a3 ; ex:b ex:b2 ; ex:v 3 .
ex:obs9 ex:a ex:a3 ; ex:b ex:b2 .
"""

AGGREGATES = ("SUM", "COUNT", "AVG", "MIN", "MAX")

BGP_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b ; ex:v ?v .
}} GROUP BY ?a ?b
"""

OPTIONAL_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b .
  OPTIONAL {{ ?o ex:v ?v }}
}} GROUP BY ?a ?b
"""

#: An expression operand over the OPTIONAL data: obs9's unbound ?v makes
#: the expression error, which the aggregate must treat like SPARQL does.
EXPRESSION_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v * 2) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b .
  OPTIONAL {{ ?o ex:v ?v }}
}} GROUP BY ?a ?b
"""


def agg_facet(agg: str, template: str = BGP_TEMPLATE) -> AnalyticalFacet:
    return AnalyticalFacet.from_query(f"agg_{agg.lower()}",
                                      template.format(agg=agg))


def group_signatures(graph: Graph) -> dict:
    """Multiset of per-node (p, o) term signatures — bnode-label-free."""
    by_node: dict = {}
    for t in graph:
        by_node.setdefault(t.s, []).append((t.p, t.o))
    out: dict = {}
    for po in by_node.values():
        key = frozenset(po)
        out[key] = out.get(key, 0) + 1
    return out


def reference_signatures(view, graph: Graph) -> dict:
    """The §3.1 encoding the seed executor implies for one view."""
    from repro.cube.view import COUNT_VAR, MEASURE_VAR, SUM_VAR
    from repro.rdf.terms import typed_literal

    is_avg = view.facet.aggregate.name == "AVG"
    value_var = SUM_VAR if is_avg else MEASURE_VAR
    value_pred = SOFOS.sum if is_avg else SOFOS.measure
    prepared = PreparedQuery(view.materialization_query())
    out: dict = {}
    for binding in ReferenceExecutor(graph).run(prepared.plan):
        pairs = [(SOFOS.view, view.iri)]
        for var in view.variables:
            value = binding.get(var)
            if value is not None:
                pairs.append((dimension_predicate(var), value))
        measure = binding.get(value_var)
        if measure is not None:
            pairs.append((value_pred, measure))
        count = binding.get(COUNT_VAR)
        pairs.append((SOFOS.groupCount,
                      count if count is not None else typed_literal(0)))
        key = frozenset(pairs)
        out[key] = out.get(key, 0) + 1
    return out


def build_both(graph: Graph, facet: AnalyticalFacet):
    """(whole-lattice batch catalog, one-view-at-a-time catalog, lattice)
    over copies of a graph."""
    lattice = ViewLattice(facet)
    rolled = ViewCatalog(Dataset.wrap(graph.copy()))
    direct = ViewCatalog(Dataset.wrap(graph.copy()))
    rolled.materialize_all(lattice)
    for view in lattice:
        direct.materialize(view)
    return rolled, direct, lattice


class TestRollupParity:
    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("template", [BGP_TEMPLATE, OPTIONAL_TEMPLATE,
                                          EXPRESSION_TEMPLATE],
                             ids=["bgp", "optional", "expression"])
    def test_all_aggregates_match_direct_and_reference(self, agg, template):
        graph = parse_turtle(AGG_TTL)
        facet = agg_facet(agg, template)
        rolled, direct, lattice = build_both(graph, facet)
        for view in lattice:
            got = group_signatures(rolled.graph_of(view))
            assert got == group_signatures(direct.graph_of(view)), view.label
            assert got == reference_signatures(view, graph), view.label

    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_entries_match_direct(self, agg):
        graph = parse_turtle(AGG_TTL)
        rolled, direct, lattice = build_both(graph, agg_facet(agg))
        for view in lattice:
            a, b = rolled.get(view), direct.get(view)
            assert (a.groups, a.triples, a.nodes) == \
                   (b.groups, b.triples, b.nodes), view.label

    def test_avg_views_store_sum_and_bound_count(self):
        """AVG's algebraic (sum, count) split survives the rollup path —
        the count is the *bound-operand* count, not the row count."""
        graph = parse_turtle(AGG_TTL)
        facet = agg_facet("AVG", OPTIONAL_TEMPLATE)
        rolled, direct, lattice = build_both(graph, facet)
        finest_graph = rolled.graph_of(lattice.finest)
        preds = {t.p for t in finest_graph}
        assert SOFOS.sum in preds and SOFOS.measure not in preds
        # obs9 has no ?v: its (a3, b2) group is poisoned — no sofos:sum
        # triple — so of the 6 finest groups exactly 5 store a sum.
        assert sum(1 for t in finest_graph if t.p == SOFOS.sum) == 5
        # The apex merges the poison, storing no sum at all; its
        # groupCount is still the bound-operand count, mirroring
        # COUNT(?v) = 8 of 9 rows.
        apex_graph = rolled.graph_of(lattice.apex)
        assert SOFOS.sum not in {t.p for t in apex_graph}
        counts = [t.o for t in apex_graph if t.p == SOFOS.groupCount]
        assert [c.to_python() for c in counts] == [8]

    @pytest.mark.parametrize("name", ["dbpedia", "lubm", "swdf"])
    def test_datasets_all_facets(self, name, request):
        loaded = request.getfixturevalue(f"tiny_{name}")
        for facet_name in sorted(loaded.facets):
            facet = loaded.facets[facet_name]
            rolled, direct, lattice = build_both(loaded.graph, facet)
            for view in lattice:
                got = group_signatures(rolled.graph_of(view))
                assert got == group_signatures(direct.graph_of(view)), \
                    (facet_name, view.label)
                assert got == reference_signatures(view, loaded.graph), \
                    (facet_name, view.label)

    def test_empty_graph_apex_encoding(self, population_facet):
        rolled, direct, lattice = build_both(Graph(), population_facet)
        for view in lattice:
            assert group_signatures(rolled.graph_of(view)) == \
                group_signatures(direct.graph_of(view)), view.label
        # the apex keeps its implicit zero group even over no data
        assert rolled.get(lattice.apex).groups == 1


class TestRollupPlan:
    def test_full_lattice_plan_builds_finest_first(self):
        plan = ViewLattice.rollup_plan(range(8))
        assert isinstance(plan, RollupPlan)
        assert plan.table_mask == 7
        assert [s.mask for s in plan.steps] == [7, 3, 5, 6, 1, 2, 4, 0]
        # the finest view encodes straight off the shared table
        assert plan.steps[0].source == 7

    def test_sources_are_cheapest_covering_ancestors(self):
        plan = ViewLattice.rollup_plan([0b110, 0b100, 0b011])
        by_mask = {s.mask: s.source for s in plan.steps}
        assert plan.table_mask == 0b111
        # 0b100 rolls up from the 2-dim batch member covering it, not
        # from the 3-dim union table
        assert by_mask[0b100] == 0b110
        assert by_mask[0b110] == 0b111
        assert by_mask[0b011] == 0b111

    def test_duplicate_masks_collapse(self):
        plan = ViewLattice.rollup_plan([1, 1, 2])
        assert sorted(s.mask for s in plan.steps) == [1, 2]

    def test_cheapest_source_prefers_actual_sizes(self):
        # popcount says mask 3 (2 dims); real sizes say mask 5 is smaller
        assert ViewLattice.cheapest_source(1, [3, 5, 7]) == 3
        assert ViewLattice.cheapest_source(
            1, [3, 5, 7], sizes={3: 40, 5: 10, 7: 90}) == 5

    def test_cheapest_source_requires_cover(self):
        with pytest.raises(CubeError):
            ViewLattice.cheapest_source(0b100, [0b011, 0b010])


class TestMaterializeAllBatch:
    def test_accepts_any_iterable_in_input_order(self, population_graph,
                                                 population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        views = [lattice.apex, lattice.finest, lattice[1]]
        entries = catalog.materialize_all(iter(views))
        assert [e.mask for e in entries] == [v.mask for v in views]
        assert len(catalog) == 3

    def test_failed_batch_rolls_back_everything(self, population_graph,
                                                population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        with pytest.raises(ViewError):
            catalog.materialize_all([lattice.finest, lattice.apex,
                                     lattice.finest])
        assert len(catalog) == 0
        assert lattice.finest.iri not in catalog.dataset
        assert catalog.restored_group_indexes == {}

    def test_mid_batch_failure_drops_built_views(self, population_graph,
                                                 population_facet,
                                                 monkeypatch):
        import repro.views.catalog as catalog_module
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        real = catalog_module.materialize_view_from_table
        calls = []

        def explode_on_second(view, engine, target, table):
            calls.append(view.label)
            if len(calls) == 2:
                raise RuntimeError("disk full")
            return real(view, engine, target, table)

        monkeypatch.setattr(catalog_module, "materialize_view_from_table",
                            explode_on_second)
        with pytest.raises(RuntimeError):
            catalog.materialize_all(lattice)
        assert len(calls) == 2
        assert len(catalog) == 0
        for view in lattice:
            assert view.iri not in catalog.dataset

    def test_refresh_stale_batches_and_seeds_indexes(self, population_facet):
        from repro.rdf import Triple, typed_literal
        from repro.views.maintenance import GroupIndex
        graph = parse_turtle(AGG_TTL)  # unrelated shape is fine
        graph = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:obs1 ex:ofCountry ex:fr ; ex:year 2019 ; ex:population 7 .\n"
            "ex:fr ex:language ex:french .\n")
        catalog = ViewCatalog(Dataset.wrap(graph))
        lattice = ViewLattice(population_facet)
        catalog.materialize_all(lattice)
        held = {v.mask: catalog.graph_of(v) for v in lattice}
        graph.add(Triple(EX.obs2, EX.ofCountry, EX.fr))
        graph.add(Triple(EX.obs2, EX.year, typed_literal(2020)))
        graph.add(Triple(EX.obs2, EX.population, typed_literal(9)))
        refreshed = catalog.refresh_stale()
        assert {e.mask for e in refreshed} == {v.mask for v in lattice}
        for view in lattice:
            # in-place rebuild: previously held graph objects see the data
            assert catalog.graph_of(view) is held[view.mask]
            assert not catalog.is_stale(view)
            index = catalog.restored_group_indexes[view.mask]
            assert isinstance(index, GroupIndex)
            assert len(index) == catalog.get(view).groups


class TestMaintainerSeeding:
    def test_maintainer_adopts_deposited_indexes(self, population_facet):
        from repro.rdf import Triple, typed_literal
        graph = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:obs1 ex:ofCountry ex:fr ; ex:year 2019 ; ex:population 7 .\n"
            "ex:obs2 ex:ofCountry ex:de ; ex:year 2019 ; ex:population 5 .\n"
            "ex:fr ex:language ex:french .\n"
            "ex:de ex:language ex:german .\n")
        shadow = graph.copy()
        catalog = ViewCatalog(Dataset.wrap(graph))
        rebuild = ViewCatalog(Dataset.wrap(shadow))
        lattice = ViewLattice(population_facet)
        catalog.materialize_all(lattice)
        for view in lattice:
            rebuild.materialize(view)
        deposited = dict(catalog.restored_group_indexes)
        assert set(deposited) == {v.mask for v in lattice}

        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        # adoption consumed the deposits: no per-view graph scan needed
        assert catalog.restored_group_indexes == {}
        for view in lattice:
            assert maintainer.group_index(view) is deposited[view.mask]

        update = [Triple(EX.obs3, EX.ofCountry, EX.fr),
                  Triple(EX.obs3, EX.year, typed_literal(2020)),
                  Triple(EX.obs3, EX.population, typed_literal(11))]
        graph.update(update)
        shadow.update(update)
        report = maintainer.synchronize()
        assert len(report.patched) == len(lattice)
        assert not report.rebuilt
        for view in lattice:
            rebuild.refresh(view)
            assert group_signatures(catalog.graph_of(view)) == \
                group_signatures(rebuild.graph_of(view)), view.label


    def test_patch_after_fallback_rebuild_needs_no_rescan(
            self, population_facet, monkeypatch):
        """A maintainer's fallback rebuild (``catalog.refresh``) deposits
        the rebuilt view's group index, so the next window patches
        without ever scanning a view graph."""
        from repro.rdf import Triple, typed_literal
        from repro.views.maintenance import GroupIndex
        graph = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:obs1 ex:ofCountry ex:fr ; ex:year 2019 ; ex:population 7 .\n"
            "ex:fr ex:language ex:french .\n"
            "ex:de ex:language ex:german .\n")
        shadow = graph.copy()
        catalog = ViewCatalog(Dataset.wrap(graph))
        rebuild = ViewCatalog(Dataset.wrap(shadow))
        lattice = ViewLattice(population_facet)
        catalog.materialize_all(lattice)
        rebuild.materialize_all(lattice)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)

        first = [Triple(EX.obs2, EX.ofCountry, EX.de),
                 Triple(EX.obs2, EX.year, typed_literal(2019)),
                 Triple(EX.obs2, EX.population, typed_literal(5))]
        graph.update(first)
        shadow.update(first)
        report = maintainer.synchronize(force_rebuild=True)
        assert len(report.rebuilt) == len(lattice)

        def no_scan(*args, **kwargs):
            raise AssertionError("view graph re-scanned")

        monkeypatch.setattr(GroupIndex, "from_graph", no_scan)
        second = [Triple(EX.obs3, EX.ofCountry, EX.fr),
                  Triple(EX.obs3, EX.year, typed_literal(2020)),
                  Triple(EX.obs3, EX.population, typed_literal(11))]
        graph.update(second)
        shadow.update(second)
        report = maintainer.synchronize()
        assert len(report.patched) == len(lattice)
        assert not report.rebuilt
        rebuild.refresh_stale()
        for view in lattice:
            assert group_signatures(catalog.graph_of(view)) == \
                group_signatures(rebuild.graph_of(view)), view.label


class TestRouterUpkeepTieBreak:
    @staticmethod
    def _entry(view, groups, build_seconds, maintain_seconds=0.0,
               maintain_count=0):
        return MaterializedView(
            definition=view, groups=groups, triples=groups * 4,
            nodes=groups, build_seconds=build_seconds, base_version=0,
            maintain_seconds=maintain_seconds,
            maintain_count=maintain_count)

    def test_equal_rank_prefers_cheaper_upkeep_history(
            self, population_graph, population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        low_mask, high_mask = sorted(
            e.mask for e in catalog)  # two covering candidates
        # Force a ranking tie and give the higher-mask view the cheaper
        # maintenance history: it must now win despite mask order.
        catalog._entries[low_mask] = self._entry(
            lattice[low_mask], groups=10, build_seconds=0.5)
        catalog._entries[high_mask] = self._entry(
            lattice[high_mask], groups=10, build_seconds=0.9,
            maintain_seconds=0.01, maintain_count=1)
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == high_mask

    def test_history_is_per_window_mean_not_total(self, population_graph,
                                                  population_facet):
        """200 cheap patch windows must not lose to one modest build."""
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        low_mask, high_mask = sorted(e.mask for e in catalog)
        catalog._entries[low_mask] = self._entry(
            lattice[low_mask], groups=10, build_seconds=0.05)
        catalog._entries[high_mask] = self._entry(
            lattice[high_mask], groups=10, build_seconds=0.9,
            maintain_seconds=0.2, maintain_count=200)  # 1 ms per window
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == high_mask

    def test_mask_still_breaks_exact_ties(self, population_graph,
                                          population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        masks = sorted(e.mask for e in catalog)
        for mask in masks:
            catalog._entries[mask] = self._entry(
                lattice[mask], groups=10, build_seconds=0.5)
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == masks[0]
