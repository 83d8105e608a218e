"""Unit tests for facets, view definitions, lattices, analytical queries."""

import pytest

from repro.errors import CubeError, FacetError
from repro.cube import AnalyticalFacet, AnalyticalQuery, FilterCondition, \
    ViewDefinition, ViewLattice
from repro.rdf import Variable, typed_literal
from repro.sparql.serializer import query_text

LANG = Variable("lang")
YEAR = Variable("year")


class TestFacetConstruction:
    def test_from_query(self, population_facet):
        assert population_facet.grouping_variables == (LANG, YEAR)
        assert population_facet.aggregate.name == "SUM"
        assert population_facet.measure_alias == Variable("total")
        assert population_facet.dimension_count == 2
        assert population_facet.lattice_size == 4

    def test_requires_group_by(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }""")

    def test_requires_single_aggregate(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT ?s (SUM(?a) AS ?x) (MIN(?a) AS ?y)
                WHERE { ?s <http://x/p> ?a . } GROUP BY ?s""")

    def test_rejects_distinct_aggregate(self):
        with pytest.raises(FacetError) as err:
            AnalyticalFacet.from_query("f", """
                SELECT ?s (COUNT(DISTINCT ?o) AS ?n)
                WHERE { ?s ?p ?o . } GROUP BY ?s""")
        assert "holistic" in str(err.value).lower() or "DISTINCT" in \
            str(err.value)

    def test_rejects_reserved_operand_variable(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT ?s (SUM(?__operand * 2) AS ?x)
                WHERE { ?s <http://x/p> ?__operand . } GROUP BY ?s""")

    def test_rejects_composite_aggregate_expression(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT ?s (SUM(?a) + 1 AS ?x)
                WHERE { ?s <http://x/p> ?a . } GROUP BY ?s""")

    def test_rejects_grouping_var_not_in_pattern(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT ?ghost (SUM(?a) AS ?x)
                WHERE { ?s <http://x/p> ?a . } GROUP BY ?ghost""")

    def test_rejects_sample_aggregate(self):
        with pytest.raises(FacetError):
            AnalyticalFacet.from_query("f", """
                SELECT ?s (SAMPLE(?a) AS ?x)
                WHERE { ?s <http://x/p> ?a . } GROUP BY ?s""")

    def test_mask_round_trip(self, population_facet):
        for mask in range(population_facet.lattice_size):
            variables = population_facet.mask_variables(mask)
            assert population_facet.subset_mask(variables) == mask

    def test_mask_out_of_range(self, population_facet):
        with pytest.raises(FacetError):
            population_facet.mask_variables(99)

    def test_subset_mask_foreign_variable(self, population_facet):
        with pytest.raises(FacetError):
            population_facet.subset_mask((Variable("ghost"),))

    def test_template_query_round_trips(self, population_facet,
                                        population_engine):
        text = query_text(population_facet.template_query())
        table = population_engine.query(text)
        assert len(table) > 0

    def test_binding_query_projects_measure_source(self, population_facet):
        ast = population_facet.binding_query()
        projected = {v.name for v in ast.projected_variables()}
        assert projected == {"lang", "year", "pop"}
        assert not ast.group_by


class TestViewDefinition:
    def test_labels(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert lattice.apex.label == "apex"
        assert lattice.finest.label == "lang+year"
        assert lattice[1].label == "lang"

    def test_levels(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert lattice.apex.level == 0
        assert lattice.finest.level == 2
        assert lattice.apex.is_apex and not lattice.apex.is_finest
        assert lattice.finest.is_finest

    def test_iri_is_stable_and_distinct(self, population_facet):
        lattice = ViewLattice(population_facet)
        iris = {v.iri for v in lattice}
        assert len(iris) == 4
        assert lattice.finest.iri == ViewDefinition(
            population_facet, lattice.finest.mask).iri

    def test_covers(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert lattice.finest.covers(lattice.apex)
        assert lattice.finest.covers(lattice[1])
        assert not lattice[1].covers(lattice[2])
        assert lattice[1].covers(lattice[1])

    def test_materialization_query_sum(self, population_facet,
                                       population_engine):
        view = ViewLattice(population_facet)[1]  # lang
        table = population_engine.query(view.materialization_query())
        assert {v.name for v in table.variables} == \
            {"lang", "__measure", "__count"}

    def test_materialization_query_avg_stores_sum_and_count(
            self, population_avg_facet, population_engine):
        view = ViewLattice(population_avg_facet)[1]
        table = population_engine.query(view.materialization_query())
        assert {v.name for v in table.variables} == \
            {"lang", "__sum", "__count"}

    def test_triples_per_group(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert lattice.apex.triples_per_group() == 3
        assert lattice.finest.triples_per_group() == 5


class TestLattice:
    def test_size_and_order(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert len(lattice) == 4
        assert [v.mask for v in lattice] == [0, 1, 2, 3]

    def test_levels_partition(self, population_facet):
        lattice = ViewLattice(population_facet)
        levels = lattice.levels()
        assert [len(level) for level in levels] == [1, 2, 1]

    def test_parents_children(self, population_facet):
        lattice = ViewLattice(population_facet)
        lang = lattice[1]
        assert [v.mask for v in lattice.parents(lang)] == [3]
        assert [v.mask for v in lattice.children(lang)] == [0]
        assert lattice.parents(lattice.finest) == []
        assert lattice.children(lattice.apex) == []

    def test_ancestors_descendants(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert {v.mask for v in lattice.ancestors(lattice.apex)} == {1, 2, 3}
        assert {v.mask for v in lattice.descendants(lattice.finest)} == \
            {0, 1, 2}

    def test_answerable_by(self, population_facet):
        lattice = ViewLattice(population_facet)
        able = lattice.answerable_by(0b01)
        assert {v.mask for v in able} == {1, 3}

    def test_view_for(self, population_facet):
        lattice = ViewLattice(population_facet)
        assert lattice.view_for((YEAR,)).mask == 0b10

    def test_dimension_safety_limit(self):
        big = AnalyticalFacet.from_query("big", """
            SELECT ?a ?b ?c (COUNT(*) AS ?n) WHERE {
                ?s <http://x/p> ?a ; <http://x/q> ?b ; <http://x/r> ?c .
            } GROUP BY ?a ?b ?c""")
        with pytest.raises(CubeError):
            ViewLattice(big, max_dimensions=2)


class TestAnalyticalQuery:
    def test_masks(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b01,
            (FilterCondition(YEAR, "=", typed_literal(2019)),))
        assert q.group_mask == 0b01
        assert q.filter_mask == 0b10
        assert q.required_mask == 0b11
        assert q.group_variables == (LANG,)

    def test_filter_var_must_belong_to_facet(self, population_facet):
        with pytest.raises(FacetError):
            AnalyticalQuery(
                population_facet, 0,
                (FilterCondition(Variable("ghost"), "=",
                                 typed_literal(1)),))

    def test_invalid_operator(self, population_facet):
        with pytest.raises(FacetError):
            FilterCondition(YEAR, "~", typed_literal(1))

    def test_to_select_query_executes(self, population_facet,
                                      population_engine):
        q = AnalyticalQuery(
            population_facet, 0b11,
            (FilterCondition(YEAR, "=", typed_literal(2019)),))
        table = population_engine.query(q.to_select_query())
        assert len(table) > 0
        # every row's year-filtered total is positive
        assert all(row[-1].to_python() > 0 for row in table.rows)

    def test_total_query_has_no_group_by(self, population_facet,
                                         population_engine):
        q = AnalyticalQuery(population_facet, 0)
        ast = q.to_select_query()
        assert not ast.group_by
        table = population_engine.query(ast)
        assert len(table) == 1

    def test_describe_mentions_filters(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b01,
            (FilterCondition(YEAR, ">", typed_literal(2018)),),
            label="q7")
        text = q.describe()
        assert "q7" in text and "?year >" in text
