"""End-to-end wiring: the hub sees what the serving stack actually does."""

from __future__ import annotations

import json

import pytest

from repro.core import Sofos
from repro.errors import FailpointError
from repro.obs import hub
from repro.rdf import Namespace, Triple, typed_literal
from repro.resilience import failpoints
from repro.sparql import QueryEngine

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")

POP_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
} GROUP BY ?year
"""

# the population facet's pattern, grouped by year: routable to a view
FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?year
"""


@pytest.fixture(autouse=True)
def clean_hub():
    h = hub()
    h.disable()
    h.reset()
    failpoints.reset()
    yield h
    failpoints.reset()
    h.disable()
    h.reset()


@pytest.fixture
def incremental_sofos(population_facet) -> Sofos:
    return Sofos(build_population_graph(), population_facet, seed=0,
                 maintenance="incremental")


class TestEngineWiring:
    def test_cache_counters_move_on_repeat_queries(self, clean_hub):
        clean_hub.enable(tracing=False)
        engine = QueryEngine(build_population_graph())
        engine.query(POP_QUERY)
        engine.query(POP_QUERY)
        m = clean_hub.metrics
        assert m.counter_total("engine_prepared_cache_misses_total") == 1
        assert m.counter_total("engine_prepared_cache_hits_total") >= 1
        assert m.counter_total("engine_bgp_plan_cache_hits_total") >= 1

    def test_spans_cover_execution(self, clean_hub):
        clean_hub.enable()
        engine = QueryEngine(build_population_graph())
        engine.query(POP_QUERY)
        names = {s.name for s in clean_hub.tracer.recent()}
        assert "executor.run" in names

    def test_disabled_by_default_records_nothing(self, clean_hub):
        engine = QueryEngine(build_population_graph())
        engine.query(POP_QUERY)
        snap = clean_hub.metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert clean_hub.tracer.recent() == []


class TestServingWiring:
    def test_online_latency_histogram_counts_queries(self, clean_hub,
                                                     incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=2)
        workload = incremental_sofos.generate_workload(5)
        incremental_sofos.run_workload(workload)
        m = clean_hub.metrics
        hist = m.get("online_query_seconds")
        assert hist.total_count() == 5
        assert m.counter_total("online_answers_total") == 5

    @pytest.mark.parametrize("text, routed", [(FACET_QUERY, True),
                                              (POP_QUERY, False)],
                             ids=["view", "base"])
    def test_answer_sparql_reuses_the_prepared_memo(
            self, clean_hub, incremental_sofos, text, routed):
        from repro.sparql import parse_query
        incremental_sofos.select_and_materialize("agg_values", k=2)
        clean_hub.enable(tracing=False)
        first = incremental_sofos.answer_sparql(text)
        second = incremental_sofos.answer_sparql(text)
        m = clean_hub.metrics
        assert m.counter_total("engine_prepared_cache_misses_total") == 1
        assert m.counter_total("engine_prepared_cache_hits_total") == 1
        assert (first.used_view is not None) == routed
        assert second.table.same_solutions(first.table)
        # answering never mutates the shared, memoized AST
        engine = incremental_sofos._offline.engine
        assert engine.prepare(text).ast == parse_query(text)

    def test_maintenance_window_counters(self, clean_hub, incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=2)
        graph = incremental_sofos.dataset.default
        graph.add(Triple(EX.obs_new, EX.ofCountry, EX.greece))
        graph.add(Triple(EX.obs_new, EX.year, typed_literal(2021)))
        graph.add(Triple(EX.obs_new, EX.population, typed_literal(123)))
        report = incremental_sofos.maintain()
        m = clean_hub.metrics
        assert m.counter_total("maintenance_windows_total") == 1
        assert m.counter_total("maintenance_decisions_total") \
            == len(report.patched) + len(report.rebuilt)
        assert m.get("maintenance_changelog_window_size").total_count() >= 1

    def test_quarantine_counter(self, clean_hub, incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=1)
        catalog = incremental_sofos.catalog
        entry = next(iter(catalog))
        catalog.quarantine(entry.definition, "wiring test")
        assert clean_hub.metrics.counter_total(
            "views_quarantine_events_total") == 1

    def test_failpoint_counter_labels(self, clean_hub):
        clean_hub.enable(tracing=False)
        failpoints.arm("unit.wiring", mode="error")
        with pytest.raises(FailpointError):
            failpoints.fail_at("unit.wiring")
        assert clean_hub.metrics.value(
            "resilience_failpoints_fired_total", ("unit.wiring", "error")) == 1

    def test_workload_summary_percentiles(self, incremental_sofos):
        incremental_sofos.select_and_materialize("agg_values", k=2)
        run = incremental_sofos.run_workload(
            incremental_sofos.generate_workload(6))
        summary = run.summary()
        assert 0.0 <= summary["p50_seconds"] <= summary["p95_seconds"] \
            <= summary["p99_seconds"]
        assert summary["p99_seconds"] <= summary["total_seconds"]
        for record in run.characteristics():
            assert record["stale"] is False
            assert record["degraded"] is False


class TestHubExports:
    def _populated_hub(self, clean_hub, sofos):
        clean_hub.enable()
        sofos.select_and_materialize("agg_values", k=2)
        sofos.run_workload(sofos.generate_workload(3))
        return clean_hub

    def test_snapshot_shape(self, clean_hub, incremental_sofos):
        h = self._populated_hub(clean_hub, incremental_sofos)
        snap = h.snapshot()
        assert snap["enabled"] == {"metrics": True, "tracing": True}
        assert "online_answers_total" in snap["metrics"]["counters"]
        assert snap["spans"], "enabled tracer should have finished spans"

    def test_dump_writes_json(self, clean_hub, incremental_sofos, tmp_path):
        h = self._populated_hub(clean_hub, incremental_sofos)
        path = h.dump(str(tmp_path / "obs.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["metrics"]["counters"]
        assert isinstance(payload["spans"], list)

    def test_prometheus_export_includes_serving_counters(
            self, clean_hub, incremental_sofos):
        h = self._populated_hub(clean_hub, incremental_sofos)
        text = h.to_prometheus()
        assert "# TYPE online_answers_total counter" in text
        assert "online_query_seconds_bucket" in text
