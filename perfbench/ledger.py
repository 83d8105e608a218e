"""Per-layer ledger for the traced benchmark run.

The traced run wraps the public entry point of every ``src/repro`` layer
with a span recorder kept in this file, so the program itself is not
edited.  Each span stores its name, start, end and parent; a layer's
self time is its spans' durations minus the durations of their direct
children.  Spans are only recorded inside the workload's timed calls
(``Ledger.active``), so set-up, undoing update windows and correctness
checks leave no trace.

Every name is patched where it is looked up: a method on its class
(shared by every importer), a module-level function in every loaded
``repro`` module that holds it -- ``core/online.py`` imports
``rewrite_on_view`` by name, for instance, so patching only the defining
module would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Layer span name -> the entry points it wraps, as ``module:attribute``
#: (``Class.method`` for methods).  ``sparql.prepare`` covers parsing too:
#: ``Sofos.answer_sparql`` parses raw text outside ``QueryEngine.prepare``.
LAYERS = (
    ("rdf.parse", ("repro.rdf.ntriples:parse_ntriples",
                   "repro.rdf.nquads:parse_nquads")),
    ("rdf.apply", ("repro.rdf.graph:Graph.update",
                   "repro.rdf.graph:Graph.remove")),
    ("sparql.prepare", ("repro.sparql.engine:QueryEngine.prepare",
                        "repro.sparql.parser:parse_query")),
    ("sparql.execute", ("repro.sparql.executor:Executor.run_ids",)),
    ("sparql.group_table", ("repro.sparql.executor:Executor.group_table",)),
    ("sparql.delta", ("repro.sparql.delta:DeltaEvaluator.adjustments",)),
    ("cube.to_query", ("repro.cube.query:AnalyticalQuery.to_select_query",)),
    ("cost.profile", ("repro.cost.profiler:LatticeProfile.profile",)),
    ("selection.select", ("repro.selection.greedy:GreedySelector.select",)),
    ("views.route", ("repro.views.router:ViewRouter.route",
                     "repro.views.router:ViewRouter.quarantined_candidates")),
    ("views.rewrite", ("repro.views.rewriter:rewrite_on_view",)),
    ("views.analyze", ("repro.views.analyzer:analyze_query",)),
    ("views.materialize",
     ("repro.views.catalog:ViewCatalog.materialize_all",)),
    ("views.maintain",
     ("repro.views.maintenance:ViewMaintainer.synchronize",)),
    ("views.save", ("repro.views.persistence:save_expanded",)),
    ("views.load", ("repro.views.persistence:load_expanded",)),
    ("core.answer", ("repro.core.online:OnlineModule.answer",)),
    ("resilience.audit", ("repro.resilience.audit:ConsistencyAuditor.audit",)),
)

#: Per-layer metric name of each span's self time.
TIME_METRICS = {name: ("core.answer_self_ms" if name == "core.answer"
                       else f"{name}_ms") for name, _ in LAYERS}


class Ledger:
    """Span recorder plus the program's own obs counters for one run."""

    def __init__(self) -> None:
        from repro.obs import hub
        self.active = False
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.result_rows = 0             # rows out of Executor.run_ids
        self._stack: list[int] = []
        self._hub = hub()
        self._hub.reset()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, count_rows: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count_rows:
                self.result_rows += len(result)
            return result
        return traced

    def install(self) -> None:
        """Patch every entry point in ``LAYERS`` (call once, before set-up)."""
        import repro  # noqa: F401  (loads every layer, so every importer)
        for name, targets in LAYERS:
            for target in targets:
                module_name, attribute = target.split(":")
                module = importlib.import_module(module_name)
                if "." in attribute:
                    owner_name, method = attribute.split(".")
                    self._patch_method(getattr(module, owner_name), method,
                                       name)
                else:
                    self._patch_function(getattr(module, attribute),
                                         attribute, name)

    def _patch_method(self, owner: type, method: str, name: str) -> None:
        raw = owner.__dict__[method]
        count_rows = name == "sparql.execute"
        if isinstance(raw, classmethod):
            setattr(owner, method,
                    classmethod(self.wrap(name, raw.__func__, count_rows)))
        else:
            setattr(owner, method, self.wrap(name, raw, count_rows))

    def _patch_function(self, original, attribute: str, name: str) -> None:
        wrapped = self.wrap(name, original)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if (module_name == "repro" or module_name.startswith("repro.")) \
                    and getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapped)

    def start(self) -> None:
        """Record spans and program counters until :meth:`stop`."""
        self.active = True
        self._hub.metrics.enable()

    def stop(self) -> None:
        self._hub.metrics.disable()
        self.active = False

    # -- the ledger -----------------------------------------------------------

    def metrics(self, units: int, traced_wall: float, untraced_wall: float,
                state: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as ``name -> (value, unit)``.

        Times (self milliseconds) and counts are per session;
        ``share.<layer>`` is the layer's self time over the traced wall.
        ``state`` carries the sizes read once the views were built (store
        bytes, dictionary terms, view triples).
        """
        self_seconds = {name: 0.0 for name, _ in LAYERS}
        child_seconds = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            self_seconds[name] += duration
            if parent < 0:
                covered += duration
            else:
                child_seconds[parent] += duration
        for (name, *_), children in zip(self.spans, child_seconds):
            self_seconds[name] -= children

        per_unit = max(units, 1)
        wall = traced_wall if traced_wall > 0 else 1.0
        out: dict[str, tuple[float, str]] = {}
        for name, seconds in self_seconds.items():
            metric = TIME_METRICS[name]
            out[metric] = (seconds * 1e3 / per_unit, "ms")
            out[f"share.{name}"] = (seconds / wall, "ratio")

        reg = self._hub.metrics
        probe_rows = reg.counter_total("engine_probe_rows_total")
        routed = reg.counter_total("online_answers_total")
        window = reg.get("maintenance_changelog_window_size")
        window_series = [series for _, series in window.labeled_series()] \
            if window is not None else []
        window_count = sum(s.count for s in window_series)
        out.update({
            "rdf.compactions": (
                reg.counter_total("store_compactions_total") / per_unit,
                "count"),
            "rdf.changelog_window_triples": (
                _ratio(sum(s.sum for s in window_series), window_count),
                "count"),
            "rdf.store_bytes": (state["store_bytes"], "bytes"),
            "rdf.dictionary_terms": (state["dictionary_terms"], "count"),
            "sparql.prepared_hit_ratio": _hit_ratio(
                reg, "engine_prepared_cache"),
            "sparql.probe_keys": (
                reg.counter_total("engine_probe_keys_total") / per_unit,
                "count"),
            "sparql.probe_rows": (probe_rows / per_unit, "count"),
            "sparql.rows_examined_per_row": (
                _ratio(probe_rows, self.result_rows), "ratio"),
            "sparql.bgp_plan_hit_ratio": _hit_ratio(
                reg, "engine_bgp_plan_cache"),
            "sparql.decode_memo_hit_ratio": _hit_ratio(
                reg, "engine_decode_memo"),
            "views.route_share": (
                _ratio(reg.value("online_answers_total", ("view",)), routed),
                "ratio"),
            "views.view_triples": (state["view_triples"], "count"),
            "views.patched": (_decisions(reg, "patched") / per_unit, "count"),
            "views.rebuilt": (_decisions(reg, "rebuilt") / per_unit, "count"),
            "unattributed_share": (max(0.0, 1.0 - covered / wall), "ratio"),
            "trace_overhead": (
                traced_wall / untraced_wall if untraced_wall > 0 else 0.0,
                "ratio"),
        })
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(reg, prefix: str) -> tuple[float, str]:
    hits = reg.counter_total(f"{prefix}_hits_total")
    misses = reg.counter_total(f"{prefix}_misses_total")
    return _ratio(hits, hits + misses), "ratio"


def _decisions(reg, action: str) -> int:
    counter = reg.get("maintenance_decisions_total")
    if counter is None:
        return 0
    return sum(count for labels, count in counter.labeled_series()
               if labels[0] == action)
