"""The SOFOS benchmark workloads, driven through the public API.

A worker generates its inputs, builds a read-only *serving world* with
the workload's views (caches warmed by answering every pool query once),
then runs its *sessions*.  A session runs three phases, each starting
with a garbage collection:

1. offline, on a fresh world, ``offline_repeats`` times:
   ``parse_ntriples`` of the input text, ``Sofos.profile()``,
   ``compare_cost_models`` over the four count-based models (k=2),
   ``Sofos.materialize`` of the workload's views, ``save_expanded`` and
   ``load_expanded``;
2. serving: Zipf-skewed traffic over the query pool answered on the
   serving world (``Sofos.answer``, a fifth as raw SPARQL through
   ``answer_sparql``);
3. updates, on the session's last offline world: per window, apply a
   batch and ``maintain()`` (*absorb*), then answer fresh pool queries;
   every fifth window is large and is followed by ``Sofos.audit()``.

The workloads differ in their input and in how much of each phase a
session does (``PLANS``), so each loads a different part of the system,
and every end-to-end metric is measured on every workload.  Correctness
checks run outside the timed calls.

Every timed call belongs to an *operation*, and an operation's sample is
the fastest of its calls (see ``Run.timed``), pooled over the workers of
a run (see ``pooled``).  On a shared host a co-tenant slows a call by up
to half again, switching on and off every few milliseconds, and slows
whole stretches of seconds to minutes; the slower calls of one
operation measure that co-tenant, not the program.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro import Sofos, UserSelection, load_dataset, rdf
from repro.datasets import DBPediaConfig, dataset_spec, generate_dbpedia
from repro.rdf import Dataset, Literal, Triple
from repro.rdf.namespace import SOFOS
from repro.sparql.serializer import query_text
from repro.views import ViewCatalog, persistence
from repro.workload import (UpdateBatch, UpdateStreamConfig,
                            UpdateStreamGenerator)

from run_maintenance import group_signatures

#: The four count-based cost models timed by ``compare_models_s``.
#: ``learned`` trains on measured evaluation times, so its pick (and the
#: comparison's duration) can change from run to run.
COUNT_MODELS = ("random", "triples", "agg_values", "nodes")
#: Calls per update window (the batch is undone between them) and per
#: audit in each worker; the window's and the audit's sample is the
#: fastest of its calls in all workers.
REPEATS = 3
ZIPF_EXPONENT = 1.0
SPARQL_SHARE = 0.2
#: Every fifth window is large; ``Sofos.audit()`` follows each one.
LARGE_WINDOW_EVERY = 5
SMALL_DELTA = 0.002
LARGE_DELTA = 0.05
#: Sofos' own seed (random cost model, audit sampling) stays fixed.
PROGRAM_SEED = 0
#: The query pool, the comparison workload and the update streams are
#: generated with fixed seeds: a pool of a hundred or two generated
#: queries differs from seed to seed in its mix of cheap and costly
#: queries, and a session's few large windows in their cost, by more
#: than the run-to-run noise.  The benchmark seed drives the order of
#: the traffic over the pool (see ``zipf_traffic``) and the workers'
#: hash seeds.
QUERY_SEED = 0


#: Dataset generators by name.  ``dbpedia-150x3`` is demo's 150
#: countries over 3 census years instead of 20.
DATASETS = {
    "dbpedia-150x3": lambda: generate_dbpedia(DBPediaConfig(
        countries=150, years=(2017, 2018, 2019), seed=7)),
    "dbpedia-demo": lambda: load_dataset("dbpedia", "demo").graph,
    "lubm-small": lambda: load_dataset("lubm", "small").graph,
}


@dataclass(frozen=True)
class Plan:
    """One workload: its input and the size of each session stage."""

    dataset: str                   # the serving world's input and pool
    session_dataset: str           # the offline phase's and windows' input
    facet: str
    views: tuple[str, ...] | str   # view labels or a cost model
    compare_queries: int
    offline_repeats: int           # offline phases per session
    pool: int
    answers: int                   # Zipf answers per session (serving world)
    windows: int                   # update windows per session
    window_answers: int            # fresh answers after each window
    session_s: float               # wall seconds of a session, nominal


PLANS = {
    # DBpedia demo, 3-D cube, two user views: read-only, cache-warm serving.
    # The offline phase and the windows, outside the focus, run on the
    # smaller DBpedia input, so a run holds many more of their calls.
    "serve": Plan(dataset="dbpedia-demo", session_dataset="dbpedia-150x3",
                  facet="population_cube",
                  views=("lang+year", "year+continent"), compare_queries=5,
                  offline_repeats=2, pool=100, answers=130, windows=10,
                  window_answers=0, session_s=3.0),
    # LUBM small, agg_values k=2 views: update windows with fresh answers.
    "churn": Plan(dataset="lubm-small", session_dataset="lubm-small",
                  facet="students_by_department",
                  views="agg_values", compare_queries=10, offline_repeats=2,
                  pool=200, answers=0, windows=10, window_answers=10,
                  session_s=2.4),
}


class Run:
    """Timing samples, failure accounting and the session count."""

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.setup: list[float] = []
        #: (metric, operation) -> its fastest call, in seconds.
        self.best: dict[tuple, float] = {}
        #: metric -> one operation per sample, in the order sampled.
        self.draws: dict[str, list] = defaultdict(list)
        self.calls: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.sessions = 0
        #: Summed time of all timed calls (the traced run's wall).
        self.wall = 0.0
        self.state: dict = {}
        self.characteristics: dict = {}

    def timed(self, metric: str, fn, *args, op=None, again: bool = False,
              **kwargs):
        """Call ``fn`` as one attempted operation, timing it into ``metric``.

        ``op`` names the operation the call performs: calls with the same
        ``op`` do the same work on the same data, and each sample of the
        operation reads its fastest call.  A call adds a sample unless
        ``again`` marks it as a repeat of the previous one.  The offline
        stages leave ``op`` unset: every call of a stage does the same
        work, so the stage's figure is its fastest call in the run.

        In the traced run the ledger records spans inside every timed
        call, and only there.
        """
        self.attempted += 1
        if self.ledger is not None:
            self.ledger.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if self.ledger is not None:
                self.ledger.stop()
        key = (metric, op)
        self.best[key] = min(self.best.get(key, math.inf), elapsed)
        if not again:
            self.draws[metric].append(op)
        self.calls[metric] += 1
        self.wall += elapsed
        return result

    def samples(self, metric: str) -> list[float]:
        return [self.best[(metric, op)] for op in self.draws[metric]]

    def export(self) -> dict:
        """The run's samples as JSON, for pooling over workers."""
        import resource
        return {"setup": self.setup, "draws": self.draws, "calls": self.calls,
                "best": [[metric, op, elapsed]
                         for (metric, op), elapsed in self.best.items()],
                "store_mb": self.state.get("store_mb"),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024}

    def check(self, ok: bool, what: str, *, standalone: bool = False) -> None:
        """Record a failed output check; ``standalone`` checks count as
        attempted operations of their own."""
        if standalone:
            self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def sessions_for(name: str, seconds: float) -> int:
    """Sessions a worker runs to measure for about ``seconds`` on the
    machine the nominal session times were taken on; at least two.

    The count follows from ``--seconds`` alone, not from how fast the
    host runs, so every run of a workload does the same work.
    """
    return max(2, round(seconds / PLANS[name].session_s))


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    text: str                      # N-Triples of the serving world's input
    session_text: str              # N-Triples of the session worlds' input
    facet: object
    compare_workload: list
    pool: list
    pool_texts: list


def make_inputs(run: Run, plan: Plan) -> Inputs:
    """Generate the dataset texts and the query workloads."""
    family = plan.dataset.split("-")[0]
    facet = next(spec for spec in dataset_spec(family).facets
                 if spec.name == plan.facet).build()
    graphs, texts = {}, {}
    for name in dict.fromkeys((plan.dataset, plan.session_dataset)):
        graphs[name] = DATASETS[name]()
        texts[name] = rdf.serialize_ntriples(graphs[name])
        run.state.setdefault("datasets", {})[name] = {
            "triples": len(graphs[name]),
            "ntriples_bytes": len(texts[name].encode("utf-8"))}
    pool = Sofos(graphs[plan.dataset], facet,
                 seed=QUERY_SEED).generate_workload(plan.pool)
    compare = Sofos(graphs[plan.session_dataset], facet,
                    seed=QUERY_SEED).generate_workload(plan.compare_queries)
    return Inputs(text=texts[plan.dataset],
                  session_text=texts[plan.session_dataset], facet=facet,
                  compare_workload=compare, pool=pool,
                  pool_texts=[query_text(q.to_select_query()) for q in pool])


def zipf_traffic(size: int, draws: int, rng: random.Random) -> list:
    """``draws`` answers over a pool of ``size`` queries, as
    ``(index, via_sparql)`` pairs in a seeded order.

    Query ``i`` is drawn in proportion to ``1 / (i + 1) ** ZIPF_EXPONENT``
    (largest-remainder rounding), and every fifth draw of the traffic in
    pool order goes as raw SPARQL.  The mix is thus the same for every
    seed and only the order is drawn.  With drawn counts, the median of
    a run fell on one of two neighbouring pool queries depending on the
    seed, and the run's p50 with it.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]
    shares = [draws * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(size), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:draws - sum(counts)]:
        counts[i] += 1
    every = round(1 / SPARQL_SHARE)
    traffic: list[tuple[int, bool]] = []
    for i, count in enumerate(counts):
        for _ in range(count):
            traffic.append((i, len(traffic) % every == every - 1))
    rng.shuffle(traffic)
    return traffic


def update_generators(graph, session: int) -> tuple:
    """Small (0.2%) and large (5%) update streams over ``graph`` for
    session number ``session``.

    The operation count follows from the input: an operation clones or
    deletes an entity star or deletes one triple, so with the default
    mix it touches ``0.75 * star + 0.25`` triples on average, where
    ``star`` is the mean triples per subject.  ``window_fraction`` in the
    fingerprint records the measured batch size over the graph size.
    """
    config = UpdateStreamConfig()
    star = len(graph) / max(1, len(graph.subject_ids()))
    per_operation = (config.insert_probability * star
                     + (1 - config.insert_probability)
                     * (config.entity_delete_probability * star
                        + 1 - config.entity_delete_probability))

    def generator(fraction: float, stream: int):
        operations = max(1, round(len(graph) * fraction / per_operation))
        return UpdateStreamGenerator(graph, UpdateStreamConfig(
            batches=0, operations_per_batch=operations,
            seed=session * 2 + stream))
    return generator(SMALL_DELTA, 0), generator(LARGE_DELTA, 1)


def inverse(batch: UpdateBatch, graph) -> UpdateBatch:
    """The batch that takes ``graph`` back to its current content after
    ``batch`` is applied to it."""
    inserts = dict.fromkeys(batch.inserts)    # ordered: runs repeat
    added = tuple(t for t in inserts if t not in graph)
    removed = tuple(t for t in dict.fromkeys(batch.deletes)
                    if t in graph and t not in inserts)
    return UpdateBatch(index=batch.index, inserts=removed, deletes=added)


def plant_fault(sofos: Sofos) -> None:
    """Tamper one view triple: add 1 to one measure of the first view."""
    entry = next(iter(sofos.catalog))
    graph = sofos.catalog.graph_of(entry.definition)
    triple = min((t for t in graph if t.p in (SOFOS.measure, SOFOS.sum)),
                 key=str)
    lexical = triple.o.lexical
    bumped = int(lexical) + 1 if lexical.lstrip("-").isdigit() \
        else float(lexical) + 1
    graph.discard(triple)
    graph.add(Triple(triple.s, triple.p,
                     Literal(str(bumped), triple.o.datatype)))


# -- session stages -----------------------------------------------------------


def check_answer(run: Run, sofos: Sofos, query, answer, expected) -> None:
    """Fail a stale answer or one that is not bag-equal to ``expected``
    (``answer_from_base`` on the current graph)."""
    run.check(not answer.stale, f"stale answer to {query.describe()}")
    run.check(answer.table.same_solutions(expected.table),
              f"answer to {query.describe()} differs from the base graph")


def selection_for(sofos: Sofos, plan: Plan):
    """The plan's views: user-chosen labels, or k=2 under a cost model."""
    if isinstance(plan.views, tuple):
        return sofos.select(selector=UserSelection(list(plan.views)),
                            k=len(plan.views))
    return sofos.select(plan.views, k=2)


def check_views_match_rebuild(run: Run, sofos: Sofos) -> None:
    """Maintained views must equal a twin-world rebuild of the same views."""
    catalog = sofos.catalog
    views = [entry.definition for entry in catalog]
    twin = ViewCatalog(Dataset.wrap(sofos.dataset.default.copy()))
    twin.materialize_all(views)
    for view in views:
        run.check(group_signatures(catalog.graph_of(view))
                  == group_signatures(twin.graph_of(view)),
                  f"view {view.label} differs from a twin-world rebuild",
                  standalone=True)


def save_and_load(run: Run, sofos: Sofos, workdir: str) -> None:
    """Save the expanded dataset, reload it, compare every view."""
    catalog = sofos.catalog
    os.makedirs(workdir, exist_ok=True)
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        run.timed("save_s", persistence.save_expanded, catalog, directory)
        _, loaded = run.timed("load_s", persistence.load_expanded,
                              directory, sofos.facet)
    finally:
        shutil.rmtree(directory)
    run.check(len(loaded) == len(catalog),
              f"reloaded {len(loaded)} views, saved {len(catalog)}",
              standalone=True)
    for entry in catalog:
        view = entry.definition
        run.check(view in loaded and group_signatures(loaded.graph_of(view))
                  == group_signatures(catalog.graph_of(view)),
                  f"reloaded view {view.label} differs from the saved one",
                  standalone=True)


def snapshot(run: Run, sofos: Sofos) -> None:
    """Sizes of the expanded dataset once its views are built."""
    dataset = sofos.dataset
    report = sofos.memory_report()
    graphs = [dataset.default] + [dataset.get_graph(name)
                                  for name in dataset.names()]
    run.state.update(
        store_mb=report["(total)"] / 2 ** 20,
        store_bytes=report["(total)"] - report["(dictionary)"],
        dictionary_terms=len(dataset.dictionary),
        view_triples=sofos.catalog.total_triples,
        store_kinds=sorted({graph.store_kind for graph in graphs}),
    )


def run_workload(run: Run, name: str, seed: int, sessions: int,
                 workdir: str, fault: bool = False) -> None:
    """Set up (inputs, the serving world, its warm-up), then repeat
    sessions.  The set-up is timed as one ``setup_s`` sample."""
    plan = PLANS[name]
    start = time.perf_counter()
    inputs = make_inputs(run, plan)
    # The serving world answers the traffic of every session;
    # it is only ever read, so its caches stay warm across sessions and
    # every answer to one pool query (as SPARQL or not) is one operation.
    serving = Sofos(rdf.parse_ntriples(inputs.text), inputs.facet,
                    seed=PROGRAM_SEED, maintenance="incremental")
    serving.materialize(selection_for(serving, plan))
    setup = time.perf_counter() - start
    snapshot(run, serving)
    if fault:
        plant_fault(serving)
    start = time.perf_counter()
    for query in inputs.pool:           # warm-up: every pool query once
        serving.answer(query)
    run.setup.append(setup + time.perf_counter() - start)
    checked: set = set()
    rng = random.Random(seed)
    window_fraction: dict[str, list[float]] = defaultdict(list)

    def offline() -> tuple:
        graph = run.timed("ingest_s", rdf.parse_ntriples,
                          inputs.session_text)
        sofos = Sofos(graph, inputs.facet, seed=PROGRAM_SEED,
                      maintenance="incremental")
        run.timed("profile_s", sofos.profile)
        report = run.timed("compare_models_s", sofos.compare_cost_models,
                           COUNT_MODELS, k=2, workload=inputs.compare_workload)
        run.check(len(report.rows) == len(COUNT_MODELS),
                  "cost-model comparison is missing rows")
        run.timed("materialize_s", sofos.materialize,
                  selection_for(sofos, plan))
        if fault:
            plant_fault(sofos)
        save_and_load(run, sofos, workdir)
        return graph, sofos

    def session(index: int) -> None:
        # Each phase starts with a collection, so the garbage a phase
        # leaves (how much depends on the seed's draws) is not collected
        # inside the next phase's timed calls.
        for _ in range(plan.offline_repeats):
            gc.collect()
            graph, sofos = offline()

        gc.collect()
        for key in zipf_traffic(len(inputs.pool), plan.answers, rng):
            i, via_sparql = key
            if via_sparql:
                answer = run.timed("answer", serving.answer_sparql,
                                   inputs.pool_texts[i], op=key)
            else:
                answer = run.timed("answer", serving.answer, inputs.pool[i],
                                   op=key)
            if key not in checked:
                checked.add(key)
                check_answer(run, serving, inputs.pool[i], answer,
                             serving.answer_from_base(inputs.pool[i]))
            else:
                run.check(not answer.stale,
                          f"stale answer to {inputs.pool[i].describe()}")

        gc.collect()
        small, large = update_generators(graph, index)
        for window in range(plan.windows):
            is_large = window % LARGE_WINDOW_EVERY == LARGE_WINDOW_EVERY - 1
            batch = (large if is_large else small).next_batch()
            window_fraction["large" if is_large else "small"].append(
                batch.size / len(graph))
            undo = inverse(batch, graph)

            def absorb():
                batch.apply_to(graph)
                return sofos.maintain()

            # The window runs REPEATS times on the same content: between
            # two runs the batch is undone (and the undo maintained) out
            # of the timed calls.  Every run bumps the graph version, so
            # each run's answers start on cold plan caches.
            slot = (index * plan.windows + window) * plan.window_answers
            queries = [inputs.pool[(slot + j) % len(inputs.pool)]
                       for j in range(plan.window_answers)]
            expected: list = []
            for attempt in range(REPEATS):
                if attempt:
                    undo.apply_to(graph)
                    sofos.maintain()
                run.timed("absorb", absorb, op=(index, window),
                          again=attempt > 0)
                for j, query in enumerate(queries):
                    answer = run.timed("answer", sofos.answer, query,
                                       op=(index, window, j),
                                       again=attempt > 0)
                    if not attempt:
                        expected.append(sofos.answer_from_base(query))
                    check_answer(run, sofos, query, answer, expected[j])
            if is_large:
                for _ in range(REPEATS):
                    audit = run.timed("audit", sofos.audit)
                    run.check(audit.clean, f"audit after window {window} "
                                           f"of session {index}: {audit!r}")
        check_views_match_rebuild(run, sofos)
        run.characteristics["window_fraction"] = {
            kind: statistics.mean(values)
            for kind, values in sorted(window_fraction.items())}

    for index in range(sessions):
        session(index)
        run.sessions += 1


# -- metrics ------------------------------------------------------------------


def _op(op):
    """An operation read back from JSON, which turned its tuple into a
    list."""
    return tuple(op) if isinstance(op, list) else op


def pooled(exports: list[dict]) -> Run:
    """One run holding the samples of every worker's ``Run.export()``.

    Workers get the same inputs, so an operation (a stage, a pool query,
    a session's window) does the same work in each of them, and its
    sample is its fastest call in any worker.  The draws are pooled, so
    a percentile is taken over every worker's traffic.
    """
    run = Run()
    for data in exports:
        run.setup += data["setup"]
        for metric, op, elapsed in data["best"]:
            key = (metric, _op(op))
            run.best[key] = min(run.best.get(key, math.inf), elapsed)
        for metric, ops in data["draws"].items():
            run.draws[metric] += [_op(op) for op in ops]
        run.calls.update(data["calls"])
        if data["store_mb"] is not None:
            run.state["store_mb"] = data["store_mb"]
        run.state.setdefault("peak_rss_mb", []).append(data["peak_rss_mb"])
    return run


def host_loop_ms(seconds: float = 0.25) -> dict[str, float]:
    """Fastest and median time of a fixed pure-Python loop, in ms.

    Printed at the start and the end of a run, so a figure can be read
    against the host's speed at the time: the program never runs this
    loop.
    """
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        times.append(time.perf_counter() - begin)
    return {"best": min(times) * 1e3, "median": statistics.median(times) * 1e3}



def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric of a pooled run as
    ``name -> (value, unit, calls)``."""
    out: dict[str, tuple[float, str, int]] = {}
    if run.setup:
        out["setup_s"] = (statistics.median(run.setup), "s", len(run.setup))
    for name in ("ingest_s", "profile_s", "compare_models_s",
                 "materialize_s", "save_s", "load_s"):
        if run.draws[name]:
            out[name] = (run.best[(name, None)], "s", run.calls[name])
    answers = run.samples("answer")
    if answers:
        n = run.calls["answer"]
        out["answer_p50_ms"] = (percentile(answers, 0.5) * 1e3, "ms", n)
        out["answer_p99_ms"] = (percentile(answers, 0.99) * 1e3, "ms", n)
        out["answers_per_s"] = (len(answers) / sum(answers), "1/s", n)
    absorbs = run.samples("absorb")
    if absorbs:
        n = run.calls["absorb"]
        out["absorb_p50_ms"] = (percentile(absorbs, 0.5) * 1e3, "ms", n)
        out["absorb_p90_ms"] = (percentile(absorbs, 0.9) * 1e3, "ms", n)
    if run.draws["audit"]:
        out["audit_ms"] = (run.best[("audit", None)] * 1e3, "ms",
                           run.calls["audit"])
    if "store_mb" in run.state:
        out["store_mb"] = (run.state["store_mb"], "MiB", 1)
    peaks = run.state.get("peak_rss_mb")
    if peaks:
        out["peak_rss_mb"] = (statistics.median(peaks), "MiB", len(peaks))
    return out


def workdir_for(root: str) -> str:
    """Working directory for saved catalogs, inside the checkout."""
    return os.path.join(root, ".perfbench-work")
