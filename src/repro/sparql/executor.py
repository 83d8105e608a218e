"""The algebra executor: batched, id-space evaluation over a graph.

The seed engine evaluated every operator tuple-at-a-time through recursive
generators, copying a ``dict`` per extended binding and decoding ids back
to terms at the BGP boundary — so joins, DISTINCT, and GROUP BY churned on
decoded term objects.  This executor instead pushes *columnar batches of
integer ids* (:class:`~repro.sparql.batch.BindingBatch`) through the whole
algebra tree:

* BGPs are evaluated as batched index probes: each triple pattern is
  probed once per **distinct** bound prefix (not once per row) and the
  matches are fanned back out with a hash join on the prefix;
* Join/OPTIONAL evaluate their right side under a *deduplicated*
  projection of the left batch onto the shared variables, then hash-join
  the result back through the provenance array;
* FILTER, BIND, ORDER BY keys, and aggregate operands are evaluated once
  per distinct operand-id tuple; DISTINCT and GROUP BY keys never leave
  id-space;
* terms are decoded only at the expression/projection boundary, through a
  lazy per-query decode cache.

Terms produced by expressions (BIND values, aggregate results, VALUES
constants unknown to the store) are interned into a private overlay with
negative ids so id equality stays term equality end to end.

Compiled id-space BGP plans (constant ids + greedy probe order) are cached
per graph version, so re-running a prepared workload skips recompilation.

The tuple-at-a-time semantics are preserved exactly; the retained
:class:`~repro.sparql.reference.ReferenceExecutor` is the oracle the parity
suite checks against, and the engine EXISTS is delegated to (EXISTS wants
streaming early termination under a single concrete binding).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

from ..errors import ExpressionError, QueryEvaluationError
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.graph import Graph
from ..rdf.terms import Term, Variable, typed_literal
from ..rdf.triples import TriplePattern
from .aggregates import make_accumulator
from .algebra import AlgebraOp, BGPOp, DistinctOp, ExtendOp, FilterOp, \
    GroupOp, JoinOp, LeftJoinOp, OrderByOp, ProjectOp, SliceOp, TableOp, \
    UnionOp, UnitOp, translate_group
from .ast import AggregateExpr, AndExpr, ArithExpr, CompareExpr, ExistsExpr, \
    Expression, FuncCall, GroupPattern, InExpr, NegExpr, NotExpr, OrExpr, \
    TermExpr, VarExpr
from .batch import BindingBatch, dedup_rows
from .expr import EvalContext, evaluate, evaluate_ebv
from .values import numeric_result, order_key, to_number

__all__ = ["Executor"]

Binding = dict[Variable, Term]

#: Memo sentinel for "operand evaluation raised ExpressionError".
_EVAL_ERROR = object()

# Observability instruments for the executor's hot seams.  Disabled (the
# default) every seam costs one `_REG.enabled` attribute read; the
# instruments only accumulate while the registry is switched on.
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_BGP_PLAN_HITS = _REG.counter(
    "engine_bgp_plan_cache_hits_total",
    "compiled id-space BGP plan reused from the per-version cache")
_BGP_PLAN_MISSES = _REG.counter(
    "engine_bgp_plan_cache_misses_total",
    "BGP plans compiled fresh (cold cache or graph version moved)")
_DECODE_MEMO_HITS = _REG.counter(
    "engine_decode_memo_hits_total",
    "per-row expression rows answered from the distinct-id memo")
_DECODE_MEMO_MISSES = _REG.counter(
    "engine_decode_memo_misses_total",
    "distinct id tuples that actually decoded + evaluated")
_PROBE_KEYS = _REG.counter(
    "engine_probe_keys_total",
    "distinct probe keys fanned out to the triple index")
_PROBE_ROWS = _REG.counter(
    "engine_probe_rows_total",
    "batch rows entering BGP index probes")
_PROBE_BULK = _REG.counter(
    "engine_probe_bulk_total",
    "whole-batch probes answered by vectorized store kernels",
    labels=("kernel",))


class _OpStats:
    """Per-operator accumulator for EXPLAIN ANALYZE runs."""

    __slots__ = ("calls", "seconds", "rows_in", "rows_out")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.rows_in = 0
        self.rows_out = 0


class Executor:
    """Evaluates algebra trees against one graph, a batch at a time."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._dict = graph.dictionary
        # Vectorized probe/fold paths: only when the storage backend
        # exposes the bulk kernel API (columnar).
        self._vec = graph.store.vectorized
        # Overlay interning for query-computed terms: ids -1, -2, ...
        self._extra_by_term: dict[Term, int] = {}
        self._extra_by_id: list[Term] = []
        # Compiled id-space BGP plans, invalidated on graph mutation.
        self._bgp_cache: dict[tuple, object] = {}
        self._bgp_cache_version = -1
        # id → numeric value / order key, stable for the executor's
        # lifetime (ids are append-only in both dictionary and overlay).
        self._num_cache: dict[int, object] = {}
        self._num_tbl = None  # id-indexed float64 view of _num_cache
        self._okey_cache: dict[int, tuple] = {}
        # EXISTS: compiled per group pattern (keyed on the frozen group
        # itself — the strong reference rules out id-reuse staleness) and
        # evaluated by the streaming reference executor for early exit.
        self._exists_cache: dict[GroupPattern, AlgebraOp] = {}
        self._reference = None
        self._ctx = EvalContext(exists=self._exists)
        # EXPLAIN ANALYZE: {id(op): _OpStats} while an explained run is
        # active, else None (the disabled fast path in _eval).
        self._explain: Optional[dict[int, _OpStats]] = None

    # -- term ↔ id bridging ---------------------------------------------------

    def encode_term(self, term: Term) -> int:
        """The id of ``term``: its dictionary id, or a negative overlay id."""
        tid = self._dict.lookup(term)
        if tid is not None:
            return tid
        tid = self._extra_by_term.get(term)
        if tid is None:
            self._extra_by_id.append(term)
            tid = -len(self._extra_by_id)
            self._extra_by_term[term] = tid
        return tid

    def decode_id(self, tid: int) -> Term:
        """The term for an id from either the dictionary or the overlay."""
        if tid >= 0:
            return self._dict.decode(tid)
        return self._extra_by_id[-tid - 1]

    # -- public API -----------------------------------------------------------

    def run(self, op: AlgebraOp, seed: Binding | None = None
            ) -> Iterator[Binding]:
        """Stream the solutions of ``op``, optionally under a seed binding.

        Kept for API compatibility with the seed engine: the batch is
        materialized first, then decoded row by row (unbound variables are
        absent from the yielded dicts, as before).
        """
        batch = self.run_ids(op, seed)
        variables = batch.variables
        decode = self.decode_id
        cache: dict[int, Term] = {}

        def rows() -> Iterator[Binding]:
            columns = batch.columns
            for i in range(len(batch)):
                out: Binding = {}
                for var, col in zip(variables, columns):
                    tid = col[i]
                    if tid is None:
                        continue
                    term = cache.get(tid)
                    if term is None:
                        term = decode(tid)
                        cache[tid] = term
                    out[var] = term
                yield out

        return rows()

    def run_ids(self, op: AlgebraOp, seed: Binding | None = None
                ) -> BindingBatch:
        """Evaluate ``op`` and return the raw id-space result batch."""
        if not _TRACER.enabled:
            return self._eval(op, self._seed_batch(seed))
        with _TRACER.span("executor.run", op=type(op).__name__) as sp:
            batch = self._eval(op, self._seed_batch(seed))
            sp.set_tag("rows_out", len(batch))
            return batch

    def run_ids_explained(self, op: AlgebraOp, seed: Binding | None = None
                          ) -> tuple[BindingBatch, dict[int, _OpStats]]:
        """Evaluate ``op`` with per-operator timing (EXPLAIN ANALYZE).

        Returns the result batch plus ``{id(op): stats}`` records for
        every operator dispatched; fold them back onto the plan with
        :func:`repro.obs.explain.build_query_explain`.
        """
        if self._explain is not None:
            raise QueryEvaluationError(
                "explained evaluation is not re-entrant")
        records: dict[int, _OpStats] = {}
        self._explain = records
        try:
            batch = self.run_ids(op, seed)
        finally:
            self._explain = None
        return batch, records

    def group_table(self, op: AlgebraOp, keys: tuple[Variable, ...],
                    operand: Optional[Variable], kind: str,
                    keep_max: bool = False) -> "GroupTable":
        """Evaluate ``op`` once and fold the raw id batch into a group table.

        This is the shared-scan entry point of rollup materialization:
        the facet pattern runs through the pipeline exactly once, and the
        result batch is aggregated at the grain of ``keys`` *before any
        term is decoded* — only distinct operand ids cross the term
        boundary (for numeric/order coercion).  Coarser granularities
        derive from the returned table via :meth:`GroupTable.project`
        instead of re-running the query.
        """
        from .grouptable import GroupTable
        batch = self.run_ids(op)
        return GroupTable.from_batch(self, batch, keys, operand, kind,
                                     keep_max)

    def run_batch(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        """Evaluate ``op`` under an explicit id-space seed batch.

        The result batch's provenance array maps every output row back to
        the seed row it extends.  This is the delta-evaluation entry
        point: incremental view maintenance seeds the pipeline with
        batches derived from changed triples and reads the provenance to
        attribute matches (and their signed weights) to delta rows.
        """
        return self._eval(op, seed)

    def _seed_batch(self, seed: Binding | None) -> BindingBatch:
        if not seed:
            return BindingBatch.unit()
        variables = tuple(seed)
        columns = [[self.encode_term(seed[v])] for v in variables]
        return BindingBatch(variables, columns, [0])

    def _exists(self, group: GroupPattern, binding: Binding) -> bool:
        op = self._exists_cache.get(group)
        if op is None:
            op = translate_group(group)
            self._exists_cache[group] = op
        if self._reference is None:
            from .reference import ReferenceExecutor
            self._reference = ReferenceExecutor(self._graph)
        for _ in self._reference.run(op, binding):
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    def _eval(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        records = self._explain
        if records is None:
            return self._eval_inner(op, seed)
        start = perf_counter()
        out = self._eval_inner(op, seed)
        elapsed = perf_counter() - start
        stats = records.get(id(op))
        if stats is None:
            records[id(op)] = stats = _OpStats()
        stats.calls += 1
        stats.seconds += elapsed
        stats.rows_in += len(seed)
        stats.rows_out += len(out)
        return out

    def _eval_inner(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        if isinstance(op, UnitOp):
            return seed.renumbered()
        if isinstance(op, BGPOp):
            return self._eval_bgp(op.patterns, seed)
        if isinstance(op, JoinOp):
            left = self._eval(op.left, seed)
            return self._bind_right(op.right, left, outer=False)
        if isinstance(op, LeftJoinOp):
            left = self._eval(op.left, seed)
            return self._bind_right(op.right, left, outer=True)
        if isinstance(op, FilterOp):
            return self._eval_filter(op, seed)
        if isinstance(op, UnionOp):
            return self._eval_union(op, seed)
        if isinstance(op, ExtendOp):
            return self._eval_extend(op, seed)
        if isinstance(op, TableOp):
            return self._eval_table(op, seed)
        if isinstance(op, GroupOp):
            return self._eval_groupby(op, seed)
        if isinstance(op, ProjectOp):
            return self._eval_project(op, seed)
        if isinstance(op, DistinctOp):
            return self._eval_distinct(op, seed)
        if isinstance(op, OrderByOp):
            return self._eval_orderby(op, seed)
        if isinstance(op, SliceOp):
            child = self._eval(op.child, seed)
            stop = None if op.limit is None else op.offset + op.limit
            return child.gather(range(len(child))[op.offset:stop])
        raise QueryEvaluationError(f"unknown operator {type(op).__name__}")

    # -- basic graph patterns -------------------------------------------------

    def _compiled_bgp(self, patterns: tuple[TriplePattern, ...],
                      seed_vars: tuple[Variable, ...]):
        """The cached id-space plan for ``patterns`` under ``seed_vars``.

        Returns ``(specs, order)`` or ``None`` when a constant term is not
        in the dictionary (the BGP can match nothing).  Cache entries are
        keyed on the pattern tuple plus the seed-variable overlap and are
        dropped wholesale when the graph version moves.
        """
        graph = self._graph
        if graph.version != self._bgp_cache_version:
            self._bgp_cache.clear()
            self._bgp_cache_version = graph.version

        pattern_vars: set[Variable] = set()
        for p in patterns:
            pattern_vars.update(p.variables())
        key = (patterns, frozenset(v for v in seed_vars if v in pattern_vars))
        if key in self._bgp_cache:
            if _REG.enabled:
                _BGP_PLAN_HITS.inc()
            return self._bgp_cache[key]
        if _REG.enabled:
            _BGP_PLAN_MISSES.inc()

        dictionary = self._dict
        compiled: Optional[tuple] = None
        specs: list[list[tuple[str, object]]] = []
        possible = True
        for p in patterns:
            spec: list[tuple[str, object]] = []
            for position in p:
                if isinstance(position, Variable):
                    spec.append(("v", position))
                else:
                    tid = dictionary.lookup(position)
                    if tid is None:
                        possible = False
                        break
                    spec.append(("c", tid))
            if not possible:
                break
            specs.append(spec)
        if possible:
            compiled = (specs, self._plan_order(specs, key[1]))
        self._bgp_cache[key] = compiled
        return compiled

    def _plan_order(self, specs: list[list[tuple[str, object]]],
                    seed_vars: frozenset[Variable]) -> list[int]:
        """Greedy selectivity ordering of BGP patterns.

        The base estimate is the exact count of the pattern's constant
        skeleton; each position whose variable will already be bound when
        the pattern runs (from the seed batch or an earlier pattern)
        divides the estimate — bound joins are selective.
        """
        graph = self._graph
        base: list[int] = []
        for spec in specs:
            ids = [payload if kind == "c" else None for kind, payload in spec]
            base.append(graph.count_ids(*ids))  # type: ignore[arg-type]

        remaining = list(range(len(specs)))
        bound_vars: set[Variable] = set(seed_vars)
        order: list[int] = []
        while remaining:
            def score(i: int) -> float:
                estimate = float(base[i])
                for kind, payload in specs[i]:
                    if kind == "v" and payload in bound_vars:
                        estimate /= 20.0
                return estimate

            best = min(remaining, key=score)
            order.append(best)
            remaining.remove(best)
            for kind, payload in specs[best]:
                if kind == "v":
                    bound_vars.add(payload)  # type: ignore[arg-type]
        return order

    def _eval_bgp(self, patterns: tuple[TriplePattern, ...],
                  seed: BindingBatch) -> BindingBatch:
        if not patterns:
            return seed.renumbered()
        compiled = self._compiled_bgp(patterns, seed.variables)
        cur = seed.renumbered()
        if compiled is None:
            return BindingBatch.empty(cur.variables)
        specs, order = compiled
        for i in order:
            cur = self._probe(cur, specs[i])
        return cur

    def _probe(self, cur: BindingBatch,
               spec: list[tuple[str, object]]) -> BindingBatch:
        """Extend every row of ``cur`` with the matches of one pattern.

        The pattern is probed once per *distinct* probe key (the row's
        current ids for the pattern's bound variables, ``None`` acting as
        a wildcard), and match ids are fanned back across the rows that
        share the key — a hash join between the batch and the index.
        Bound columns pass through untouched; only newly-bound (or
        partially-unbound) variables get columns built in the loop.
        """
        graph = self._graph
        n = len(cur)
        index = cur.index
        cols = cur.columns

        # Classify positions: constant id, bound-variable column, free var.
        const_ids: list[Optional[int]] = [None, None, None]
        pos_vars: list[Optional[Variable]] = [None, None, None]
        bound_cols: list[Optional[list]] = [None, None, None]
        for k, (kind, payload) in enumerate(spec):
            if kind == "c":
                const_ids[k] = payload  # type: ignore[assignment]
            else:
                pos_vars[k] = payload  # type: ignore[assignment]
                ci = index.get(payload)  # type: ignore[arg-type]
                if ci is not None:
                    bound_cols[k] = cols[ci]

        # Variables whose output column must be (re)built: new variables,
        # plus bound ones whose column has unbound holes (OPTIONAL
        # upstream).  Fully-bound columns pass through by gather/sharing.
        rebuild_vars: list[Variable] = []
        rebuild_ord: dict[Variable, int] = {}
        rebuild_first_pos: list[int] = []
        for k in (0, 1, 2):
            var = pos_vars[k]
            if var is None or var in rebuild_ord:
                continue
            col = bound_cols[k]
            if col is None or None in col:
                rebuild_ord[var] = len(rebuild_vars)
                rebuild_vars.append(var)
                rebuild_first_pos.append(k)
        pos_ord: list[Optional[int]] = [
            rebuild_ord.get(pos_vars[k]) if pos_vars[k] is not None else None
            for k in (0, 1, 2)]
        rebuild_cols: list[list] = [[] for _ in rebuild_vars]
        n_rebuild = len(rebuild_vars)

        bound_positions = [k for k in (0, 1, 2) if bound_cols[k] is not None]
        const_positions = [k for k in (0, 1, 2) if const_ids[k] is not None]

        # Columnar stores answer clean probe shapes wholesale: one
        # searchsorted pass over the whole batch instead of one index walk
        # per distinct key.  Repeated pattern variables and holey bound
        # columns need per-row wildcard semantics and stay on the loops.
        if self._vec and n:
            pattern_vars = [v for v in pos_vars if v is not None]
            if (len(set(pattern_vars)) == len(pattern_vars)
                    and all(pos_ord[k] is None for k in bound_positions)):
                out = self._probe_bulk(cur, n, const_ids, bound_cols,
                                       bound_positions, const_positions,
                                       rebuild_vars, rebuild_first_pos)
                if out is not None:
                    return out

        # Group rows by the values of the bound positions only — the
        # constants are shared by every row and stay out of the hash key.
        groups: dict = {}
        if not bound_positions:
            groups[None] = range(n) if n else []
        elif len(bound_positions) == 1:
            for i, key in enumerate(bound_cols[bound_positions[0]]):
                group = groups.get(key)
                if group is None:
                    groups[key] = [i]
                else:
                    group.append(i)
        else:
            for i, key in enumerate(zip(
                    *(bound_cols[k] for k in bound_positions))):
                group = groups.get(key)
                if group is None:
                    groups[key] = [i]
                else:
                    group.append(i)

        if _REG.enabled:
            _PROBE_ROWS.inc(n)
            _PROBE_KEYS.inc(len(groups))

        out_index: list[int] = []

        # Fast path — one clean bound column, one constant, one fresh
        # variable: each group is a single hoisted index-leaf lookup.
        if (len(bound_positions) == 1 and len(const_positions) == 1
                and n_rebuild == 1
                and pos_ord[bound_positions[0]] is None):
            bpos = bound_positions[0]
            fpos = rebuild_first_pos[0]
            leaf = graph.pair_adjacency(bpos, fpos,
                                        const_ids[const_positions[0]])
            free_col = rebuild_cols[0]
            for key, rows in groups.items():
                values = leaf(key)
                if not values:
                    continue
                values = list(values)
                m = len(values)
                if m == 1:
                    out_index.extend(rows)
                    free_col.extend(values * len(rows))
                else:
                    for r in rows:
                        out_index.extend([r] * m)
                    free_col.extend(values * len(rows))
        else:
            out_index = self._probe_general(
                graph, groups, const_ids, pos_vars, bound_positions,
                pos_ord, rebuild_first_pos, rebuild_cols)

        # Assemble: rebuilt columns were made in the loop; every other
        # column (and provenance) is gathered through out_index — unless
        # the probe kept every row in place (the common one-match-per-row
        # case), where untouched columns are simply shared.
        identity = len(out_index) == n and out_index == list(range(n))
        out_vars = list(cur.variables)
        out_cols: list[list] = []
        for var in cur.variables:
            ordinal = rebuild_ord.get(var)
            if ordinal is not None:
                out_cols.append(rebuild_cols[ordinal])
            elif identity:
                out_cols.append(cols[index[var]])
            else:
                col = cols[index[var]]
                out_cols.append([col[i] for i in out_index])
        for ordinal, var in enumerate(rebuild_vars):
            if var not in index:
                out_vars.append(var)
                out_cols.append(rebuild_cols[ordinal])
        prov = cur.prov
        return BindingBatch(tuple(out_vars), out_cols,
                            prov if identity else [prov[i] for i in out_index])

    def _bulk_gather(self, columns, prov: list, rows) -> tuple[list, list]:
        """Gather batch columns + provenance through a numpy row index.

        Clean int columns gather in C; holey ones (None from OPTIONAL
        upstream) fall back to the python loop per column.
        """
        idx = None
        out_cols = []
        for col in columns:
            try:
                arr = np.asarray(col, dtype=np.int64)
            except (TypeError, ValueError):
                if idx is None:
                    idx = rows.tolist()
                out_cols.append([col[i] for i in idx])
                continue
            out_cols.append(arr[rows].tolist())
        out_prov = np.asarray(prov, dtype=np.int64)[rows].tolist()
        return out_cols, out_prov

    def _probe_bulk(self, cur: BindingBatch, n: int,
                    const_ids: list[Optional[int]],
                    bound_cols: list[Optional[list]],
                    bound_positions: list[int],
                    const_positions: list[int],
                    rebuild_vars: list[Variable],
                    rebuild_first_pos: list[int]
                    ) -> Optional[BindingBatch]:
        """One searchsorted pass for the whole batch (columnar stores).

        Covers the vectorizable probe shapes: constant-skeleton scans,
        leaf probes (one bound + one constant), a-range probes (one
        bound, two free), packed pair probes (two bound, one free), and
        existence masks (one bound + two constants).  Every rebuilt
        variable is fresh in these shapes (a bound one would make its
        column holey, which the caller already excluded), so match ids
        gather straight out of the store's sorted columns.  Returns
        ``None`` when the shape is outside the kernels' reach.
        """
        store = self._graph.store
        nb = len(bound_positions)
        nc = len(const_positions)
        nf = len(rebuild_vars)
        prov = cur.prov

        if nb == 0:
            # Constant skeleton: every row sees the same matches.
            count, value_cols = store.bulk_scan(tuple(const_ids))
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                _PROBE_KEYS.inc(1)
                _PROBE_BULK.inc(1, ("scan",))
            new_vars = tuple(rebuild_vars)
            if count == 0:
                return BindingBatch.empty(cur.variables + new_vars)
            if count == 1:
                out_cols = list(cur.columns)
                for k in rebuild_first_pos:
                    out_cols.append([int(value_cols[k][0])] * n)
                return BindingBatch(cur.variables + new_vars, out_cols, prov)
            rows = np.repeat(np.arange(n), count)
            out_cols, out_prov = self._bulk_gather(cur.columns, prov, rows)
            for k in rebuild_first_pos:
                out_cols.append(np.tile(value_cols[k], n).tolist())
            return BindingBatch(cur.variables + new_vars, out_cols, out_prov)

        if nb == 1 and nc == 2 and nf == 0:
            # Fully grounded per row: a membership mask.
            keys = np.asarray(bound_cols[bound_positions[0]], dtype=np.int64)
            mask = store.bulk_exists(bound_positions[0], tuple(const_ids),
                                     keys)
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                _PROBE_KEYS.inc(int(np.unique(keys).size))
                _PROBE_BULK.inc(1, ("exists",))
            if mask.all():
                return cur
            rows = np.flatnonzero(mask)
            out_cols, out_prov = self._bulk_gather(cur.columns, prov, rows)
            return BindingBatch(cur.variables, out_cols, out_prov)

        if (nb == 1 and (nc, nf) in ((1, 1), (0, 2))) \
                or (nb == 2 and nc == 0 and nf == 1):
            key_arrays = [np.asarray(bound_cols[k], dtype=np.int64)
                          for k in bound_positions]
            starts, ends, value_cols = store.bulk_probe(
                tuple(bound_positions), tuple(const_ids), key_arrays)
            counts = ends - starts
            total = int(counts.sum())
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                if nb == 1:
                    _PROBE_KEYS.inc(int(np.unique(key_arrays[0]).size))
                else:
                    _PROBE_KEYS.inc(int(np.unique(
                        np.column_stack(key_arrays), axis=0).shape[0]))
                _PROBE_BULK.inc(
                    1, ("pair" if nb == 2 else "leaf" if nc else "range",))
            new_vars = tuple(rebuild_vars)
            if total == 0:
                return BindingBatch.empty(cur.variables + new_vars)
            if total == n and bool((counts == 1).all()):
                # Exactly one match per row: columns pass through shared.
                out_cols = list(cur.columns)
                for k in rebuild_first_pos:
                    out_cols.append(value_cols[k][starts].tolist())
                return BindingBatch(cur.variables + new_vars, out_cols, prov)
            # Ragged gather: row i contributes counts[i] output rows whose
            # match ids are the store rows [starts[i], ends[i]).
            out_rows = np.repeat(np.arange(n), counts)
            prev = np.cumsum(counts) - counts
            gather = (np.arange(total) - np.repeat(prev, counts)
                      + np.repeat(starts, counts))
            out_cols, out_prov = self._bulk_gather(cur.columns, prov,
                                                   out_rows)
            for k in rebuild_first_pos:
                out_cols.append(value_cols[k][gather].tolist())
            return BindingBatch(cur.variables + new_vars, out_cols, out_prov)
        return None

    def _probe_general(self, graph: Graph, groups: dict,
                       const_ids: list[Optional[int]],
                       pos_vars: list[Optional[Variable]],
                       bound_positions: list[int],
                       pos_ord: list[Optional[int]],
                       rebuild_first_pos: list[int],
                       rebuild_cols: list[list]) -> list[int]:
        """The general probe loop: any mix of wildcards per group."""
        out_index: list[int] = []
        n_rebuild = len(rebuild_cols)
        match_ids = graph.match_ids
        adjacent_ids = graph.adjacent_ids
        count_ids = graph.count_ids
        single_bound = len(bound_positions) == 1

        for group_key, rows in groups.items():
            probe: list[Optional[int]] = list(const_ids)
            if single_bound:
                probe[bound_positions[0]] = group_key
            elif bound_positions:
                for k, value in zip(bound_positions, group_key):
                    probe[k] = value
            free = [k for k in (0, 1, 2)
                    if probe[k] is None and pos_vars[k] is not None]
            nrows = len(rows)

            if not free:
                # Fully bound: a pure existence probe.
                if not count_ids(probe[0], probe[1], probe[2]):
                    continue
                out_index.extend(rows)
                for ordinal in range(n_rebuild):
                    rebuild_cols[ordinal].extend(
                        [probe[rebuild_first_pos[ordinal]]] * nrows)
                continue

            if len(free) == 1:
                # One wildcard: the index leaf set *is* the match list.
                values = adjacent_ids(probe[0], probe[1], probe[2])
                if not values:
                    continue
                values = list(values)
                m = len(values)
                for r in rows:
                    out_index.extend([r] * m)
                filled = pos_ord[free[0]]
                rebuild_cols[filled].extend(values * nrows)  # type: ignore
                for ordinal in range(n_rebuild):
                    if ordinal != filled:
                        rebuild_cols[ordinal].extend(
                            [probe[rebuild_first_pos[ordinal]]] * (nrows * m))
                continue

            # Two or three wildcards: walk the index, keeping repeated-
            # variable positions consistent.
            free_vars = [pos_vars[k] for k in free]
            duplicated = len(set(free_vars)) != len(free_vars)
            collected: list[list[int]] = [[] for _ in free]
            for ids in match_ids(probe[0], probe[1], probe[2]):
                if duplicated:
                    seen: dict[Variable, int] = {}
                    ok = True
                    for k in free:
                        var = pos_vars[k]
                        prev = seen.get(var)  # type: ignore[arg-type]
                        if prev is None:
                            seen[var] = ids[k]  # type: ignore[index]
                        elif prev != ids[k]:
                            ok = False
                            break
                    if not ok:
                        continue
                for j, k in enumerate(free):
                    collected[j].append(ids[k])
            m = len(collected[0])
            if not m:
                continue
            for r in rows:
                out_index.extend([r] * m)
            filled_ords: set[int] = set()
            for j, k in enumerate(free):
                ordinal = pos_ord[k]
                if ordinal in filled_ords:  # repeated free var: one column
                    continue
                filled_ords.add(ordinal)  # type: ignore[arg-type]
                rebuild_cols[ordinal].extend(collected[j] * nrows)  # type: ignore
            for ordinal in range(n_rebuild):
                if ordinal not in filled_ords:
                    rebuild_cols[ordinal].extend(
                        [probe[rebuild_first_pos[ordinal]]] * (nrows * m))
        return out_index

    # -- joins -----------------------------------------------------------------

    def _bind_right(self, right_op: AlgebraOp, left: BindingBatch,
                    outer: bool) -> BindingBatch:
        """Join ``left`` with ``right_op`` (outer = OPTIONAL semantics).

        The right side is evaluated under the *deduplicated* projection of
        the left batch onto the variables the right side can observe, then
        hash-joined back onto the full left batch via provenance — the
        right subtree runs once per distinct shared-variable combination
        instead of once per left row.
        """
        mentioned = _op_variables(right_op)
        if mentioned is None:
            shared = left.variables
        else:
            shared = tuple(v for v in left.variables if v in mentioned)

        keys = left.key_tuples(shared)
        by_key, row_map = dedup_rows(keys)
        seed_cols: list[list] = [[] for _ in shared]
        for key in by_key:
            for col, value in zip(seed_cols, key):
                col.append(value)
        sub_seed = BindingBatch(shared, seed_cols,
                                list(range(len(by_key))))
        right = self._eval(right_op, sub_seed)

        matches: dict[int, list[int]] = {}
        for j, s in enumerate(right.prov):
            bucket = matches.get(s)
            if bucket is None:
                matches[s] = [j]
            else:
                bucket.append(j)

        left_set = left.index
        right_only = tuple(v for v in right.variables if v not in left_set)
        out_left: list[int] = []
        out_right: list[Optional[int]] = []  # None = unmatched outer row
        for i in range(len(left)):
            bucket = matches.get(row_map[i])
            if bucket:
                for j in bucket:
                    out_left.append(i)
                    out_right.append(j)
            elif outer:
                out_left.append(i)
                out_right.append(None)

        out_vars = left.variables + right_only
        out_cols: list[list] = []
        right_index = right.index
        for var in left.variables:
            lcol = left.columns[left_set[var]]
            k = right_index.get(var)
            if k is None:
                out_cols.append([lcol[i] for i in out_left])
            else:
                # A shared variable may be unbound on the left (OPTIONAL
                # upstream) and bound by the right side.
                rcol = right.columns[k]
                out_cols.append([
                    lcol[i] if lcol[i] is not None or j is None else rcol[j]
                    for i, j in zip(out_left, out_right)])
        for var in right_only:
            rcol = right.columns[right_index[var]]
            out_cols.append([None if j is None else rcol[j]
                             for j in out_right])
        prov = left.prov
        return BindingBatch(out_vars, out_cols, [prov[i] for i in out_left])

    def _eval_union(self, op: UnionOp, seed: BindingBatch) -> BindingBatch:
        branches = [self._eval(b, seed) for b in op.branches]
        out_vars: list[Variable] = []
        seen: set[Variable] = set()
        for b in branches:
            for v in b.variables:
                if v not in seen:
                    seen.add(v)
                    out_vars.append(v)
        out_cols: list[list] = [[] for _ in out_vars]
        prov: list[int] = []
        for b in branches:
            n = len(b)
            for col, var in zip(out_cols, out_vars):
                k = b.index.get(var)
                if k is None:
                    col.extend([None] * n)
                else:
                    col.extend(b.columns[k])
            prov.extend(b.prov)
        return BindingBatch(tuple(out_vars), out_cols, prov)

    def _eval_table(self, op: TableOp, seed: BindingBatch) -> BindingBatch:
        encode = self.encode_term
        enc_rows = [tuple(None if t is None else encode(t) for t in row)
                    for row in op.rows]
        tvars = op.variables
        new_vars = tuple(v for v in tvars if v not in seed.index)
        out_vars = seed.variables + new_vars
        shared = [(k, seed.index[v]) for k, v in enumerate(tvars)
                  if v in seed.index]

        out_index: list[int] = []
        merged_rows: list[tuple] = []
        seed_cols = seed.columns
        for i in range(len(seed)):
            for row in enc_rows:
                compatible = True
                for tpos, spos in shared:
                    tv = row[tpos]
                    if tv is None:
                        continue
                    sv = seed_cols[spos][i]
                    if sv is not None and sv != tv:
                        compatible = False
                        break
                if compatible:
                    out_index.append(i)
                    merged_rows.append(row)

        out_cols: list[list] = []
        for var in seed.variables:
            col = seed_cols[seed.index[var]]
            if var in tvars:
                tpos = tvars.index(var)
                out_cols.append([
                    col[i] if row[tpos] is None or col[i] is not None
                    else row[tpos]
                    for i, row in zip(out_index, merged_rows)])
            else:
                out_cols.append([col[i] for i in out_index])
        for var in new_vars:
            tpos = tvars.index(var)
            out_cols.append([row[tpos] for row in merged_rows])
        prov = seed.prov
        return BindingBatch(out_vars, out_cols, [prov[i] for i in out_index])

    # -- expression evaluation over batches -----------------------------------

    def _per_row_eval(self, batch: BindingBatch,
                      needed: tuple[Variable, ...],
                      fn: Callable[[Binding], object]) -> list:
        """``fn`` applied to each row's (partial) binding, memoized per
        distinct id tuple — the expression analogue of the batched probe."""
        present = [v for v in needed if v in batch.index]
        decode = self.decode_id
        term_cache: dict[int, Term] = {}

        def binding_for(key: tuple) -> Binding:
            out: Binding = {}
            for var, tid in zip(present, key):
                if tid is None:
                    continue
                term = term_cache.get(tid)
                if term is None:
                    term = decode(tid)
                    term_cache[tid] = term
                out[var] = term
            return out

        if not present:
            value = fn({})
            return [value] * len(batch)
        cols = [batch.columns[batch.index[v]] for v in present]
        memo: dict = {}
        out_values = []
        if len(cols) == 1:
            for tid in cols[0]:
                if tid in memo:
                    out_values.append(memo[tid])
                else:
                    value = fn(binding_for((tid,)))
                    memo[tid] = value
                    out_values.append(value)
            if _REG.enabled:
                _DECODE_MEMO_MISSES.inc(len(memo))
                _DECODE_MEMO_HITS.inc(len(out_values) - len(memo))
            return out_values
        for key in zip(*cols):
            if key in memo:
                out_values.append(memo[key])
            else:
                value = fn(binding_for(key))
                memo[key] = value
                out_values.append(value)
        if _REG.enabled:
            _DECODE_MEMO_MISSES.inc(len(memo))
            _DECODE_MEMO_HITS.inc(len(out_values) - len(memo))
        return out_values

    def _needed_vars(self, batch: BindingBatch,
                     expr: Expression) -> tuple[Variable, ...]:
        """The batch variables an expression evaluation can observe.

        EXISTS sub-groups may reference any outer variable (including some
        its ``variables()`` summary misses, e.g. filter-only mentions), so
        their presence widens the slice to the whole row.
        """
        if _mentions_exists(expr):
            return batch.variables
        evars = expr.variables()
        return tuple(v for v in batch.variables if v in evars)

    def _eval_filter(self, op: FilterOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        expr = op.expression
        ctx = self._ctx
        flags = self._per_row_eval(
            child, self._needed_vars(child, expr),
            lambda binding: evaluate_ebv(expr, binding, ctx))
        keep = [i for i, flag in enumerate(flags) if flag]
        if len(keep) == len(child):
            return child
        return child.gather(keep)

    def _eval_extend(self, op: ExtendOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        k = child.index.get(op.var)
        if k is not None and any(v is not None for v in child.columns[k]):
            raise QueryEvaluationError(
                f"BIND would rebind already-bound variable ?{op.var.name}")
        expr = op.expression
        ctx = self._ctx
        encode = self.encode_term

        if isinstance(expr, VarExpr):
            # BIND(?x AS ?y): the column is the value (common for the
            # internal aggregate variables the translator introduces).
            src = child.index.get(expr.var)
            new_col = list(child.columns[src]) if src is not None \
                else [None] * len(child)
        elif isinstance(expr, TermExpr):
            tid = encode(expr.term)
            new_col = [tid] * len(child)
        else:
            def compute(binding: Binding) -> Optional[int]:
                try:
                    value = evaluate(expr, binding, ctx)
                except ExpressionError:
                    return None
                return None if value is None else encode(value)

            new_col = self._per_row_eval(
                child, self._needed_vars(child, expr), compute)
        if k is not None:
            columns = list(child.columns)
            columns[k] = new_col
            return BindingBatch(child.variables, columns, child.prov)
        return BindingBatch(child.variables + (op.var,),
                            child.columns + [new_col], child.prov)

    # -- grouping -------------------------------------------------------------

    def _group_single(self, col: list, n: int) -> Optional[tuple]:
        """First-row-ordered ``({id: member rows}, gid-per-row)`` via argsort.

        The vectorized grouping kernel: one ``np.unique`` + stable
        argsort instead of n dict probes.  The second element maps each
        batch row to its group's output index so aggregate folds can
        histogram without rebuilding membership.  Returns ``None`` when
        the key column holds unbound rows (the dict loop owns None
        groups) or vectorization is off.
        """
        if not self._vec or not n:
            return None
        try:
            arr = np.asarray(col, dtype=np.int64)
        except (TypeError, ValueError):
            return None
        uniq, first, inverse, counts = np.unique(
            arr, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        gids = rank[inverse]
        members = np.split(np.argsort(gids, kind="stable"),
                           np.cumsum(counts[order])[:-1])
        return {key: rows.tolist()
                for key, rows in zip(uniq[order].tolist(), members)}, gids

    def _group_multi(self, cols: list, n: int) -> Optional[tuple]:
        """First-row-ordered ``({id tuple: member rows}, gid-per-row)``.

        The multi-key analogue of :meth:`_group_single`: one stable
        lexsort + run detection instead of n tuple hashes.  ``None``
        anywhere (missing key column or unbound row) falls back.
        """
        if not self._vec or not n or not cols \
                or any(c is None for c in cols):
            return None
        try:
            arrs = [np.asarray(c, dtype=np.int64) for c in cols]
        except (TypeError, ValueError):
            return None
        # lexsort keys run least-significant first; stability keeps rows
        # of equal keys in row order, so each run leads with its first row.
        order = np.lexsort(arrs[::-1])
        sorted_cols = [a[order] for a in arrs]
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for a in sorted_cols:
            change[1:] |= a[1:] != a[:-1]
        run_starts = np.flatnonzero(change)
        run_ends = np.append(run_starts[1:], n)
        first_rows = order[run_starts]
        perm = np.argsort(first_rows, kind="stable")
        inv_perm = np.empty(len(run_starts), dtype=np.int64)
        inv_perm[perm] = np.arange(len(run_starts))
        gids = np.empty(n, dtype=np.int64)
        gids[order] = inv_perm[np.cumsum(change) - 1]
        groups: dict = {}
        for gi in perm.tolist():
            lo = int(run_starts[gi])
            hi = int(run_ends[gi])
            key = tuple(int(a[lo]) for a in sorted_cols)
            groups[key] = order[lo:hi].tolist()
        return groups, gids

    def _group_counts(self, col: list, n: int) -> Optional[dict]:
        """First-row-ordered ``{id: row count}`` — the COUNT(*) fold.

        Like :meth:`_group_single` but skips materializing member lists;
        group tables folding pure row counts only need the histogram.
        """
        if not self._vec or not n:
            return None
        try:
            arr = np.asarray(col, dtype=np.int64)
        except (TypeError, ValueError):
            return None
        uniq, first, counts = np.unique(arr, return_index=True,
                                        return_counts=True)
        order = np.argsort(first, kind="stable")
        return dict(zip(uniq[order].tolist(), counts[order].tolist()))

    def _fold_sum_np(self, fast_col: list, member_lists: list[list[int]],
                     want_avg: bool, gids=None
                     ) -> Optional[list[Optional[int]]]:
        """Vectorized SUM/AVG over an all-integer operand column.

        Operand values live in a growable id-indexed float64 table: an id
        is decoded at most once per executor lifetime, after which the
        per-row value map is a single C gather and the per-group totals
        are histogram folds.  NaN marks a not-yet-decoded slot, +inf a
        value the scalar scan owns (unbound/non-numeric/non-integer, or
        big enough that float64 accumulation could round — the scalar
        path keeps exact poisoning and arbitrary-precision semantics).
        """
        n = len(fast_col)
        if not n:
            return None
        try:  # unbound (None) rows raise: the scalar scan owns poisoning
            arr = np.asarray(fast_col, dtype=np.int64)
        except (TypeError, ValueError):
            return None
        if int(arr.min()) < 0:  # overlay ids: keep the scalar scan
            return None
        tbl = self._num_tbl
        need = int(arr.max()) + 1
        if tbl is None or len(tbl) < need:
            cap = max(need, 1024 if tbl is None else 2 * len(tbl))
            fresh = np.full(cap, np.nan)
            if tbl is not None:
                fresh[:len(tbl)] = tbl
            self._num_tbl = tbl = fresh
        row_vals = tbl[arr]
        miss = np.isnan(row_vals)
        if miss.any():
            numbers = self._num_cache
            decode = self.decode_id
            for tid in np.unique(arr[miss]).tolist():
                value = numbers.get(tid)
                if value is None:
                    try:
                        value = to_number(decode(tid))
                    except ExpressionError:
                        value = _EVAL_ERROR
                    numbers[tid] = value
                if (value is _EVAL_ERROR or type(value) is not int
                        or not -2 ** 52 < value < 2 ** 52):
                    tbl[tid] = np.inf
                else:
                    tbl[tid] = float(value)
            row_vals = tbl[arr]
        # Every partial sum stays exact in float64 when the total
        # absolute mass is below 2**52 (inf rows also trip this guard).
        if float(np.abs(row_vals).sum()) >= 2.0 ** 52:
            return None
        k = len(member_lists)
        if gids is None:
            gids = np.empty(n, dtype=np.int64)
            for gi, members in enumerate(member_lists):
                gids[members] = gi
        sums = np.bincount(gids, weights=row_vals, minlength=k)
        encode = self.encode_term
        if not want_avg:
            return [encode(numeric_result(int(total)))
                    for total in sums.tolist()]
        counts = np.bincount(gids, minlength=k)
        out: list[Optional[int]] = []
        for total, count in zip(sums.tolist(), counts.tolist()):
            if count == 0:
                out.append(encode(typed_literal(0)))
            else:
                out.append(encode(typed_literal(int(total) / count)))
        return out

    def _eval_groupby(self, op: GroupOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        n = len(child)
        single_key = len(op.keys) == 1
        gids = None
        if single_key:
            k = child.index.get(op.keys[0])
            keys = child.columns[k] if k is not None else [None] * n
            grouped = self._group_single(keys, n)
            if grouped is not None:
                groups, gids = grouped
            else:
                groups = {}
                for i, key in enumerate(keys):
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = [i]
                    else:
                        bucket.append(i)
        else:
            groups = None
            if self._vec:
                kcols = [child.columns[k] if (k := child.index.get(v))
                         is not None else None for v in op.keys]
                grouped = self._group_multi(kcols, n)
                if grouped is not None:
                    groups, gids = grouped
            if groups is None:
                groups = child.group_rows(op.keys)
        if not groups and not op.keys:
            groups[()] = []  # implicit single group over empty input

        member_lists = list(groups.values())
        key_cols: list[list] = [[] for _ in op.keys]
        if single_key:
            key_cols[0] = list(groups)
        else:
            for key in groups:
                for col, tid in zip(key_cols, key):
                    col.append(tid)

        agg_cols = [self._aggregate_column(child, agg, member_lists, gids)
                    for _var, agg in op.aggregates]
        out_vars = op.keys + tuple(var for var, _agg in op.aggregates)
        return BindingBatch(out_vars, key_cols + agg_cols,
                            [0] * len(member_lists))

    def _aggregate_column(self, child: BindingBatch, agg: AggregateExpr,
                          member_lists: list[list[int]],
                          gids=None) -> list[Optional[int]]:
        """One aggregate evaluated over every group, in id-space.

        Non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a plain variable — the
        whole SOFOS query class — run on ids with a per-distinct-id numeric
        memo and never build accumulator objects; everything else falls
        back to the spec-faithful accumulators.
        """
        encode = self.encode_term
        operand = agg.operand
        if operand is None:  # COUNT(*)
            return [encode(typed_literal(len(members)))
                    for members in member_lists]

        fast_col: Optional[list] = None
        if not agg.distinct and isinstance(operand, VarExpr):
            k = child.index.get(operand.var)
            fast_col = child.columns[k] if k is not None \
                else [None] * len(child)

        if fast_col is not None and agg.name == "COUNT":
            if self._vec and None not in fast_col:
                # Fully-bound column: the member count is the answer.
                return [encode(typed_literal(len(members)))
                        for members in member_lists]
            return [encode(typed_literal(
                sum(1 for i in members if fast_col[i] is not None)))
                for members in member_lists]

        if fast_col is not None and agg.name in ("SUM", "AVG"):
            if self._vec:
                out = self._fold_sum_np(fast_col, member_lists,
                                        agg.name == "AVG", gids)
                if out is not None:
                    return out
            decode = self.decode_id
            numbers = self._num_cache
            out: list[Optional[int]] = []
            for members in member_lists:
                total: int | float = 0
                count = 0
                poisoned = False
                for i in members:
                    tid = fast_col[i]
                    if tid is None:  # unbound poisons SUM/AVG
                        poisoned = True
                        break
                    value = numbers.get(tid)
                    if value is None:
                        try:
                            value = to_number(decode(tid))
                        except ExpressionError:
                            value = _EVAL_ERROR
                        numbers[tid] = value
                    if value is _EVAL_ERROR:
                        poisoned = True
                        break
                    total += value  # type: ignore[operator]
                    count += 1
                if poisoned:
                    out.append(None)
                elif agg.name == "SUM":
                    out.append(encode(numeric_result(total)))
                elif count == 0:
                    out.append(encode(typed_literal(0)))
                else:
                    out.append(encode(typed_literal(total / count)))
            return out

        if fast_col is not None and agg.name in ("MIN", "MAX"):
            decode = self.decode_id
            keep_max = agg.name == "MAX"
            sort_keys = self._okey_cache
            out = []
            for members in member_lists:
                best: Optional[int] = None
                best_key: Optional[tuple] = None
                poisoned = False
                for i in members:
                    tid = fast_col[i]
                    if tid is None:  # unbound poisons MIN/MAX
                        poisoned = True
                        break
                    key = sort_keys.get(tid)
                    if key is None:
                        key = order_key(decode(tid))
                        sort_keys[tid] = key
                    if best_key is None or (key > best_key if keep_max
                                            else key < best_key):
                        best, best_key = tid, key
                out.append(None if poisoned else best)
            return out

        # Generic path: accumulators over per-row operand terms.
        ctx = self._ctx
        if fast_col is not None:
            decode = self.decode_id
            term_memo: dict[int, Term] = {}

            def term_at(i: int) -> Optional[Term]:
                tid = fast_col[i]
                if tid is None:
                    return None
                term = term_memo.get(tid)
                if term is None:
                    term = decode(tid)
                    term_memo[tid] = term
                return term

            values = None
        else:
            def compute(binding: Binding, _e=operand):
                try:
                    return evaluate(_e, binding, ctx)
                except ExpressionError:
                    return _EVAL_ERROR

            values = self._per_row_eval(
                child, self._needed_vars(child, operand), compute)

        out = []
        for members in member_lists:
            acc = make_accumulator(agg.name, agg.distinct, agg.separator)
            if values is None:
                for i in members:
                    acc.add(term_at(i))
            else:
                for i in members:
                    value = values[i]
                    acc.add(None if value is _EVAL_ERROR else value)
            result = acc.result()
            out.append(None if result is None else encode(result))
        return out

    # -- solution modifiers ---------------------------------------------------

    def _eval_project(self, op: ProjectOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        n = len(child)
        cols = []
        for var in op.variables:
            k = child.index.get(var)
            cols.append(child.columns[k] if k is not None else [None] * n)
        return BindingBatch(op.variables, cols, child.prov)

    def _eval_distinct(self, op: DistinctOp, seed: BindingBatch
                       ) -> BindingBatch:
        child = self._eval(op.child, seed)
        seen: set[tuple] = set()
        keep: list[int] = []
        for i, row in enumerate(child.row_tuples()):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        if len(keep) == len(child):
            return child
        return child.gather(keep)

    def _eval_orderby(self, op: OrderByOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        ctx = self._ctx
        idx = list(range(len(child)))
        # Stable-sort from the least-significant condition backwards so the
        # per-condition ascending/descending flags compose correctly.
        for condition in reversed(op.conditions):
            expr = condition.expression

            def compute(binding: Binding, _e=expr) -> tuple:
                try:
                    return order_key(evaluate(_e, binding, ctx))
                except ExpressionError:
                    return (0,)

            sort_keys = self._per_row_eval(
                child, self._needed_vars(child, expr), compute)
            idx.sort(key=sort_keys.__getitem__,
                     reverse=not condition.ascending)
        return child.gather(idx)


# --------------------------------------------------------------------------
# Static analysis helpers
# --------------------------------------------------------------------------

def _mentions_exists(expr: Expression) -> bool:
    if isinstance(expr, ExistsExpr):
        return True
    if isinstance(expr, (OrExpr, AndExpr, CompareExpr, ArithExpr)):
        return _mentions_exists(expr.left) or _mentions_exists(expr.right)
    if isinstance(expr, (NotExpr, NegExpr)):
        return _mentions_exists(expr.operand)
    if isinstance(expr, FuncCall):
        return any(_mentions_exists(a) for a in expr.args)
    if isinstance(expr, InExpr):
        return (_mentions_exists(expr.operand)
                or any(_mentions_exists(o) for o in expr.options))
    if isinstance(expr, AggregateExpr):
        return expr.operand is not None and _mentions_exists(expr.operand)
    return False


def _expr_variables(expr: Expression) -> Optional[set[Variable]]:
    """Variables an expression can observe; None = potentially any (EXISTS)."""
    if _mentions_exists(expr):
        return None
    return expr.variables()


def _op_variables(op: AlgebraOp) -> Optional[set[Variable]]:
    """All variables an operator subtree can observe or bind.

    ``None`` means "cannot be determined" (an EXISTS filter may peek at any
    outer variable); callers must then assume the whole seed row matters.
    This drives the deduplicated seeding of join right-hand sides.
    """
    if isinstance(op, UnitOp):
        return set()
    if isinstance(op, BGPOp):
        out: set[Variable] = set()
        for p in op.patterns:
            out.update(p.variables())
        return out
    if isinstance(op, (JoinOp, LeftJoinOp)):
        left = _op_variables(op.left)
        right = _op_variables(op.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(op, UnionOp):
        out = set()
        for branch in op.branches:
            sub = _op_variables(branch)
            if sub is None:
                return None
            out.update(sub)
        return out
    if isinstance(op, FilterOp):
        child = _op_variables(op.child)
        evars = _expr_variables(op.expression)
        if child is None or evars is None:
            return None
        return child | evars
    if isinstance(op, ExtendOp):
        child = _op_variables(op.child)
        evars = _expr_variables(op.expression)
        if child is None or evars is None:
            return None
        return child | evars | {op.var}
    if isinstance(op, TableOp):
        return set(op.variables)
    if isinstance(op, GroupOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        out = child | set(op.keys)
        for var, agg in op.aggregates:
            out.add(var)
            if agg.operand is not None:
                evars = _expr_variables(agg.operand)
                if evars is None:
                    return None
                out.update(evars)
        return out
    if isinstance(op, ProjectOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        return child | set(op.variables)
    if isinstance(op, (DistinctOp, SliceOp)):
        return _op_variables(op.child)
    if isinstance(op, OrderByOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        out = set(child)
        for condition in op.conditions:
            evars = _expr_variables(condition.expression)
            if evars is None:
                return None
            out.update(evars)
        return out
    return None
