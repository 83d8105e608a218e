"""Incremental view maintenance: group-level patching of materialized views.

The catalog's only maintenance primitive used to be ``refresh()`` — throw
the view graph away and re-run the aggregation.  This module adds the
incremental path: a :class:`ViewMaintainer` subscribes to the base graph's
change log (:meth:`Graph.subscribe`), turns each drained delta window into
per-group aggregate adjustments (:mod:`repro.sparql.delta`), and applies
them as *surgical edits* to the view graphs — swapping the
``sofos:measure`` / ``sofos:sum`` / ``sofos:groupCount`` literals of
affected group nodes, minting fresh group nodes when a group first
appears, and deleting a group's node when its count reaches zero.

The patcher preserves the paper's §3.1 view encoding invariants exactly:
every group is one blank node carrying a ``sofos:view`` membership link,
one ``sofos:dim/<name>`` triple per grouping variable, the aggregate under
``sofos:measure`` (distributive facets) or ``sofos:sum`` (AVG facets, the
algebraic decomposition), and the group cardinality under
``sofos:groupCount`` — so a patched view graph is indistinguishable from
a freshly rebuilt one (up to blank-node labels) and every consumer
(router, rewriter, roll-up queries) keeps working unchanged.

Patching is driven by a per-view **group index** mapping group-key id
tuples to the group's blank node and its current count/value — rebuilt by
scanning the view graph when absent, persisted alongside the catalog
manifest (:mod:`repro.views.persistence`).  When a window is not
incrementalizable — the change log truncated (``clear()`` or overflow),
the facet's shape is outside the delta-evaluable class, MIN/MAX facets
saw deletions, the delta exceeds a size threshold, or the group index
contradicts the adjustments — the maintainer falls back to the catalog's
full rebuild for the affected views and reports why.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExpressionError, ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at, suppressed
from ..rdf.graph import Graph
from ..rdf.namespace import SOFOS
from ..rdf.terms import BlankNode, typed_literal
from ..cube.facet import AnalyticalFacet
from ..cube.view import ViewDefinition
from ..sparql.delta import DeltaEvaluator, DeltaPlan, GroupAdjustment, \
    KIND_BY_AGGREGATE, KIND_COUNT, KIND_MINMAX, compile_delta_plan
from ..sparql.values import numeric_result, order_key, to_number
from .catalog import MaterializedView, ViewCatalog
from .materializer import dimension_predicate

__all__ = ["MAINTENANCE_POLICIES", "GroupState", "GroupIndex",
           "ViewMaintenance", "MaintenanceReport", "ViewMaintainer",
           "aggregate_kind"]

#: How a system owner asks for stale views to be reconciled:
#: ``rebuild`` re-materializes from scratch, ``incremental`` patches
#: group-level deltas eagerly at answer/maintain time, ``deferred`` serves
#: the frozen snapshot and patches only on explicit ``maintain()`` calls.
MAINTENANCE_POLICIES = ("rebuild", "incremental", "deferred")

_LOG = get_logger("views.maintenance")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_WINDOWS = _REG.counter(
    "maintenance_windows_total",
    "synchronize passes that drained a change window")
_DECISIONS = _REG.counter(
    "maintenance_decisions_total",
    "per-view maintenance outcomes by action and reason category",
    labels=("action", "reason"))
_ROLLBACKS = _REG.counter(
    "maintenance_rollbacks_total",
    "patch windows rolled back to the pre-patch snapshot")

#: Free-text rebuild reasons normalized to a bounded label set.
_REASON_CATEGORIES = {
    "change log truncated": "log_truncated",
    "rebuild forced": "forced",
    "view out of sync with the change window": "out_of_sync",
    "facet shape is not delta-evaluable": "not_delta_evaluable",
    "MIN/MAX cannot be patched under deletions": "minmax_deletions",
    "delta not incrementally evaluable": "not_delta_evaluable",
    "group index inconsistent with delta": "index_inconsistent",
}


def _reason_category(reason: Optional[str]) -> str:
    if reason is None:
        return "ok"
    if reason.startswith("quarantined:"):
        return "quarantined"
    if reason.startswith("delta of "):
        return "delta_budget_exceeded"
    if reason.startswith("patch window rolled back"):
        return "patch_rolled_back"
    return _REASON_CATEGORIES.get(reason, "other")


def aggregate_kind(aggregate_name: str) -> str:
    """The maintenance kind of a facet aggregate (sum / count / minmax)."""
    return KIND_BY_AGGREGATE[aggregate_name]


class GroupState:
    """One materialized group: its node plus the stored running values.

    ``value`` is the numeric aggregate for sum/count kinds (the operand
    sum, or the bound-operand row count) and ``None`` for MIN/MAX, where
    only the stored term id matters.  ``value_id``/``count_id`` are the
    exact object ids currently stored in the view graph, kept so patches
    remove precisely the triples that exist.
    """

    __slots__ = ("node_id", "count", "value", "value_id", "count_id")

    def __init__(self, node_id: int, count: int, value, value_id: int,
                 count_id: int) -> None:
        self.node_id = node_id
        self.count = count
        self.value = value
        self.value_id = value_id
        self.count_id = count_id

    def __repr__(self) -> str:
        return (f"<GroupState node={self.node_id} count={self.count} "
                f"value={self.value!r}>")


class GroupIndex:
    """Group-key ids → :class:`GroupState` for one materialized view."""

    __slots__ = ("kind", "groups")

    def __init__(self, kind: str,
                 groups: Optional[dict[tuple, GroupState]] = None) -> None:
        self.kind = kind
        self.groups = groups if groups is not None else {}

    def __len__(self) -> int:
        return len(self.groups)

    @classmethod
    def from_graph(cls, view: ViewDefinition, graph: Graph) -> "GroupIndex":
        """Scan a view's named graph into its group index.

        Raises :class:`ViewError` when the graph does not follow the §3.1
        encoding (missing/ambiguous measure or count, duplicate group
        keys) — callers treat that as "not incrementally maintainable".
        """
        kind = aggregate_kind(view.facet.aggregate.name)
        dictionary = graph.dictionary
        lookup = dictionary.lookup
        decode = dictionary.decode
        index = cls(kind)
        view_pred = lookup(SOFOS.view)
        view_iri = lookup(view.iri)
        if view_pred is None or view_iri is None:
            return index  # empty view graph: no groups yet
        is_avg = view.facet.aggregate.name == "AVG"
        value_pred = lookup(SOFOS.sum if is_avg else SOFOS.measure)
        count_pred = lookup(SOFOS.groupCount)
        dim_preds = [lookup(dimension_predicate(v)) for v in view.variables]

        def single(node: int, pred: Optional[int], what: str) -> int:
            if pred is None:
                raise ViewError(f"view {view.label!r}: no {what} predicate "
                                "in dictionary")
            leaf = graph.adjacent_ids(node, pred, None)
            if len(leaf) != 1:
                raise ViewError(
                    f"view {view.label!r}: group node has {len(leaf)} "
                    f"{what} values (expected exactly 1)")
            return next(iter(leaf))

        for node in list(graph.adjacent_ids(None, view_pred, view_iri)):
            key_parts = []
            for pred in dim_preds:
                leaf = graph.adjacent_ids(node, pred, None) \
                    if pred is not None else ()
                if len(leaf) > 1:
                    raise ViewError(f"view {view.label!r}: group node has "
                                    "multiple values for one dimension")
                key_parts.append(next(iter(leaf)) if leaf else None)
            count_id = single(node, count_pred, "groupCount")
            value_id = single(node, value_pred,
                              "sum" if is_avg else "measure")
            try:
                count = decode(count_id).to_python()
                value = None if kind == KIND_MINMAX \
                    else to_number(decode(value_id))
            except (AttributeError, ExpressionError) as exc:
                raise ViewError(
                    f"view {view.label!r}: non-numeric stored aggregate "
                    f"({exc})") from exc
            if not isinstance(count, int):
                raise ViewError(f"view {view.label!r}: non-integer "
                                "groupCount")
            key = tuple(key_parts)
            if key in index.groups:
                raise ViewError(f"view {view.label!r}: duplicate group key")
            index.groups[key] = GroupState(node, count, value, value_id,
                                           count_id)
        return index


@dataclass(frozen=True)
class ViewMaintenance:
    """What happened to one view during a synchronization pass."""

    label: str
    action: str                    # "patched" | "rebuilt" | "quarantined"
    groups_created: int = 0
    groups_updated: int = 0
    groups_deleted: int = 0
    seconds: float = 0.0
    reason: Optional[str] = None   # why a rebuild/quarantine was chosen

    @property
    def patched(self) -> bool:
        return self.action == "patched"


@dataclass
class MaintenanceReport:
    """Aggregated outcome of one :meth:`ViewMaintainer.synchronize` call."""

    from_version: int = 0
    to_version: int = 0
    inserted: int = 0
    deleted: int = 0
    truncated: bool = False
    rollbacks: int = 0
    views: list[ViewMaintenance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.views)

    @property
    def patched(self) -> list[ViewMaintenance]:
        return [v for v in self.views if v.patched]

    @property
    def rebuilt(self) -> list[ViewMaintenance]:
        return [v for v in self.views if v.action == "rebuilt"]

    @property
    def quarantined(self) -> list[ViewMaintenance]:
        """Views whose rebuild fallback itself failed this pass."""
        return [v for v in self.views if v.action == "quarantined"]

    @property
    def total_seconds(self) -> float:
        return sum(v.seconds for v in self.views)

    def __repr__(self) -> str:
        return (f"<MaintenanceReport v{self.from_version}→v{self.to_version} "
                f"+{self.inserted} -{self.deleted} "
                f"{len(self.patched)} patched, {len(self.rebuilt)} rebuilt>")


class ViewMaintainer:
    """Keeps a catalog's materialized views in sync with base-graph updates.

    Construction subscribes to the base graph's change log; every
    :meth:`synchronize` call drains the accumulated window and reconciles
    each stale view — by group-level patching when the window is
    incrementalizable, by full rebuild otherwise.  ``max_delta_fraction``
    bounds when patching is still worthwhile: windows changing more than
    that fraction of the base graph fall back to rebuilds wholesale.
    """

    def __init__(self, catalog: ViewCatalog, *,
                 max_delta_fraction: float = 0.25,
                 max_seed_rows: int = 100_000,
                 patch_retries: int = 1,
                 retry_backoff_seconds: float = 0.005) -> None:
        self._catalog = catalog
        self._graph = catalog.base_engine.graph
        self._log = self._graph.subscribe()
        self._max_delta_fraction = max_delta_fraction
        self._max_seed_rows = max_seed_rows
        self._patch_retries = max(0, patch_retries)
        self._retry_backoff_seconds = max(0.0, retry_backoff_seconds)
        self._plans: dict[AnalyticalFacet, Optional[DeltaPlan]] = {}
        self._evaluators: dict[AnalyticalFacet, DeltaEvaluator] = {}
        self._indexes: dict[int, GroupIndex] = {}
        # Adoption *consumes* the restored indexes: they describe the view
        # graphs as loaded, and only this maintainer will keep them true.
        # A later maintainer must re-scan rather than trust a snapshot the
        # first one has been patching past.
        restored = getattr(catalog, "restored_group_indexes", None)
        if restored:
            self._indexes.update(restored)
            restored.clear()
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def catalog(self) -> ViewCatalog:
        return self._catalog

    @property
    def pending(self) -> int:
        """Net changed base triples buffered since the last synchronize."""
        return self._log.pending

    def group_index(self, view: ViewDefinition) -> Optional[GroupIndex]:
        """The cached group index of a view (None when not yet built)."""
        return self._indexes.get(view.mask)

    def close(self) -> None:
        """Detach from the base graph's change log (idempotent).

        The unsubscribe is guaranteed even if the log's own close fails
        partway — a closed maintainer never leaves a live subscriber
        charging per-mutation work to the base graph.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._log.close()
        finally:
            self._graph.unsubscribe(self._log)

    # -- the synchronization pass -------------------------------------------

    def synchronize(self, force_rebuild: bool = False) -> MaintenanceReport:
        """Reconcile every stale or quarantined view with the drained window.

        Each view is handled all-or-nothing: a patch that fails midway is
        rolled back (and retried once after a short backoff) before the
        view falls through to the reasoned-rebuild path, and a rebuild
        that itself fails quarantines the view — the failure lands in the
        report instead of propagating half-applied state to callers.
        """
        if not _TRACER.enabled:
            return self._synchronize(force_rebuild)
        # The span closes (and records the error) even when a simulated
        # crash unwinds mid-window — SimulatedCrash is a BaseException
        # and still flows through the with-statement's __exit__.
        with _TRACER.span("maintenance.synchronize") as sp:
            report = self._synchronize(force_rebuild)
            sp.set_tags(inserted=report.inserted, deleted=report.deleted,
                        truncated=report.truncated,
                        rollbacks=report.rollbacks,
                        patched=len(report.patched),
                        rebuilt=len(report.rebuilt),
                        quarantined=len(report.quarantined))
            return report

    def _synchronize(self, force_rebuild: bool) -> MaintenanceReport:
        if self._closed:
            raise ViewError("maintainer is closed")
        fail_at("maintenance.synchronize.window")
        delta = self._log.drain()
        report = MaintenanceReport(
            from_version=delta.from_version,
            to_version=delta.to_version,
            inserted=len(delta.inserted),
            deleted=len(delta.deleted),
            truncated=delta.truncated,
        )
        _WINDOWS.inc()
        catalog = self._catalog
        current = catalog.base_version
        quarantined = {view.mask for view in catalog.quarantined_views()}
        stale = [entry for entry in catalog
                 if entry.base_version != current
                 or entry.definition.mask in quarantined]
        if not stale:
            return report

        window_reason = self._window_reason(delta, force_rebuild)
        adjustment_cache: dict[AnalyticalFacet, Optional[dict]] = {}
        for entry in stale:
            start = time.perf_counter()
            view = entry.definition
            if view.mask in quarantined:
                reason = "quarantined: " + \
                    (catalog.quarantine_reason(view) or "unspecified")
            else:
                reason = window_reason or self._view_reason(entry, delta)
            stats = None
            if reason is None:
                facet = view.facet
                adjustments = adjustment_cache.get(facet, _UNSET)
                if adjustments is _UNSET:
                    evaluator = self._evaluator_for(facet)
                    adjustments = evaluator.adjustments(delta.inserted,
                                                        delta.deleted)
                    adjustment_cache[facet] = adjustments
                if adjustments is None:
                    reason = "delta not incrementally evaluable"
                else:
                    stats, reason = self._patch_with_rollback(
                        entry, adjustments, report)
            if stats is not None:
                created, updated, deleted = stats
                seconds = time.perf_counter() - start
                graph = catalog.graph_of(view)
                catalog.note_maintained(
                    view, groups=len(self._indexes[view.mask]),
                    triples=len(graph), nodes=graph.node_count(),
                    seconds=seconds)
                report.views.append(ViewMaintenance(
                    label=view.label, action="patched",
                    groups_created=created, groups_updated=updated,
                    groups_deleted=deleted, seconds=seconds))
                _DECISIONS.inc(labels=("patched", "ok"))
                _LOG.debug("patched view %s (+%d ~%d -%d groups) in "
                           "%.3f ms", view.label, created, updated,
                           deleted, seconds * 1e3)
            else:
                self._indexes.pop(view.mask, None)
                try:
                    catalog.refresh(view)
                except Exception as exc:
                    # The rebuild fallback failed too.  refresh() already
                    # restored the old snapshot; quarantine the view so
                    # routing degrades to the base graph until a later
                    # cycle rebuilds it.
                    catalog.quarantine(view, f"rebuild failed: {exc}")
                    report.views.append(ViewMaintenance(
                        label=view.label, action="quarantined",
                        seconds=time.perf_counter() - start, reason=reason))
                    _DECISIONS.inc(
                        labels=("quarantined", _reason_category(reason)))
                    _LOG.warning("quarantined view %s: rebuild failed "
                                 "(%s) after patch declined (%s)",
                                 view.label, exc, reason)
                else:
                    report.views.append(ViewMaintenance(
                        label=view.label, action="rebuilt",
                        seconds=time.perf_counter() - start, reason=reason))
                    _DECISIONS.inc(
                        labels=("rebuilt", _reason_category(reason)))
                    _LOG.info("rebuilt view %s (%s)", view.label, reason)
        return report

    def _patch_with_rollback(self, entry: MaterializedView,
                             adjustments: dict[tuple, GroupAdjustment],
                             report: MaintenanceReport
                             ) -> tuple[Optional[tuple[int, int, int]],
                                        Optional[str]]:
        """Attempt a view patch transactionally; ``(stats, reason)``.

        :meth:`_patch_view` already rolls the view graph back to its
        pre-patch state when the apply phase raises; this wrapper counts
        the rollback, retries once after a short backoff (transient
        faults), and converts persistent failure into a rebuild reason
        instead of letting the exception escape the maintenance pass.
        Simulated crashes are BaseException and still propagate.
        """
        attempts = self._patch_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._retry_backoff_seconds)
            try:
                stats = self._patch_view(entry, adjustments)
            except Exception as exc:
                report.rollbacks += 1
                # Counter and report increment together: the robustness
                # benchmark asserts they agree exactly.
                _ROLLBACKS.inc()
                _LOG.debug("patch of %s rolled back (attempt %d/%d): %s",
                           entry.label, attempt + 1, attempts, exc)
                last_error = exc
                continue
            if stats is None:
                return None, "group index inconsistent with delta"
            return stats, None
        return None, (f"patch window rolled back after {attempts} "
                      f"attempt{'s' if attempts != 1 else ''} ({last_error})")

    # -- fallback decisions --------------------------------------------------

    def _window_reason(self, delta, force_rebuild: bool) -> Optional[str]:
        """A rebuild reason applying to the whole window, or None."""
        if force_rebuild:
            return "rebuild forced"
        if delta.truncated:
            return "change log truncated"
        base_size = len(self._graph)
        budget = self._max_delta_fraction * max(base_size, 1)
        if delta.size > budget:
            return (f"delta of {delta.size} triples exceeds "
                    f"{self._max_delta_fraction:.0%} of the base graph")
        return None

    def _view_reason(self, entry: MaterializedView, delta) -> Optional[str]:
        """A per-view rebuild reason, or None when patchable."""
        if entry.base_version != delta.from_version:
            return "view out of sync with the change window"
        plan = self._plan_for(entry.definition.facet)
        if plan is None:
            return "facet shape is not delta-evaluable"
        if plan.kind == KIND_MINMAX and delta.deleted:
            return "MIN/MAX cannot be patched under deletions"
        return None

    def _plan_for(self, facet: AnalyticalFacet) -> Optional[DeltaPlan]:
        if facet not in self._plans:
            self._plans[facet] = compile_delta_plan(facet)
        return self._plans[facet]

    def _evaluator_for(self, facet: AnalyticalFacet) -> DeltaEvaluator:
        evaluator = self._evaluators.get(facet)
        if evaluator is None:
            evaluator = DeltaEvaluator(
                self._catalog.base_engine.executor, self._plan_for(facet),
                max_seed_rows=self._max_seed_rows)
            self._evaluators[facet] = evaluator
        return evaluator

    # -- patching ------------------------------------------------------------

    def _index_for(self, entry: MaterializedView) -> GroupIndex:
        view = entry.definition
        index = self._indexes.get(view.mask)
        expected = aggregate_kind(view.facet.aggregate.name)
        if index is None or index.kind != expected:
            # Every catalog (re)build — including this maintainer's own
            # fallback refreshes — deposits the freshly-encoded group
            # index; adopting it (consuming, like construction does)
            # saves the view-graph scan.  Anything else re-scans.
            restored = self._catalog.restored_group_indexes.pop(
                view.mask, None)
            if isinstance(restored, GroupIndex) and restored.kind == expected:
                index = restored
            else:
                index = GroupIndex.from_graph(view,
                                              self._catalog.graph_of(view))
            self._indexes[view.mask] = index
        return index

    def _rollup(self, view: ViewDefinition,
                adjustments: dict[tuple, GroupAdjustment]
                ) -> dict[tuple, GroupAdjustment]:
        """Project finest-grain adjustments onto a view's key subset."""
        facet = view.facet
        positions = [i for i in range(len(facet.grouping_variables))
                     if view.mask >> i & 1]
        out: dict[tuple, GroupAdjustment] = {}
        for key, adjustment in adjustments.items():
            vkey = tuple(key[i] for i in positions)
            target = out.get(vkey)
            if target is None:
                target = GroupAdjustment()
                out[vkey] = target
            target.count += adjustment.count
            target.value += adjustment.value
            if adjustment.candidates:
                target.candidates.extend(adjustment.candidates)
        return out

    def _patch_view(self, entry: MaterializedView,
                    adjustments: dict[tuple, GroupAdjustment]
                    ) -> Optional[tuple[int, int, int]]:
        """Apply adjustments to one view graph; None = rebuild needed.

        All removals and additions are collected first and applied as two
        bulk id operations, so the view graph's version moves at most
        twice per window regardless of how many groups changed.
        """
        view = entry.definition
        try:
            index = self._index_for(entry)
        except ViewError:
            return None
        graph = self._catalog.graph_of(view)
        rollup = self._rollup(view, adjustments)
        kind = index.kind

        encode = graph.dictionary.encode
        decode = graph.dictionary.decode
        is_avg = view.facet.aggregate.name == "AVG"
        value_pred = encode(SOFOS.sum if is_avg else SOFOS.measure)
        count_pred = encode(SOFOS.groupCount)
        view_pred = encode(SOFOS.view)
        view_iri = encode(view.iri)
        dim_preds = [encode(dimension_predicate(v)) for v in view.variables]
        keep_max = view.facet.aggregate.name == "MAX"

        adds: list[tuple[int, int, int]] = []
        removes: list[tuple[int, int, int]] = []
        created = updated = deleted = 0

        for key, adjustment in rollup.items():
            if adjustment.empty:
                continue
            state = index.groups.get(key)
            if state is None:
                if adjustment.count <= 0:
                    return None  # a group the index never saw shrank
                node = encode(BlankNode.fresh(f"v{view.mask}g"))
                if kind == KIND_MINMAX:
                    if not adjustment.candidates:
                        return None
                    value_id = self._best(adjustment.candidates, decode,
                                          keep_max)
                    value = None
                elif kind == KIND_COUNT:
                    value = adjustment.value
                    value_id = encode(typed_literal(value))
                else:
                    value = adjustment.value
                    value_id = encode(numeric_result(value))
                count_id = encode(typed_literal(adjustment.count))
                adds.append((node, view_pred, view_iri))
                for pred, tid in zip(dim_preds, key):
                    if tid is not None:
                        adds.append((node, pred, tid))
                adds.append((node, value_pred, value_id))
                adds.append((node, count_pred, count_id))
                index.groups[key] = GroupState(node, adjustment.count,
                                               value, value_id, count_id)
                created += 1
                continue

            new_count = state.count + adjustment.count
            if new_count < 0:
                return None
            if new_count == 0:
                if view.is_apex:
                    # An empty apex still materializes one zero group
                    # (GROUP BY () has an implicit group); rebuilding is
                    # the simplest way to reproduce that encoding.
                    return None
                star = list(graph.match_ids(state.node_id, None, None))
                if not star:
                    # A group the index tracks but whose node stores
                    # nothing: the index has drifted from the graph.
                    return None
                removes.extend(star)
                del index.groups[key]
                deleted += 1
                continue

            node = state.node_id
            changed = False
            if adjustment.count != 0:
                new_count_id = encode(typed_literal(new_count))
                removes.append((node, count_pred, state.count_id))
                adds.append((node, count_pred, new_count_id))
                state.count = new_count
                state.count_id = new_count_id
                changed = True
            if kind == KIND_MINMAX:
                if adjustment.candidates:
                    best = self._best(
                        adjustment.candidates + [state.value_id], decode,
                        keep_max)
                    if best != state.value_id:
                        removes.append((node, value_pred, state.value_id))
                        adds.append((node, value_pred, best))
                        state.value_id = best
                        changed = True
            elif adjustment.value:
                new_value = state.value + adjustment.value
                new_value_id = encode(
                    typed_literal(new_value) if kind == KIND_COUNT
                    else numeric_result(new_value))
                if new_value_id != state.value_id:
                    removes.append((node, value_pred, state.value_id))
                    adds.append((node, value_pred, new_value_id))
                    state.value_id = new_value_id
                state.value = new_value
                changed = True
            if changed:
                updated += 1

        # The edits must land exactly: every removal referenced a triple
        # the index believed stored, every addition must be new.  A
        # mismatch means the index has drifted from the view graph (e.g.
        # it survived an out-of-band rebuild) — bail out to the rebuild
        # fallback, which clears the graph and starts clean, instead of
        # leaving duplicate or orphaned measure/count triples behind.
        # An *exception* between the two bulk ops would otherwise leave
        # the view half-patched yet marked fresh; undo both edits (bulk
        # ops skip absent/duplicate ids, so the undo is safe wherever the
        # failure struck) and drop the mutated index before re-raising.
        try:
            fail_at("maintenance.patch.before_apply")
            if removes and graph.remove_ids_bulk(removes) != len(removes):
                return None
            fail_at("maintenance.patch.between_bulk_ops")
            if adds and graph.add_ids_bulk(adds) != len(adds):
                return None
        except BaseException:
            self._indexes.pop(view.mask, None)
            with suppressed():
                if adds:
                    graph.remove_ids_bulk(adds)
                if removes:
                    graph.add_ids_bulk(removes)
            raise
        return created, updated, deleted

    @staticmethod
    def _best(candidate_ids: list[int], decode, keep_max: bool) -> int:
        """The extremum candidate by SPARQL order semantics."""
        best_id = candidate_ids[0]
        best_key = order_key(decode(best_id))
        for tid in candidate_ids[1:]:
            key = order_key(decode(tid))
            if (key > best_key) if keep_max else (key < best_key):
                best_id, best_key = tid, key
        return best_id


#: Sentinel distinguishing "not computed yet" from "computed as None".
_UNSET = object()
