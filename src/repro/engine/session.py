"""Campaign sessions: a campaign run as a first-class, observable object.

Historically every entry point — ``run_campaign``, ``run_fuzz``, the CLI,
``analysis/experiments.py`` — was a blocking, fire-and-forget call into the
executor: nothing outside the process could submit work, observe progress, or
consume rows incrementally.  :class:`CampaignSession` replaces that function
call with an object that **owns the whole execution lifecycle** — key
derivation, cache lookup, claim coordination, unit planning, dispatch — and
exposes it incrementally:

* :meth:`CampaignSession.events` — a single-use generator of typed
  :class:`SessionEvent` records (``planned`` / ``claimed`` / ``fallback`` /
  ``unit-committed`` / ``row`` / ``finished``), produced in execution order.
  Row events arrive in **spec order** (the reorder buffer lives here), so a
  consumer that filters for rows gets exactly the old ``execute_specs``
  stream.
* :meth:`CampaignSession.rows` — that filter, for consumers that only want
  the :class:`~repro.engine.spec.TrialResult` stream.
* :meth:`CampaignSession.cancel` — cooperative, thread-safe cancellation:
  the session stops dispatching new work units at the next unit boundary,
  releases its store claims, and leaves the store at a clean committed-unit
  boundary so a later ``--resume`` run recomputes nothing that was already
  acknowledged.  Abandoning the ``events()``/``rows()`` generator (a client
  disconnect, a ``break``) cancels the same way — the generator's ``finally``
  blocks run on close.
* :meth:`CampaignSession.status` — a :class:`CampaignStatus` snapshot
  (state, row counts, cache hits, fallback reasons, throughput), safe to
  call from any thread while the session runs in another.  This is what the
  HTTP server's ``run_id``-addressed status resource serves.

The executor's public functions (:func:`~repro.engine.executor.execute_specs`
and :func:`~repro.engine.executor.run_campaign`) are thin wrappers over a
session, so there is exactly **one** planning/claims/cache code path, and the
rows it emits are byte-identical (modulo ``elapsed_ms``) to the pre-session
engine for every engine and worker count.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence, Union

from repro.engine.campaign import Campaign
from repro.engine.pool import ExecutionUnit, UnitObservation, execute_plan
from repro.engine.spec import TrialResult, TrialSpec
from repro.engine.trial import run_trial
from repro.engine.vectorized import (
    FallbackReason,
    run_specs_vectorized,
    vectorization_fallback,
    vectorized_group_key,
)
from repro.exceptions import ConfigurationError
from repro.obs.registry import get_registry
from repro.obs.trace import TraceRecorder

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.store.backend import ResultStore

__all__ = [
    "ENGINE_CHOICES",
    "SESSION_STATES",
    "STORE_COMMIT_CHUNK",
    "CampaignSession",
    "CampaignStatus",
    "CampaignSummary",
    "ClaimedEvent",
    "FallbackEvent",
    "FinishedEvent",
    "PlannedEvent",
    "RowEvent",
    "SessionEvent",
    "StoreCacheStats",
    "UnitCommittedEvent",
    "plan_specs",
]

#: Execution substrates the session can route a campaign through.
ENGINE_CHOICES = ("auto", "vectorized", "object")

# Session/store telemetry: planner demotions, row provenance, store cache
# census outcomes and claim contention — all counters that merge across the
# pool workers' registries (though these particular ones only move in the
# session's own process).
_PLAN_FALLBACKS = get_registry().counter(
    "repro_plan_fallbacks_total",
    "Specs the planner routed to the object engine, by fallback reason.",
    labelnames=("reason",),
)
_SESSION_ROWS = get_registry().counter(
    "repro_session_rows_total",
    "Rows emitted by campaign sessions, by provenance (executed/cache/deferred).",
    labelnames=("source",),
)
_STORE_CACHE_LOOKUPS = get_registry().counter(
    "repro_store_cache_lookups_total",
    "Store cache census outcomes across sessions (hit = served, not recomputed).",
    labelnames=("outcome",),
)
_STORE_CLAIM_WAIT = get_registry().histogram(
    "repro_store_claim_wait_seconds",
    "Time spent waiting on trials claimed by concurrent sessions.",
    buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0),
)

#: Lifecycle states a session moves through (strictly forward).
SESSION_STATES = ("pending", "running", "finished", "cancelled", "failed")


def plan_specs(
    specs: Sequence[TrialSpec],
    engine: str = "auto",
    fallback_reasons: dict[str, int] | None = None,
) -> list[ExecutionUnit]:
    """Partition a spec list into columnar groups and object-engine chunks.

    Eligible specs are grouped by
    :func:`~repro.engine.vectorized.vectorized_group_key`; everything else
    stays on the object engine.  ``engine="auto"`` sends singleton groups to
    the object engine too (a batch of one amortises nothing);
    ``engine="vectorized"`` routes every eligible spec columnar;
    ``engine="object"`` plans one object chunk.

    ``fallback_reasons`` — when provided — is filled with a count per
    :class:`~repro.engine.vectorized.FallbackReason` value for every spec the
    plan routes to the object engine, so a campaign summary can say *why*
    trials missed the columnar engine instead of silently falling back.
    """
    if engine not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; known: {', '.join(ENGINE_CHOICES)}"
        )

    def count_fallback(reason: FallbackReason, occurrences: int = 1) -> None:
        if occurrences:
            _PLAN_FALLBACKS.labels(reason=reason.value).inc(occurrences)
        if fallback_reasons is not None and occurrences:
            fallback_reasons[reason.value] = (
                fallback_reasons.get(reason.value, 0) + occurrences
            )

    if engine == "object":
        count_fallback(FallbackReason.FORCED_OBJECT, len(specs))
        return [ExecutionUnit("object", tuple(range(len(specs))))] if specs else []
    groups: dict[tuple, list[int]] = {}
    fallback: list[int] = []
    for position, spec in enumerate(specs):
        reason = vectorization_fallback(spec)
        if reason is None:
            groups.setdefault(vectorized_group_key(spec), []).append(position)
        else:
            fallback.append(position)
            count_fallback(reason)
    units: list[ExecutionUnit] = []
    for positions in groups.values():
        if engine == "auto" and len(positions) < 2:
            fallback.extend(positions)
            count_fallback(FallbackReason.SINGLETON_GROUP, len(positions))
        else:
            units.append(ExecutionUnit("columnar", tuple(positions)))
    if fallback:
        units.append(ExecutionUnit("object", tuple(sorted(fallback))))
    units.sort(key=lambda unit: unit.positions[0])
    return units


def _execute_unit(unit: ExecutionUnit, specs: Sequence[TrialSpec]) -> list[TrialResult]:
    if unit.kind == "columnar":
        return run_specs_vectorized([specs[position] for position in unit.positions])
    return [run_trial(specs[position]) for position in unit.positions]


@dataclass
class StoreCacheStats:
    """Cache outcome of one store-backed session (filled as it runs)."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of specs served from the store (0.0 on an empty spec list)."""
        return self.hits / self.total if self.total else 0.0


#: Object-engine units are re-chunked to at most this many trials in store
#: mode, bounding how much completed work one interruption can lose (each
#: chunk commits transactionally on completion).  Kept small: a store commit
#: costs milliseconds while a protocol trial costs ~a second, so a narrow
#: loss window is nearly free.
STORE_COMMIT_CHUNK = 4

#: Cache hits are fetched from the store in slices of this many rows at
#: emission time, keeping warm-resume memory bounded by the batch size (plus
#: the reorder window) instead of the campaign size.
_SERVE_BATCH = 1024


def _split_units_for_commit(units: list[ExecutionUnit]) -> list[ExecutionUnit]:
    """Cap object units at :data:`STORE_COMMIT_CHUNK` trials per transaction.

    Columnar units ship whole — the batch is solved as one array program, so
    it completes (and commits) as one unit anyway.
    """
    split: list[ExecutionUnit] = []
    for unit in units:
        if unit.kind == "object" and len(unit.positions) > STORE_COMMIT_CHUNK:
            for start in range(0, len(unit.positions), STORE_COMMIT_CHUNK):
                split.append(
                    ExecutionUnit("object", unit.positions[start : start + STORE_COMMIT_CHUNK])
                )
        else:
            split.append(unit)
    return split


# ---------------------------------------------------------------------------
# Typed progress events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionEvent:
    """Base class for session progress events (``type`` identifies the kind)."""

    type = "event"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type}


@dataclass(frozen=True)
class PlannedEvent(SessionEvent):
    """The executable plan is fixed: unit counts plus the cache census."""

    trials: int
    executed: int
    cache_hits: int
    columnar_units: int
    object_units: int

    type = "planned"

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "trials": self.trials,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "columnar_units": self.columnar_units,
            "object_units": self.object_units,
        }


@dataclass(frozen=True)
class ClaimedEvent(SessionEvent):
    """Cross-process claim outcome: granted keys run here, deferred elsewhere."""

    granted: int
    deferred: int

    type = "claimed"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "granted": self.granted, "deferred": self.deferred}


@dataclass(frozen=True)
class FallbackEvent(SessionEvent):
    """Planner demotions to the object engine, one event per reason."""

    reason: str
    count: int

    type = "fallback"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "reason": self.reason, "count": self.count}


@dataclass(frozen=True)
class UnitCommittedEvent(SessionEvent):
    """One execution unit completed (and, with a store, committed)."""

    kind: str
    positions: tuple[int, ...]
    committed: bool

    type = "unit-committed"

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "kind": self.kind,
            "trials": len(self.positions),
            "committed": self.committed,
        }


@dataclass(frozen=True)
class RowEvent(SessionEvent):
    """One trial row, emitted in spec order.

    ``source`` says which side of the cache it came from: ``"executed"``
    (ran here), ``"cache"`` (served from the store), or ``"deferred"``
    (committed by a concurrent session and served as a hit).
    """

    position: int
    result: TrialResult
    source: str

    type = "row"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "position": self.position, "source": self.source}


@dataclass(frozen=True)
class FinishedEvent(SessionEvent):
    """Terminal event: the final status snapshot (always the last event)."""

    status: "CampaignStatus"

    type = "finished"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "status": self.status.to_dict()}


# ---------------------------------------------------------------------------
# Status + summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time snapshot of a session (safe to take from any thread)."""

    run_id: str
    name: str
    state: str
    trials: int
    emitted: int
    ok: int
    errors: int
    agreement_failures: int
    validity_failures: int
    cache_hits: int
    deferred: int
    fallback_reasons: dict[str, int]
    workers: int
    engine: str
    elapsed_seconds: float
    error: str | None = None

    @property
    def trials_per_second(self) -> float:
        """Emission throughput so far, clamped to 0.0 when no time elapsed."""
        return self.emitted / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def done(self) -> bool:
        return self.state in ("finished", "cancelled", "failed")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (the server's status resource body)."""
        return {
            "run_id": self.run_id,
            "name": self.name,
            "state": self.state,
            "trials": self.trials,
            "emitted": self.emitted,
            "ok": self.ok,
            "errors": self.errors,
            "agreement_failures": self.agreement_failures,
            "validity_failures": self.validity_failures,
            "cache_hits": self.cache_hits,
            "deferred": self.deferred,
            "fallback_reasons": dict(self.fallback_reasons),
            "workers": self.workers,
            "engine": self.engine,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "trials_per_second": round(self.trials_per_second, 1),
            "error": self.error,
        }


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate view of a finished campaign run."""

    name: str
    trials: int
    ok: int
    errors: int
    agreement_failures: int
    validity_failures: int
    elapsed_seconds: float
    workers: int
    jsonl_path: str | None
    engine: str = "object"
    #: Trials served straight from the results store (0 without a store).
    cache_hits: int = 0
    #: Executed trials the planner routed to the object engine, counted per
    #: :class:`~repro.engine.vectorized.FallbackReason` value.  Store-served
    #: trials are never planned, so they are not counted here.
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: Identifier of the session that produced this summary ("" for summaries
    #: built by hand, e.g. in tests).
    run_id: str = ""

    @property
    def trials_per_second(self) -> float:
        """Throughput, clamped to 0.0 when no time was measured.

        A zero-length (or clock-resolution-zero) run must not report
        ``inf``: ``json.dumps`` would emit ``Infinity``, which is not valid
        JSON and breaks downstream row consumers.
        """
        return self.trials / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def to_row(self) -> dict[str, Any]:
        """One table row for the CLI / benchmarks."""
        return {
            "campaign": self.name,
            "engine": self.engine,
            "trials": self.trials,
            "ok": self.ok,
            "errors": self.errors,
            "agreement_failures": self.agreement_failures,
            "validity_failures": self.validity_failures,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "fallbacks": sum(self.fallback_reasons.values()),
            "seconds": round(self.elapsed_seconds, 3),
            "trials_per_s": round(self.trials_per_second, 1),
        }


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class CampaignSession:
    """One observable campaign execution (see module docstring).

    ``campaign`` is a :class:`~repro.engine.campaign.Campaign` or a plain
    spec sequence (kept verbatim — positions and ``trial_index`` values are
    never rewritten here, so rows stay byte-identical to the specs given).
    ``store`` is a :class:`~repro.store.backend.ResultStore`, a path (opened
    on start and closed when the session ends), or ``None`` for uncached
    execution.  The session is single-shot: :meth:`events` (or
    :meth:`rows`) may be consumed once.
    """

    def __init__(
        self,
        campaign: Union[Campaign, Sequence[TrialSpec]],
        *,
        name: str | None = None,
        workers: int = 1,
        chunksize: int | None = None,
        engine: str = "auto",
        store: "ResultStore | str | Path | None" = None,
        reuse_cached: bool = True,
        claim_wait_timeout: float = 60.0,
        run_id: str | None = None,
        cache_stats: StoreCacheStats | None = None,
        fallback_reasons: dict[str, int] | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        if engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINE_CHOICES)}"
            )
        if isinstance(campaign, Campaign):
            self.specs: tuple[TrialSpec, ...] = campaign.specs
            self.name = name if name is not None else campaign.name
        else:
            self.specs = tuple(campaign)
            self.name = name if name is not None else "session"
        self.workers = workers
        self.chunksize = chunksize
        self.engine = engine
        self.reuse_cached = reuse_cached
        self.claim_wait_timeout = claim_wait_timeout
        #: Session identity: names the run in summaries and the HTTP API, and
        #: doubles as the claim owner id, so ``repro store claims`` attributes
        #: outstanding claims to the session that holds them.
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:16]
        self.cache_stats = cache_stats if cache_stats is not None else StoreCacheStats()
        self.fallback_reasons = fallback_reasons if fallback_reasons is not None else {}
        #: Optional per-session trace recorder: the session records phase and
        #: per-unit spans (worker spans land on per-worker tracks) as it runs.
        #: The caller owns writing the file — see ``--trace`` on the CLI.
        self.trace = trace

        self._store_arg = store
        self._store: "ResultStore | None" = None
        self._owns_store = False
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._state = "pending"
        self._started = False
        self._error: str | None = None
        self._start_time: float | None = None
        self._end_time: float | None = None
        self._emitted = 0
        self._ok = 0
        self._errors = 0
        self._agreement_failures = 0
        self._validity_failures = 0
        self._deferred_served = 0

    # -- observation ---------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def cancel(self) -> None:
        """Request cooperative cancellation (thread-safe, idempotent).

        The session stops dispatching work at the next unit boundary,
        releases its claims, and ends in state ``"cancelled"``.  Rows already
        committed to the store stay committed — a later resume serves them as
        cache hits and recomputes nothing.
        """
        self._cancel.set()

    def status(self) -> CampaignStatus:
        """A consistent point-in-time snapshot (safe from any thread)."""
        with self._lock:
            if self._start_time is None:
                elapsed = 0.0
            else:
                end = self._end_time if self._end_time is not None else time.perf_counter()
                elapsed = end - self._start_time
            return CampaignStatus(
                run_id=self.run_id,
                name=self.name,
                state=self._state,
                trials=len(self.specs),
                emitted=self._emitted,
                ok=self._ok,
                errors=self._errors,
                agreement_failures=self._agreement_failures,
                validity_failures=self._validity_failures,
                cache_hits=self.cache_stats.hits,
                deferred=self._deferred_served,
                fallback_reasons=dict(self.fallback_reasons),
                workers=self.workers,
                engine=self.engine,
                elapsed_seconds=elapsed,
                error=self._error,
            )

    def summary(self, jsonl_path: str | Path | None = None) -> CampaignSummary:
        """The run's :class:`CampaignSummary` (meaningful once finished)."""
        status = self.status()
        return CampaignSummary(
            name=self.name,
            trials=status.trials,
            ok=status.ok,
            errors=status.errors,
            agreement_failures=status.agreement_failures,
            validity_failures=status.validity_failures,
            elapsed_seconds=status.elapsed_seconds,
            workers=self.workers,
            jsonl_path=str(jsonl_path) if jsonl_path is not None else None,
            engine=self.engine,
            cache_hits=status.cache_hits,
            fallback_reasons=dict(self.fallback_reasons),
            run_id=self.run_id,
        )

    # -- consumption ---------------------------------------------------------

    def rows(self) -> Iterator[TrialResult]:
        """Yield each trial's result in spec order (filters :meth:`events`)."""
        for event in self.events():
            if isinstance(event, RowEvent):
                yield event.result

    def events(self) -> Iterator[SessionEvent]:
        """Yield typed progress events until the session reaches a terminal state.

        Single-use.  Abandoning the generator (``close()``, ``break``, a
        dropped reference) runs the same cleanup as :meth:`cancel`: claims
        are released, the pool stops receiving new units, and the session
        ends in state ``"cancelled"`` unless it had already finished.
        """
        with self._lock:
            if self._started:
                raise RuntimeError(
                    f"session {self.run_id} already consumed; sessions are single-use"
                )
            self._started = True
            self._state = "running"
            self._start_time = time.perf_counter()
        start_epoch = time.time()
        try:
            try:
                self._open_store()
                if self._store is None:
                    yield from self._traced(self._events_plain())
                else:
                    yield from self._traced(self._events_stored())
            except GeneratorExit:
                self._cancel.set()
                self._finish("cancelled")
                raise
            except BaseException as error:
                self._error = f"{type(error).__name__}: {error}"
                self._finish("failed")
                raise
            self._finish("cancelled" if self._cancel.is_set() else "finished")
            finished = FinishedEvent(status=self.status())
            if self.trace is not None:
                self.trace.complete(
                    "session", start_epoch, time.time() - start_epoch,
                    category="lifecycle",
                    args={"run_id": self.run_id, "state": self._state},
                )
                self._trace_instant(finished)
            yield finished
        finally:
            self._close_store()
            if self._state == "running":  # pragma: no cover — belt and braces
                self._finish("cancelled")

    # -- internals -----------------------------------------------------------

    def _open_store(self) -> None:
        store = self._store_arg
        if isinstance(store, (str, Path)):
            from repro.store.backend import open_store

            self._store = open_store(store)
            self._owns_store = True
        else:
            self._store = store

    def _close_store(self) -> None:
        if self._owns_store and self._store is not None:
            try:
                self._store.close()
            finally:
                self._store = None

    def _finish(self, state: str) -> None:
        with self._lock:
            if self._state in ("finished", "cancelled", "failed"):
                return
            self._state = state
            self._end_time = time.perf_counter()

    def _row_event(self, position: int, result: TrialResult, source: str) -> RowEvent:
        with self._lock:
            self._emitted += 1
            if source == "deferred":
                self._deferred_served += 1
            if result.ok:
                self._ok += 1
                if result.agreement is False:
                    self._agreement_failures += 1
                if result.validity is False:
                    self._validity_failures += 1
            else:
                self._errors += 1
        _SESSION_ROWS.labels(source=source).inc()
        return RowEvent(position=position, result=result, source=source)

    def _fallback_events(self, before: dict[str, int]) -> list[FallbackEvent]:
        events = []
        for reason, count in sorted(self.fallback_reasons.items()):
            delta = count - before.get(reason, 0)
            if delta:
                events.append(FallbackEvent(reason=reason, count=delta))
        return events

    def _planned_event(self, units: Sequence[ExecutionUnit], executed: int) -> PlannedEvent:
        return PlannedEvent(
            trials=len(self.specs),
            executed=executed,
            cache_hits=self.cache_stats.hits,
            columnar_units=sum(1 for unit in units if unit.kind == "columnar"),
            object_units=sum(1 for unit in units if unit.kind == "object"),
        )

    def _trace_instant(self, event: SessionEvent) -> None:
        if self.trace is not None:
            self.trace.instant(event.type, category="session", args=event.to_dict())

    def _traced(self, source: Iterator[SessionEvent]) -> Iterator[SessionEvent]:
        """Mirror every non-row typed event into the trace as an instant marker."""
        if self.trace is None:
            yield from source
            return
        for event in source:
            if not isinstance(event, RowEvent):
                self._trace_instant(event)
            yield event

    def _run_unit_traced(
        self, unit: ExecutionUnit, specs: Sequence[TrialSpec]
    ) -> list[TrialResult]:
        """Execute a unit inline, recording its span when tracing is on."""
        if self.trace is None:
            return _execute_unit(unit, specs)
        start = time.time()
        unit_result = _execute_unit(unit, specs)
        self.trace.complete(
            f"unit:{unit.kind}", start, time.time() - start,
            category="execute", args={"trials": len(unit.positions)},
        )
        return unit_result

    def _on_pool_unit(self, observation: UnitObservation) -> None:
        """Place a pool-completed unit on its worker's trace track."""
        if self.trace is None:
            return
        started = observation.started_at or (time.time() - observation.seconds)
        self.trace.complete(
            f"unit:{observation.kind}", started, observation.seconds,
            track=observation.worker or "pool", category="execute",
            args={"trials": observation.trials},
        )

    def _cancellable(self, units: Sequence[ExecutionUnit]) -> Iterator[ExecutionUnit]:
        """Stop feeding plan units to the pool once cancellation is requested."""
        for unit in units:
            if self._cancel.is_set():
                return
            yield unit

    # -- uncached execution (the old execute_specs streaming path) -----------

    def _events_plain(self) -> Iterator[SessionEvent]:
        specs = self.specs
        engine, workers = self.engine, self.workers
        if engine == "object" and (workers <= 1 or len(specs) <= 1):
            # The object fast path bypasses planning; run the planner purely
            # for its fallback accounting.
            before = dict(self.fallback_reasons)
            plan_specs(specs, engine, self.fallback_reasons)
            yield self._planned_event([], executed=len(specs))
            yield from self._fallback_events(before)
            for position, spec in enumerate(specs):
                if self._cancel.is_set():
                    return
                yield self._row_event(position, run_trial(spec), "executed")
            return

        before = dict(self.fallback_reasons)
        units = plan_specs(specs, engine, self.fallback_reasons)
        yield self._planned_event(units, executed=len(specs))
        yield from self._fallback_events(before)
        # Reorder buffer: holds only results that arrived ahead of spec
        # order; every emitted result is released immediately, so memory
        # stays bounded by the out-of-order window, not the campaign size.
        pending: dict[int, TrialResult] = {}
        emitted = 0

        def _drain(
            positions: Sequence[int], unit_result: list[TrialResult]
        ) -> Iterator[SessionEvent]:
            nonlocal emitted
            for position, result in zip(positions, unit_result):
                pending[position] = result
            # Stream every prefix-complete result so sinks fill while later
            # units are still running.
            while emitted in pending:
                yield self._row_event(emitted, pending.pop(emitted), "executed")
                emitted += 1

        if workers <= 1 or len(specs) <= 1:
            for unit in units:
                if self._cancel.is_set():
                    return
                unit_result = self._run_unit_traced(unit, specs)
                yield UnitCommittedEvent(unit.kind, unit.positions, committed=False)
                yield from _drain(unit.positions, unit_result)
            return
        # The pool cuts every unit — object chunks *and* columnar groups —
        # into cost-model-sized tasks and yields them in completion order;
        # the reorder buffer above restores spec order.  Closing this loop
        # early (cancel) closes execute_plan, which drains in-flight units
        # without dispatching new ones.
        for positions, unit_result in execute_plan(
            specs, list(self._cancellable(units)), workers, self.chunksize,
            on_unit=self._on_pool_unit if self.trace is not None else None,
        ):
            yield UnitCommittedEvent("task", tuple(positions), committed=False)
            yield from _drain(positions, unit_result)
            if self._cancel.is_set():
                return

    # -- store-backed execution (the old _execute_specs_stored path) ---------

    def _events_stored(self) -> Iterator[SessionEvent]:
        """Serve cached rows, claim and run misses, commit per unit.

        ``record_history`` specs are never *served* from the store (per-round
        state histories are not serialised, so a cached row cannot satisfy
        the in-memory consumer), but their rows are still recorded — under a
        key that, by construction, a history-free spec resolves to as well.

        Before executing, each miss key is **claimed** on the store: keys
        another session already holds are *deferred* — this run polls for the
        owner's committed rows and serves them as cache hits instead of
        recomputing.  A deferred trial whose owner never commits (crash,
        timeout) is recomputed locally after ``claim_wait_timeout`` seconds,
        so the campaign always completes.
        """
        from repro.store.keys import trial_key

        specs = self.specs
        store = self._store
        assert store is not None
        cache_stats = self.cache_stats

        keys = [trial_key(spec) for spec in specs]
        # Only the *keys* of cache hits are held for the whole run; the rows
        # themselves are fetched in _SERVE_BATCH-sized slices at emission
        # time, so a warm million-trial resume never materialises the
        # campaign.
        hit_keys: dict[int, str] = {}
        census_start = time.time()
        if self.reuse_cached:
            servable = [key for spec, key in zip(specs, keys) if not spec.record_history]
            present = store.contains_keys(servable)
            for position, (spec, key) in enumerate(zip(specs, keys)):
                if not spec.record_history and key in present:
                    hit_keys[position] = key
        with self._lock:
            cache_stats.hits = len(hit_keys)
            cache_stats.misses = len(specs) - len(hit_keys)
        _STORE_CACHE_LOOKUPS.labels(outcome="hit").inc(len(hit_keys))
        _STORE_CACHE_LOOKUPS.labels(outcome="miss").inc(len(specs) - len(hit_keys))
        if self.trace is not None:
            self.trace.complete(
                "cache-census", census_start, time.time() - census_start,
                category="store",
                args={"hits": len(hit_keys), "misses": len(specs) - len(hit_keys)},
            )
        miss_positions = [position for position in range(len(specs)) if position not in hit_keys]

        # Claim the misses so concurrent sessions over this store split the
        # work: denied keys are being computed elsewhere — defer them and
        # serve the other session's rows.  record_history misses always run
        # locally (a stored row cannot carry the in-memory histories).
        deferred: dict[int, str] = {}
        claimed_keys: list[str] = []
        if self.reuse_cached and miss_positions:
            claimable = list(
                dict.fromkeys(
                    keys[position]
                    for position in miss_positions
                    if not specs[position].record_history
                )
            )
            granted = store.claim_keys(claimable, self.run_id) if claimable else set()
            claimed_keys = [key for key in claimable if key in granted]
            for position in miss_positions:
                if not specs[position].record_history and keys[position] not in granted:
                    deferred[position] = keys[position]
        run_positions = [position for position in miss_positions if position not in deferred]
        run_specs = [specs[position] for position in run_positions]
        yield ClaimedEvent(granted=len(claimed_keys), deferred=len(deferred))

        pending: dict[int, TrialResult] = {}
        emitted = 0

        def _drain() -> Iterator[SessionEvent]:
            nonlocal emitted
            while True:
                if emitted in pending:
                    yield self._row_event(emitted, pending.pop(emitted), "executed")
                    emitted += 1
                elif emitted in hit_keys:
                    # Serve the next contiguous run of cached positions in
                    # one bounded fetch.
                    batch = []
                    position = emitted
                    while position in hit_keys and len(batch) < _SERVE_BATCH:
                        batch.append(position)
                        position += 1
                    rows = store.get_rows([hit_keys[position] for position in batch])
                    for position in batch:
                        row = rows.get(hit_keys[position])
                        if row is None:
                            raise RuntimeError(
                                f"store row for trial {position} vanished during execution; "
                                "result stores must not be mutated concurrently with a run"
                            )
                        # Reattach the *requested* spec: the stored row may
                        # carry a different trial_index (key-excluded field),
                        # and the emitted row must be byte-identical to a
                        # fresh run.
                        yield self._row_event(
                            position,
                            replace(TrialResult.from_row(row), spec=specs[position]),
                            "cache",
                        )
                        del hit_keys[position]
                        emitted = position + 1
                elif emitted in deferred:
                    # Another session owns these trials; serve whatever it
                    # has committed so far, stopping at the first absent row.
                    batch = []
                    position = emitted
                    while position in deferred and len(batch) < _SERVE_BATCH:
                        batch.append(position)
                        position += 1
                    rows = store.get_rows([deferred[position] for position in batch])
                    progressed = False
                    for position in batch:
                        row = rows.get(deferred[position])
                        if row is None:
                            break
                        with self._lock:
                            cache_stats.hits += 1
                            cache_stats.misses -= 1
                        yield self._row_event(
                            position,
                            replace(TrialResult.from_row(row), spec=specs[position]),
                            "deferred",
                        )
                        del deferred[position]
                        emitted = position + 1
                        progressed = True
                    if not progressed:
                        return
                else:
                    return

        def _commit(local_positions: Sequence[int], unit_result: list[TrialResult]) -> None:
            # Commit-then-emit: once a row has been yielded downstream, it is
            # guaranteed to be in the store, so resuming after an
            # interruption can never lose acknowledged work.
            store.put_results(
                (keys[run_positions[local]], result)
                for local, result in zip(local_positions, unit_result)
            )
            for local, result in zip(local_positions, unit_result):
                pending[run_positions[local]] = result

        try:
            # Serve every prefix-complete cached row before execution starts.
            yield from _drain()
            before = dict(self.fallback_reasons)
            units = _split_units_for_commit(
                plan_specs(run_specs, self.engine, self.fallback_reasons)
            )
            yield self._planned_event(units, executed=len(run_specs))
            yield from self._fallback_events(before)
            if self.workers <= 1 or len(run_specs) <= 1:
                for unit in units:
                    if self._cancel.is_set():
                        return
                    unit_result = self._run_unit_traced(unit, run_specs)
                    _commit(unit.positions, unit_result)
                    yield UnitCommittedEvent(unit.kind, unit.positions, committed=True)
                    yield from _drain()
            else:
                for local_positions, unit_result in execute_plan(
                    run_specs,
                    list(self._cancellable(units)),
                    self.workers,
                    self.chunksize,
                    on_unit=self._on_pool_unit if self.trace is not None else None,
                ):
                    _commit(local_positions, unit_result)
                    yield UnitCommittedEvent("task", tuple(local_positions), committed=True)
                    yield from _drain()
                    if self._cancel.is_set():
                        return

            # Wait out trials owned by other sessions, then recompute
            # leftovers.
            if deferred:
                wait_start = time.monotonic()
                deadline = wait_start + self.claim_wait_timeout
                delay = 0.05
                try:
                    while deferred and time.monotonic() < deadline:
                        if self._cancel.is_set():
                            return
                        before_count = len(deferred)
                        yield from _drain()
                        if deferred and len(deferred) == before_count:
                            time.sleep(delay)
                            delay = min(delay * 1.6, 1.0)
                finally:
                    _STORE_CLAIM_WAIT.observe(time.monotonic() - wait_start)
            if deferred and not self._cancel.is_set():
                # The owning session never committed (crashed or stuck):
                # finish its share ourselves.  Last-write-wins commits keep
                # this safe even if it eventually completes too.
                retry_positions = sorted(deferred)
                retry_specs = [specs[position] for position in retry_positions]
                for unit in _split_units_for_commit(
                    plan_specs(retry_specs, self.engine, self.fallback_reasons)
                ):
                    if self._cancel.is_set():
                        return
                    unit_result = self._run_unit_traced(unit, retry_specs)
                    store.put_results(
                        (keys[retry_positions[local]], result)
                        for local, result in zip(unit.positions, unit_result)
                    )
                    for local, result in zip(unit.positions, unit_result):
                        pending[retry_positions[local]] = result
                        deferred.pop(retry_positions[local], None)
                    yield UnitCommittedEvent(unit.kind, unit.positions, committed=True)
                    yield from _drain()
        finally:
            if claimed_keys:
                try:
                    store.release_claims(claimed_keys, self.run_id)
                except Exception:  # noqa: BLE001 — claims expire by TTL anyway
                    pass
