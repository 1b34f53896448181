"""Campaign sessions: the one entry module for running a campaign.

:class:`CampaignSession` **owns the whole execution lifecycle** — key
derivation, cache lookup, claim coordination, unit planning, dispatch — and
exposes it incrementally; :func:`run_campaign` is the blocking convenience on
top (JSONL sink, per-row callback, optional collection) that the CLI, the fuzz
harness and the experiments ride:

* :meth:`CampaignSession.events` — a single-use generator of typed
  :class:`SessionEvent` records (``planned`` / ``claimed`` / ``fallback`` /
  ``unit-committed`` / ``row`` / ``finished``), produced in execution order.
  Row events arrive in **spec order** (the reorder buffer lives here).
* :meth:`CampaignSession.rows` — that stream filtered down to its
  :class:`~repro.engine.spec.TrialResult` rows.
* :meth:`CampaignSession.cancel` — cooperative, thread-safe cancellation:
  the session stops dispatching new work units at the next unit boundary
  (an inline columnar unit stops between its trials or rounds and is
  dropped whole), releases its store claims, and leaves the store at a
  clean committed-unit boundary so a later ``--resume`` run recomputes
  nothing that was already acknowledged.  Abandoning the ``events()``/``rows()`` generator (a client
  disconnect, a ``break``) cancels the same way — the generator's ``finally``
  blocks run on close.
* :meth:`CampaignSession.status` — a :class:`CampaignStatus` snapshot
  (state, row counts, cache hits, fallback reasons, throughput), safe to
  call from any thread while the session runs in another.  This is what the
  HTTP server's ``run_id``-addressed status resource serves.

There is exactly **one** campaign loop (:meth:`CampaignSession._run`):
``(census → claim →) plan → dispatch → (commit →) drain``.  A run without a
store is the stored run with nothing stored — the census and the claims
contribute empty sets, no key is derived and no store method is called.  The
emission rule is one sentence: *a row leaves as soon as commit-before-emit
allows* — with a store, once its group (one pool task on the pool; inline,
at most :data:`STORE_COMMIT_CHUNK` object-engine trials or one columnar unit)
has committed; without one, once its trial (object engine), columnar unit or
pool task has finished.  Rows are byte-identical (modulo ``elapsed_ms``) for
every engine, worker count and store state.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from repro.engine.campaign import Campaign
from repro.engine.pool import ExecutionUnit, UnitObservation, execute_plan
from repro.engine.spec import JsonlSink, TrialResult, TrialSpec
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
    "ClaimedEvent",
    "FallbackEvent",
    "FinishedEvent",
    "PlannedEvent",
    "RowEvent",
    "SessionEvent",
    "UnitCommittedEvent",
    "plan_specs",
    "run_campaign",
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
_ROWS_BY_SOURCE = {
    source: _SESSION_ROWS.labels(source=source) for source in ("executed", "cache", "deferred")
}
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


def _execute_unit(
    unit: ExecutionUnit, specs: Sequence[TrialSpec], stop: Callable[[], bool]
) -> list[TrialResult] | None:
    """Run one unit inline; ``None`` when ``stop`` cut a columnar unit short."""
    if unit.kind == "columnar":
        return run_specs_vectorized([specs[position] for position in unit.positions], stop)
    return [run_trial(specs[position]) for position in unit.positions]


#: Inline runs with a store re-chunk object-engine units to at most this many
#: trials, bounding how much completed work one interruption can lose (each
#: chunk commits transactionally on completion).  On the pool the commit
#: group is the pool task instead, already sized by the cost model to at most
#: ``TARGET_UNIT_SECONDS`` of estimated work, so this constant bounds inline
#: groups only.
STORE_COMMIT_CHUNK = 4

#: Cache hits are fetched from the store in slices of this many rows at
#: emission time, keeping warm-resume memory bounded by the batch size (plus
#: the reorder window) instead of the campaign size.
_SERVE_BATCH = 1024

#: Seconds a run waits for rows another session has claimed before it
#: recomputes them itself (the owner may have crashed).
CLAIM_WAIT_SECONDS = 60.0


def _split_object_units(units: list[ExecutionUnit], cap: int) -> list[ExecutionUnit]:
    """Cap object units at ``cap`` trials, the most a finished row waits for.

    Columnar units ship whole — the batch is solved as one array program, so
    it completes (and commits) as one unit anyway.
    """
    split: list[ExecutionUnit] = []
    for unit in units:
        if unit.kind == "object" and len(unit.positions) > cap:
            for start in range(0, len(unit.positions), cap):
                split.append(ExecutionUnit("object", unit.positions[start : start + cap]))
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
    """One unit or pool task completed (and, with a store, committed).

    ``positions`` are spec positions, the ones its row events carry.
    """

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


@dataclass(frozen=True)
class FinishedEvent(SessionEvent):
    """Terminal event: the final status snapshot (always the last event)."""

    status: "CampaignStatus"

    type = "finished"

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "status": self.status.to_dict()}


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time snapshot of a session (safe to take from any thread).

    The final snapshot is the run's record: :meth:`CampaignSession.summary`
    and :func:`run_campaign` return it, and :meth:`to_row` is its CLI table
    row.
    """

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
    #: Executed trials the planner routed to the object engine, counted per
    #: :class:`~repro.engine.vectorized.FallbackReason` value.  Store-served
    #: trials are never planned, so they are not counted here.
    fallback_reasons: dict[str, int]
    workers: int
    engine: str
    elapsed_seconds: float
    error: str | None = None

    @property
    def trials_per_second(self) -> float:
        """Emission throughput so far, clamped to 0.0 when no time elapsed.

        A zero-length (or clock-resolution-zero) run must not report
        ``inf``: ``json.dumps`` would emit ``Infinity``, which is not valid
        JSON and breaks downstream row consumers.
        """
        return self.emitted / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

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

    def to_row(self) -> dict[str, Any]:
        """One table row for the CLI's campaign summary."""
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
    spec sequence, named ``session`` (kept verbatim — positions and
    ``trial_index`` values are never rewritten here, so rows stay
    byte-identical to the specs given).
    ``store`` is a :class:`~repro.store.backend.ResultStore`, a path (opened
    on start and closed when the session ends), or ``None`` for uncached
    execution.  With a store, execution is a write-through cache: cached rows
    are served without running anything (unless ``reuse_cached`` is False,
    which forces recomputation while still recording) and misses commit
    before they are emitted; :data:`CLAIM_WAIT_SECONDS` bounds how long the
    run waits for rows another session has claimed before recomputing them
    itself.  ``workers <= 1`` runs inline; otherwise units are cut into
    cost-model-sized tasks on the persistent pool.  The session is single-shot:
    :meth:`events` (or :meth:`rows`) may be consumed once.
    """

    def __init__(
        self,
        campaign: Union[Campaign, Sequence[TrialSpec]],
        *,
        workers: int = 1,
        engine: str = "auto",
        store: "ResultStore | str | Path | None" = None,
        reuse_cached: bool = True,
        trace: TraceRecorder | None = None,
    ) -> None:
        if engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINE_CHOICES)}"
            )
        if isinstance(campaign, Campaign):
            self.specs: tuple[TrialSpec, ...] = campaign.specs
            self.name = campaign.name
        else:
            self.specs = tuple(campaign)
            self.name = "session"
        self.workers = workers
        self.engine = engine
        self.reuse_cached = reuse_cached
        #: Session identity: names the run in summaries and the HTTP API, and
        #: doubles as the claim owner id, so ``repro store claims`` attributes
        #: outstanding claims to the session that holds them.
        self.run_id = uuid.uuid4().hex[:16]
        #: Executed trials the planner routed to the object engine, per reason.
        self.fallback_reasons: dict[str, int] = {}
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
        self._cache_hits = 0
        self._deferred_served = 0

        # The loop's working state.  Without a store the first three stay
        # empty: no key is derived, nothing is served, nothing is deferred.
        self._keys: list[str] = []  # content key per spec position
        self._hits: dict[int, str] = {}  # position -> key, cached rows still to serve
        self._deferred: dict[int, str] = {}  # position -> key another session claimed
        # Reorder buffer: holds only results that arrived ahead of spec
        # order; every emitted result is released immediately, so memory
        # stays bounded by the out-of-order window, not the campaign size.
        self._pending: dict[int, TrialResult] = {}
        self._next = 0  # the next spec position to emit

    # -- observation ---------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def cancel(self) -> None:
        """Request cooperative cancellation (thread-safe, idempotent).

        The session stops dispatching work at the next unit boundary (an
        inline columnar unit stops at its next trial or round and commits
        nothing), releases its claims, and ends in state ``"cancelled"``.
        Rows already committed to the store stay committed — a later resume
        serves them as cache hits and recomputes nothing.
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
                cache_hits=self._cache_hits,
                deferred=self._deferred_served,
                fallback_reasons=dict(self.fallback_reasons),
                workers=self.workers,
                engine=self.engine,
                elapsed_seconds=elapsed,
                error=self._error,
            )

    def summary(self) -> CampaignStatus:
        """The run's final :class:`CampaignStatus` (meaningful once finished)."""
        return self.status()

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
                yield from self._traced(self._run())
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
                # Committed by a concurrent session: served, not recomputed.
                self._deferred_served += 1
                self._cache_hits += 1
            if result.ok:
                self._ok += 1
                if result.agreement is False:
                    self._agreement_failures += 1
                if result.validity is False:
                    self._validity_failures += 1
            else:
                self._errors += 1
        _ROWS_BY_SOURCE[source].inc()
        return RowEvent(position=position, result=result, source=source)

    def _trace_instant(self, event: SessionEvent) -> None:
        if self.trace is not None:
            self.trace.instant(event.type, event.to_dict())

    def _traced(self, source: Iterator[SessionEvent]) -> Iterator[SessionEvent]:
        """Mirror every non-row typed event into the trace as an instant marker."""
        if self.trace is None:
            yield from source
            return
        for event in source:
            if not isinstance(event, RowEvent):
                self._trace_instant(event)
            yield event

    def _on_pool_unit(self, observation: UnitObservation) -> None:
        """Place a pool-completed unit on its worker's trace track (traced runs only)."""
        started = observation.started_at or (time.time() - observation.seconds)
        self.trace.complete(
            f"unit:{observation.kind}", started, observation.seconds,
            track=observation.worker or "pool", category="execute",
            args={"trials": observation.trials},
        )

    # -- the campaign loop ---------------------------------------------------

    def _run(self) -> Iterator[SessionEvent]:
        """``(census → claim →) plan → dispatch → (commit →) drain``.

        With a store: cached rows are served, each miss key is **claimed**,
        and keys another session already holds are *deferred* — this run
        polls for the owner's committed rows and serves them as cache hits
        instead of recomputing.  A deferred trial whose owner never commits
        (crash, timeout) is recomputed locally after
        :data:`CLAIM_WAIT_SECONDS`, so the campaign always completes.  Without
        a store every position simply runs.
        """
        run_positions: Sequence[int] = range(len(self.specs))
        claimed: list[str] = []
        try:
            if self._store is not None:
                misses = self._census()
                claimed = self._claim(misses)
                run_positions = [
                    position for position in misses if position not in self._deferred
                ]
                yield ClaimedEvent(granted=len(claimed), deferred=len(self._deferred))
                # Serve every prefix-complete cached row before execution starts.
                yield from self._drain()
            yield from self._execute(run_positions)
            if self._deferred and not self._cancel.is_set():
                yield from self._await_deferred()
            if self._deferred and not self._cancel.is_set():
                # The owning session never committed (crashed or stuck):
                # finish its share ourselves.  Last-write-wins commits keep
                # this safe even if it eventually completes too.
                leftovers = sorted(self._deferred)
                self._deferred.clear()
                yield from self._execute(leftovers)
        finally:
            if claimed:
                try:
                    self._store.release_claims(claimed, self.run_id)
                except Exception:  # noqa: BLE001 — claims expire by TTL anyway
                    pass

    def _census(self) -> list[int]:
        """Derive every key, record which are already stored; return the misses.

        ``record_history`` specs are never *served* from the store (per-round
        state histories are not serialised, so a cached row cannot satisfy
        the in-memory consumer), but their rows are still recorded — under a
        key that, by construction, a history-free spec resolves to as well.
        Only the *keys* of cache hits are held for the whole run; the rows
        themselves are fetched in ``_SERVE_BATCH``-sized slices at emission
        time, so a warm million-trial resume never materialises the campaign.
        """
        from repro.store.keys import trial_key

        specs = self.specs
        self._keys = keys = [trial_key(spec) for spec in specs]
        census_start = time.time()
        if self.reuse_cached:
            servable = [key for spec, key in zip(specs, keys) if not spec.record_history]
            present = self._store.contains_keys(servable)
            for position, (spec, key) in enumerate(zip(specs, keys)):
                if not spec.record_history and key in present:
                    self._hits[position] = key
        hits, misses = len(self._hits), len(specs) - len(self._hits)
        with self._lock:
            self._cache_hits = hits
        _STORE_CACHE_LOOKUPS.labels(outcome="hit").inc(hits)
        _STORE_CACHE_LOOKUPS.labels(outcome="miss").inc(misses)
        if self.trace is not None:
            self.trace.complete(
                "cache-census", census_start, time.time() - census_start,
                category="store", args={"hits": hits, "misses": misses},
            )
        return [position for position in range(len(specs)) if position not in self._hits]

    def _claim(self, misses: Sequence[int]) -> list[str]:
        """Claim the miss keys; fill ``_deferred`` with the denied ones.

        Concurrent sessions over one store split the work this way: a denied
        key is being computed elsewhere.  ``record_history`` misses always
        run locally (a stored row cannot carry the in-memory histories).
        """
        if not self.reuse_cached or not misses:
            return []
        specs, keys = self.specs, self._keys
        claimable = list(
            dict.fromkeys(
                keys[position] for position in misses if not specs[position].record_history
            )
        )
        granted = self._store.claim_keys(claimable, self.run_id) if claimable else set()
        for position in misses:
            if not specs[position].record_history and keys[position] not in granted:
                self._deferred[position] = keys[position]
        return [key for key in claimable if key in granted]

    def _execute(self, positions: Sequence[int]) -> Iterator[SessionEvent]:
        """Plan the trials at ``positions``, run them, commit and emit each group."""
        specs = [self.specs[position] for position in positions]
        store = self._store
        inline = self.workers <= 1 or len(specs) <= 1
        reasons: dict[str, int] = {}
        units = plan_specs(specs, self.engine, reasons)
        # The emission rule.  On the pool the commit group is the pool task,
        # which the pool cuts itself; inline, a row waits for its commit group
        # with a store and only for its own trial without one.
        if inline:
            units = _split_object_units(units, STORE_COMMIT_CHUNK if store is not None else 1)
        with self._lock:
            for reason, count in reasons.items():
                self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + count
        yield PlannedEvent(
            trials=len(self.specs),
            executed=len(specs),
            cache_hits=self._cache_hits,
            columnar_units=sum(1 for unit in units if unit.kind == "columnar"),
            object_units=sum(1 for unit in units if unit.kind == "object"),
        )
        for reason, count in sorted(reasons.items()):
            yield FallbackEvent(reason=reason, count=count)
        for kind, local_positions, results in self._dispatch(specs, units, inline):
            group = [positions[local] for local in local_positions]
            if store is not None:
                # Commit-then-emit: once a row has been yielded downstream,
                # it is guaranteed to be in the store, so resuming after an
                # interruption can never lose acknowledged work.
                store.put_results(
                    (self._keys[position], result) for position, result in zip(group, results)
                )
            self._pending.update(zip(group, results))
            yield UnitCommittedEvent(kind, tuple(group), committed=store is not None)
            yield from self._drain()

    def _dispatch(
        self, specs: Sequence[TrialSpec], units: Sequence[ExecutionUnit], inline: bool
    ) -> Iterator[tuple[str, Sequence[int], list[TrialResult]]]:
        """Yield ``(kind, positions, results)`` per finished unit or pool task.

        Cancellation takes effect at these boundaries: no unit starts after
        it, an inline columnar unit it cuts short yields nothing, and closing
        the pool loop closes ``execute_plan``, which drains in-flight tasks
        without dispatching new ones.
        """
        if inline:
            for unit in units:
                if self._cancel.is_set():
                    return
                start = time.time()
                results = _execute_unit(unit, specs, self._cancel.is_set)
                if results is None:
                    return  # cancelled part-way: nothing to commit or emit
                if self.trace is not None:
                    self.trace.complete(
                        f"unit:{unit.kind}", start, time.time() - start,
                        category="execute", args={"trials": len(unit.positions)},
                    )
                yield unit.kind, unit.positions, results
            return
        if self._cancel.is_set():
            return
        # The pool cuts every unit — object chunks *and* columnar groups —
        # into cost-model-sized tasks and yields them in completion order;
        # the reorder buffer restores spec order.
        for task_positions, results in execute_plan(
            specs, units, self.workers,
            on_unit=self._on_pool_unit if self.trace is not None else None,
        ):
            yield "task", task_positions, results
            if self._cancel.is_set():
                return

    def _drain(self) -> Iterator[RowEvent]:
        """Emit every row that is next in spec order and ready to leave."""
        while True:
            position = self._next
            if position in self._pending:
                yield self._row_event(position, self._pending.pop(position), "executed")
                self._next = position + 1
            elif position in self._hits:
                yield from self._serve(self._hits, "cache")
            elif position in self._deferred:
                # Another session owns these trials; serve whatever it has
                # committed so far and stop at the first absent row.
                yield from self._serve(self._deferred, "deferred")
                if self._next == position:
                    return
            else:
                return

    def _serve(self, table: dict[int, str], source: str) -> Iterator[RowEvent]:
        """Serve the contiguous run of ``table`` positions at ``_next`` in one bounded fetch."""
        batch = []
        position = self._next
        while position in table and len(batch) < _SERVE_BATCH:
            batch.append(position)
            position += 1
        rows = self._store.get_rows([table[position] for position in batch])
        for position in batch:
            row = rows.get(table[position])
            if row is None:
                if source == "deferred":
                    return  # its owner has not committed it yet
                raise RuntimeError(
                    f"store row for trial {position} vanished during execution; "
                    "result stores must not be mutated concurrently with a run"
                )
            # Serve onto the *requested* spec: the stored row may carry a
            # different trial_index (key-excluded field), and the emitted
            # row must be byte-identical to a fresh run.
            yield self._row_event(
                position, TrialResult.from_row(row, spec=self.specs[position]), source
            )
            del table[position]
            self._next = position + 1

    def _await_deferred(self) -> Iterator[RowEvent]:
        """Poll for rows other sessions claimed until they land or the wait times out."""
        wait_start = time.monotonic()
        deadline = wait_start + CLAIM_WAIT_SECONDS
        delay = 0.05
        try:
            while self._deferred and time.monotonic() < deadline:
                if self._cancel.is_set():
                    return
                outstanding = len(self._deferred)
                yield from self._drain()
                if len(self._deferred) == outstanding:
                    time.sleep(delay)
                    delay = min(delay * 1.6, 1.0)
        finally:
            _STORE_CLAIM_WAIT.observe(time.monotonic() - wait_start)


def run_campaign(
    campaign: Campaign,
    workers: int = 1,
    jsonl_path: str | Path | None = None,
    on_result: Callable[[TrialResult], None] | None = None,
    collect: bool = False,
    engine: str = "auto",
    store: "ResultStore | str | Path | None" = None,
    reuse_cached: bool = True,
    trace: TraceRecorder | None = None,
) -> tuple[CampaignStatus, list[TrialResult]]:
    """Run every trial of the campaign, streaming rows to the optional sink.

    The blocking form of a :class:`CampaignSession` (same ``workers`` /
    ``engine`` / ``store`` / ``reuse_cached`` / ``trace`` meaning).  Each
    row, in spec order, is written to ``jsonl_path``, passed to ``on_result``
    (an exception raised there aborts the run) and — only when
    ``collect=True`` — kept for the returned list; large sweeps should rely
    on the JSONL sink and keep ``collect`` off.  Returns the final
    :class:`CampaignStatus` (``cache_hits`` reports the store's share) and the
    collected rows.  The caller owns writing a recorded ``trace`` out
    (``trace.write(path)``).
    """
    session = CampaignSession(
        campaign,
        workers=workers,
        engine=engine,
        store=store,
        reuse_cached=reuse_cached,
        trace=trace,
    )
    collected: list[TrialResult] = []
    sink_context = JsonlSink(jsonl_path) if jsonl_path is not None else nullcontext()
    # Closing the row iterator — also on a consumer error — releases claims
    # and closes a session-owned store.
    with closing(session.rows()) as rows, sink_context as sink:
        for result in rows:
            if sink is not None:
                sink.write(result)
            if on_result is not None:
                on_result(result)
            if collect:
                collected.append(result)
    return session.summary(), collected
