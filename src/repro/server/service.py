"""Campaign service: sessions, bounded execution, accounting, ETags.

This is the transport-independent half of the serving layer (ROADMAP item
2): everything the HTTP front end in :mod:`repro.server.http` does is a thin
translation onto :class:`CampaignService`, so the service is testable without
sockets and reusable under a different transport.

Responsibilities:

* **Submission** — :meth:`CampaignService.submit` validates a campaign
  declaration (the same ``{"grid": ...}`` / ``{"trials": ...}`` schema as
  campaign files, via :meth:`~repro.engine.campaign.Campaign.from_payload`),
  wraps it in a :class:`~repro.engine.session.CampaignSession` against the
  service's results store, and runs it on a **bounded** thread pool: at most
  ``max_active`` sessions execute concurrently, at most ``max_pending`` wait,
  and anything beyond that is refused with :class:`ServiceBusy` (HTTP 429).
  The store turns every submission into an incremental computation — cached
  trials stream back immediately, only the misses execute.
* **Observation** — each run is addressed by its session ``run_id``:
  :meth:`status` snapshots, :meth:`cancel` for cooperative cancellation, and
  :meth:`RunHandle.snapshot` for NDJSON row streaming (rows are buffered as
  serialised lines, so late subscribers replay from the start and live
  subscribers follow the commit frontier).
* **Store reads** — :meth:`query_rows`, :meth:`aggregate`,
  :meth:`export_batch`, :meth:`store_stats`, :meth:`store_claims` run on
  **pooled per-thread store handles** (one long-lived connection per reader
  thread, closed at shutdown) instead of opening a fresh store per call,
  and query/aggregate results and the stats' trial counts are served from
  a bounded LRU keyed by the store's **generation counter** — any commit
  bumps the generation, so stale entries are unreachable rather than
  explicitly invalidated.  :meth:`read_query`, :meth:`read_aggregate` and
  :meth:`read_stats` answer a whole HTTP read in one call (one executor
  hop): the ETag and the response body as ``bytes``, encoded once per cache
  entry, so a cached read costs no JSON encoding.
* **Validation** — :meth:`etag_for` derives an entity tag from the sorted
  content keys matching a filter.  Keys are content hashes of the trial
  specs (salted with the engine version), so the tag changes exactly when
  the matching result set changes; repeated ``GET`` s revalidate with
  ``If-None-Match`` and get 304s while the store is unchanged.  Digests are
  cached per ``(generation, filter)``, making revalidation amortised O(1)
  in store size.
* **Accounting** — per-API-key counters (requests, campaigns submitted,
  rows streamed), surfaced by the ``/metrics`` resource.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.engine.campaign import Campaign
from repro.engine.pool import shutdown_pools
from repro.engine.session import ENGINE_CHOICES, CampaignSession, RowEvent
from repro.exceptions import ConfigurationError
from repro.obs.registry import get_registry, render_prometheus, snapshot_jsonable
from repro.obs.trace import TraceRecorder
from repro.store.backend import open_store
from repro.store.query import TrialFilter, aggregate_store, query_store

__all__ = [
    "CampaignService",
    "RunHandle",
    "ServiceBusy",
    "ServiceError",
    "UnknownRun",
]


_READ_CACHE = get_registry().counter(
    "repro_service_read_cache_total",
    "Store reads looked up in the service's generation-keyed response cache.",
    labelnames=("route", "outcome"),
)

#: ``ResultStore.stats`` fields that change without a generation bump.
_CLAIM_FIELDS = ("claims_live", "claims_expired")


def encode_json(payload: Any) -> bytes:
    """The wire form of every JSON response: sorted keys, one trailing newline."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _CachedRead:
    """One response-cache entry: the read's value and, once asked, its body."""

    __slots__ = ("value", "body")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.body: bytes | None = None


def _trial_counts(store) -> dict[str, Any]:
    stats = store.stats()
    return {name: value for name, value in stats.items() if name not in _CLAIM_FIELDS}


class ServiceError(Exception):
    """Client error in a service call (maps to HTTP 400)."""

    status = 400


class UnknownRun(ServiceError):
    """No run with the requested ``run_id`` (maps to HTTP 404)."""

    status = 404


class ServiceBusy(ServiceError):
    """Submission refused: the in-flight session bound is reached (HTTP 429)."""

    status = 429


@dataclass
class RunHandle:
    """One submitted campaign: its session plus the replayable row log.

    Row lines are the session's committed rows serialised with
    ``TrialResult.to_json()`` — exactly the CLI's ``--jsonl`` line format —
    appended in spec order as the session emits them.  ``snapshot`` gives a
    consistent (lines-after-offset, finished) view, which is all a streaming
    subscriber needs: replay what exists, then follow until ``finished``.

    Live subscribers are **push-notified**: a streaming coroutine registers
    an ``(event loop, asyncio.Event)`` waiter and the session's worker thread
    wakes it through ``loop.call_soon_threadsafe`` the moment a row commits
    (or the run retires) — no poll interval between a commit and the bytes
    leaving the socket.
    """

    run_id: str
    session: CampaignSession
    api_key: str
    submitted_at: float
    _lines: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _waiters: list[tuple[Any, Any]] = field(default_factory=list)
    #: Set when the worker thread has fully retired the session (its final
    #: state is readable and no more rows will arrive).
    finished: threading.Event = field(default_factory=threading.Event)

    def append_line(self, line: str) -> None:
        with self._lock:
            self._lines.append(line)
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)

    def mark_finished(self) -> None:
        """Flip to finished and wake every live subscriber (worker thread)."""
        self.finished.set()
        with self._lock:
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)

    @staticmethod
    def _wake(waiters: list[tuple[Any, Any]]) -> None:
        for loop, event in waiters:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # the subscriber's loop already shut down

    def add_waiter(self, loop: Any, event: Any) -> None:
        """Register a one-shot wakeup for the next row/finish transition."""
        with self._lock:
            self._waiters.append((loop, event))
        if self.finished.is_set():
            # The run retired between the caller's snapshot and registration;
            # wake immediately so the subscriber re-checks instead of waiting.
            event.set()

    def discard_waiter(self, loop: Any, event: Any) -> None:
        with self._lock:
            try:
                self._waiters.remove((loop, event))
            except ValueError:
                pass  # already consumed by a wake

    def snapshot(self, start: int = 0) -> tuple[list[str], bool]:
        """Row lines from ``start`` onward, plus whether the run is finished.

        The finished flag is read *before* the lines are copied: a True flag
        with an empty tail means the stream is genuinely drained (rows only
        ever get appended, never removed).
        """
        done = self.finished.is_set()
        with self._lock:
            return self._lines[start:], done

    def status_dict(self) -> dict[str, Any]:
        status = self.session.status().to_dict()
        status["submitted_at"] = self.submitted_at
        status["rows_available"] = len(self._lines)
        status["api_key"] = self.api_key
        return status


class CampaignService:
    """Sessions + store reads behind one bounded, accounted facade."""

    #: Bound on cached ``(generation, filter) → ETag`` digests.
    ETAG_CACHE_SIZE = 256
    #: Bound on cached query/aggregate/stats reads, each held as its value
    #: and its encoded body (entry count, not bytes — entries die with the
    #: generation that keyed them anyway).
    RESPONSE_CACHE_SIZE = 64
    #: Rows per export page (one pooled-store round trip each).
    EXPORT_BATCH = 512

    def __init__(
        self,
        store_path: str | Path,
        workers: int = 1,
        max_active: int = 2,
        max_pending: int = 8,
        claim_wait_timeout: float = 60.0,
        trace_dir: str | Path | None = None,
    ) -> None:
        self.store_path = Path(store_path)
        self.default_workers = workers
        self.max_active = max_active
        self.max_pending = max_pending
        self.claim_wait_timeout = claim_wait_timeout
        #: When set, every submitted run records a Chrome trace written to
        #: ``<trace_dir>/<run_id>.json`` as the run retires.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._executor = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="campaign-session"
        )
        self._runs: dict[str, RunHandle] = {}
        self._lock = threading.Lock()
        # Accounting has its own lock: counters are bumped inline on the
        # event loop (no executor hop), so they must never contend with the
        # run-table lock held across submissions and status scans.
        self._accounting_lock = threading.Lock()
        self._accounting: dict[str, dict[str, int]] = {}
        # Pooled read handles: one long-lived store per reader thread (SQLite
        # connections must not be shared across threads mid-statement), all
        # tracked for shutdown.  Opened lazily — the event loop's executor
        # and the session pool create threads on demand.
        self._thread_store = threading.local()
        self._pooled_stores: list[Any] = []
        self._pool_lock = threading.Lock()
        # Generation-keyed read caches (see etag_for / _cached_read).
        self._read_cache_lock = threading.Lock()
        self._etag_cache: "OrderedDict[tuple, str]" = OrderedDict()
        self._response_cache: "OrderedDict[tuple, _CachedRead]" = OrderedDict()
        # Create the store eagerly so the first query does not race the first
        # submission on schema creation, and a bad path fails at startup.
        open_store(self.store_path).close()

    # -- accounting ----------------------------------------------------------

    def record_request(self, api_key: str) -> None:
        """Count one request for ``api_key`` (already normalised).

        Cheap by design — a dict update under a dedicated lock — so the HTTP
        layer calls it inline on the event loop instead of paying two
        ``asyncio.to_thread`` hops per request.
        """
        with self._accounting_lock:
            counters = self._accounting.setdefault(
                api_key, {"requests": 0, "campaigns": 0, "rows_streamed": 0}
            )
            counters["requests"] += 1

    def record_rows(self, api_key: str, rows: int) -> None:
        with self._accounting_lock:
            counters = self._accounting.setdefault(
                api_key, {"requests": 0, "campaigns": 0, "rows_streamed": 0}
            )
            counters["rows_streamed"] += rows

    def record_campaigns(self, api_key: str) -> None:
        with self._accounting_lock:
            counters = self._accounting.setdefault(
                api_key, {"requests": 0, "campaigns": 0, "rows_streamed": 0}
            )
            counters["campaigns"] += 1

    def metrics(self) -> dict[str, Any]:
        with self._accounting_lock:
            per_key = {key: dict(counters) for key, counters in self._accounting.items()}
        with self._lock:
            states: dict[str, int] = {}
            for handle in self._runs.values():
                state = handle.session.state
                states[state] = states.get(state, 0) + 1
        return {
            "api_keys": per_key,
            "runs": states,
            "telemetry": snapshot_jsonable(get_registry().snapshot()),
        }

    def prometheus_metrics(self) -> str:
        """The process registry in Prometheus text exposition format."""
        return render_prometheus(get_registry())

    # -- campaign lifecycle --------------------------------------------------

    def _in_flight(self) -> int:
        return sum(1 for handle in self._runs.values() if not handle.finished.is_set())

    def submit(self, payload: Mapping[str, Any], api_key: str = "anonymous") -> RunHandle:
        """Validate and enqueue one campaign; returns its :class:`RunHandle`.

        ``payload`` is ``{"campaign": <declaration>, "workers"?, "engine"?,
        "resume"?}`` — the declaration is the campaign-file schema.
        Raises :class:`ServiceBusy` once ``max_active + max_pending`` runs
        are in flight (the bound that keeps one tenant from queueing
        unbounded compute), :class:`ServiceError` on malformed payloads.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("request body must be a JSON object")
        declaration = payload.get("campaign")
        if declaration is None:
            raise ServiceError("request body needs a 'campaign' declaration")
        try:
            campaign = Campaign.from_payload(declaration, source="request body")
        except ConfigurationError as error:
            raise ServiceError(str(error)) from error
        workers = payload.get("workers", self.default_workers)
        engine = payload.get("engine", "auto")
        resume = payload.get("resume", True)
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ServiceError(f"'workers' must be a positive integer, got {workers!r}")
        # Each distinct pool size forks its own process-lifetime pool, so the
        # request may not ask for more workers than the machine (or the
        # operator's default) provides.
        max_workers = max(self.default_workers, os.cpu_count() or 1)
        if workers > max_workers:
            raise ServiceError(f"'workers' must be at most {max_workers}, got {workers}")
        if engine not in ENGINE_CHOICES:
            raise ServiceError(f"unknown engine {engine!r}; known: {', '.join(ENGINE_CHOICES)}")
        if not isinstance(resume, bool):
            raise ServiceError(f"'resume' must be a boolean, got {resume!r}")

        with self._lock:
            if self._in_flight() >= self.max_active + self.max_pending:
                raise ServiceBusy(
                    f"{self._in_flight()} campaigns in flight "
                    f"(bound: {self.max_active} active + {self.max_pending} pending); "
                    "retry after a run finishes"
                )
            # The session opens its own store connection inside the worker
            # thread (SQLite connections are thread-bound).
            session = CampaignSession(
                campaign,
                workers=workers,
                engine=engine,
                store=self.store_path,
                reuse_cached=resume,
                claim_wait_timeout=self.claim_wait_timeout,
                trace=TraceRecorder() if self.trace_dir is not None else None,
            )
            handle = RunHandle(
                run_id=session.run_id,
                session=session,
                api_key=api_key,
                submitted_at=time.time(),
            )
            self._runs[handle.run_id] = handle
        self._executor.submit(self._drive, handle)
        return handle

    def _drive(self, handle: RunHandle) -> None:
        """Worker-thread body: run the session, logging rows as NDJSON lines."""
        try:
            for event in handle.session.events():
                if isinstance(event, RowEvent):
                    handle.append_line(event.result.to_json())
        except BaseException:
            # The session already recorded the failure in its status; the
            # handle must still flip to finished so streams terminate.
            pass
        finally:
            handle.mark_finished()
            if self.trace_dir is not None and handle.session.trace is not None:
                try:
                    handle.session.trace.write(self.trace_dir / f"{handle.run_id}.json")
                except OSError:
                    pass  # tracing is best-effort; the run itself succeeded

    def get(self, run_id: str) -> RunHandle:
        with self._lock:
            handle = self._runs.get(run_id)
        if handle is None:
            raise UnknownRun(f"unknown run_id {run_id!r}")
        return handle

    def status(self, run_id: str) -> dict[str, Any]:
        return self.get(run_id).status_dict()

    def cancel(self, run_id: str) -> dict[str, Any]:
        handle = self.get(run_id)
        handle.session.cancel()
        return handle.status_dict()

    def list_runs(self) -> list[dict[str, Any]]:
        with self._lock:
            handles = list(self._runs.values())
        return [handle.status_dict() for handle in handles]

    def cancel_runs(self) -> None:
        """Cancel every in-flight session."""
        with self._lock:
            handles = list(self._runs.values())
        for handle in handles:
            handle.session.cancel()

    def shutdown(self) -> None:
        """Cancel in-flight sessions and retire the thread pool."""
        self.cancel_runs()
        self._executor.shutdown(wait=True)
        shutdown_pools()
        # Pooled read handles were opened with check_same_thread=False
        # exactly so this cross-thread close is legal; reader threads are
        # quiescent by now (the loop and the session executor are retired).
        with self._pool_lock:
            stores, self._pooled_stores = self._pooled_stores, []
        self._thread_store = threading.local()
        for store in stores:
            try:
                store.close()
            except Exception:  # noqa: BLE001 — best-effort resource release
                pass

    # -- store reads ---------------------------------------------------------

    def _pooled_store(self):
        """This thread's long-lived read handle (opened on first use).

        Replaces the open-per-request pattern: a warm read no longer pays
        connection setup + schema DDL, just the query.  SQLite sees
        committed state per statement, so externally-committed rows are
        visible without reopening.
        """
        store = getattr(self._thread_store, "store", None)
        if store is None:
            store = open_store(self.store_path, check_same_thread=False)
            self._thread_store.store = store
            with self._pool_lock:
                self._pooled_stores.append(store)
        return store

    def _cached_read(
        self, store, generation: int, route: str, params: tuple, compute
    ) -> _CachedRead:
        """Serve ``compute(store)`` through the generation-keyed LRU.

        The cache key is ``(generation, route, *params)``: any commit bumps
        the generation (in the writer's transaction), so stale entries are
        simply unreachable — no explicit invalidation, correct across
        processes.  A result is only cached when the generation did not move
        during the read, so a racing write can never pin newer content under
        an older generation.
        """
        cache_key = (generation, route, *params)
        with self._read_cache_lock:
            entry = self._response_cache.get(cache_key)
            if entry is not None:
                self._response_cache.move_to_end(cache_key)
        _READ_CACHE.labels(route=route, outcome="miss" if entry is None else "hit").inc()
        if entry is not None:
            return entry
        entry = _CachedRead(compute(store))
        if store.generation() == generation:
            with self._read_cache_lock:
                self._response_cache[cache_key] = entry
                while len(self._response_cache) > self.RESPONSE_CACHE_SIZE:
                    self._response_cache.popitem(last=False)
        return entry

    @staticmethod
    def _where_key(where: Mapping[str, Any] | None) -> tuple:
        return tuple(sorted((where or {}).items()))

    def store_stats(self) -> dict[str, Any]:
        """The store's counters: trial counts cached per generation, claims live.

        Claims come and go without a generation bump, so only the trial
        counts (by engine version and by status) are served from the cache.
        """
        store = self._pooled_store()
        counts = self._cached_read(
            store, store.generation(), "stats", (), _trial_counts
        ).value
        claims = store.claim_stats()
        return {**counts, "claims_live": claims["live"], "claims_expired": claims["expired"]}

    def read_stats(self) -> bytes:
        """``/store/stats`` in one call: the JSON body of :meth:`store_stats`."""
        return encode_json(self.store_stats())

    def store_claims(self) -> list[dict[str, Any]]:
        return self._pooled_store().list_claims()

    def etag_for(self, where: Mapping[str, Any] | None = None) -> str:
        """Entity tag for the result set matching ``where`` — amortised O(1).

        The tag hashes the sorted content keys of the matching rows.  Keys
        are content hashes of spec + engine version, so the tag is stable
        across processes and changes exactly when the matching set changes —
        rows added, deleted, or produced by a different engine revision.

        Digests are cached per ``(generation, where)``: while the store is
        unchanged, revalidation is a dictionary hit, not a row scan; the
        first request after a commit recomputes from the backend's key-only
        index scan (:meth:`~repro.store.backend.ResultStore.iter_keys` —
        row payloads are never deserialised).  The tag bytes are identical
        to the uncached computation, so clients never see a spurious
        invalidation.
        """
        store = self._pooled_store()
        return self._etag(store, store.generation(), where)

    def _etag(self, store, generation: int, where: Mapping[str, Any] | None) -> str:
        cache_key = (generation, self._where_key(where))
        with self._read_cache_lock:
            cached = self._etag_cache.get(cache_key)
            if cached is not None:
                self._etag_cache.move_to_end(cache_key)
                return cached
        digest = hashlib.sha256()
        for key in store.iter_keys(where=dict(where) if where else None):
            digest.update(key.encode("ascii"))
            digest.update(b"\n")
        etag = f'"{digest.hexdigest()}"'
        if store.generation() == generation:
            with self._read_cache_lock:
                self._etag_cache[cache_key] = etag
                while len(self._etag_cache) > self.ETAG_CACHE_SIZE:
                    self._etag_cache.popitem(last=False)
        return etag

    def _read_rows(
        self, trial_filter: TrialFilter, if_none_match: str | None, entry_at
    ) -> tuple[str, bytes | None]:
        """One tagged read at one store generation: ``(etag, body)``.

        ``entry_at(store, generation)`` is the read's cache entry; its body
        is ``{"rows": ..., "count": ...}``, encoded once per entry.  ``body``
        is ``None`` when ``if_none_match`` is the current tag.
        """
        store = self._pooled_store()
        generation = store.generation()
        etag = self._etag(store, generation, trial_filter.to_where())
        if if_none_match == etag:
            return etag, None
        entry = entry_at(store, generation)
        if entry.body is None:  # two racing readers encode equal bytes; either may win
            entry.body = encode_json({"rows": entry.value, "count": len(entry.value)})
        return etag, entry.body

    def _query_entry(
        self, store, generation: int, trial_filter: TrialFilter, limit: int | None
    ) -> _CachedRead:
        return self._cached_read(
            store,
            generation,
            "query",
            (self._where_key(trial_filter.to_where()), limit),
            lambda store: [hit.to_row() for hit in query_store(store, trial_filter, limit=limit)],
        )

    def _aggregate_entry(
        self, store, generation: int, group_by: tuple[str, ...], trial_filter: TrialFilter
    ) -> _CachedRead:
        return self._cached_read(
            store,
            generation,
            "aggregate",
            (self._where_key(trial_filter.to_where()), group_by),
            lambda store: aggregate_store(store, group_by=group_by, trial_filter=trial_filter),
        )

    def query_rows(
        self, trial_filter: TrialFilter, limit: int | None = None
    ) -> list[dict[str, Any]]:
        store = self._pooled_store()
        return self._query_entry(store, store.generation(), trial_filter, limit).value

    def read_query(
        self,
        trial_filter: TrialFilter,
        limit: int | None = None,
        if_none_match: str | None = None,
    ) -> tuple[str, bytes | None]:
        """``/store/query`` in one call: the ETag and the JSON body (or ``None``)."""
        return self._read_rows(
            trial_filter,
            if_none_match,
            lambda store, generation: self._query_entry(store, generation, trial_filter, limit),
        )

    def aggregate(
        self, group_by: tuple[str, ...], trial_filter: TrialFilter
    ) -> list[dict[str, Any]]:
        store = self._pooled_store()
        return self._aggregate_entry(store, store.generation(), group_by, trial_filter).value

    def read_aggregate(
        self,
        group_by: tuple[str, ...],
        trial_filter: TrialFilter,
        if_none_match: str | None = None,
    ) -> tuple[str, bytes | None]:
        """``/store/aggregate`` in one call: the ETag and the JSON body (or ``None``)."""
        return self._read_rows(
            trial_filter,
            if_none_match,
            lambda store, generation: self._aggregate_entry(
                store, generation, group_by, trial_filter
            ),
        )

    def export_batch(
        self,
        where: Mapping[str, Any] | None = None,
        after_key: str | None = None,
        batch_size: int | None = None,
    ) -> tuple[list[str], str | None]:
        """One page of the NDJSON export: ``(lines, last_key_seen)``.

        Key-ordered pagination: pass the returned ``last_key_seen`` back as
        ``after_key`` until an empty page signals the end.  Each page is an
        independent bounded read, so the HTTP export streams with constant
        memory and immediate time-to-first-byte, and never holds a store
        cursor (or its locks) across socket writes.
        """
        store = self._pooled_store()
        limit = batch_size if batch_size is not None else self.EXPORT_BATCH
        lines: list[str] = []
        last_key = after_key
        for entry in store.iter_entries(
            where=dict(where) if where else None, after_key=after_key, limit=limit
        ):
            lines.append(json.dumps(entry.row, sort_keys=True))
            last_key = entry.key
        return lines, last_key
