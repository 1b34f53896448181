"""Persistent worker pool for campaign execution.

The one-shot ``ProcessPoolExecutor`` the engine used to spawn per campaign
made parallelism a pessimization: every campaign run paid worker
start-up, every unit re-pickled its ``TrialSpec`` objects, and every worker
started the :class:`~repro.geometry.kernel.GammaKernel` answer memo empty.
This module replaces that with a process-lifetime pool:

* **Persistent workers** — spawned once per ``(workers)`` size via
  :func:`get_pool` and reused across campaign sessions and campaign
  phases, so the kernel's answer memo and the columnar engine's
  safe-area choosers stay warm from one unit to the next.
* **Demand-driven dispatch** — the pool pulls sized work units from a lazy
  task iterator the moment a worker goes idle (a logical shared queue:
  fast workers steal the remaining tail instead of waiting on ``pool.map``
  submission order), and yields completed units in *completion* order (the
  session's reorder buffer restores spec order).
* **Columnar transport** — a unit crosses the process boundary as one
  base spec wire tuple plus delta *columns* (int64/float64 arrays packed
  into one bytes payload on the worker's pipe) instead of a pickled
  ``TrialSpec`` per trial; workers return results with the spec stripped
  and the parent reattaches its originals, so specs never make the round
  trip.
* **Measured cost model** — :class:`CostModel` sizes units from observed
  per-trial seconds (seeded by a tiny calibration probe, refined online via
  EWMA), replacing the two duplicated ``len(specs) // (workers * 4)``
  heuristics.
* **Crash recovery** — each worker owns a private duplex pipe; a killed
  worker surfaces as EOF on its pipe, its in-flight unit is requeued and a
  replacement worker is spawned (trials are pure functions of their specs,
  so re-execution is safe and byte-identical).
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.spec import TrialResult, TrialSpec
from repro.engine.trial import run_trials
from repro.engine.vectorized import run_specs_vectorized
from repro.exceptions import ConfigurationError
from repro.geometry.linprog import resolve_seam
from repro.obs.registry import get_registry, snapshot_delta

__all__ = [
    "ExecutionUnit",
    "UnitObservation",
    "CostModel",
    "WorkerPool",
    "encode_unit",
    "decode_unit",
    "execute_plan",
    "get_pool",
    "shutdown_pools",
]

@dataclass(frozen=True)
class UnitObservation:
    """Telemetry for one completed pool unit (the ``on_unit`` callback payload).

    ``seconds`` is worker-measured execution time; ``started_at`` the unit's
    epoch start on the worker (0.0 when unknown); ``worker`` the executing
    worker process name — together enough to place the unit on a shared
    trace timeline.
    """

    kind: str
    trials: int
    seconds: float
    started_at: float
    worker: str


@dataclass(frozen=True)
class ExecutionUnit:
    """One schedulable slice of a campaign plan.

    ``kind`` is ``"columnar"`` (a same-shape group for the vectorized engine)
    or ``"object"`` (a chunk of per-trial ``run_trial`` calls); ``positions``
    are the indices of the unit's specs within the planned spec list.
    """

    kind: str
    positions: tuple[int, ...]


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

#: A dispatched unit targets roughly this much worker wall time: long enough
#: to amortise the pipe round trip, short enough that the tail of a campaign
#: still balances across workers.
TARGET_UNIT_SECONDS = 0.25

#: First unit dispatched for an unseen shape class — deliberately tiny so the
#: model calibrates from real observed latency within one round trip.
PROBE_TRIALS = 2

#: Hard ceiling on trials per dispatched unit (bounds transport block size).
#: Read each time a unit is cut, so tests that need many small units lower it.
MAX_UNIT_TRIALS = 4096

_EWMA_ALPHA = 0.5


class CostModel:
    """Observed per-trial latency by shape class, used to size work units.

    Latencies are keyed by ``(kind, protocol, n, d, f, adversary)`` — the
    dimensions that dominate trial cost — with a per-``kind`` default for
    shapes not yet observed.  Estimates blend via EWMA so the model tracks
    warm-up effects (cold kernel caches make early units slow) without
    forgetting the steady state.
    """

    def __init__(self) -> None:
        self._per_trial: dict[tuple, float] = {}
        self._kind_default: dict[str, float] = {}

    @staticmethod
    def shape_key(kind: str, spec: TrialSpec) -> tuple:
        return (
            kind,
            spec.protocol,
            spec.process_count,
            spec.dimension,
            spec.fault_bound,
            spec.adversary,
        )

    def observe(self, key: tuple, trials: int, seconds: float) -> None:
        """Fold one completed unit's measured wall time into the model."""
        if trials <= 0 or seconds <= 0:
            return
        per = seconds / trials
        for table, slot in ((self._per_trial, key), (self._kind_default, key[0])):
            old = table.get(slot)
            table[slot] = per if old is None else (1 - _EWMA_ALPHA) * old + _EWMA_ALPHA * per

    def per_trial_seconds(self, key: tuple) -> float | None:
        """Best latency estimate for the shape class (``None`` = never seen)."""
        return self._per_trial.get(key, self._kind_default.get(key[0]))

    def unit_trials(self, key: tuple, remaining: int, workers: int) -> int:
        """Number of trials the next dispatched unit should carry.

        The size targets :data:`TARGET_UNIT_SECONDS` of estimated work,
        capped at an even ``remaining / workers`` split so the last units
        never leave workers idle, and at :data:`MAX_UNIT_TRIALS`.  An unseen
        shape gets a :data:`PROBE_TRIALS` calibration unit, whose observed
        latency sizes the units after it.
        """
        if remaining <= 0:
            return 0
        per = self.per_trial_seconds(key)
        if per is None:
            _POOL_PROBES.inc()
            size = PROBE_TRIALS
        else:
            size = max(1, round(TARGET_UNIT_SECONDS / per))
        size = min(size, max(1, math.ceil(remaining / max(1, workers))), MAX_UNIT_TRIALS)
        return max(1, min(size, remaining))


# --------------------------------------------------------------------------
# Unit transport
# --------------------------------------------------------------------------

#: int64 column value standing in for ``None`` (far outside any seed/index).
_NONE_I64 = -(1 << 62)

_WIRE_INDEX = {name: index for index, name in enumerate(TrialSpec.WIRE_FIELDS)}


def _is_plain_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def encode_unit(kind: str, specs: Sequence[TrialSpec]) -> dict[str, Any]:
    """Encode a unit's specs as one base wire tuple plus delta columns.

    Fields constant across the unit travel once (in ``base``).  Varying
    int-or-``None`` fields become int64 columns and varying float fields
    float64 columns — packed into one bytes ``payload``.  Anything else
    (tuples of parameter pairs, strings) falls back to a per-trial value
    list in ``others``.
    """
    wires = [spec.to_wire() for spec in specs]
    base = wires[0]
    int_fields: list[str] = []
    float_fields: list[str] = []
    others: dict[str, list[Any]] = {}
    int_columns: list[np.ndarray] = []
    float_columns: list[np.ndarray] = []
    for name, index in _WIRE_INDEX.items():
        values = [wire[index] for wire in wires]
        if all(value == base[index] for value in values[1:]):
            continue
        if all(value is None or _is_plain_int(value) for value in values):
            int_fields.append(name)
            int_columns.append(
                np.array(
                    [_NONE_I64 if value is None else value for value in values],
                    dtype=np.int64,
                )
            )
        elif all(isinstance(value, float) for value in values):
            float_fields.append(name)
            float_columns.append(np.array(values, dtype=np.float64))
        else:
            others[name] = values
    # Payload layout must match decode_unit: every int64 column first, then
    # every float64 column, each in field-list order.
    return {
        "kind": kind,
        "trials": len(specs),
        "base": base,
        "int_fields": int_fields,
        "float_fields": float_fields,
        "others": others,
        "payload": b"".join(column.tobytes() for column in (*int_columns, *float_columns)),
    }


def decode_unit(header: dict[str, Any]) -> list[TrialSpec]:
    """Rebuild a unit's spec list from :func:`encode_unit` output (worker side)."""
    trials = header["trials"]
    int_fields = header["int_fields"]
    float_fields = header["float_fields"]
    payload = header["payload"]
    offset = 0
    column_values: dict[str, np.ndarray] = {}
    for name in int_fields:
        column_values[name] = np.frombuffer(payload, dtype=np.int64, count=trials, offset=offset)
        offset += trials * 8
    for name in float_fields:
        column_values[name] = np.frombuffer(payload, dtype=np.float64, count=trials, offset=offset)
        offset += trials * 8
    specs: list[TrialSpec] = []
    for position in range(trials):
        values = list(header["base"])
        for name in int_fields:
            raw = int(column_values[name][position])
            values[_WIRE_INDEX[name]] = None if raw == _NONE_I64 else raw
        for name in float_fields:
            values[_WIRE_INDEX[name]] = float(column_values[name][position])
        for name, per_trial in header["others"].items():
            values[_WIRE_INDEX[name]] = per_trial[position]
        specs.append(TrialSpec.from_wire(values))
    return specs


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _run_unit(kind: str, specs: Sequence[TrialSpec]) -> list[TrialResult]:
    if kind == "columnar":
        return run_specs_vectorized(list(specs))
    return run_trials(specs)


def _worker_main(conn: Connection, sibling_conns: Sequence[Connection]) -> None:
    """Worker loop: decode units, execute, reply ``(status, seconds, rows, extras)``.

    Results travel back with ``spec=None`` (the parent holds the originals
    and reattaches them), so specs only ever cross the boundary once — in
    column form, on the way out.  ``extras`` carries side-band telemetry: the
    worker registry's counter/histogram delta since its previous reply (the
    parent merges it, so ``/metrics`` totals span every process) and the
    unit's wall-clock start for trace timelines.  SIGINT is ignored: campaign
    interruption is the parent's decision, and a worker dying mid-unit would
    discard a warm kernel cache for nothing.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for sibling in sibling_conns:
        try:
            sibling.close()
        except OSError:  # pragma: no cover — best-effort fd hygiene
            pass
    # Collectors only set gauges, which deltas drop: snapshots skip them.
    registry = get_registry()
    baseline = registry.snapshot(collect=False)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent is gone
            return
        if message[0] == "stop":
            conn.close()
            return
        header = message[1]
        started_at = time.time()
        start = time.perf_counter()
        try:
            results = _run_unit(header["kind"], decode_unit(header))
            stripped = [replace(result, spec=None) for result in results]
            current = registry.snapshot(collect=False)
            delta = snapshot_delta(current, baseline)
            baseline = current
            extras = {"metrics": delta or None, "started_at": started_at}
            reply = ("done", time.perf_counter() - start, stripped, extras)
        except BaseException as error:  # noqa: BLE001 — report, keep serving
            detail = f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
            reply = ("fail", 0.0, detail, {})
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent is gone
            return


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


@dataclass
class _Task:
    """One dispatched unit: positions + encoded transport."""

    task_id: int
    kind: str
    positions: tuple[int, ...]
    shape_key: tuple
    header: dict[str, Any]
    # Telemetry filled in by the pool: dispatch time (parent perf_counter),
    # unit start (worker epoch seconds) and the executing worker's name.
    dispatched_at: float = 0.0
    started_at: float = 0.0
    worker: str = ""


@dataclass
class _Slot:
    """One worker seat: the live process, its pipe, and its in-flight task."""

    process: multiprocessing.process.BaseProcess
    conn: Connection
    task: _Task | None = None


class WorkerPool:
    """Long-lived pool of trial workers with demand-driven unit dispatch.

    Workers are plain ``multiprocessing`` processes (fork where available)
    each owning a private duplex pipe.  :meth:`run_tasks` drives a lazy task
    iterator: a unit is cut and dispatched only when a worker goes idle, so
    unit sizing sees the freshest :class:`CostModel` estimates and fast
    workers drain the shared tail (work stealing by construction).  A worker
    that dies mid-unit (OOM-kill, segfault) is detected as pipe EOF; its unit
    is requeued and the seat respawned — ``repro_pool_crash_recoveries_total``
    counts these.  Sessions sharing one pool take turns: :meth:`run_tasks`
    holds the pool's lock from its first task to its last reply.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.cost_model = CostModel()
        self.closed = False
        self._run_lock = threading.Lock()
        start_methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else start_methods[0]
        )
        # Import scipy here, once: every seat forks with the LP seam bound, so
        # no unit's measured seconds (and no cost-model estimate) include it.
        resolve_seam()
        self._slots: list[_Slot] = []
        for _ in range(workers):
            self._slots.append(self._spawn_slot())

    def _spawn_slot(self) -> _Slot:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        siblings = [slot.conn for slot in self._slots]
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, siblings),
            daemon=True,
            name=f"repro-pool-{len(self._slots)}",
        )
        process.start()
        child_conn.close()  # the worker holds the only live copy now
        return _Slot(process=process, conn=parent_conn)

    def _respawn(self, slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover
            pass
        if slot.process.is_alive():  # pragma: no cover — EOF usually means dead
            slot.process.terminate()
        slot.process.join(timeout=5.0)
        fresh = self._spawn_slot()
        slot.process = fresh.process
        slot.conn = fresh.conn
        slot.task = None

    def _dispatch(self, slot: _Slot, task: _Task) -> None:
        """Send a unit to a seat, respawning once if the worker died idle."""
        for _attempt in (0, 1):
            try:
                slot.conn.send(("unit", task.header))
                task.dispatched_at = time.perf_counter()
                slot.task = task
                return
            except (BrokenPipeError, OSError):
                _POOL_CRASH_RECOVERIES.inc()
                self._respawn(slot)
        raise RuntimeError("worker pool could not dispatch after respawn")

    def run_tasks(
        self, tasks: Iterable[_Task]
    ) -> Iterator[tuple[_Task, float, list[TrialResult]]]:
        """Yield ``(task, seconds, stripped_results)`` in completion order.

        ``tasks`` is consumed lazily — the next task is pulled only when a
        seat frees up.  On early close (campaign interrupted downstream) the
        in-flight units are drained and discarded so the pool is immediately
        reusable; their rows are simply dropped (trials are pure, re-running
        them later is byte-identical).
        """
        with self._run_lock:
            if self.closed:
                raise RuntimeError("worker pool is shut down")
            task_iter = iter(tasks)
            backlog: deque[_Task] = deque()
            exhausted = False

            def pull() -> _Task | None:
                nonlocal exhausted
                if backlog:
                    task = backlog.popleft()
                    _POOL_BACKLOG.set(len(backlog))
                    return task
                if exhausted:
                    return None
                try:
                    return next(task_iter)
                except StopIteration:
                    exhausted = True
                    return None

            def fill_idle() -> None:
                for slot in self._slots:
                    if slot.task is None:
                        task = pull()
                        if task is None:
                            return
                        self._dispatch(slot, task)

            try:
                fill_idle()
                while any(slot.task is not None for slot in self._slots):
                    busy = {slot.conn: slot for slot in self._slots if slot.task is not None}
                    for conn in connection_wait(list(busy)):
                        slot = busy[conn]
                        task = slot.task
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            # Worker died mid-unit: requeue the unit, refill seat.
                            _POOL_CRASH_RECOVERIES.inc()
                            self._respawn(slot)
                            backlog.append(task)
                            _POOL_BACKLOG.set(len(backlog))
                            continue
                        slot.task = None
                        status, seconds, body = message[0], message[1], message[2]
                        extras = message[3] if len(message) > 3 else {}
                        if status == "fail":
                            raise RuntimeError(f"worker failed executing unit:\n{body}")
                        delta = extras.get("metrics")
                        if delta:
                            get_registry().merge(delta)
                        task.started_at = float(extras.get("started_at") or 0.0)
                        task.worker = slot.process.name
                        self.cost_model.observe(task.shape_key, len(task.positions), seconds)
                        self._observe_unit(task, seconds)
                        yield task, seconds, body
                    fill_idle()
            finally:
                self._drain_inflight()

    def _observe_unit(self, task: _Task, seconds: float) -> None:
        """Fold one completed unit into the process metrics registry."""
        _POOL_UNITS.labels(kind=task.kind).inc()
        _POOL_TRIALS.labels(kind=task.kind).inc(len(task.positions))
        _POOL_UNIT_SECONDS.labels(kind=task.kind).observe(seconds)
        if task.dispatched_at:
            _POOL_ROUNDTRIP_SECONDS.observe(time.perf_counter() - task.dispatched_at)

    def _drain_inflight(self) -> None:
        """Absorb (and discard) any still-running units so seats are clean."""
        for slot in self._slots:
            if slot.task is None:
                continue
            try:
                slot.conn.recv()
            except (EOFError, OSError):
                self._respawn(slot)
            slot.task = None

    def shutdown(self) -> None:
        """Stop every worker (idempotent); the pool cannot be reused after."""
        if self.closed:
            return
        self.closed = True
        for slot in self._slots:
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots:
            slot.process.join(timeout=5.0)
            if slot.process.is_alive():  # pragma: no cover — stuck worker
                slot.process.terminate()
                slot.process.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover
                pass


#: Live pools by worker count.  ``execute_plan`` reuses these across calls —
#: that reuse (not the pipes) is where the speedup
#: lives: warm Gamma memos, calibrated cost
#: model, zero spawn latency.
_POOLS: dict[int, WorkerPool] = {}
#: Guards :data:`_POOLS`, so sessions asking for one size at once share one pool.
_POOLS_LOCK = threading.Lock()


# -- telemetry ---------------------------------------------------------------

#: Unit wall-time buckets (seconds): units target ~0.25 s, probes are tiny.
_UNIT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_POOL_UNITS = get_registry().counter(
    "repro_pool_units_total", "Work units completed by the persistent pool, by kind.",
    labelnames=("kind",),
)
_POOL_TRIALS = get_registry().counter(
    "repro_pool_trials_total", "Trials completed by the persistent pool, by unit kind.",
    labelnames=("kind",),
)
_POOL_UNIT_SECONDS = get_registry().histogram(
    "repro_pool_unit_seconds", "Worker-measured unit execution time (seconds).",
    labelnames=("kind",), buckets=_UNIT_BUCKETS,
)
_POOL_ROUNDTRIP_SECONDS = get_registry().histogram(
    "repro_pool_unit_roundtrip_seconds",
    "Parent-measured dispatch-to-completion latency per unit (seconds).",
    buckets=_UNIT_BUCKETS,
)
_POOL_BACKLOG = get_registry().gauge(
    "repro_pool_backlog_units", "Units requeued after a worker crash, awaiting redispatch.",
)
_POOL_CRASH_RECOVERIES = get_registry().counter(
    "repro_pool_crash_recoveries_total",
    "Workers respawned after dying (their unit was requeued).",
)
_POOL_PROBES = get_registry().counter(
    "repro_pool_cost_model_probes_total",
    "Calibration probe units dispatched for never-seen shape classes.",
)
_POOL_SEATS = get_registry().gauge(
    "repro_pool_seats", "Worker seats across every live persistent pool.",
)
_POOL_BUSY_SEATS = get_registry().gauge(
    "repro_pool_busy_seats", "Seats currently executing a unit.",
)


def _publish_seats() -> None:
    """Set the seat gauges from the live pools (the pool's one collector)."""
    live = [pool for pool in list(_POOLS.values()) if not pool.closed]
    _POOL_SEATS.set(sum(pool.workers for pool in live))
    _POOL_BUSY_SEATS.set(sum(slot.task is not None for pool in live for slot in pool._slots))


get_registry().register_collector(_publish_seats)


def get_pool(workers: int) -> WorkerPool:
    """Return the process-lifetime pool for ``workers`` seats, creating it once."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None or pool.closed:
            pool = _POOLS[workers] = WorkerPool(workers)
        return pool


def shutdown_pools() -> None:
    """Shut down every live pool (registered atexit; safe to call any time)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


# --------------------------------------------------------------------------
# Plan execution
# --------------------------------------------------------------------------

_task_ids = itertools.count()


def _cut_tasks(
    specs: Sequence[TrialSpec],
    units: Sequence[ExecutionUnit],
    cost_model: CostModel,
    workers: int,
) -> Iterator[_Task]:
    """Lazily slice plan units into cost-model-sized dispatchable tasks.

    Both unit kinds are cut: object chunks for balance, columnar groups so a
    single same-shape group (the common campaign shape) still fans out across
    every worker.  Columnar sub-groups execute identically to the whole group
    — every trial is a pure function of its spec, and deduplication only ever
    reuses deterministic answers — so the partition is invisible in the rows.
    """
    for unit in units:
        positions = unit.positions
        start = 0
        while start < len(positions):
            remaining = len(positions) - start
            key = CostModel.shape_key(unit.kind, specs[positions[start]])
            size = cost_model.unit_trials(key, remaining, workers)
            chunk = positions[start : start + size]
            yield _Task(
                task_id=next(_task_ids),
                kind=unit.kind,
                positions=chunk,
                shape_key=key,
                header=encode_unit(unit.kind, [specs[position] for position in chunk]),
            )
            start += size


def execute_plan(
    specs: Sequence[TrialSpec],
    units: Sequence[ExecutionUnit],
    workers: int,
    on_unit: "Callable[[UnitObservation], None] | None" = None,
) -> Iterator[tuple[tuple[int, ...], list[TrialResult]]]:
    """Execute a campaign plan across workers, yielding units as they finish.

    Yields ``(positions, results)`` pairs in **completion** order — the
    session's reorder buffer restores spec order.  Rows are byte-identical
    (modulo ``elapsed_ms``) across worker counts and unit cuts.  ``on_unit``
    receives one :class:`UnitObservation` per completed unit — the hook
    session trace recorders attach to.
    """
    if not units:
        return
    worker_pool = get_pool(workers)
    tasks = _cut_tasks(specs, units, worker_pool.cost_model, workers)
    for task, seconds, stripped in worker_pool.run_tasks(tasks):
        if on_unit is not None:
            on_unit(UnitObservation(
                kind=task.kind,
                trials=len(task.positions),
                seconds=seconds,
                started_at=task.started_at,
                worker=task.worker,
            ))
        results = [
            replace(result, spec=specs[position])
            for result, position in zip(stripped, task.positions)
        ]
        yield task.positions, results
