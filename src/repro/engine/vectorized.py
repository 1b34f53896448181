"""Columnar vectorized execution substrate for synchronous campaign batches.

The object runtime (:func:`~repro.engine.trial.run_trial`) simulates every
trial as per-process Python objects exchanging per-round ``Message`` objects.
That is the right oracle — it is the literal paper model — but for the
lock-step synchronous protocols it spends most of its time re-deriving work
that is *identical across processes and trials*: every honest process of a
fault-free restricted-round trial holds the same receive matrix, enumerates
the same subset families and solves the same ``Gamma`` programs.

This module executes whole same-shape groups of trials as array programs:

* honest state lives in ``(trials, n, d)`` NumPy arrays; honest "messages"
  are array broadcasts (``reports[t, r, s] = state[t, s]``), not objects;
* Byzantine senders are driven through the *actual* independent-strategy
  mutator objects (built by :func:`~repro.engine.factories.make_adversaries`)
  on real ``Message`` envelopes, in the object runtime's exact
  ``(round, sender, recipient)`` order — so every corruption, RNG draw and
  drop is bit-for-bit the one the object runtime would produce;
* all ``Gamma`` queries of a round — across every process of every trial in
  the batch — are answered by one
  :meth:`~repro.geometry.kernel.GammaKernel.points_multi` pass, which dedupes
  bitwise-identical clouds and solves each distinct cloud through the same
  program a single :meth:`point` call would use;
* the state transitions themselves are the pure functions of
  :mod:`repro.core.round_ops`, shared with the per-process classes.

Because deduplication and memoisation only ever *reuse* the result of the
deterministic solve the object runtime would perform, the emitted
:class:`~repro.engine.spec.TrialResult` rows are byte-identical to the object
engine's (modulo the ``elapsed_ms`` timing field) — including error rows,
which re-raise through the same validation calls in the same order.

Coordinated (whole-coalition) adversaries are batched too: ``split_world``,
``hull_collapse`` and ``adaptive_extreme`` are round-synchronous functions of
the honest state, so instead of routing per-message mutators the engine asks
the trial's :class:`~repro.byzantine.coordinator.AdversaryCoordinator` for the
round's per-recipient report points directly (feeding the coordinator's
traffic-sighting buckets in the object runtime's exact observation order, and
pre-seeding the ``hull_collapse`` targets of a whole group through one
:meth:`~repro.geometry.kernel.GammaKernel.points_multi` pass).
``theorem4_scenario`` reduces to per-process crash faults and runs through
the generic mutator-driven path.

Eligibility (:func:`vectorization_fallback` names the reason for everything
that must fall back to ``run_trial``):

* ``restricted_sync`` supports every independent adversary strategy *and*
  the coordinated strategies (see above);
* ``exact`` and ``coordinatewise`` are supported fault-free
  (``adversary == "none"``): their round traffic is EIG relay trees, which
  the columnar substrate collapses to the known fault-free resolution —
  under an active adversary that shortcut would not be faithful;
* the asynchronous protocols (``approx`` and ``restricted_async``) always
  fall back: their per-process delivery order is the scheduler's, and the
  restricted-round update is geometry-bound, so a columnar replay of the
  delivery skeleton saves too little to keep (``docs/PERFORMANCE.md``,
  "Retiring the skeleton replay").
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.byzantine.coordinator import AdversaryCoordinator
from repro.core.approx_bvc import contraction_factor, plan_rounds
from repro.core.conditions import check_exact_sync, check_restricted_sync
from repro.core.driver import ProtocolOutcome
from repro.core.round_ops import (
    coerce_state,
    coordinatewise_decision,
    restricted_round_clouds,
    restricted_round_reduce,
)
from repro.core.safe_area import SafeAreaCalculator
from repro.core.validity import check_approximate_outcome, check_shared_decision
from repro.engine.factories import build_registry, make_adversaries
from repro.engine.spec import TrialResult, TrialSpec
from repro.engine.trial import error_row, ok_row
from repro.exceptions import (
    ConfigurationError,
    EmptyIntersectionError,
    TerminationError,
)
from repro.geometry.kernel import default_kernel
from repro.network.message import Message
from repro.processes.registry import ProcessRegistry

__all__ = [
    "VECTORIZED_RESTRICTED_ADVERSARIES",
    "FallbackReason",
    "vectorization_fallback",
    "spec_is_vectorizable",
    "vectorized_group_key",
    "run_specs_vectorized",
]

#: Adversary strategies the restricted-round columnar path drives faithfully:
#: the independent strategies run through the real mutator objects in
#: object-runtime order, and the coordinated strategies through the shared
#: coordinator's batched planning accessors.
VECTORIZED_RESTRICTED_ADVERSARIES = frozenset(
    {
        "none",
        "crash",
        "equivocate",
        "outside_hull",
        "random_noise",
        "coordinate_attack",
        "split_world",
        "hull_collapse",
        "adaptive_extreme",
        "theorem4_scenario",
    }
)

#: Coordinated strategies whose whole-round reports the engine computes
#: directly from the coordinator's memoised state (no per-message mutators).
#: ``theorem4_scenario`` is deliberately absent: it reduces to per-process
#: crash faults, which the generic mutator-driven path already handles.
_BATCHED_COORDINATED = frozenset({"split_world", "hull_collapse", "adaptive_extreme"})

# Process-lifetime cache, shared *across* execution units: a persistent pool
# worker runs many units back to back, so choosers survive from one unit to
# the next instead of being re-derived per call.
_CHOOSERS: dict[int, SafeAreaCalculator] = {}


def _shared_chooser(fault_bound: int) -> SafeAreaCalculator:
    chooser = _CHOOSERS.get(fault_bound)
    if chooser is None:
        chooser = _CHOOSERS[fault_bound] = SafeAreaCalculator(fault_bound=fault_bound)
    return chooser


class FallbackReason(str, Enum):
    """Why the planner routed a spec to the object engine.

    The values are plain strings so they serialise straight into summary
    rows; :func:`vectorization_fallback` maps a spec to its reason (or None
    when the columnar engine takes it).
    """

    #: The caller forced ``engine="object"``.
    FORCED_OBJECT = "forced_object"
    #: ``engine="auto"`` demoted a one-trial shape group (nothing to amortise).
    SINGLETON_GROUP = "singleton_group"
    #: The protocol/adversary combination has no faithful columnar program.
    ADVERSARY_NOT_COLUMNAR = "adversary_not_columnar"
    #: The asynchronous protocols (``approx``, ``restricted_async``) always
    #: run on the object runtime.
    ASYNC_PROTOCOL_NOT_COLUMNAR = "async_protocol_not_columnar"


def vectorization_fallback(spec: TrialSpec) -> FallbackReason | None:
    """The reason the spec must run on the object engine, or None if columnar."""
    if spec.model == "sync":
        if spec.protocol == "restricted_sync":
            if spec.adversary in VECTORIZED_RESTRICTED_ADVERSARIES:
                return None
            return FallbackReason.ADVERSARY_NOT_COLUMNAR
        if spec.adversary == "none":
            return None
        return FallbackReason.ADVERSARY_NOT_COLUMNAR
    return FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR


def spec_is_vectorizable(spec: TrialSpec) -> bool:
    """True when the columnar substrate can execute the spec faithfully."""
    return vectorization_fallback(spec) is None


def vectorized_group_key(spec: TrialSpec) -> tuple:
    """The shape class one columnar batch may span.

    Trials sharing ``(protocol, n, d, f, adversary, scheduler)`` stack into
    one ``(trials, n, d)`` state array; workloads, seeds, epsilons and round
    overrides stay per-trial data inside the batch.
    """
    return (
        spec.protocol,
        spec.process_count,
        spec.dimension,
        spec.fault_bound,
        spec.adversary,
        spec.scheduler,
    )


def _never() -> bool:
    return False


def run_specs_vectorized(
    specs: Sequence[TrialSpec], stop: Callable[[], bool] = _never
) -> list[TrialResult] | None:
    """Execute one same-shape group of eligible specs on the columnar substrate.

    Returns one result per spec, in input order.  ``elapsed_ms`` is the
    trial's amortised share of the group's wall-clock time (timing is the one
    field determinism comparisons strip).  ``stop`` is polled between trials
    (fault-free broadcast groups) or rounds (restricted groups); once it
    returns true the group is abandoned and ``None`` returned.
    """
    if not specs:
        return []
    key = vectorized_group_key(specs[0])
    for spec in specs:
        if not spec_is_vectorizable(spec):
            raise ConfigurationError(
                f"spec {spec.trial_index} ({spec.protocol}/{spec.adversary}) "
                "is not vectorizable; route it through run_trial"
            )
        if vectorized_group_key(spec) != key:
            raise ConfigurationError(
                "all specs of a columnar batch must share one shape group"
            )
    start = time.perf_counter()
    if specs[0].protocol == "restricted_sync":
        results = _run_restricted_group(specs, stop)
    else:
        results = _run_broadcast_group(specs, stop)
    if results is None:
        return None
    elapsed_ms = (time.perf_counter() - start) * 1e3 / len(specs)
    return [dataclasses.replace(result, elapsed_ms=elapsed_ms) for result in results]


# ---------------------------------------------------------------------------
# Fault-free broadcast protocols (exact, coordinatewise)
# ---------------------------------------------------------------------------

#: Fault-free broadcast groups run in slices of this many trials: one pass
#: builds the slice's registries, one kernel pass answers its Gamma queries.
_BROADCAST_SLICE = 64


@dataclass
class _BroadcastTrial:
    """One fault-free broadcast trial past its prologue."""

    spec: TrialSpec
    registry: ProcessRegistry
    inputs: np.ndarray  # (n, d): the Step 1 resolution every process holds
    total_rounds: int


def _run_broadcast_group(
    specs: Sequence[TrialSpec], stop: Callable[[], bool]
) -> list[TrialResult] | None:
    """Columnar execution of fault-free ``exact`` / ``coordinatewise`` trials.

    With no active adversary, every EIG broadcast resolves to the sender's
    true value, so after Step 1 each process holds exactly the stacked input
    matrix — the decision step collapses to one deterministic reduction per
    trial, shared by the identical honest processes.  The group runs in
    :data:`_BROADCAST_SLICE`-trial slices, so rows never depend on where a
    slice ends.
    """
    chooser = _shared_chooser(specs[0].fault_bound)
    results: list[TrialResult] = []
    for start in range(0, len(specs), _BROADCAST_SLICE):
        chunk = _run_broadcast_slice(specs[start : start + _BROADCAST_SLICE], chooser, stop)
        if chunk is None:
            return None
        results.extend(chunk)
    return results


def _run_broadcast_slice(
    specs: Sequence[TrialSpec],
    chooser: SafeAreaCalculator,
    stop: Callable[[], bool],
) -> list[TrialResult] | None:
    """Prologues, one Gamma pass (``exact``), then one report per trial."""
    prepared: list[_BroadcastTrial | TrialResult] = []
    for spec in specs:
        if stop():
            return None
        try:
            prepared.append(_prepare_broadcast_trial(spec))
        except Exception as error:  # noqa: BLE001 — failures are campaign data
            prepared.append(error_row(spec, error))
    trials = [trial for trial in prepared if isinstance(trial, _BroadcastTrial)]
    if specs[0].protocol == "exact":
        decisions = _gamma_points([trial.inputs for trial in trials], chooser)
    else:
        decisions = [None] * len(trials)
    finished = iter(
        [_finish_broadcast_trial(trial, decision) for trial, decision in zip(trials, decisions)]
    )
    return [row if isinstance(row, TrialResult) else next(finished) for row in prepared]


def _prepare_broadcast_trial(spec: TrialSpec) -> _BroadcastTrial:
    """The per-trial prologue, raising exactly what the object runtime would."""
    registry = build_registry(spec)
    make_adversaries(spec, registry)  # adversary == "none": validation no-op
    configuration = registry.configuration
    if spec.protocol == "exact":
        check_exact_sync(configuration)
    total_rounds = configuration.fault_bound + 1  # EIG needs f + 1 rounds
    max_rounds = (
        spec.max_rounds_override
        if spec.max_rounds_override is not None
        else configuration.fault_bound + 2
    )
    if total_rounds > max_rounds:
        raise TerminationError(
            f"synchronous run exceeded the {max_rounds}-round budget"
        )
    # Step 1 resolution, fault-free: every process reconstructs exactly the
    # stacked nominal inputs, in process-id order.
    inputs = np.vstack([registry.input_of(process_id) for process_id in registry.process_ids])
    return _BroadcastTrial(spec, registry, inputs, total_rounds)


def _gamma_points(
    clouds: list[np.ndarray], chooser: SafeAreaCalculator
) -> list[np.ndarray | Exception]:
    """Each cloud's :meth:`SafeAreaCalculator.choose` answer, or what it raises.

    The queries go to the kernel as one ``(Q, n, d)`` stack, whose answers
    are bitwise the single queries'.  A query that comes back empty, or a
    pass that raises, is asked again alone, so the error a trial records is
    the one its own ``choose`` raises.
    """
    if not clouds:
        return []
    try:
        answers: list[np.ndarray | None] = chooser.resolve_multi(np.stack(clouds))
    except Exception:  # noqa: BLE001 — re-asked one by one for attribution
        answers = [None] * len(clouds)
    points: list[np.ndarray | Exception] = []
    for cloud, answer in zip(clouds, answers):
        if answer is None:
            try:
                answer = chooser.choose(cloud)
            except Exception as error:  # noqa: BLE001 — failures are campaign data
                answer = error
        points.append(answer)
    return points


def _finish_broadcast_trial(
    trial: _BroadcastTrial, decision: np.ndarray | Exception | None
) -> TrialResult:
    """The trial's row from its Gamma answer (``exact``) or, given ``None``,
    the coordinate-wise baseline decision it computes here."""
    spec, registry = trial.spec, trial.registry
    try:
        if isinstance(decision, Exception):
            raise decision
        if decision is None:
            decision = coordinatewise_decision(trial.inputs)
        decision = np.asarray(decision, dtype=float)
        report = check_shared_decision(trial.inputs[list(registry.honest_ids)], decision)
    except Exception as error:  # noqa: BLE001 — failures are campaign data
        return error_row(spec, error)
    n = registry.configuration.process_count
    # Every process bundles its (non-empty, fault-free) relays into one
    # message per recipient per round.
    outcome = ProtocolOutcome(
        decisions={process_id: decision for process_id in registry.honest_ids},
        rounds_executed=trial.total_rounds,
        messages_sent=trial.total_rounds * n * (n - 1),
        messages_dropped=0,
    )
    return ok_row(spec, registry, outcome, report)


# ---------------------------------------------------------------------------
# Restricted-round synchronous protocol (independent adversaries)
# ---------------------------------------------------------------------------

@dataclass
class _LiveTrial:
    """One in-flight trial of a restricted-round columnar batch."""

    position: int  # index into the group's spec list
    spec: TrialSpec
    registry: ProcessRegistry
    mutators: dict[int, object]
    coordinator: AdversaryCoordinator | None
    total_rounds: int
    state: np.ndarray  # (n, d) — row i is process i's current state
    messages_sent: int = 0
    messages_dropped: int = 0
    histories: dict[int, list[np.ndarray]] | None = None
    failure: Exception | None = None

    def record_history(self) -> None:
        if self.histories is not None:
            for process_id, history in self.histories.items():
                history.append(self.state[process_id].copy())


def _prepare_restricted_trial(position: int, spec: TrialSpec) -> _LiveTrial:
    """Per-trial prologue, raising exactly what the object runtime would.

    The validation calls run in the object runtime's order: workload
    construction, adversary construction, resilience check, the round-based
    prologue (:func:`~repro.core.approx_bvc.plan_rounds`), round budget.
    """
    registry = build_registry(spec)
    bundle = make_adversaries(spec, registry)
    configuration = registry.configuration
    n = configuration.process_count
    check_restricted_sync(configuration)
    state = np.vstack([registry.input_of(process_id) for process_id in range(n)])
    # The object runtime's first core runs the same prologue.
    _, _, total_rounds = plan_rounds(
        configuration,
        state[0],
        registry.value_bounds(),
        spec.epsilon,
        contraction_factor,
        spec.max_rounds_override,
    )
    if total_rounds < 1:
        # The object runtime would run out of its (total_rounds + 1) budget
        # before any process decides.
        raise TerminationError(
            f"synchronous run exceeded the {total_rounds + 1}-round budget"
        )
    histories = None
    if spec.record_history:
        histories = {
            process_id: [state[process_id].copy()] for process_id in registry.honest_ids
        }
    return _LiveTrial(
        position=position,
        spec=spec,
        registry=registry,
        mutators=dict(bundle.mutators),
        coordinator=bundle.coordinator,
        total_rounds=total_rounds,
        state=state,
        histories=histories,
    )


def _faulty_reports(
    trial: _LiveTrial, reports: np.ndarray, round_index: int
) -> None:
    """Drive the trial's Byzantine senders through their real mutators.

    ``reports`` is the trial's ``(n, n, d)`` view tensor
    (``reports[r, s]`` = what recipient ``r`` reads from sender ``s``);
    honest rows are already broadcast in.  Mutators run on real ``Message``
    envelopes in the object runtime's (sender, recipient) order, so stateful
    strategies (crash progression, noise RNG streams) consume their state
    identically; the produced messages are routed with the runtime's drop
    rule and parsed with the process's coercion rule.
    """
    n = trial.state.shape[0]
    dimension = trial.state.shape[1]
    delivered: dict[int, list[Message]] = {}
    for sender in sorted(trial.mutators):
        mutator = trial.mutators[sender]
        # Silence is the default: a faulty sender only reaches a recipient
        # through a message that survives mutation and routing.
        for recipient in range(n):
            if recipient != sender:
                reports[recipient, sender] = 0.0
        payload_state = tuple(float(x) for x in trial.state[sender])
        for recipient in range(n):
            if recipient == sender:
                continue
            original = Message(
                sender=sender,
                recipient=recipient,
                protocol="restricted_sync_bvc",
                kind="STATE",
                payload={"state": payload_state},
                round_index=round_index,
            )
            for message in mutator.mutate(original):
                if message.recipient == message.sender or not (0 <= message.recipient < n):
                    trial.messages_dropped += 1
                    continue
                trial.messages_sent += 1
                delivered.setdefault(message.recipient, []).append(message)
    for recipient, inbox in delivered.items():
        inbox.sort(key=lambda message: (message.sender, message.sequence))
        for message in inbox:
            if message.protocol != "restricted_sync_bvc" or message.kind != "STATE":
                continue
            if not isinstance(message.payload, dict):
                continue
            vector = coerce_state(message.payload.get("state"), dimension)
            if vector is not None:
                reports[recipient, message.sender] = vector


def _coordinated_reports(
    trial: _LiveTrial, reports: np.ndarray, round_index: int
) -> None:
    """Emit the whole coalition's round reports from the coordinator's memos.

    The three batched coordinated strategies choose one report *point* per
    recipient per round, all faulty senders alike, so instead of driving
    ``n - 1`` mutators per faulty sender the engine asks the shared
    :class:`AdversaryCoordinator` for the points directly.  The accessors hit
    the same memoised decisions the per-message mutators would, and for
    ``adaptive_extreme`` the honest traffic sightings are fed in the object
    runtime's exact observation order (senders in id order, ``n - 1``
    messages each, the aim memoised at the first faulty sender's turn) — so
    the batched round is bit-for-bit the message-by-message round.
    """
    coordinator = trial.coordinator
    n = trial.state.shape[0]
    faulty = sorted(trial.mutators)
    # Silence is the default, exactly as in the mutator-driven path: a report
    # survives only if its point parses like a routed message would.
    for sender in faulty:
        for recipient in range(n):
            if recipient != sender:
                reports[recipient, sender] = 0.0
    if coordinator.strategy == "adaptive_extreme":
        # Observation order of the object runtime's collect phase: honest
        # senders with ids below the first faulty sender are routed (and
        # sighted) before the coalition plans; the rest are sighted after the
        # aim is memoised and only matter for later rounds' fallback buckets.
        first_faulty = faulty[0]
        honest_ids = sorted(trial.registry.honest_ids)
        for process_id in honest_ids:
            if process_id < first_faulty:
                for _ in range(n - 1):
                    coordinator.observe_value(round_index, trial.state[process_id])
        aim = coordinator.adaptive_aim(round_index)
        for process_id in honest_ids:
            if process_id > first_faulty:
                for _ in range(n - 1):
                    coordinator.observe_value(round_index, trial.state[process_id])
        points: Mapping[int, np.ndarray] = {recipient: aim for recipient in range(n)}
    elif coordinator.strategy == "hull_collapse":
        point = coordinator.collapse_point()
        points = {recipient: point for recipient in range(n)}
    else:  # split_world
        points = coordinator.camp_values()
    trial.messages_sent += len(faulty) * (n - 1)
    for recipient in range(n):
        point = points.get(recipient)
        if point is None or not np.all(np.isfinite(point)):
            # A non-finite report fails the recipient's state coercion and is
            # silently ignored — the zero default stands (same as the object
            # runtime's parse rejection).
            continue
        for sender in faulty:
            if recipient != sender:
                reports[recipient, sender] = point


def _seed_collapse_points(trials: list[_LiveTrial], fault_bound: int) -> None:
    """One batched kernel pass for every hull_collapse trial lacking a target.

    ``points_multi`` answers each distinct honest cloud through the
    exact single-query program ``AdversaryCoordinator`` would run lazily, so
    pre-seeding never changes a target bitwise; if the batched pass fails for
    any reason, seeding is skipped and the lazy per-trial path keeps its
    exact error attribution.
    """
    pending = [
        trial
        for trial in trials
        if trial.coordinator is not None
        and trial.coordinator.params.get("target") is None
    ]
    if not pending:
        return
    clouds = [trial.coordinator.honest_cloud for trial in pending]
    try:
        answers = default_kernel.points_multi(clouds, fault_bound)
    except Exception:  # noqa: BLE001 — lazy path keeps error attribution
        return
    for trial, answer in zip(pending, answers):
        point = (
            answer
            if answer is not None
            else trial.coordinator.honest_cloud.mean(axis=0)
        )
        trial.coordinator.seed_collapse_point(point)


def _run_restricted_group(
    specs: Sequence[TrialSpec], stop: Callable[[], bool]
) -> list[TrialResult] | None:
    """Columnar execution of a restricted-round synchronous trial batch."""
    n = specs[0].process_count
    dimension = specs[0].dimension
    fault_bound = specs[0].fault_bound
    quorum = n - fault_bound
    chooser = _shared_chooser(fault_bound)

    results: dict[int, TrialResult] = {}
    live: list[_LiveTrial] = []
    for position, spec in enumerate(specs):
        try:
            live.append(_prepare_restricted_trial(position, spec))
        except Exception as error:  # noqa: BLE001 — failures are campaign data
            results[position] = error_row(spec, error)
    if specs[0].adversary == "hull_collapse":
        _seed_collapse_points(live, fault_bound)

    round_index = 0
    while live:
        if stop():
            return None
        round_index += 1
        active = [trial for trial in live if trial.failure is None]
        # 1. Columnar report tensors: honest senders are one array broadcast.
        tensors: list[np.ndarray] = []
        for trial in active:
            reports = np.broadcast_to(
                trial.state[None, :, :], (n, n, dimension)
            ).copy()
            honest_senders = n - len(trial.mutators)
            trial.messages_sent += honest_senders * (n - 1)
            try:
                if (
                    trial.coordinator is not None
                    and trial.spec.adversary in _BATCHED_COORDINATED
                ):
                    _coordinated_reports(trial, reports, round_index)
                else:
                    _faulty_reports(trial, reports, round_index)
            except Exception as error:  # noqa: BLE001
                trial.failure = error
            tensors.append(reports)

        # 2. One multi-instance kernel pass for every Gamma query of the round.
        view_updates = _round_view_updates(
            [
                (trial, tensor)
                for trial, tensor in zip(active, tensors)
                if trial.failure is None
            ],
            quorum,
            fault_bound,
            dimension,
            chooser,
        )

        # 3. Apply updates, record histories, retire finished/failed trials.
        still_live: list[_LiveTrial] = []
        for trial, tensor in zip(active, tensors):
            if trial.failure is None:
                new_state = np.empty_like(trial.state)
                for recipient in range(n):
                    update = view_updates.get(tensor[recipient].tobytes())
                    if isinstance(update, Exception):
                        trial.failure = update
                        break
                    new_state[recipient] = update
                else:
                    trial.state = new_state
                    trial.record_history()
            if trial.failure is not None:
                results[trial.position] = error_row(trial.spec, trial.failure)
                continue
            if round_index >= trial.total_rounds:
                results[trial.position] = _finish_restricted_trial(trial)
            else:
                still_live.append(trial)
        live = still_live

    return [results[position] for position in range(len(specs))]


def _round_view_updates(
    active: list[tuple[_LiveTrial, np.ndarray]],
    quorum: int,
    fault_bound: int,
    dimension: int,
    chooser: SafeAreaCalculator,
) -> dict[bytes, np.ndarray | Exception]:
    """Compute the state update for every distinct receive view of the round.

    Views are deduplicated bitwise across processes *and* trials; the Gamma
    queries of every distinct view go to the kernel as one ``(Q, quorum, d)``
    stack through :meth:`GammaKernel.points_multi`, which answers each
    distinct cloud once (a repeat from an earlier round is a hit in its
    memo).  If that pass raises, each distinct cloud is re-solved alone, so
    a failing cloud raises the same error again for the views that hold it.
    An empty safe area maps the view to the same
    :class:`EmptyIntersectionError` the per-process chooser raises.
    """
    views: dict[bytes, np.ndarray] = {}
    for _, tensor in active:
        for view in tensor:
            key = view.tobytes()
            if key not in views:
                views[key] = view.copy()
    if not views:
        return {}
    clouds = np.concatenate([restricted_round_clouds(view, quorum) for view in views.values()])
    try:
        answers: list[np.ndarray | None | Exception] = list(chooser.resolve_multi(clouds))
    except Exception:  # noqa: BLE001 — re-solve per query for attribution
        solved: dict[bytes, np.ndarray | None | Exception] = {}
        for cloud in clouds:
            cloud_key = cloud.tobytes()
            if cloud_key in solved:
                continue
            try:
                solved[cloud_key] = chooser.choose(cloud)
            except EmptyIntersectionError:
                solved[cloud_key] = None
            except Exception as error:  # noqa: BLE001
                solved[cloud_key] = error
        answers = [solved[cloud.tobytes()] for cloud in clouds]

    per_view = len(clouds) // len(views)
    updates: dict[bytes, np.ndarray | Exception] = {}
    for position, key in enumerate(views):
        chosen: list[np.ndarray] = []
        failure: Exception | None = None
        for answer in answers[position * per_view : (position + 1) * per_view]:
            if isinstance(answer, Exception):
                failure = answer
                break
            if answer is None:
                # Same message SafeAreaCalculator.choose raises per query.
                failure = EmptyIntersectionError(
                    f"Gamma is empty for |Y|={quorum}, f={fault_bound}, d={dimension}"
                )
                break
            chosen.append(answer)
        updates[key] = failure if failure is not None else restricted_round_reduce(chosen)
    return updates


def _finish_restricted_trial(trial: _LiveTrial) -> TrialResult:
    registry = trial.registry
    decisions = {
        process_id: np.asarray(trial.state[process_id], dtype=float)
        for process_id in registry.honest_ids
    }
    try:
        report = check_approximate_outcome(registry, decisions, epsilon=trial.spec.epsilon)
    except Exception as error:  # noqa: BLE001 — failures are campaign data
        return error_row(trial.spec, error)
    outcome = ProtocolOutcome(
        decisions=decisions,
        rounds_executed=trial.total_rounds,
        messages_sent=trial.messages_sent,
        messages_dropped=trial.messages_dropped,
        state_histories=trial.histories,
    )
    return ok_row(trial.spec, registry, outcome, report)

