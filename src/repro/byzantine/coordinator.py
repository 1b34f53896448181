"""Coordinated, state-aware Byzantine adversaries.

The strategies in :mod:`repro.byzantine.strategies` are *independent*: each
faulty process gets its own stateless mutator that never talks to the others.
The paper's lower bounds, however, are tight only against an adversary that
controls the whole faulty set as one entity — it knows the honest inputs, the
``(n, d, f)`` configuration and the traffic of the execution so far, and it
chooses every faulty process's lies *jointly* (e.g. all faulty processes tell
the same consistent story to each partition of the honest processes).

:class:`AdversaryCoordinator` is that entity.  It owns the faulty set of one
execution and hands each faulty process a :class:`CoordinatedMutator` view;
all views consult the same coordinator state, so the lies are consistent
across the whole faulty coalition.  When the engine wires the coordinator as
the runtime's traffic observer (see ``RuntimeCore``'s ``observer`` hook), it
additionally sees every message of the execution — the full-information
adversary the proofs reason about.  Without the tap it still knows the honest
inputs from the registry, which is what the named strategies need at minimum.

Shipped coordinated strategies (:data:`COORDINATED_STRATEGY_NAMES`):

* ``split_world`` — consistent cross-faulty equivocation: the honest
  processes are partitioned into ``d + 1`` camps and *every* faulty process
  tells camp ``k`` the same honest-looking value ``v_k`` (an honest input).
  Unlike :class:`~repro.byzantine.strategies.EquivocationStrategy`, two
  faulty processes never contradict each other, so the honest side cannot
  cross-check the coalition's story.
* ``hull_collapse`` — all faulty reports are the *same* carefully chosen
  point: a point of the safe area ``Gamma`` of the honest inputs, computed
  with the geometry kernel (falling back to the honest centroid when that
  ``Gamma`` is empty).  Such reports survive inside every ``(n - f)``-subset
  hull, dragging the decision region toward the adversary's target.
* ``adaptive_extreme`` — per-round re-aiming: each round the coordinator
  looks at the honest values sighted in the traffic so far (or the honest
  inputs before any traffic) and reports a point pushed beyond the current
  honest hull boundary, following the honest states as they contract.
* ``theorem4_scenario`` — the Theorem 4 necessity execution: the faulty
  processes crash (optionally after a chosen round) while the coordinator
  nominates one correct process to be starved by a
  :class:`~repro.network.scheduler.LaggingScheduler` — crash faults plus a
  correct-but-slow process, the coupling the asynchronous lower bound builds
  on.  The engine's scheduler factory honours the nomination.

All strategies are deterministic given the registry and the (deterministic)
traffic order, so coordinated trials remain pure functions of their spec.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.byzantine.adversary import (
    STRUCTURAL_KEYS,
    MessageMutator,
    is_float_vector,
    mutate_numeric_leaves,
    replace_payload,
)
from repro.byzantine.strategies import CrashStrategy
from repro.exceptions import ByzantineBehaviorError, ConfigurationError
from repro.geometry.kernel import default_kernel
from repro.network.message import Message
from repro.processes.registry import ProcessRegistry

__all__ = [
    "COORDINATED_STRATEGY_NAMES",
    "AdversaryCoordinator",
    "CoordinatedMutator",
    "collect_value_leaves",
]

COORDINATED_STRATEGY_NAMES = (
    "split_world",
    "hull_collapse",
    "adaptive_extreme",
    "theorem4_scenario",
)

# Traffic sightings kept per round; enough for the honest states of any
# configuration the simulator runs, bounded so the observer can never grow
# without limit on a pathological execution.
_MAX_SIGHTINGS_PER_ROUND = 256


def collect_value_leaves(payload: Any, dimension: int) -> list[np.ndarray]:
    """Extract every ``dimension``-sized numeric value leaf from ``payload``.

    The walk mirrors :func:`~repro.byzantine.adversary.mutate_numeric_leaves`:
    structural keys are skipped, numpy arrays and all-float lists/tuples are
    treated as vectors.  Only leaves of the registry dimension are returned —
    those are the protocol's state/input vectors, the values a state-aware
    adversary tracks.
    """
    leaves: list[np.ndarray] = []
    _collect_leaves(payload, dimension, leaves)
    return leaves


def _collect_leaves(value: Any, dimension: int, leaves: list[np.ndarray]) -> None:
    # Module level, not nested: a nested function that calls itself is a
    # reference cycle per observed message.
    if isinstance(value, Mapping):
        for key, item in value.items():
            if key not in STRUCTURAL_KEYS:
                _collect_leaves(item, dimension, leaves)
        return
    if isinstance(value, np.ndarray):
        if value.shape == (dimension,):
            leaves.append(np.asarray(value, dtype=float))
        return
    if isinstance(value, (list, tuple)):
        if is_float_vector(value):
            if len(value) == dimension:
                leaves.append(np.asarray(value, dtype=float))
            return
        for item in value:
            _collect_leaves(item, dimension, leaves)


class CoordinatedMutator(MessageMutator):
    """One faulty process's view of the coordinator.

    The view holds no strategy state of its own: every decision is delegated
    to the shared :class:`AdversaryCoordinator`, which is what makes the
    coalition's lies consistent across faulty processes.
    """

    def __init__(self, coordinator: "AdversaryCoordinator", faulty_id: int) -> None:
        self.coordinator = coordinator
        self.faulty_id = faulty_id

    def mutate(self, message: Message) -> Sequence[Message]:
        return self.coordinator.plan(self.faulty_id, message)


class AdversaryCoordinator:
    """Joint controller of the whole faulty set of one execution.

    Args:
        strategy: one of :data:`COORDINATED_STRATEGY_NAMES`.
        registry: the execution's cast — gives the coordinator the honest
            inputs and the ``(n, d, f)`` configuration (the paper's
            full-knowledge adversary model).
        seed: reserved for randomised coordinated strategies; the four shipped
            strategies are fully deterministic.
        params: strategy parameters — ``target`` (hull_collapse),
            ``push_scale`` (adaptive_extreme, default 3.0), ``crash_round``
            and ``slow_processes`` (theorem4_scenario).
    """

    def __init__(
        self,
        strategy: str,
        registry: ProcessRegistry,
        seed: int = 0,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        if strategy not in COORDINATED_STRATEGY_NAMES:
            raise ConfigurationError(
                f"unknown coordinated strategy {strategy!r}; "
                f"known: {', '.join(COORDINATED_STRATEGY_NAMES)}"
            )
        if not registry.faulty_ids:
            raise ConfigurationError(
                "a coordinated adversary needs at least one faulty process"
            )
        self.strategy = strategy
        self.registry = registry
        self.seed = int(seed)
        self.params = dict(params or {})
        self._dimension = registry.configuration.dimension
        self._honest_ids = registry.honest_ids
        self._honest_cloud = np.vstack(
            [registry.input_of(pid) for pid in self._honest_ids]
        )
        # Per-round honest-value sightings from the traffic tap, and the
        # per-round aims derived from them (adaptive_extreme).
        self._sightings: dict[int, list[np.ndarray]] = {}
        self._aims: dict[int, np.ndarray] = {}
        self._camps: dict[int, np.ndarray] | None = None
        self._collapse_target: np.ndarray | None = None
        self._crash_mutators: dict[int, CrashStrategy] = {}

    # -- wiring ----------------------------------------------------------------

    def mutator_for(self, faulty_id: int) -> CoordinatedMutator:
        """Return the coordinator-backed mutator for one faulty process."""
        if faulty_id not in self.registry.faulty_ids:
            raise ConfigurationError(
                f"process {faulty_id} is not in the faulty set "
                f"{sorted(self.registry.faulty_ids)}"
            )
        return CoordinatedMutator(self, faulty_id)

    @staticmethod
    def nominate_slow_processes(
        registry: ProcessRegistry, params: Mapping[str, Any] | None
    ) -> tuple[int, ...]:
        """The slow-process nomination rule of the Theorem 4 scenario.

        By default the last honest process (the "correct but slow" process of
        the Theorem 4 argument), overridable through the ``slow_processes``
        parameter.  Static so the engine's scheduler factory can apply the
        one rule — for both the ``theorem4_scenario`` coupling and the plain
        ``lagging`` scheduler default — without building a coordinator.
        """
        slow = (params or {}).get("slow_processes")
        if slow is None:
            slow = [registry.honest_ids[-1]]
        return tuple(int(process_id) for process_id in slow)

    # -- observation -----------------------------------------------------------

    def observe(self, message: Message) -> None:
        """Record one routed message (the runtime's traffic-observer hook).

        Only honest senders are tracked — faulty traffic is the coordinator's
        own output.  Sightings are keyed by the sender's round tag so the
        adaptive strategies can follow the honest states round by round.
        """
        if message.sender not in self.registry.faulty_ids:
            round_key = message.round_index if message.round_index is not None else 0
            bucket = self._sightings.setdefault(round_key, [])
            if len(bucket) < _MAX_SIGHTINGS_PER_ROUND:
                bucket.extend(collect_value_leaves(message.payload, self._dimension))

    def observe_value(self, round_key: int, value: np.ndarray) -> None:
        """Record one honest value sighting directly (no message wrapper).

        The columnar engine routes whole trial groups without materialising
        :class:`~repro.network.message.Message` objects, so it feeds the
        coordinator the honest state vectors straight from its arrays.  The
        bookkeeping is identical to :meth:`observe`: same per-round buckets,
        same sighting cap.
        """
        bucket = self._sightings.setdefault(int(round_key), [])
        if len(bucket) < _MAX_SIGHTINGS_PER_ROUND:
            bucket.append(np.array(value, dtype=float))

    # -- planning --------------------------------------------------------------

    def plan(self, faulty_id: int, message: Message) -> Sequence[Message]:
        """Decide what ``faulty_id`` actually sends in place of ``message``."""
        if self.strategy == "split_world":
            return self._plan_split_world(message)
        if self.strategy == "hull_collapse":
            return self._plan_point_report(message, self._collapse_point())
        if self.strategy == "adaptive_extreme":
            round_key = message.round_index if message.round_index is not None else 0
            return self._plan_point_report(message, self._adaptive_aim(round_key))
        # theorem4_scenario: crash faults (the value-free half of the coupling).
        crash = self._crash_mutators.get(faulty_id)
        if crash is None:
            crash = CrashStrategy(crash_round=int(self.params.get("crash_round", 1)))
            self._crash_mutators[faulty_id] = crash
        return crash.mutate(message)

    # -- batched planning ------------------------------------------------------
    #
    # The columnar engine computes the coalition's reports for a whole round
    # without routing per-message mutators.  These accessors expose the exact
    # memoised decisions the mutators consult, so a batched round and a
    # message-by-message round agree bit for bit.

    @property
    def honest_cloud(self) -> np.ndarray:
        """The honest input cloud ``(h, d)`` the coordinator reasons over."""
        return self._honest_cloud

    def camp_values(self) -> dict[int, np.ndarray]:
        """Public view of the split_world camp map (see :meth:`_camp_values`)."""
        return self._camp_values()

    def collapse_point(self) -> np.ndarray:
        """Public view of the hull_collapse report (see :meth:`_collapse_point`)."""
        return self._collapse_point()

    def seed_collapse_point(self, point: np.ndarray) -> None:
        """Install a pre-computed hull_collapse target (batched kernel solve).

        Only takes effect when no target is memoised yet and the strategy has
        no explicit ``target`` parameter — an explicit target still goes
        through :meth:`_collapse_point`'s shape validation.
        """
        if self._collapse_target is None and self.params.get("target") is None:
            self._collapse_target = np.asarray(point, dtype=float)

    def adaptive_aim(self, round_key: int) -> np.ndarray:
        """Public view of the adaptive_extreme aim (see :meth:`_adaptive_aim`)."""
        return self._adaptive_aim(round_key)

    # -- split_world -----------------------------------------------------------

    def _camp_values(self) -> dict[int, np.ndarray]:
        """Map every process id to its camp's consistent world view.

        Honest processes are split round-robin (in id order) into ``d + 1``
        camps; camp ``k``'s view is the input of its first member — a value an
        honest process could genuinely hold, so the equivocation is maximally
        plausible.  Faulty recipients are folded into camp 0 (what the
        coalition tells itself is irrelevant).
        """
        if self._camps is None:
            camp_count = min(self._dimension + 1, len(self._honest_ids))
            members: list[list[int]] = [[] for _ in range(camp_count)]
            for position, process_id in enumerate(self._honest_ids):
                members[position % camp_count].append(process_id)
            values = [self.registry.input_of(camp[0]) for camp in members]
            camps: dict[int, np.ndarray] = {}
            for camp_index, camp in enumerate(members):
                for process_id in camp:
                    camps[process_id] = values[camp_index]
            for process_id in self.registry.faulty_ids:
                camps[process_id] = values[0]
            self._camps = camps
        return self._camps

    def _plan_split_world(self, message: Message) -> Sequence[Message]:
        value = self._camp_values().get(message.recipient)
        if value is None:  # recipient outside the registry; let the core drop it
            return [message]
        return self._plan_point_report(message, value)

    # -- hull_collapse ---------------------------------------------------------

    def _collapse_point(self) -> np.ndarray:
        """The single point every faulty process reports everywhere.

        Chosen with the geometry kernel as a point of ``Gamma`` of the honest
        inputs — a point inside every ``(h - f)``-subset hull of the honest
        cloud, so the faulty reports can never be pruned away as outliers.
        When that ``Gamma`` is empty (honest cloud smaller than
        ``(d+1)f + 1``), the honest centroid plays the same role.
        """
        if self._collapse_target is None:
            target = self.params.get("target")
            if target is not None:
                point = np.asarray(target, dtype=float)
                if point.shape != (self._dimension,):
                    raise ConfigurationError(
                        f"hull_collapse target has shape {point.shape}, "
                        f"expected ({self._dimension},)"
                    )
            else:
                point = default_kernel.point(
                    self._honest_cloud, self.registry.configuration.fault_bound
                )
                if point is None:
                    point = self._honest_cloud.mean(axis=0)
            self._collapse_target = np.asarray(point, dtype=float)
        return self._collapse_target

    # -- adaptive_extreme ------------------------------------------------------

    def _adaptive_aim(self, round_key: int) -> np.ndarray:
        """The coalition's report for ``round_key``, re-aimed at the current hull.

        Uses the honest values most recently sighted in the traffic (falling
        back to the honest inputs before any traffic): the aim is the sighted
        point farthest from the sighted centroid, pushed ``push_scale`` times
        beyond it — just outside the current honest hull boundary, following
        the honest states as the protocol contracts them.
        """
        aim = self._aims.get(round_key)
        if aim is not None:
            return aim
        cloud = self._honest_cloud
        for earlier in range(round_key, -1, -1):
            sighted = self._sightings.get(earlier)
            if sighted:
                cloud = np.vstack(sighted)
                break
        centroid = cloud.mean(axis=0)
        offsets = cloud - centroid
        extreme = cloud[int(np.argmax(np.linalg.norm(offsets, axis=1)))]
        push_scale = float(self.params.get("push_scale", 3.0))
        aim = centroid + push_scale * (extreme - centroid)
        self._aims[round_key] = aim
        return aim

    # -- shared payload rewriting ----------------------------------------------

    def _plan_point_report(self, message: Message, point: np.ndarray) -> Sequence[Message]:
        """Replace every value leaf of ``message`` with ``point`` (consistently).

        Scalar leaves (per-coordinate broadcasts) become the point's first
        coordinate; vector leaves must match the registry dimension — a
        mismatch means the coordinator misunderstood the protocol's payload
        structure, which is an error, not a silent pass-through.
        """

        def corrupt_scalar(_: float) -> float:
            return float(point[0])

        def corrupt_vector(vector: np.ndarray) -> np.ndarray:
            if vector.shape != point.shape:
                raise ByzantineBehaviorError(
                    f"coordinated report of shape {point.shape} cannot replace a "
                    f"value leaf of shape {vector.shape} in {message.describe()}"
                )
            return point.copy()

        payload = mutate_numeric_leaves(message.payload, corrupt_scalar, corrupt_vector)
        return [replace_payload(message, payload)]
