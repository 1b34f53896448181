"""Name -> object factories for workloads, adversaries, schedulers, protocols.

The engine's :class:`~repro.engine.spec.TrialSpec` refers to every moving part
of a trial by name so that specs stay plain data.  This module is the single
place those names are resolved: input-workload generators
(:mod:`repro.workloads.generators`), adversary strategies — independent
mutators (:mod:`repro.byzantine.strategies`) and the coordinated
whole-coalition attacks (:mod:`repro.byzantine.coordinator`), built through
:func:`make_adversaries` — delivery schedulers
(:mod:`repro.network.scheduler`) and protocol runners (:mod:`repro.core`).

:func:`make_strategy` predates the engine (it started life in
``analysis/experiments.py``, which still re-exports it) and keeps its exact
behaviour for the original four strategy names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.byzantine.adversary import MessageMutator
from repro.byzantine.coordinator import (
    COORDINATED_STRATEGY_NAMES,
    AdversaryCoordinator,
)
from repro.byzantine.strategies import (
    CoordinateAttackStrategy,
    CrashStrategy,
    EquivocationStrategy,
    OutsideHullStrategy,
    RandomNoiseStrategy,
)
from repro.core.conditions import (
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
    minimum_processes_restricted_async,
    minimum_processes_restricted_sync,
    minimum_processes_scalar,
)
from repro.engine.spec import TrialSpec
from repro.exceptions import ConfigurationError
from repro.network.message import Message
from repro.network.scheduler import (
    DeliveryScheduler,
    LaggingScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.processes.registry import ProcessRegistry
from repro.workloads.generators import (
    gradient_registry,
    intro_counterexample_registry,
    probability_vector_registry,
    robot_position_registry,
    uniform_box_registry,
)

__all__ = [
    "WORKLOAD_NAMES",
    "STRATEGY_NAMES",
    "COORDINATED_STRATEGY_NAMES",
    "ADVERSARY_NAMES",
    "SCHEDULER_NAMES",
    "AdversaryBundle",
    "derive_faulty_seeds",
    "make_strategy",
    "make_adversaries",
    "build_registry",
    "build_scheduler",
    "minimum_processes_for",
]

STRATEGY_NAMES = ("crash", "equivocate", "outside_hull", "random_noise")

# Every adversary name a TrialSpec may carry: the independent strategies, the
# intro counterexample attack, and the coordinated (whole-coalition)
# strategies of repro.byzantine.coordinator.
ADVERSARY_NAMES = (
    ("none",) + STRATEGY_NAMES + ("coordinate_attack",) + COORDINATED_STRATEGY_NAMES
)

WORKLOAD_NAMES = (
    "uniform_box",
    "probability_vector",
    "robot_position",
    "gradient",
    "intro_counterexample",
)

SCHEDULER_NAMES = ("random", "lagging", "round_robin")


# -- adversaries ---------------------------------------------------------------

def make_strategy(
    name: str,
    registry: ProcessRegistry,
    seed: int = 0,
    params: dict[str, Any] | None = None,
) -> MessageMutator:
    """Build one of the named adversary strategies against the given registry."""
    params = params or {}
    if name == "crash":
        return CrashStrategy(crash_round=int(params.get("crash_round", 1)))
    if name == "equivocate":
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        return EquivocationStrategy(value_pool=honest_inputs)
    if name == "outside_hull":
        return OutsideHullStrategy(
            offset=float(params.get("offset", 50.0)), scale=float(params.get("scale", 5.0))
        )
    if name == "random_noise":
        lower, upper = registry.value_bounds()
        spread = max(1.0, upper - lower)
        return RandomNoiseStrategy(low=lower - 5 * spread, high=upper + 5 * spread, seed=seed)
    if name == "coordinate_attack":
        return CoordinateAttackStrategy(
            coordinate=int(params.get("coordinate", 0)),
            target=float(params.get("target", 0.0)),
            dimension=registry.configuration.dimension,
        )
    raise ValueError(f"unknown strategy name: {name}")


@dataclass(frozen=True)
class AdversaryBundle:
    """Everything one trial needs from its adversary.

    ``mutators`` is what the protocol drivers consume (one per faulty id);
    ``coordinator`` is set only for coordinated strategies and carries the
    shared coalition state, the runtime traffic tap and the scheduler hint.
    """

    mutators: dict[int, MessageMutator] = field(default_factory=dict)
    coordinator: AdversaryCoordinator | None = None

    @property
    def traffic_observer(self) -> Callable[[Message], None] | None:
        """The coordinator's observation hook, if this adversary has one."""
        return self.coordinator.observe if self.coordinator is not None else None


def derive_faulty_seeds(adversary_seed: int, faulty_ids: Sequence[int]) -> dict[int, int]:
    """One independent 32-bit seed per faulty id via ``SeedSequence.spawn``.

    The previous scheme (``adversary_seed + faulty_id``) made trials with
    adjacent root seeds share faulty RNG streams: seed ``s`` with faulty id 2
    and seed ``s + 1`` with faulty id 1 both landed on ``s + 2``.  Spawned
    sequences cannot collide that way, and the id-sorted assignment keeps the
    mapping independent of set-iteration order.
    """
    ordered = sorted(int(faulty_id) for faulty_id in faulty_ids)
    children = np.random.SeedSequence(int(adversary_seed)).spawn(max(len(ordered), 1))
    return {
        faulty_id: int(child.generate_state(1, dtype=np.uint32)[0])
        for faulty_id, child in zip(ordered, children)
    }


def make_adversaries(spec: TrialSpec, registry: ProcessRegistry) -> AdversaryBundle:
    """Build the spec's adversary: coordinator-backed or independent mutators.

    Coordinated strategy names (:data:`COORDINATED_STRATEGY_NAMES`) get one
    :class:`~repro.byzantine.coordinator.AdversaryCoordinator` owning the
    whole faulty set, with each faulty id holding a view of it; the classic
    names get one independent mutator per faulty id, seeded via
    :func:`derive_faulty_seeds`.
    """
    if spec.adversary in ("none", "honest") or not registry.faulty_ids:
        return AdversaryBundle()
    _, adversary_seed, _ = spec.resolved_seeds()
    params = spec.params("adversary")
    if spec.adversary in COORDINATED_STRATEGY_NAMES:
        coordinator = AdversaryCoordinator(
            spec.adversary, registry, seed=adversary_seed, params=params
        )
        mutators: dict[int, MessageMutator] = {
            faulty_id: coordinator.mutator_for(faulty_id)
            for faulty_id in sorted(registry.faulty_ids)
        }
        return AdversaryBundle(mutators=mutators, coordinator=coordinator)
    seeds = derive_faulty_seeds(adversary_seed, registry.faulty_ids)
    return AdversaryBundle(
        mutators={
            faulty_id: make_strategy(
                spec.adversary, registry, seed=seeds[faulty_id], params=params
            )
            for faulty_id in sorted(registry.faulty_ids)
        }
    )


# -- workloads ----------------------------------------------------------------

def build_registry(spec: TrialSpec) -> ProcessRegistry:
    """Instantiate the spec's workload into a concrete process registry.

    The registry's configuration must match the spec's ``(n, d, f)`` fields —
    fixed-instance workloads like ``intro_counterexample`` ignore those fields
    when building, so the check keeps result rows from recording a
    configuration that was never executed.
    """
    registry = _build_registry(spec)
    configuration = registry.configuration
    actual = (configuration.process_count, configuration.dimension, configuration.fault_bound)
    declared = (spec.process_count, spec.dimension, spec.fault_bound)
    if actual != declared:
        raise ConfigurationError(
            f"workload {spec.workload!r} builds (n, d, f) = {actual}, "
            f"but the spec declares {declared}"
        )
    return registry


def _build_registry(spec: TrialSpec) -> ProcessRegistry:
    workload_seed, _, _ = spec.resolved_seeds()
    params = spec.params("workload")
    if spec.workload == "uniform_box":
        return uniform_box_registry(
            spec.process_count, spec.dimension, spec.fault_bound, seed=workload_seed, **params
        )
    if spec.workload == "probability_vector":
        return probability_vector_registry(
            spec.process_count, spec.dimension, spec.fault_bound, seed=workload_seed, **params
        )
    if spec.workload == "robot_position":
        return robot_position_registry(
            spec.process_count,
            spec.fault_bound,
            dimension=spec.dimension,
            seed=workload_seed,
            **params,
        )
    if spec.workload == "gradient":
        return gradient_registry(
            spec.process_count, spec.dimension, spec.fault_bound, seed=workload_seed, **params
        )
    if spec.workload == "intro_counterexample":
        return intro_counterexample_registry(**params)
    raise ConfigurationError(
        f"unknown workload {spec.workload!r}; known: {', '.join(WORKLOAD_NAMES)}"
    )


# -- schedulers ---------------------------------------------------------------

def build_scheduler(spec: TrialSpec, registry: ProcessRegistry) -> DeliveryScheduler:
    """Instantiate the spec's delivery scheduler (asynchronous protocols).

    The ``theorem4_scenario`` adversary couples its crash faults with a
    lagging scheduler starving one correct process — the paper's asynchronous
    lower-bound execution — so for that adversary the spec's scheduler name is
    overridden with a :class:`LaggingScheduler` honouring the coordinator's
    nomination (``slow_processes`` adversary parameter, default: the last
    honest process).
    """
    _, _, scheduler_seed = spec.resolved_seeds()
    params = spec.params("scheduler")
    if spec.adversary == "theorem4_scenario":
        slow = AdversaryCoordinator.nominate_slow_processes(
            registry, spec.params("adversary")
        )
        return LaggingScheduler(slow_processes=list(slow), seed=scheduler_seed)
    if spec.scheduler == "random":
        return RandomScheduler(scheduler_seed)
    if spec.scheduler == "round_robin":
        return RoundRobinScheduler()
    if spec.scheduler == "lagging":
        # Same nomination rule as the theorem4_scenario coupling above: the
        # classical "correct but slow" default is the last honest process.
        slow = AdversaryCoordinator.nominate_slow_processes(registry, params)
        return LaggingScheduler(slow_processes=list(slow), seed=scheduler_seed)
    raise ConfigurationError(
        f"unknown scheduler {spec.scheduler!r}; known: {', '.join(SCHEDULER_NAMES)}"
    )


# -- resilience bounds --------------------------------------------------------

_MINIMUM_PROCESSES: dict[str, Callable[[int, int], int]] = {
    "exact": minimum_processes_exact_sync,
    "approx": minimum_processes_approx_async,
    "restricted_sync": minimum_processes_restricted_sync,
    "restricted_async": minimum_processes_restricted_async,
    "coordinatewise": lambda dimension, fault_bound: minimum_processes_scalar(fault_bound),
}


def minimum_processes_for(protocol: str, dimension: int, fault_bound: int) -> int:
    """The paper's minimum ``n`` for the protocol at ``(d, f)``."""
    try:
        bound = _MINIMUM_PROCESSES[protocol]
    except KeyError as error:
        raise ConfigurationError(f"unknown protocol {protocol!r}") from error
    return bound(dimension, fault_bound)
