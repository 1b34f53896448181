"""Input-vector workload generators.

These produce the :class:`~repro.processes.registry.ProcessRegistry` objects
(inputs + fault set) that the examples, tests and benchmarks run on.  The
families mirror the applications the paper's introduction motivates, plus the
adversarial constructions its lower bounds use:

* probability vectors (agreement on a distribution / feasible point of a
  simplex-constrained optimisation problem);
* robot positions in a bounded arena (multi-robot rendezvous);
* gradient-like vectors clustered around a true gradient with heavy-tailed
  noise (Byzantine-robust aggregation for distributed learning);
* the paper's introductory counterexample inputs;
* the standard-basis configurations behind the Theorem 1 / Theorem 4
  impossibility arguments;
* generic uniform-box inputs for property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.conditions import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.processes.registry import ProcessRegistry

__all__ = [
    "uniform_box_registry",
    "probability_vector_registry",
    "robot_position_registry",
    "gradient_registry",
    "intro_counterexample_registry",
    "basis_counterexample_registry",
]


def _pick_faulty_ids(process_count: int, fault_count: int, rng: np.random.Generator) -> frozenset[int]:
    if fault_count < 0 or fault_count > process_count:
        raise ConfigurationError("fault count must be between 0 and n")
    if fault_count == 0:
        return frozenset()
    chosen = rng.choice(process_count, size=fault_count, replace=False)
    return frozenset(int(process_id) for process_id in chosen)


def uniform_box_registry(
    process_count: int,
    dimension: int,
    fault_bound: int,
    fault_count: int | None = None,
    lower: float = 0.0,
    upper: float = 1.0,
    seed: int = 0,
) -> ProcessRegistry:
    """Inputs drawn uniformly from the box ``[lower, upper]^d``."""
    if upper < lower:
        raise ConfigurationError("upper must be at least lower")
    rng = np.random.default_rng(seed)
    configuration = SystemConfiguration(process_count, dimension, fault_bound)
    fault_count = fault_bound if fault_count is None else fault_count
    # One (n, d) draw: the same stream, row by row, as n draws of size d.
    inputs = dict(enumerate(rng.uniform(lower, upper, size=(process_count, dimension))))
    return ProcessRegistry(configuration, inputs, _pick_faulty_ids(process_count, fault_count, rng))


def probability_vector_registry(
    process_count: int,
    dimension: int,
    fault_bound: int,
    fault_count: int | None = None,
    concentration: float = 1.0,
    seed: int = 0,
) -> ProcessRegistry:
    """Inputs drawn from a Dirichlet distribution (points of the probability simplex).

    The convex hull of probability vectors is again a set of probability
    vectors, so a correct BVC decision is guaranteed to be a valid
    distribution — the property the introduction's example is about.
    """
    rng = np.random.default_rng(seed)
    configuration = SystemConfiguration(process_count, dimension, fault_bound)
    fault_count = fault_bound if fault_count is None else fault_count
    inputs = {
        process_id: rng.dirichlet(np.full(dimension, concentration))
        for process_id in range(process_count)
    }
    return ProcessRegistry(configuration, inputs, _pick_faulty_ids(process_count, fault_count, rng))


def robot_position_registry(
    process_count: int,
    fault_bound: int,
    fault_count: int | None = None,
    dimension: int = 3,
    arena_size: float = 10.0,
    cluster_spread: float = 2.0,
    seed: int = 0,
) -> ProcessRegistry:
    """Robot positions in a ``[0, arena_size]^d`` arena, clustered around a rendezvous area.

    Models the paper's mobile-robot motivation: each robot proposes its own
    position; the consensus point is a rendezvous location guaranteed to lie
    within the region spanned by the correct robots.
    """
    rng = np.random.default_rng(seed)
    configuration = SystemConfiguration(process_count, dimension, fault_bound)
    fault_count = fault_bound if fault_count is None else fault_count
    center = rng.uniform(cluster_spread, arena_size - cluster_spread, size=dimension)
    inputs = {}
    for process_id in range(process_count):
        position = center + rng.normal(0.0, cluster_spread / 2.0, size=dimension)
        inputs[process_id] = np.clip(position, 0.0, arena_size)
    return ProcessRegistry(configuration, inputs, _pick_faulty_ids(process_count, fault_count, rng))


def gradient_registry(
    process_count: int,
    dimension: int,
    fault_bound: int,
    fault_count: int | None = None,
    gradient_scale: float = 1.0,
    noise_scale: float = 0.1,
    seed: int = 0,
) -> ProcessRegistry:
    """Gradient-like inputs: a shared true gradient plus per-process noise.

    Models Byzantine-robust aggregation in distributed learning: each worker
    proposes its stochastic gradient; BVC yields an aggregate inside the convex
    hull of the honest gradients regardless of what the Byzantine workers send.
    """
    rng = np.random.default_rng(seed)
    configuration = SystemConfiguration(process_count, dimension, fault_bound)
    fault_count = fault_bound if fault_count is None else fault_count
    true_gradient = rng.normal(0.0, gradient_scale, size=dimension)
    inputs = {
        process_id: true_gradient + rng.normal(0.0, noise_scale, size=dimension)
        for process_id in range(process_count)
    }
    return ProcessRegistry(configuration, inputs, _pick_faulty_ids(process_count, fault_count, rng))


def intro_counterexample_registry(extended: bool = False) -> ProcessRegistry:
    """The paper's introductory example: probability-vector inputs, one faulty process.

    In the literal 4-process form (``extended=False``) processes
    ``p_0, p_1, p_2`` are honest with inputs ``[2/3, 1/6, 1/6]``,
    ``[1/6, 2/3, 1/6]`` and ``[1/6, 1/6, 2/3]`` and process ``p_3`` is faulty.
    Coordinate-wise scalar consensus can decide ``[1/6, 1/6, 1/6]``, which is
    not in the convex hull of the honest inputs (its coordinates sum to 1/2).

    With ``extended=True`` a fourth honest process holding the uniform vector
    ``[1/3, 1/3, 1/3]`` is added, bringing ``n`` to 5 — the Exact BVC bound
    ``max(3f+1, (d+1)f+1)`` for ``d = 3, f = 1`` — so the same attack can be
    run against both the coordinate-wise baseline (which still fails vector
    validity) and the Exact BVC algorithm (which does not).
    """
    third = 2.0 / 3.0
    sixth = 1.0 / 6.0
    inputs = {
        0: np.asarray([third, sixth, sixth]),
        1: np.asarray([sixth, third, sixth]),
        2: np.asarray([sixth, sixth, third]),
    }
    if extended:
        inputs[3] = np.full(3, 1.0 / 3.0)
        inputs[4] = np.asarray([sixth, sixth, sixth])
        faulty = {4}
        configuration = SystemConfiguration(process_count=5, dimension=3, fault_bound=1)
    else:
        inputs[3] = np.asarray([sixth, sixth, sixth])
        faulty = {3}
        configuration = SystemConfiguration(process_count=4, dimension=3, fault_bound=1)
    return ProcessRegistry(configuration, inputs, faulty_ids=faulty)


def basis_counterexample_registry(dimension: int, epsilon: float = 0.25) -> ProcessRegistry:
    """The Theorem 4 input configuration as a registry (``n = d + 2``, ``f = 1``).

    Processes ``0 .. d-1`` hold ``4 * epsilon * e_i``; processes ``d`` and
    ``d + 1`` hold the origin.  Used by the asynchronous impossibility
    experiment (the construction itself is analysed analytically in
    :mod:`repro.core.impossibility`; the registry form is handy for running
    under-provisioned protocols against it).
    """
    if dimension < 1:
        raise ConfigurationError("dimension must be at least 1")
    configuration = SystemConfiguration(process_count=dimension + 2, dimension=dimension, fault_bound=1)
    inputs = {}
    for process_id in range(dimension):
        vector = np.zeros(dimension)
        vector[process_id] = 4.0 * epsilon
        inputs[process_id] = vector
    inputs[dimension] = np.zeros(dimension)
    inputs[dimension + 1] = np.zeros(dimension)
    return ProcessRegistry(configuration, inputs, faulty_ids={dimension + 1})
