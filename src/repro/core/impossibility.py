"""Executable versions of the paper's impossibility (necessity) constructions.

The necessity halves of Theorems 1 and 4 are proved by exhibiting specific
input configurations for which no decision can satisfy validity and
(epsilon-)agreement simultaneously.  This module turns those constructions
into functions that *compute* the obstruction with the LP machinery, so the
experiments can show the bound is tight: one process below the bound the
obstruction appears, at the bound it disappears.

* Theorem 1 (synchronous, exact, ``f = 1``): with ``n = d + 1`` processes whose
  inputs are the ``d`` standard basis vectors plus the origin, the intersection
  of the hulls of all ``n`` leave-one-out input multisets is empty — so no
  valid common decision exists.  With ``n = d + 2`` (the bound) the
  intersection is non-empty for *every* input configuration (Lemma 1 with
  ``f = 1``).

* Theorem 4 (asynchronous, approximate, ``f = 1``): with ``n = d + 2``
  processes, inputs ``4 * epsilon * e_i`` for ``i = 1..d`` plus two copies of
  the origin, and process ``p_{d+2}`` arbitrarily slow, the validity
  constraints force each process ``p_i`` (``i <= d + 1``) to decide exactly its
  own input — and those forced decisions are ``4 * epsilon`` apart, violating
  epsilon-agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.safe_area import safe_area_is_empty, safe_area_point
from repro.exceptions import ConfigurationError
from repro.geometry.convex_hull import hulls_intersection_point
from repro.geometry.points import as_cloud

__all__ = [
    "SyncImpossibilityWitness",
    "AsyncImpossibilityWitness",
    "theorem1_construction",
    "analyze_sync_necessity",
    "theorem4_construction",
    "analyze_async_necessity",
]


def theorem1_construction(dimension: int) -> np.ndarray:
    """Return the Theorem 1 input multiset: the ``d`` standard basis vectors plus the origin."""
    if dimension < 1:
        raise ConfigurationError("dimension must be at least 1")
    return as_cloud(np.vstack([np.eye(dimension), np.zeros((1, dimension))]))


@dataclass(frozen=True)
class SyncImpossibilityWitness:
    """Outcome of the Theorem 1 analysis for one (n, d) configuration.

    Attributes:
        dimension: the ``d`` analysed.
        process_count: the ``n`` analysed.
        gamma_empty: True when the intersection of all leave-one-out hulls
            (equivalently ``Gamma`` with ``f = 1``) is empty — i.e. Exact BVC
            with one fault is impossible for these inputs.
        witness_point: a point of the intersection when it is non-empty.
    """

    dimension: int
    process_count: int
    gamma_empty: bool
    witness_point: np.ndarray | None


def analyze_sync_necessity(dimension: int, process_count: int | None = None) -> SyncImpossibilityWitness:
    """Analyse the Theorem 1 construction for ``f = 1`` and the given ``n``.

    By default ``n = d + 1`` (one below the bound), where the construction
    shows the leave-one-out hull intersection is empty.  Passing
    ``process_count = d + 2`` (or larger) pads the construction with extra
    copies of the origin and demonstrates the obstruction disappears at the
    bound.
    """
    cloud = theorem1_construction(dimension)
    if process_count is None:
        process_count = dimension + 1
    if process_count < dimension + 1:
        raise ConfigurationError("the construction needs at least d + 1 processes")
    while cloud.shape[0] < process_count:
        cloud = np.vstack([cloud, np.zeros((1, dimension))])
    empty = safe_area_is_empty(cloud, fault_bound=1)
    witness = None if empty else safe_area_point(cloud, fault_bound=1)
    return SyncImpossibilityWitness(
        dimension=dimension,
        process_count=process_count,
        gamma_empty=empty,
        witness_point=witness,
    )


def theorem4_construction(dimension: int, epsilon: float) -> np.ndarray:
    """Return the Theorem 4 input multiset: ``4 eps * e_i`` for ``i <= d`` plus two origins."""
    if dimension < 1:
        raise ConfigurationError("dimension must be at least 1")
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    return as_cloud(np.vstack([4.0 * epsilon * np.eye(dimension), np.zeros((2, dimension))]))


@dataclass(frozen=True)
class AsyncImpossibilityWitness:
    """Outcome of the Theorem 4 analysis for one dimension and epsilon.

    Attributes:
        dimension: the ``d`` analysed.
        epsilon: the epsilon-agreement parameter of the construction.
        forced_decisions: for each process ``p_i`` (``i = 0..d``), the unique
            point its validity constraints allow when ``p_{d+2}`` never takes a
            step (the paper shows this is exactly ``x_i``).
        max_forced_gap: the largest coordinate-wise gap between two forced
            decisions; the construction makes it ``4 * epsilon``, violating
            epsilon-agreement.
        violates_epsilon_agreement: True when that gap exceeds ``epsilon``.
    """

    dimension: int
    epsilon: float
    forced_decisions: tuple[np.ndarray, ...]
    max_forced_gap: float
    violates_epsilon_agreement: bool


def analyze_async_necessity(dimension: int, epsilon: float = 0.25) -> AsyncImpossibilityWitness:
    """Analyse the Theorem 4 construction for ``f = 1`` and ``n = d + 2``.

    For each process ``p_i`` (``1 <= i <= d + 1`` in the paper's numbering,
    ``0``-based here) the decision must lie in the intersection of the hulls of
    ``X_i^j`` for every ``j != i`` among the first ``d + 1`` processes — the
    scenarios in which ``p_j`` may be the faulty one and ``p_{d+2}`` is merely
    slow.  The function computes one point of that intersection (which the
    construction makes unique, namely ``x_i``) and reports the resulting
    pairwise gaps.
    """
    cloud = theorem4_construction(dimension, epsilon)
    participant_count = dimension + 1  # p_1 .. p_{d+1}; p_{d+2} never takes a step.
    forced: list[np.ndarray] = []
    for i in range(participant_count):
        hulls = []
        for j in range(participant_count):
            if j == i:
                continue
            keep = [k for k in range(participant_count) if k != j]
            hulls.append(cloud[keep])
        point = hulls_intersection_point(hulls)
        if point is None:
            raise ConfigurationError(
                "the Theorem 4 intersection is unexpectedly empty; the construction is malformed"
            )
        forced.append(point)
    stacked = np.vstack(forced)
    max_gap = float(np.max(stacked.max(axis=0) - stacked.min(axis=0))) if dimension >= 1 else 0.0
    return AsyncImpossibilityWitness(
        dimension=dimension,
        epsilon=epsilon,
        forced_decisions=tuple(forced),
        max_forced_gap=max_gap,
        violates_epsilon_agreement=max_gap > epsilon,
    )
