"""Convergence bookkeeping for the iterative algorithms.

The proof of Theorem 5 (Appendix E) shows that the per-coordinate range of the
honest states,

    rho_l[t] = Omega_l[t] - mu_l[t],

contracts by a factor of at least ``1 - gamma`` every asynchronous round
(Equation (12)), which yields the static round threshold
``1 + ceil(log_{1/(1-gamma)} (U - nu) / epsilon)``.  This module measures those
quantities on recorded state histories so the experiments can compare the
*measured* contraction against the paper's bound.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.approx_bvc import contraction_factor, round_threshold
from repro.exceptions import ConfigurationError

__all__ = [
    "contraction_factor",
    "round_threshold",
    "coordinate_ranges_per_round",
    "max_range_per_round",
    "measured_contraction_factors",
]


def _align_histories(state_histories: Mapping[int, Sequence[np.ndarray]]) -> list[np.ndarray]:
    """Return, per round index, the stack of honest states (truncated to the shortest history)."""
    if not state_histories:
        raise ConfigurationError("need at least one state history")
    histories = {pid: [np.asarray(state, dtype=float) for state in states] for pid, states in state_histories.items()}
    rounds = min(len(states) for states in histories.values())
    if rounds == 0:
        raise ConfigurationError("state histories are empty")
    return [
        np.vstack([histories[pid][round_index] for pid in sorted(histories)])
        for round_index in range(rounds)
    ]


def coordinate_ranges_per_round(state_histories: Mapping[int, Sequence[np.ndarray]]) -> np.ndarray:
    """Return a ``(rounds, d)`` array of ``rho_l[t]`` values.

    Row ``t`` holds, for every coordinate ``l``, the spread of the honest
    states after round ``t`` (row 0 is the spread of the inputs).
    """
    per_round = _align_histories(state_histories)
    return np.vstack([cloud.max(axis=0) - cloud.min(axis=0) for cloud in per_round])


def max_range_per_round(state_histories: Mapping[int, Sequence[np.ndarray]]) -> np.ndarray:
    """Return ``max_l rho_l[t]`` per round — the scalar the epsilon condition bounds."""
    return coordinate_ranges_per_round(state_histories).max(axis=1)


def measured_contraction_factors(state_histories: Mapping[int, Sequence[np.ndarray]]) -> np.ndarray:
    """Return the measured per-round contraction ``max_l rho_l[t] / max_l rho_l[t-1]``.

    Rounds where the previous range is (numerically) zero are reported as 0.0
    — the states have already collapsed to a point and stay there.
    """
    ranges = max_range_per_round(state_histories)
    factors = []
    for round_index in range(1, ranges.shape[0]):
        previous = ranges[round_index - 1]
        factors.append(0.0 if previous <= 1e-15 else float(ranges[round_index] / previous))
    return np.asarray(factors)
