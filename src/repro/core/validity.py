"""Run-time verification of the BVC correctness conditions.

Every experiment in this repository checks its protocol run against the
paper's definitions *independently of the algorithm under test*, using the hull
distance from :mod:`repro.geometry` (closed form at ``d <= 2``, an LP above):

* Agreement (exact) — all honest decisions identical;
* epsilon-Agreement (approximate) — per coordinate, any two honest decisions
  within ``epsilon``;
* Validity — every honest decision inside the convex hull of the honest
  *inputs*;
* Termination — reported by the runtimes (a raised
  :class:`~repro.exceptions.TerminationError` means a liveness failure).

:func:`check_exact_outcome` (and :func:`check_shared_decision`, its form for
one decision every honest process shares) and :func:`check_approximate_outcome`
return a :class:`ValidityReport` summarising the verdicts together with
quantitative margins (hull distance of the worst decision, largest coordinate
disagreement) that the benchmarks report as measured series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import AgreementViolation
from repro.geometry.convex_hull import distance_to_hull
from repro.geometry.points import as_point
from repro.processes.registry import ProcessRegistry

__all__ = [
    "ValidityReport",
    "check_exact_outcome",
    "check_shared_decision",
    "check_approximate_outcome",
]

_AGREEMENT_TOLERANCE = 1e-7
_VALIDITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ValidityReport:
    """Quantitative verdict on a finished run.

    Attributes:
        agreement_ok: exact agreement (or epsilon-agreement) satisfied.
        validity_ok: every honest decision lies in the honest-input hull.
        max_disagreement: largest coordinate-wise gap between two honest
            decisions (0 for perfect agreement).
        max_hull_distance: Chebyshev distance of the farthest honest decision
            from the honest-input hull (0 when validity holds exactly).
        epsilon: the epsilon-agreement threshold used (``None`` for exact runs).
    """

    agreement_ok: bool
    validity_ok: bool
    max_disagreement: float
    max_hull_distance: float
    epsilon: float | None = None


def _decisions_as_cloud(decisions: Mapping[int, Sequence[float]], dimension: int) -> np.ndarray:
    if not decisions:
        raise AgreementViolation("no honest decisions to check")
    rows = [as_point(vector, dimension=dimension) for _, vector in sorted(decisions.items())]
    return np.vstack(rows)


def _max_disagreement(cloud: np.ndarray) -> float:
    return float(np.max(cloud.max(axis=0) - cloud.min(axis=0))) if cloud.shape[0] else 0.0


def _max_hull_distance(honest_inputs: np.ndarray, cloud: np.ndarray) -> float:
    """Largest hull distance over the decision rows, one per distinct row.

    Bitwise-identical rows (exact consensus makes all of them so) have the
    same distance, and a maximum is indifferent to repeats.
    """
    distinct = {row.tobytes(): row for row in cloud}
    return max(distance_to_hull(honest_inputs, row) for row in distinct.values())


def check_exact_outcome(
    registry: ProcessRegistry,
    decisions: Mapping[int, Sequence[float]],
) -> ValidityReport:
    """Verify the Exact BVC conditions for a finished synchronous run."""
    cloud = _decisions_as_cloud(decisions, registry.configuration.dimension)
    disagreement = _max_disagreement(cloud)
    hull_distance = _max_hull_distance(registry.honest_input_multiset(), cloud)
    return ValidityReport(
        agreement_ok=disagreement <= _AGREEMENT_TOLERANCE,
        validity_ok=hull_distance <= _VALIDITY_TOLERANCE,
        max_disagreement=disagreement,
        max_hull_distance=hull_distance,
        epsilon=None,
    )


def check_shared_decision(honest_inputs: np.ndarray, decision: Sequence[float]) -> ValidityReport:
    """:func:`check_exact_outcome` for a run whose honest processes all decided ``decision``.

    ``honest_inputs`` is the honest ``(h, d)`` input stack.  Identical
    decisions disagree by ``0.0`` and share one hull distance, so the report
    needs neither the per-process decisions nor their cloud.
    """
    hull_distance = distance_to_hull(honest_inputs, decision)
    return ValidityReport(
        agreement_ok=True,
        validity_ok=hull_distance <= _VALIDITY_TOLERANCE,
        max_disagreement=0.0,
        max_hull_distance=hull_distance,
        epsilon=None,
    )


def check_approximate_outcome(
    registry: ProcessRegistry,
    decisions: Mapping[int, Sequence[float]],
    epsilon: float,
) -> ValidityReport:
    """Verify the Approximate BVC conditions (epsilon-agreement + validity)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cloud = _decisions_as_cloud(decisions, registry.configuration.dimension)
    disagreement = _max_disagreement(cloud)
    hull_distance = _max_hull_distance(registry.honest_input_multiset(), cloud)
    return ValidityReport(
        agreement_ok=disagreement <= epsilon,
        validity_ok=hull_distance <= _VALIDITY_TOLERANCE,
        max_disagreement=disagreement,
        max_hull_distance=hull_distance,
        epsilon=epsilon,
    )
