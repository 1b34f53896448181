"""Baselines the paper compares against (explicitly or implicitly).

* :class:`CoordinateWiseConsensusProcess` / :func:`run_coordinatewise_consensus`
  — run Byzantine *scalar* consensus independently on every coordinate, the
  strawman the paper's introduction shows violates vector validity (its
  decision can land outside the convex hull of the honest inputs even though
  every coordinate individually looks fine).  It reuses the same EIG broadcast
  step as the Exact BVC algorithm and differs only in Step 2: the decision is
  the coordinate-wise lower median of the agreed multiset rather than a point
  of ``Gamma``.

* :func:`coordinatewise_median` — the non-protocol aggregation rule the
  robust-aggregation example compares the ``Gamma``-based aggregation with.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.byzantine.adversary import MessageMutator
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.exact_bvc import ExactBVCProcess
from repro.core.round_ops import coordinatewise_decision
from repro.exceptions import ConfigurationError
from repro.network.message import Message
from repro.processes.registry import ProcessRegistry

__all__ = [
    "coordinatewise_median",
    "CoordinateWiseConsensusProcess",
    "run_coordinatewise_consensus",
]


def coordinatewise_median(vectors: np.ndarray) -> np.ndarray:
    """Return the coordinate-wise lower median of a ``(k, d)`` stack of vectors."""
    cloud = np.asarray(vectors, dtype=float)
    if cloud.ndim != 2 or cloud.shape[0] == 0:
        raise ConfigurationError("need a non-empty (k, d) array of vectors")
    return coordinatewise_decision(cloud)


class CoordinateWiseConsensusProcess(ExactBVCProcess):
    """Exact-BVC Step 1 followed by per-coordinate scalar decisions (the strawman).

    Step 1 is identical to :class:`~repro.core.exact_bvc.ExactBVCProcess`
    (Byzantine broadcast of every input), so all non-faulty processes agree on
    the same multiset ``S``; Step 2 takes the lower median of each coordinate
    of ``S`` independently.  Agreement and per-coordinate scalar validity hold,
    but vector validity does not in general — which is the point.
    """

    def _step_two(self, agreed: np.ndarray) -> np.ndarray:
        """The strawman's decision rule: the coordinate-wise lower median of ``S``."""
        return coordinatewise_median(agreed)


def run_coordinatewise_consensus(
    registry: ProcessRegistry,
    adversary_mutators: dict[int, MessageMutator] | None = None,
    max_rounds: int | None = None,
    traffic_observer: "Callable[[Message], None] | None" = None,
) -> ProtocolOutcome:
    """Run the coordinate-wise scalar-consensus baseline end-to-end.

    The baseline only needs ``n >= 3f + 1`` (scalar resilience), so the
    resilience check of the vector algorithm is bypassed; what the experiments
    demonstrate is that even when it runs, its decision may violate vector
    validity.
    """
    core = partial(
        CoordinateWiseConsensusProcess, broadcast_mode="per_coordinate", allow_insufficient=True
    )
    return run_protocol(
        registry, core, adversary_mutators, max_rounds=max_rounds, traffic_observer=traffic_observer
    )
