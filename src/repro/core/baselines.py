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

from typing import Callable

import numpy as np

from repro.byzantine.adversary import ByzantineSyncProcess, MessageMutator
from repro.network.message import Message
from repro.core.exact_bvc import BroadcastMode, ExactBVCOutcome, ExactBVCProcess
from repro.core.round_ops import coordinatewise_decision
from repro.exceptions import ConfigurationError
from repro.network.sync_runtime import SynchronousRuntime
from repro.processes.process import SyncProcess
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
    broadcast_mode: BroadcastMode = "per_coordinate",
    max_rounds: int | None = None,
    traffic_observer: "Callable[[Message], None] | None" = None,
) -> ExactBVCOutcome:
    """Run the coordinate-wise scalar-consensus baseline end-to-end.

    The baseline only needs ``n >= 3f + 1`` (scalar resilience), so the
    resilience check of the vector algorithm is bypassed; what the experiments
    demonstrate is that even when it runs, its decision may violate vector
    validity.
    """
    adversary_mutators = adversary_mutators or {}
    configuration = registry.configuration
    processes: dict[int, SyncProcess] = {}
    for process_id in registry.process_ids:
        core = CoordinateWiseConsensusProcess(
            process_id=process_id,
            configuration=configuration,
            input_vector=registry.input_of(process_id),
            broadcast_mode=broadcast_mode,
            allow_insufficient=True,
        )
        if registry.is_faulty(process_id) and process_id in adversary_mutators:
            processes[process_id] = ByzantineSyncProcess(core, adversary_mutators[process_id])
        else:
            processes[process_id] = core
    runtime = SynchronousRuntime(
        processes,
        honest_ids=registry.honest_ids,
        max_rounds=max_rounds if max_rounds is not None else configuration.fault_bound + 2,
        traffic_observer=traffic_observer,
    )
    result = runtime.run()
    decisions = {pid: np.asarray(result.decisions[pid], dtype=float) for pid in registry.honest_ids}
    return ExactBVCOutcome(
        registry=registry,
        decisions=decisions,
        rounds_executed=result.rounds_executed,
        messages_sent=result.traffic.messages_sent,
        messages_dropped=result.traffic.messages_dropped,
    )
