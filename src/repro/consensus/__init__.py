"""Scalar consensus substrate: EIG Byzantine broadcast (the Exact BVC first step)."""

from repro.consensus.eig import EigBroadcastInstance, EigBroadcastProcess, eig_round_count

__all__ = [
    "EigBroadcastInstance",
    "EigBroadcastProcess",
    "eig_round_count",
]
