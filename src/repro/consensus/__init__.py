"""Scalar consensus substrate: EIG Byzantine broadcast (the Exact BVC first step)."""

from repro.consensus.eig import EigBroadcastProcess, EigTable, eig_round_count

__all__ = [
    "EigBroadcastProcess",
    "EigTable",
    "eig_round_count",
]
