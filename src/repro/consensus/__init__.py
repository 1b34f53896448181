"""Scalar consensus substrate: EIG Byzantine broadcast (the Exact BVC first step)."""

from repro.consensus.eig import EigTable, eig_round_count

__all__ = [
    "EigTable",
    "eig_round_count",
]
