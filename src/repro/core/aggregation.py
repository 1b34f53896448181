"""The Step-2 state update shared by the iterative BVC algorithms.

Both the Section 3.2 algorithm and the two restricted-round algorithms of
Section 4 update a process's state the same way: given a collection ``B`` of
received state vectors, enumerate subsets ``C`` of a prescribed size
(the *quorum*), pick one deterministic point of ``Gamma(Phi(C))`` per subset,
and average the chosen points (Equation (9)).  This module packages that
update so that the three algorithm classes share one implementation and the
ablation benchmarks can call it directly on synthetic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ConfigurationError

__all__ = ["AggregationStep", "SafeAverageAggregator"]


@dataclass(frozen=True)
class AggregationStep:
    """The outcome of one state update.

    Attributes:
        new_state: the averaged state vector.
        subset_count: how many subsets contributed a ``Gamma`` point.
        chosen_points: the ``Gamma`` points themselves (the multiset ``Z_i``).
    """

    new_state: np.ndarray
    subset_count: int
    chosen_points: tuple[np.ndarray, ...]


class SafeAverageAggregator:
    """Average of deterministically chosen ``Gamma`` points over subset families.

    Args:
        fault_bound: the ``f`` used inside every ``Gamma`` computation.
        quorum: the subset size ``|C|``.  The Section 3.2 algorithm and the
            synchronous restricted algorithm use ``n - f``; the asynchronous
            restricted algorithm uses ``n - 3f`` (the guaranteed size of the
            intersection of two processes' receive sets — see Theorem 6's
            discussion).
    """

    def __init__(self, fault_bound: int, quorum: int) -> None:
        if quorum < 1:
            raise ConfigurationError("the aggregation quorum must be at least 1")
        if fault_bound < 0:
            raise ConfigurationError("fault bound must be non-negative")
        self.fault_bound = fault_bound
        self.quorum = quorum
        self._chooser = SafeAreaCalculator(fault_bound=fault_bound)

    def subset_budget(self, collection_size: int) -> int:
        """Return how many subsets a collection of the given size yields."""
        if collection_size < self.quorum:
            return 0
        return comb(collection_size, self.quorum)

    def aggregate(
        self,
        vectors: Mapping[int, np.ndarray],
        subset_families: Sequence[Sequence[int]] | None = None,
    ) -> AggregationStep:
        """Run the state update on ``vectors`` (keyed by sender id).

        ``subset_families`` restricts the enumeration to an explicit family of
        sender-id subsets (the Appendix F optimisation); by default every
        subset of size ``quorum`` is used.  Senders listed in a family but
        missing from ``vectors`` disqualify that family.
        """
        members = sorted(vectors)
        if len(members) < self.quorum:
            raise ConfigurationError(
                f"need at least {self.quorum} vectors to aggregate, got {len(members)}"
            )
        if subset_families is None:
            families = [tuple(family) for family in combinations(members, self.quorum)]
        else:
            families = []
            seen: set[tuple[int, ...]] = set()
            for family in subset_families:
                ordered = tuple(sorted(int(member) for member in family))
                if len(ordered) != self.quorum or len(set(ordered)) != self.quorum:
                    continue
                if any(member not in vectors for member in ordered):
                    continue
                if ordered in seen:
                    continue
                seen.add(ordered)
                families.append(ordered)
            if not families:
                families = [tuple(family) for family in combinations(members, self.quorum)]

        position = {member: index for index, member in enumerate(members)}
        matrix = np.vstack([np.asarray(vectors[member], dtype=float) for member in members])
        chosen = self._chooser.choose_all(
            matrix[np.asarray([[position[member] for member in family] for family in families])]
        )
        stacked = np.vstack(chosen)
        return AggregationStep(
            new_state=stacked.mean(axis=0),
            subset_count=len(chosen),
            chosen_points=tuple(chosen),
        )
