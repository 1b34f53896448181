"""Pure round/decision functions shared by the object and columnar runtimes.

The coordinate-wise baseline, restricted-round approximate BVC and the
asynchronous Approximate BVC all bottom out in small *pure* state
transitions: "given what a process received this round, what is its next
state / decision?".  Historically those
transitions lived inside the per-process classes, interleaved with message
parsing — which meant an alternative execution substrate (the columnar
engine in :mod:`repro.engine.vectorized`) would have had to re-implement the
numerics and keep them bit-for-bit in sync by hand.

This module is the single home of those transitions.  The process classes
call them on parsed inputs; the columnar engine calls them on array slices.
Because both substrates execute the *same* function objects on bitwise-equal
inputs, engine equivalence ("``--engine vectorized`` emits byte-identical
rows to ``--engine object``") is a property of the code structure, not a
hand-maintained invariant.

The iterative algorithms share one Step-2 update, Equation (9) of Section
3.2: :func:`safe_average` gathers one cloud per index family from a state
matrix, asks for every cloud's ``Gamma`` point in one call and averages
them.  ``restricted_sync`` and ``restricted_async`` reach it through
:func:`restricted_round_step` (every ``quorum``-subset), ``approx``
through :func:`approx_round_step` (the witness families).

Everything here is deterministic and side-effect free.  The choosers
passed in must themselves be deterministic (the protocol already requires
this: all non-faulty processes must pick the same ``Gamma`` point for the
same multiset); the columnar engine exploits exactly that guarantee by
answering each distinct cloud once across processes and trials.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ProtocolError

__all__ = [
    "coerce_state",
    "quorum_families",
    "restricted_round_clouds",
    "restricted_round_reduce",
    "safe_average",
    "restricted_round_step",
    "lower_median",
    "coordinatewise_decision",
    "approx_subset_families",
    "approx_round_step",
]

ChooseAllFn = Callable[[np.ndarray], Sequence[np.ndarray]]


# ---------------------------------------------------------------------------
# Restricted-round synchronous update (Section 4, Step 2 of Section 3.2)
# ---------------------------------------------------------------------------

def coerce_state(value: object, dimension: int) -> np.ndarray | None:
    """A received ``STATE`` payload as a finite ``(dimension,)`` vector, or None.

    The receive filter of both restricted-round processes (and of the
    columnar engine's faulty senders): anything that does not flatten to
    ``dimension`` finite floats is ignored, as if it had not arrived.
    """
    try:
        vector = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        return None
    if vector.shape != (dimension,) or not np.all(np.isfinite(vector)):
        return None
    return vector


def quorum_families(member_count: int, quorum: int) -> list[tuple[int, ...]]:
    """All index subsets of ``{0..member_count-1}`` of size ``quorum``, in order.

    Lexicographic enumeration — the order is part of the protocol's
    determinism contract (every process must enumerate identically).
    """
    return list(combinations(range(member_count), quorum))


def restricted_round_clouds(received: np.ndarray, quorum: int) -> np.ndarray:
    """The ``Gamma`` query clouds of one restricted-round update, in family order.

    ``received`` is the ``(n, d)`` matrix of states collected this round
    (row ``i`` is what process ``i`` reported, the all-zero default for
    silent processes).  Returns the ``(families, quorum, d)`` stack: one
    cloud per subset family.
    """
    received = np.asarray(received, dtype=float)
    families = np.asarray(quorum_families(received.shape[0], quorum), dtype=np.intp)
    return received[families.reshape(-1, quorum)]


def restricted_round_reduce(points: Iterable[np.ndarray]) -> np.ndarray:
    """Average the chosen ``Gamma`` points into the new state (Equation (9))."""
    return np.vstack(list(points)).mean(axis=0)


def safe_average(
    states: np.ndarray,
    families: Sequence[Sequence[int]],
    choose_all: ChooseAllFn,
) -> np.ndarray:
    """Equation (9): one ``Gamma`` point per index family, averaged.

    ``states`` is a ``(k, d)`` matrix and each family a tuple of row
    positions, all of one size ``m``.  The ``(Q, m, d)`` stack of the
    families' clouds goes to ``choose_all`` in one call, in family order.
    """
    states = np.asarray(states, dtype=float)
    return restricted_round_reduce(choose_all(states[np.asarray(families, dtype=np.intp)]))


def restricted_round_step(
    received: np.ndarray,
    fault_bound: int,
    quorum: int,
    choose_all: ChooseAllFn | None = None,
) -> np.ndarray:
    """One restricted-round state update: subset ``Gamma`` points, averaged.

    Args:
        received: the ``(n, d)`` matrix of states collected this round.
        fault_bound: the ``f`` used inside every ``Gamma`` computation.
        quorum: the subset size (``n - f`` for the synchronous algorithm).
        choose_all: deterministic ``Gamma``-point chooser for the round's
            whole stack of clouds, one point each; defaults to the standard
            :meth:`~repro.core.safe_area.SafeAreaCalculator.choose_all`,
            which asks the kernel for all of them in one batch.
    """
    if choose_all is None:
        choose_all = SafeAreaCalculator(fault_bound=fault_bound).choose_all
    return safe_average(received, quorum_families(len(received), quorum), choose_all)


# ---------------------------------------------------------------------------
# Coordinate-wise baseline decision (Section 2.2 Step 2's strawman)
# ---------------------------------------------------------------------------

def lower_median(values: np.ndarray) -> float:
    """Return the lower median (element at index ``(k - 1) // 2`` of the sorted values)."""
    ordered = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if ordered.size == 0:
        raise ProtocolError("median of an empty collection is undefined")
    return float(ordered[(ordered.size - 1) // 2])


def coordinatewise_decision(cloud: np.ndarray) -> np.ndarray:
    """The strawman baseline decision: the coordinate-wise lower median of ``S``."""
    cloud = np.asarray(cloud, dtype=float)
    return np.asarray(
        [lower_median(cloud[:, coordinate]) for coordinate in range(cloud.shape[1])]
    )


# ---------------------------------------------------------------------------
# Approximate BVC round update (Section 3.2, Appendix F subset selection)
# ---------------------------------------------------------------------------

def approx_subset_families(
    members: Sequence[int],
    witness_reports: Mapping[int, Sequence[int]],
    quorum: int,
) -> list[tuple[int, ...]]:
    """Return the subsets ``C`` of ``B_i[t]`` used in Step 2 of the algorithm.

    Each witness's reported member set (the Appendix F optimisation),
    deduplicated, falling back to every ``quorum``-subset of ``members`` (the
    literal algorithm) if no witness family qualifies.
    """
    members = list(members)
    member_set = set(members)
    families: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for reported_members in witness_reports.values():
        family = tuple(sorted(reported_members))
        if len(family) != quorum:
            continue
        if any(member not in member_set for member in family):
            continue
        if family in seen:
            continue
        seen.add(family)
        families.append(family)
    if not families:
        # Fall back to the unoptimised enumeration; Appendix F's argument
        # guarantees witnesses exist, so this is a defensive path only.
        return [tuple(sorted(family)) for family in combinations(members, quorum)]
    return families


def approx_round_step(
    tuples: Mapping[int, np.ndarray],
    families: Sequence[tuple[int, ...]],
    chooser: SafeAreaCalculator,
) -> np.ndarray:
    """One Approximate BVC state update: :func:`safe_average` over the families.

    ``families`` hold sender ids; each cloud's rows are its members'
    tuples in the family's order.
    """
    row = {member: position for position, member in enumerate(tuples)}
    return safe_average(
        np.vstack(list(tuples.values())),
        [[row[member] for member in family] for family in families],
        chooser.choose_all,
    )
