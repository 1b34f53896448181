"""The safe area ``Gamma(Y)`` and how to pick a point inside it.

The paper defines, for a multiset ``Y`` of points in ``R^d`` and a fault bound
``f``::

    Gamma(Y) = intersection over all T subset of Y with |T| = |Y| - f of H(T)

(Equation (1)).  Lemma 1 shows ``Gamma(Y)`` is non-empty whenever
``|Y| >= (d+1)f + 1``.  Both the exact synchronous algorithm (Section 2.2) and
the asynchronous approximate algorithm (Section 3.2) decide / update state by
picking a point of ``Gamma`` of some multiset; Section 2.2 spells out the
linear program that finds such a point, and Appendix F describes an
optimisation that restricts the subsets considered.

This module implements:

* :func:`safe_area_point` — the paper's LP over all ``C(|Y|, |Y|-f)`` subsets,
  finding a single point that is simultaneously a convex combination of every
  subset of size ``|Y| - f``;
* :func:`safe_area_point_via_tverberg` — the alternative route through a
  Tverberg partition, used for cross-validation in tests;
* :func:`safe_area_contains` / :func:`safe_area_is_empty` — membership and
  emptiness predicates, used directly by the impossibility experiments;
* :class:`SafeAreaCalculator` — a deterministic, configurable chooser used by
  the protocol code (all non-faulty processes must pick the *same* point, so
  determinism is part of the algorithm's correctness argument).

Every protocol query goes through the memoising
:class:`~repro.geometry.kernel.GammaKernel`, which answers ``d <= 2`` without
an LP and otherwise prunes the subset family and assembles the LP straight
into sparse form;
:func:`safe_area_point` here remains the literal, unoptimised Section 2.2
program.  No protocol execution calls it: it is the oracle the kernel's
equivalence tests compare against and the baseline the cost experiments
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import EmptyIntersectionError, GeometryError, LinearProgramError
from repro.geometry.convex_hull import distance_to_hull
from repro.geometry.kernel import default_kernel
from repro.geometry.linprog import solve_linear_program
from repro.geometry.points import as_cloud, centroid
from repro.geometry.tverberg import find_tverberg_partition

__all__ = [
    "safe_area_subset_count",
    "safe_area_point",
    "safe_area_point_via_tverberg",
    "safe_area_contains",
    "safe_area_is_empty",
    "SafeAreaCalculator",
]

def _query_clouds(
    point_sets: Sequence[np.ndarray | Iterable[Sequence[float]]] | np.ndarray,
) -> list[np.ndarray]:
    """Many queries as ``(m, d)`` arrays, each checked as :func:`as_cloud` checks one.

    A ``(Q, m, d)`` array — a round's clouds, stacked — is checked in one
    pass instead of one :func:`as_cloud` per query.
    """
    if isinstance(point_sets, np.ndarray) and point_sets.ndim == 3:
        clouds = point_sets.astype(float, copy=False)
        if not np.isfinite(clouds).all():
            raise GeometryError("point cloud contains non-finite coordinates")
        return list(clouds)
    return [as_cloud(points) for points in point_sets]


def safe_area_subset_count(point_count: int, fault_bound: int) -> int:
    """Return the number of subsets ``Gamma`` intersects over: ``C(|Y|, |Y|-f)``."""
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if fault_bound > point_count:
        raise GeometryError("fault bound cannot exceed the number of points")
    return comb(point_count, point_count - fault_bound)


def _subset_index_families(
    point_count: int,
    fault_bound: int,
    subset_indices: Sequence[Sequence[int]] | None,
) -> list[tuple[int, ...]]:
    """Return the index families to intersect over.

    By default this is every subset of size ``point_count - fault_bound`` (the
    paper's definition); callers implementing the Appendix F optimisation pass
    an explicit, smaller family.
    """
    if subset_indices is not None:
        families = [tuple(sorted(indices)) for indices in subset_indices]
        for family in families:
            if len(family) != point_count - fault_bound:
                raise GeometryError(
                    f"explicit subset {family} does not have size |Y| - f = {point_count - fault_bound}"
                )
            if any(index < 0 or index >= point_count for index in family):
                raise GeometryError(f"explicit subset {family} has out-of-range indices")
        return families
    return list(combinations(range(point_count), point_count - fault_bound))


def safe_area_point(
    points: np.ndarray | Iterable[Sequence[float]],
    fault_bound: int,
    *,
    subset_indices: Sequence[Sequence[int]] | None = None,
    objective: np.ndarray | Sequence[float] | None = None,
) -> np.ndarray | None:
    """Return a point of ``Gamma(points)``, or ``None`` when the safe area is empty.

    Implements the linear program of Section 2.2 of the paper: variables are
    the coordinates of the sought point ``z`` plus one block of convex
    combination weights per subset ``T``; constraints force ``z`` to be a
    convex combination of every subset simultaneously.

    Args:
        points: the multiset ``Y``.
        fault_bound: the paper's ``f``.
        subset_indices: optional explicit subset family (Appendix F
            optimisation); defaults to all subsets of size ``|Y| - f``.
        objective: optional linear objective over ``z`` (length ``d``).  The
            default (all zeros) returns an arbitrary feasible point; passing an
            objective makes the choice deterministic in a caller-controlled way
            (e.g. lexicographic minimisation).
    """
    cloud = as_cloud(points)
    point_count, dimension = cloud.shape
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if point_count == 0:
        return None
    if fault_bound == 0:
        # Gamma(Y) = H(Y); the centroid is a canonical interior choice.
        return centroid(cloud)
    if point_count - fault_bound <= 0:
        return None

    families = _subset_index_families(point_count, fault_bound, subset_indices)

    # Variable layout: z (d, free) ++ alpha blocks, one per subset family.
    block_size = point_count - fault_bound
    variable_count = dimension + len(families) * block_size

    full_objective = np.zeros(variable_count)
    if objective is not None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (dimension,):
            raise GeometryError(f"objective must have length d={dimension}")
        full_objective[:dimension] = objective

    equality_rows: list[np.ndarray] = []
    equality_rhs: list[float] = []
    offset = dimension
    for family in families:
        block_cloud = cloud[list(family)]
        # z - block_cloud.T @ alpha == 0  (d rows)
        for coordinate in range(dimension):
            row = np.zeros(variable_count)
            row[coordinate] = 1.0
            row[offset : offset + block_size] = -block_cloud[:, coordinate]
            equality_rows.append(row)
            equality_rhs.append(0.0)
        # sum(alpha) == 1
        row = np.zeros(variable_count)
        row[offset : offset + block_size] = 1.0
        equality_rows.append(row)
        equality_rhs.append(1.0)
        offset += block_size

    bounds: list[tuple[float | None, float | None]] = [(None, None)] * dimension
    bounds.extend([(0, None)] * (len(families) * block_size))

    try:
        result = solve_linear_program(
            full_objective,
            equality_matrix=np.vstack(equality_rows),
            equality_rhs=np.asarray(equality_rhs),
            bounds=bounds,
        )
    except LinearProgramError as error:
        # HiGHS can fail to classify the strict program at all on clusters of
        # near-coincident points; the relaxed program below is feasible by
        # construction and resolves exactly those instances.  Only
        # solver-status failures qualify; input-validation errors (status
        # None) stay loud.
        if error.status is None:
            raise
        result = None
    if result is not None and result.feasible and result.solution is not None:
        return result.solution[:dimension]
    # The exact program can be reported infeasible for purely numerical
    # reasons when Gamma has an empty interior (e.g. after the iterative
    # algorithms have collapsed all states onto nearly identical points).
    # Lemma 1 guarantees Gamma is non-empty whenever |Y| >= (d+1)f + 1, so
    # before declaring emptiness we re-solve with a minimised slack and accept
    # the answer when the violation is at floating-point scale.
    return _relaxed_safe_area_point(cloud, families, block_size)


def _relaxed_safe_area_point(
    cloud: np.ndarray,
    families: Sequence[tuple[int, ...]],
    block_size: int,
) -> np.ndarray | None:
    """Solve the Gamma LP with a minimised infeasibility slack.

    Returns the candidate point when the optimal slack is within numerical
    tolerance of zero (scaled by the coordinate magnitude), otherwise ``None``
    — which then genuinely means the safe area is empty.
    """
    point_count, dimension = cloud.shape
    # Variables: z (d, free) ++ alpha blocks ++ slack t (>= 0, last).
    variable_count = dimension + len(families) * block_size + 1
    objective = np.zeros(variable_count)
    objective[-1] = 1.0

    inequality_rows: list[np.ndarray] = []
    inequality_rhs: list[float] = []
    equality_rows: list[np.ndarray] = []
    equality_rhs: list[float] = []

    offset = dimension
    for family in families:
        block_cloud = cloud[list(family)]
        for coordinate in range(dimension):
            #  z - block.T alpha - t <= 0   and   -(z - block.T alpha) - t <= 0
            row = np.zeros(variable_count)
            row[coordinate] = 1.0
            row[offset : offset + block_size] = -block_cloud[:, coordinate]
            row[-1] = -1.0
            inequality_rows.append(row)
            inequality_rhs.append(0.0)
            row = np.zeros(variable_count)
            row[coordinate] = -1.0
            row[offset : offset + block_size] = block_cloud[:, coordinate]
            row[-1] = -1.0
            inequality_rows.append(row)
            inequality_rhs.append(0.0)
        row = np.zeros(variable_count)
        row[offset : offset + block_size] = 1.0
        equality_rows.append(row)
        equality_rhs.append(1.0)
        offset += block_size

    bounds: list[tuple[float | None, float | None]] = [(None, None)] * dimension
    bounds.extend([(0, None)] * (len(families) * block_size))
    bounds.append((0, None))

    result = solve_linear_program(
        objective,
        inequality_matrix=np.vstack(inequality_rows),
        inequality_rhs=np.asarray(inequality_rhs),
        equality_matrix=np.vstack(equality_rows),
        equality_rhs=np.asarray(equality_rhs),
        bounds=bounds,
    )
    if not result.feasible or result.solution is None or result.objective is None:
        return None
    scale = max(1.0, float(np.max(np.abs(cloud))))
    if result.objective > 1e-6 * scale:
        return None
    return result.solution[:dimension]


def safe_area_point_via_tverberg(
    points: np.ndarray | Iterable[Sequence[float]],
    fault_bound: int,
) -> np.ndarray | None:
    """Return a point of ``Gamma(points)`` obtained as a Tverberg point.

    Lemma 1 of the paper shows every Tverberg point (for a partition into
    ``f + 1`` parts) lies in ``Gamma``.  The partition search is exponential,
    so this is a validation tool for small instances, not the production path.
    """
    cloud = as_cloud(points)
    if fault_bound == 0:
        return centroid(cloud) if len(cloud) else None
    partition = find_tverberg_partition(cloud, parts=fault_bound + 1)
    if partition is None:
        return None
    return partition.witness


def safe_area_contains(
    points: np.ndarray | Iterable[Sequence[float]],
    fault_bound: int,
    candidate: Sequence[float],
    tolerance: float = 1e-6,
) -> bool:
    """Return True when ``candidate`` lies in ``Gamma(points)`` (up to ``tolerance``).

    Checks membership of the candidate in the hull of *every* subset of size
    ``|Y| - f`` — the literal definition — so it is exponential in ``f`` and
    meant for verification, not for the protocol hot path.  Membership is
    tested via the distance to each hull, which degrades gracefully for
    boundary points (the common case, since ``Gamma`` often has an empty
    interior).
    """
    cloud = as_cloud(points)
    point_count = cloud.shape[0]
    if point_count == 0 or point_count - fault_bound <= 0:
        return False
    for family in combinations(range(point_count), point_count - fault_bound):
        if distance_to_hull(cloud[list(family)], candidate) > tolerance:
            return False
    return True


def safe_area_is_empty(
    points: np.ndarray | Iterable[Sequence[float]],
    fault_bound: int,
) -> bool:
    """Return True when ``Gamma(points)`` is empty.

    Decided by the kernel: the pruned family has the same intersection as the
    full one, so the answer is the literal enumeration's.
    """
    return default_kernel.point(as_cloud(points), fault_bound) is None


@dataclass(frozen=True)
class SafeAreaCalculator:
    """Deterministic chooser of a point in ``Gamma``.

    Both BVC algorithms require all non-faulty processes to pick the *same*
    point from ``Gamma`` of an identical multiset; this object encapsulates
    that deterministic choice.  The default objective minimises the first
    coordinate.  At ``d <= 2`` ties on the objective are broken by the
    lexicographic minimum of the point (smallest ``x``, then ``y``), a rule
    that needs no solver, and a zero objective asks for the lexicographic
    minimum of ``Gamma`` itself.  At ``d >= 3`` the point is the LP vertex
    HiGHS returns, which is deterministic for a fixed input, and all
    processes present the multiset in the same order, so the choice is
    identical across processes.

    Attributes:
        fault_bound: the ``f`` used in the ``Gamma`` definition.
        tie_break_objective: optional explicit objective over ``z``.
    """

    fault_bound: int
    tie_break_objective: tuple[float, ...] | None = None

    def _objective_for(self, dimension: int) -> np.ndarray | None:
        if self.tie_break_objective is not None:
            return np.asarray(self.tie_break_objective, dtype=float)
        if dimension >= 1:
            objective = np.zeros(dimension)
            objective[0] = 1.0
            return objective
        return None

    def choose(self, points: np.ndarray | Iterable[Sequence[float]]) -> np.ndarray:
        """Return the deterministic point of ``Gamma(points)``.

        Raises :class:`EmptyIntersectionError` when the safe area is empty,
        which Lemma 1 guarantees cannot happen for ``|points| >= (d+1)f + 1``.
        """
        cloud = as_cloud(points)
        point = default_kernel.point(
            cloud, self.fault_bound, objective=self._objective_for(cloud.shape[1])
        )
        if point is None:
            raise self._empty(cloud)
        return point

    def choose_all(
        self,
        point_sets: Sequence[np.ndarray | Iterable[Sequence[float]]] | np.ndarray,
    ) -> list[np.ndarray]:
        """Each query's :meth:`choose` answer, asked as one kernel batch.

        The object runtime's round updates hand over a round's subset clouds
        at once (one shape, so at ``d <= 2`` one closed-form program answers
        every query the memo does not).  The first empty query raises the
        error :meth:`choose` raises for it.
        """
        clouds = _query_clouds(point_sets)
        if not clouds:
            return []
        chosen = default_kernel.points_batch(
            clouds, self.fault_bound, objective=self._objective_for(clouds[0].shape[1])
        )
        for cloud, point in zip(clouds, chosen):
            if point is None:
                raise self._empty(cloud)
        return chosen  # type: ignore[return-value]

    def _empty(self, cloud: np.ndarray) -> EmptyIntersectionError:
        return EmptyIntersectionError(
            f"Gamma is empty for |Y|={cloud.shape[0]}, f={self.fault_bound}, d={cloud.shape[1]}"
        )

    def resolve_multi(
        self,
        point_sets: Sequence[np.ndarray | Iterable[Sequence[float]]] | np.ndarray,
    ) -> list[np.ndarray | None]:
        """Answer many independent ``Gamma`` queries, ``None`` for empty ones.

        The multi-execution companion of :meth:`choose`: queries may come
        from *different* protocol executions (the columnar engine batches a
        whole simulation round across trials), so emptiness is reported per
        query instead of raising, letting the caller attribute it to the
        right execution.  Shapes may differ between queries, but all must
        share one dimension (the deterministic tie-break objective is built
        once).  Every result is bitwise identical to what :meth:`choose`
        would return for that query — bitwise-equal clouds are deduplicated
        and solved once.  A ``(Q, m, d)`` array of clouds is validated in
        one pass.
        """
        clouds = _query_clouds(point_sets)
        if not clouds:
            return []
        dimension = clouds[0].shape[1]
        if any(cloud.shape[1] != dimension for cloud in clouds):
            raise GeometryError("all queries of a resolve_multi call must share one dimension")
        return default_kernel.points_multi(
            clouds, self.fault_bound, objective=self._objective_for(dimension)
        )
