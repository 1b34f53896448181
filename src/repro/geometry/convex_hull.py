"""Convex hull predicates phrased as linear programs.

The constructions in the paper routinely involve convex hulls of *fewer* than
``d + 1`` points (segments, triangles and lower-dimensional faces embedded in
``R^d``), which vertex-enumeration libraries handle poorly.  Intersection
questions are therefore answered with linear programs over convex combination
weights, which are exact up to solver tolerance regardless of degeneracy, and
membership is a distance to the hull: in closed form on the line and in the
plane, a linear program from three dimensions on.

The central objects are:

* :func:`contains_point` — is a point within ``1e-6`` of ``H(Y)``, by
  :func:`distance_to_hull`?
* :func:`hulls_intersection_point` — a common point of several hulls, if any.
* :func:`distance_to_hull` — Chebyshev distance from a point to a hull, used by
  the validity checker to report how badly a decision misses the honest hull
  (in closed form on the line and in the plane, where the hull is an interval
  or a polygon).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.kernel import _hull_intersection_system, _planar_sweep
from repro.geometry.linprog import solve_linear_program
from repro.geometry.points import as_cloud, as_point

__all__ = [
    "contains_point",
    "hulls_intersection_point",
    "distance_to_hull",
]

#: :func:`contains_point` counts a target this close to the hull as inside.
_MEMBERSHIP_TOLERANCE = 1e-6


def contains_point(
    points: np.ndarray | Iterable[Sequence[float]],
    target: Sequence[float],
) -> bool:
    """Return True when ``target`` lies within ``1e-6`` of the convex hull of
    ``points`` (Chebyshev distance, :func:`distance_to_hull`)."""
    return distance_to_hull(points, target) <= _MEMBERSHIP_TOLERANCE


def hulls_intersection_point(
    point_sets: Sequence[np.ndarray | Iterable[Sequence[float]]],
) -> np.ndarray | None:
    """Return a point common to the convex hulls of every set, or ``None``.

    This is a single feasibility LP: one block of convex-combination weights
    per hull, all constrained to reproduce the same point ``z`` (the system
    the kernel solves for ``Gamma``, :func:`_hull_intersection_system`).  It
    is the work-horse behind the impossibility constructions (Theorem 1 /
    Theorem 4 in the paper) and the Tverberg witness.
    """
    clouds = [as_cloud(point_set) for point_set in point_sets]
    if not clouds:
        raise GeometryError("need at least one hull to intersect")
    dimensions = {cloud.shape[1] for cloud in clouds}
    if len(dimensions) != 1:
        raise GeometryError(f"hulls live in different dimensions: {sorted(dimensions)}")
    if any(cloud.shape[0] == 0 for cloud in clouds):
        return None
    dimension = dimensions.pop()

    matrix, rhs, bounds = _hull_intersection_system(
        np.concatenate(clouds), np.asarray([cloud.shape[0] for cloud in clouds])
    )
    result = solve_linear_program(
        np.zeros(matrix.shape[1]), equality_matrix=matrix, equality_rhs=rhs, bounds=bounds
    )
    if not result.feasible or result.solution is None:
        return None
    candidate = result.solution[:dimension]
    # Sanity re-check: the candidate must be in every hull individually.
    for cloud in clouds:
        if not contains_point(cloud, candidate):
            return None
    return candidate


def distance_to_hull(
    points: np.ndarray | Iterable[Sequence[float]],
    target: Sequence[float],
) -> float:
    """Return the Chebyshev distance from ``target`` to the convex hull of ``points``.

    Zero when the target is inside the hull.  In one dimension it is the
    distance to the interval ``[min, max]``; in two it is the smallest
    distance to an edge of the hull polygon (:func:`_planar_hull_distance`);
    from three dimensions on it is the LP of :func:`_hull_distance_program`.
    """
    cloud = as_cloud(points)
    if cloud.shape[0] == 0:
        raise GeometryError("distance to the hull of an empty set is undefined")
    target = as_point(target, dimension=cloud.shape[1])
    if cloud.shape[1] == 1:
        return max(0.0, float(cloud.min() - target[0]), float(target[0] - cloud.max()))
    if cloud.shape[1] == 2:
        return _planar_hull_distance(cloud, target)
    result = solve_linear_program(**_hull_distance_program(cloud, target))
    if not result.feasible or result.objective is None:
        raise GeometryError("distance-to-hull program unexpectedly infeasible")
    return max(0.0, float(result.objective))


def _hull_distance_program(cloud: np.ndarray, target: np.ndarray) -> dict[str, object]:
    """The Chebyshev distance as an LP over the weights ``alpha`` and ``t``::

        minimise t
        subject to  -t <= (cloud.T @ alpha - target)_l <= t   for every l
                    sum(alpha) = 1,  alpha >= 0,  t >= 0

    The ``2d`` inequality rows come in coordinate order, each coordinate's
    ``+`` row before its ``-`` row.
    """
    point_count, dimension = cloud.shape
    objective = np.zeros(point_count + 1)
    objective[-1] = 1.0
    rows = np.empty((dimension, 2, point_count + 1))
    rows[:, 0, :point_count] = cloud.T
    rows[:, 1, :point_count] = -cloud.T
    rows[:, :, point_count] = -1.0
    equality_matrix = np.zeros((1, point_count + 1))
    equality_matrix[0, :point_count] = 1.0
    return dict(
        objective=objective,
        inequality_matrix=rows.reshape(2 * dimension, point_count + 1),
        inequality_rhs=np.column_stack([target, -target]).ravel(),
        equality_matrix=equality_matrix,
        equality_rhs=np.asarray([1.0]),
        bounds=(np.zeros(point_count + 1), np.full(point_count + 1, np.inf)),  # all >= 0
    )


def _planar_hull_distance(cloud: np.ndarray, target: np.ndarray) -> float:
    """Chebyshev distance from ``target`` to the hull of a planar ``cloud``.

    The rotating sweep's extreme member per arc walks the hull's vertices
    counter-clockwise.  A target on the inner side of every edge of a hull
    with three or more vertices is inside (distance ``0.0``); otherwise the
    distance is the smallest over the edges of the distance to a segment
    ``a + s (b - a)``, ``s`` in ``[0, 1]``.  That is a convex piecewise-linear
    function of ``s``, so its minimum sits at an end of the segment or where
    a coordinate gap vanishes or the two gaps are equal in size.
    """
    sweep = _planar_sweep(cloud)
    extreme = cloud[:1] if sweep is None else cloud[np.argmax(cloud @ sweep[1].T, axis=0)]
    vertices = extreme[(extreme != extreme[np.arange(-1, extreme.shape[0] - 1)]).any(axis=1)]
    if vertices.shape[0] == 0:  # one member, or members too close for the sweep to part
        vertices = extreme[:1]
    count = vertices.shape[0]
    edges = vertices[np.arange(1, count + 1) % count] - vertices
    gaps = vertices - target  # each edge's start, seen from the target
    if count >= 3 and (edges[:, 1] * gaps[:, 0] - edges[:, 0] * gaps[:, 1] >= 0.0).all():
        return 0.0
    steps = np.empty((count, 6))
    steps[:, 0], steps[:, 1] = 0.0, 1.0
    with np.errstate(all="ignore"):
        steps[:, 2] = -gaps[:, 0] / edges[:, 0]
        steps[:, 3] = -gaps[:, 1] / edges[:, 1]
        steps[:, 4] = (gaps[:, 1] - gaps[:, 0]) / (edges[:, 0] - edges[:, 1])
        steps[:, 5] = -(gaps[:, 0] + gaps[:, 1]) / (edges[:, 0] + edges[:, 1])
    steps[~np.isfinite(steps)] = 0.0
    np.clip(steps, 0.0, 1.0, out=steps)
    distances = np.maximum(
        np.abs(gaps[:, :1] + steps * edges[:, :1]), np.abs(gaps[:, 1:] + steps * edges[:, 1:])
    )
    return float(distances.min())
