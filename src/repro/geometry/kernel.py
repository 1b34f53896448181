"""Batched, cached geometry kernel for the safe area ``Gamma(Y)``.

Every protocol in this repository bottoms out in the same computation: pick a
point of the safe area ``Gamma(Y)`` of Equation (1), the intersection of the
convex hulls of all ``(|Y| - f)``-subsets of a multiset ``Y``.  The literal
Section 2.2 linear program enumerates all ``C(|Y|, |Y| - f)`` subsets and
assembles one dense constraint block per subset, which is both exponential in
``f`` and rebuilt from scratch on every call.  This module is the production
path around that bottleneck; :func:`repro.core.safe_area.safe_area_point`
remains the unoptimised oracle it is validated against.

Four independent optimisations, composed by :class:`GammaKernel`:

* **No LP at** ``d <= 2``.  ``Gamma`` is the Tukey-depth-``(f+1)`` region of
  ``Y``.  On the line that is the trimmed interval; in the plane it is the
  intersection of a few dozen halfplanes read off the rotating sweep below,
  and the objective is minimised over them by LP duality in numpy, with the
  chosen vertex checked against every halfplane (a free optimality
  certificate, :func:`_planar_gamma_point`).  Ties on the objective go to
  the lexicographic minimum, a rule that needs no solver.  A query whose
  certificate fails takes the relaxed program, so an empty ``Gamma`` is
  still reported.

* **Subset pruning** (the Appendix F idea applied to the LP itself).
  ``Gamma`` is an intersection of hulls, and most hulls are redundant:

  - ``d = 1``: ``Gamma`` is exactly the order-statistic interval
    ``[y_(f+1), y_(|Y|-f)]``, so two subsets suffice — drop the ``f``
    largest members, and drop the ``f`` smallest.
  - ``d = 2``: a subset's hull constraint can only bind when the ``f``
    dropped members are *linearly separable* from the kept ones (if a point
    ``z`` falls outside some kept hull, a separating line exists, and the
    members on ``z``'s side — at most ``f`` of them — extend to the ``f``
    extreme members of some direction).  The distinct "``f`` most extreme in
    direction ``u``" sets are enumerated exactly by a rotating sweep whose
    event angles are perpendicular to member differences: ``O(|Y|^2)``
    subsets instead of ``C(|Y|, |Y|-f)``.
  - ``d >= 3``: subsets whose member *values* contain another subset's
    values have a larger hull and are dropped (duplicate members make this
    common once the iterative algorithms start collapsing states).

  All three prunings preserve ``Gamma`` exactly — they remove constraint
  blocks whose hull provably contains a remaining block's hull.  The LP runs
  on the pruned family at ``d >= 3``; the relaxed program and explicit
  families use it at every ``d``.

* **Constraint-template caching**.  The sparsity pattern of the Section 2.2
  LP depends only on the shape ``(block count, block size, dimension)`` — not
  on the coordinates.  The kernel assembles the CSC index structure once per
  shape, caches it, and on subsequent calls only scatters the fresh
  coordinates into the cached template's data vector.

* **Answer memoisation**.  The paper's algorithms have every non-faulty
  process apply the same deterministic rule to the same multiset, so a
  literal per-process simulation asks bitwise-identical queries many times
  over.  A bounded memo keyed on the query's exact bytes returns the answer
  of the first solve instead of repeating it (contract on
  :class:`GammaKernel`).

At ``d >= 3`` the kernel mirrors the oracle's semantics bit-for-bit where
the oracle is well-behaved, including the relaxed minimum-slack re-solve
used to distinguish genuinely empty safe areas from floating-point
infeasibility; at ``d <= 2`` it agrees with the oracle's optimum to within
the certificate's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Any, Sequence

import numpy as np
from scipy.sparse import csc_matrix

from repro.exceptions import GeometryError, LinearProgramError
from repro.geometry.points import as_cloud, as_point
from repro.obs.registry import get_registry

__all__ = [
    "GammaKernel",
    "default_kernel",
    "full_subset_family",
    "halfspace_depth",
    "pruned_subset_family",
    "safe_area_interval_1d",
]

#: Relative tolerance accepted by the minimum-slack fallback before declaring
#: the safe area genuinely empty (matches the oracle in ``core.safe_area``).
_SLACK_TOLERANCE = 1e-6

#: Slack, relative to the cloud's spread about its centroid (``max |y - ȳ|``),
#: within which a closed-form vertex counts as satisfying a halfplane of
#: ``Gamma`` and as lying on the dual bound, on top of the vertex's own
#: rounding: the certificate's tolerance.
_CERTIFICATE_TOLERANCE = 1e-12

#: ``|sin|`` of the angle below which a halfplane normal counts as parallel
#: to the objective, or to an axis, so that the lexicographic rule and not
#: the rounding of cos/sin decides which side of it the normal lies on.
_PARALLEL_TOLERANCE = 1e-14

#: Smallest ``|sin|`` of the angle between two halfplane normals for their
#: vertex to enter the dual bound.  Rounding moves a vertex by ~1e-16 of the
#: spread over ``|sin|``, so at this bound it stays within ~1e-10 of it; a
#: vertex only flatter pairs define is left to the relaxed program.
_MIN_BRACKET_SINE = 1e-5

#: Rounding a closed-form vertex may carry, per unit of length over the
#: ``sin`` of its pair's angle: a few ulps of every product and quotient.
_ROUNDING = 8.0 * np.finfo(float).eps

_AXES = np.asarray([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

#: Bound on the answer memo, in entries (one per distinct query).  The
#: repeats it serves sit inside one trial — the census in
#: ``docs/PERFORMANCE.md`` ("Repeated queries") found 77 % of
#: ``exact`` queries, 95 % of ``approx`` batches and 61 % of capped
#: ``restricted_async`` queries to repeat an earlier one of the same trial —
#: and the busiest trial shape asks a few hundred distinct queries, so 8192
#: holds many trials' worth (measured ~0.6 KB per entry at protocol sizes);
#: a full table is flushed whole rather than aged out.
_MEMO_LIMIT = 8192

#: Lookup sentinel: ``None`` is a memoised answer (an empty ``Gamma``).
_MISS = object()


def _private_copy(answer: np.ndarray | None) -> np.ndarray | None:
    """An answer nobody else holds: what the memo stores and what it hands out."""
    return None if answer is None else answer.copy()


# ---------------------------------------------------------------------------
# Cloud coercion
# ---------------------------------------------------------------------------

def _as_cloud_array(points: object) -> np.ndarray:
    """Coerce a PointMultiset / array / nested sequence to a ``(k, d)`` array."""
    cloud = getattr(points, "points", points)
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim == 1:
        cloud = cloud.reshape(-1, 1) if cloud.size else cloud.reshape(0, 1)
    if cloud.ndim != 2:
        raise GeometryError(f"point cloud must be 2-dimensional, got shape {cloud.shape}")
    return cloud


# ---------------------------------------------------------------------------
# Subset families (full enumeration + Appendix F-style pruning)
# ---------------------------------------------------------------------------

def full_subset_family(point_count: int, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """All index subsets of size ``point_count - fault_bound`` — the Eq. (1) family."""
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    subset_size = point_count - fault_bound
    if subset_size <= 0:
        return ()
    return tuple(combinations(range(point_count), subset_size))


def safe_area_interval_1d(
    values: np.ndarray | Sequence[float], fault_bound: int
) -> tuple[float, float] | None:
    """Closed form for ``Gamma`` in one dimension: the f-trimmed interval.

    For scalars the hull of a subset is ``[min, max]``, so the intersection
    over all ``(m - f)``-subsets is ``[v_(f+1), v_(m-f)]`` in sorted order
    (1-indexed): the lower end is achieved by dropping the ``f`` smallest
    members, the upper end by dropping the ``f`` largest.  Returns ``None``
    when the interval is empty (``m < 2f + 1``) or no members remain.
    """
    sorted_values = np.sort(np.asarray(values, dtype=float).ravel())
    member_count = sorted_values.shape[0]
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if member_count == 0 or member_count - fault_bound <= 0:
        return None
    if fault_bound == 0:
        return float(sorted_values[0]), float(sorted_values[-1])
    if member_count - 2 * fault_bound < 1:
        return None
    return (
        float(sorted_values[fault_bound]),
        float(sorted_values[member_count - fault_bound - 1]),
    )


def _family_1d(cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """The two binding subsets on the line: drop-f-smallest and drop-f-largest."""
    point_count = cloud.shape[0]
    order = np.lexsort((np.arange(point_count), cloud[:, 0]))
    keep_low = tuple(sorted(order[: point_count - fault_bound].tolist()))
    keep_high = tuple(sorted(order[fault_bound:].tolist()))
    return (keep_low,) if keep_low == keep_high else (keep_low, keep_high)


@lru_cache(maxsize=64)
def _upper_pairs(point_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(point_count, k=1)``, cached per count (read-only)."""
    return np.triu_indices(point_count, k=1)


def _unit_directions(angles: np.ndarray) -> np.ndarray:
    directions = np.empty((angles.shape[0], 2))
    np.cos(angles, out=directions[:, 0])
    np.sin(angles, out=directions[:, 1])
    return directions


def _planar_sweep(cloud: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The rotating sweep's event angles and one direction per arc between them.

    As a direction ``u`` rotates, the projection order of two distinct members
    changes only at the two angles perpendicular to their difference, so
    between consecutive event angles the whole order is constant.  Returns the
    sorted distinct event angles in ``[0, 2π)`` and the unit direction at the
    middle of each arc (arc ``k`` runs from event ``k`` to event ``k + 1``,
    the last one wrapping around), or ``None`` when all members coincide.
    """
    upper_i, upper_j = _upper_pairs(cloud.shape[0])
    differences = cloud[upper_j] - cloud[upper_i]
    differences = differences[(differences != 0.0).any(axis=1)]
    if differences.shape[0] == 0:
        return None
    half = np.mod(np.arctan2(differences[:, 1], differences[:, 0]) + 0.5 * np.pi, np.pi)
    events = np.concatenate([half, half + np.pi])
    events.sort()  # and keep the first of each run of equal angles, as np.unique does
    events = events[np.concatenate(([True], events[1:] != events[:-1]))]
    midpoints = np.empty_like(events)
    midpoints[:-1] = (events[:-1] + events[1:]) / 2.0
    midpoints[-1] = (events[-1] + events[0] + 2.0 * np.pi) / 2.0
    return events, _unit_directions(midpoints)


def _family_2d(cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """Rotating-sweep enumeration of the binding subsets in the plane.

    The candidate drop sets are exactly the "``f`` most extreme members in
    direction ``u``" sets, and between consecutive event angles of
    :func:`_planar_sweep` the drop set is constant, so one interior direction
    per arc enumerates every distinct set.  Ties inside an arc can only come
    from coincident members, and dropping either copy yields the same hull, so
    a fixed index tie-break is exact.
    """
    point_count = cloud.shape[0]
    sweep = _planar_sweep(cloud)
    directions = np.asarray([[1.0, 0.0]]) if sweep is None else sweep[1]
    projections = cloud @ directions.T
    # Per direction, the f members of largest projection, ties to the lowest
    # index.  Distinct drop sets (f members each) are far cheaper to tell
    # apart than the kept sets they determine.
    if fault_bound == 1:
        # argmax returns the first maximum: the stable sort's tie-break.
        drops = np.unique(np.argmax(projections, axis=0))[:, None]
    else:
        order = np.argsort(-projections, axis=0, kind="stable")
        drops = np.asarray(
            [tuple(drop) for drop in {frozenset(column) for column in order[:fault_bound].T.tolist()}]
        )
    kept = np.ones((drops.shape[0], point_count), dtype=bool)
    kept[np.arange(drops.shape[0])[:, None], drops] = False
    members = np.nonzero(kept)[1].reshape(drops.shape[0], point_count - fault_bound)
    return tuple(sorted(map(tuple, members.tolist())))


def _planar_gamma_point(
    cloud: np.ndarray, fault_bound: int, objective: np.ndarray
) -> np.ndarray | None:
    """The optimal point of ``Gamma`` in the plane, in closed form, or ``None``.

    ``Gamma`` is the Tukey-depth-``(f+1)`` region ``{z : u.z <= k(u)}`` over
    unit directions ``u``, where ``k(u)`` is the ``(f+1)``-th largest member
    projection.  On an arc of :func:`_planar_sweep` that member is one fixed
    point ``y``, so ``k(u) = u.y`` is linear there, and over any stretch of
    arcs with one member and less than ``π`` long the constraints reduce to
    those at its two ends.  ``Gamma`` is therefore exactly the intersection
    of the halfplanes at every event where the member changes (the line
    through the two members) and at the middle of each run of one member
    (which keeps every stretch below ``π``); with no change at all ``Gamma``
    is that member alone.

    The objective is minimised over those halfplanes by LP duality, with
    ties broken by the perturbed objective ``c + δ e1 + δ² e2`` (``δ -> 0+``),
    whose unique optimum is the lexicographic minimum of ``c``'s optimal set:
    the smallest ``c.v``, then ``x``, then ``y`` — so a zero objective asks
    for the lexicographic minimum of ``Gamma``.  Every pair of halfplanes
    whose normals bracket the perturbed ``-c`` has a vertex that bounds that
    optimum from below, so a vertex meeting the best bound and every
    halfplane is the optimum: the dual bound plus primal feasibility certify
    it.  Both checks allow each vertex its own rounding on top of
    :data:`_CERTIFICATE_TOLERANCE` of the cloud's spread about its centroid,
    the frame everything is computed in (a tight cluster far from the origin
    keeps its precision); the answer is the lexicographically smallest
    certified vertex.  ``None`` means no vertex passed — ``Gamma`` is empty
    or numerically degenerate — and the caller takes the relaxed program.
    """
    rank = cloud.shape[0] - fault_bound - 1  # ascending position of the (f+1)-th largest
    sweep = _planar_sweep(cloud)
    if sweep is None:
        return cloud[0].copy()
    events, arc_directions = sweep
    members = cloud[np.argpartition(arc_directions @ cloud.T, rank, axis=1)[:, rank]]
    changes = (members != members[np.arange(-1, members.shape[0] - 1)]).any(axis=1)
    if not changes.any():
        return members[0].copy()
    turns = events[changes]
    halves = (turns + np.concatenate((turns[1:], turns[:1] + 2.0 * np.pi))) / 2.0
    # The axes are halfplanes of Gamma too: they keep every gap below π when
    # rounding splits one event in two and a tie in the sliver between the
    # copies reads as a change (a repeated member beside one outlier does).
    normals = np.concatenate((_unit_directions(np.concatenate((turns, halves))), _AXES))
    centre = cloud.sum(axis=0) / cloud.shape[0]
    local = cloud - centre
    offsets = np.partition(normals @ local.T, rank, axis=1)[:, rank]

    # Which side of -c each normal lies on: the sign of cross(-c, normal),
    # or, for a normal parallel to -c up to rounding (an axis normal comes
    # out of cos/sin tilted by ~1e-16), the side of -e1, then of -e2.
    size = max(abs(objective[0]), abs(objective[1]))
    lean = normals @ np.asarray([objective[1], -objective[0]])
    parallel = np.abs(lean) <= _PARALLEL_TOLERANCE * size
    if parallel.any():
        tilt = normals[parallel]
        lean[parallel] = np.where(np.abs(tilt[:, 1]) > _PARALLEL_TOLERANCE, -tilt[:, 1], tilt[:, 0])
    # -c = a * u + b * w with a, b > 0: u on the negative side, w on the
    # positive side and less than π after it.
    below = lean < 0.0
    u, w = normals[below], normals[~below]
    offset_u, offset_w = offsets[below], offsets[~below]
    sines = u[:, :1] * w[:, 1] - u[:, 1:] * w[:, 0]
    rows, cols = np.nonzero(sines >= _MIN_BRACKET_SINE)
    if rows.size == 0:
        return None
    u, w, sine = u[rows], w[cols], sines[rows, cols]
    offset_u, offset_w = offset_u[rows], offset_w[cols]
    vertices = np.empty((rows.size, 2))
    vertices[:, 0] = (offset_u * w[:, 1] - offset_w * u[:, 1]) / sine
    vertices[:, 1] = (u[:, 0] * offset_w - w[:, 0] * offset_u) / sine
    values = vertices @ objective

    # What each vertex may be off by: the certificate's tolerance plus its
    # own rounding, which grows as 1 / sine.
    scale = np.abs(local).max()
    error = _CERTIFICATE_TOLERANCE * scale + (
        _ROUNDING * (scale + np.abs(vertices).max(axis=1)) / sine
    )
    on_bound = values >= (values - size * error).max() - size * error
    vertices, values, error = vertices[on_bound], values[on_bound], error[on_bound]
    certified = np.flatnonzero((vertices @ normals.T - offsets).max(axis=1) <= error)
    if certified.size == 0:
        return None
    order = np.lexsort((vertices[certified, 1], vertices[certified, 0], values[certified]))
    best = certified[order[0]]
    # Many vertices of Gamma are members: a member within the vertex's own
    # error that passes the same check is that vertex, without the rounding.
    gaps = np.abs(local - vertices[best]).max(axis=1)
    nearest = gaps.argmin()
    if gaps[nearest] <= error[best] and (normals @ local[nearest] - offsets).max() <= error[best]:
        return cloud[nearest].copy()
    return centre + vertices[best]


def _family_dedupe_dominated(
    cloud: np.ndarray, families: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Drop subsets whose member values contain another subset's values.

    ``conv(A) ⊆ conv(B)`` whenever the distinct values of ``A`` are a subset
    of the distinct values of ``B``, making ``B``'s constraint redundant in
    the intersection.  Only effective when the multiset has duplicate members
    (the general-position case is returned unchanged).
    """
    # Label members by value through one lexicographic row sort (what
    # ``np.unique(axis=0)`` computes, without its structured-dtype sort).
    order = np.lexsort(cloud.T[::-1])
    ranked = cloud[order]
    starts_new_value = np.any(ranked[1:] != ranked[:-1], axis=1)
    if starts_new_value.all():
        return tuple(families)
    value_ids = np.empty(cloud.shape[0], dtype=np.int64)
    value_ids[order] = np.concatenate(([0], np.cumsum(starts_new_value)))
    value_sets = [frozenset(row) for row in value_ids[np.asarray(families)].tolist()]
    # Smaller value sets first: a set can only be dominated by a strictly
    # smaller (or equal, earlier-kept) one.
    order = sorted(range(len(families)), key=lambda k: (len(value_sets[k]), families[k]))
    kept: list[int] = []
    kept_sets: list[frozenset[int]] = []
    for index in order:
        candidate = value_sets[index]
        if any(kept_set <= candidate for kept_set in kept_sets):
            continue
        kept.append(index)
        kept_sets.append(candidate)
    return tuple(families[index] for index in sorted(kept))


def pruned_subset_family(
    points: object, fault_bound: int
) -> tuple[tuple[int, ...], ...]:
    """Return an exact reduced subset family for ``Gamma(points)``.

    The intersection of the returned subsets' hulls equals ``Gamma`` — the
    pruning only removes provably redundant constraint blocks.  Dimension 1
    uses the order-statistic closed form (2 subsets), dimension 2 the
    rotating sweep (``O(|Y|^2)`` subsets), higher dimensions the duplicate /
    domination collapse of the full enumeration.
    """
    cloud = _as_cloud_array(points)
    point_count, dimension = cloud.shape
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if fault_bound == 0 or point_count - fault_bound <= 0:
        return full_subset_family(point_count, fault_bound)
    if dimension == 1:
        return _family_1d(cloud, fault_bound)
    if dimension == 2:
        return _family_dedupe_dominated(cloud, _family_2d(cloud, fault_bound))
    return _family_dedupe_dominated(cloud, full_subset_family(point_count, fault_bound))


def halfspace_depth(cloud: np.ndarray | Sequence[Sequence[float]], candidate: Sequence[float]) -> int:
    """Return the Tukey depth of ``candidate`` with respect to ``cloud``.

    The depth is the minimum, over all closed halfspaces containing the
    candidate, of the number of cloud points in the halfspace (a point within
    ``1e-9`` of the boundary counts as inside).  In the plane it is exact: as
    the boundary line turns about the candidate its count only changes when
    the line passes a member, and on the boundary a member is counted, so
    one direction inside each arc between those angles — one angular sort —
    reaches the minimum.  Otherwise the depth is evaluated by enumerating
    candidate normal directions: the coordinate axes, the directions
    determined by hyperplanes through the candidate and ``d - 1`` cloud
    points, and small perturbations of those directions (the perturbations
    matter because the minimising halfspace generically has *no* cloud point
    on its boundary other than possibly the candidate).  For the small,
    low-dimensional clouds this package uses, the enumeration is exact.

    ``Gamma(Y)`` for fault bound ``f`` is exactly the set of points of depth
    at least ``f + 1`` (a point leaves some ``(|Y| - f)``-subset's hull iff a
    closed halfspace through it holds at most ``f`` members), so this is the
    solver-independent check of a kernel answer.
    """
    cloud = as_cloud(cloud)
    candidate = as_point(candidate, dimension=cloud.shape[1])
    point_count, dimension = cloud.shape
    if point_count == 0:
        return 0
    if dimension == 2:
        away = cloud - candidate
        away = away[np.any(away != 0.0, axis=1)]
        if away.shape[0] == 0:
            return point_count
        turns = np.unique(np.mod(np.arctan2(away[:, 1], away[:, 0]) + 0.5 * np.pi, np.pi))
        turns = np.concatenate([turns, turns + np.pi])
        normals = _unit_directions((turns + np.append(turns[1:], turns[0] + 2.0 * np.pi)) / 2.0)
        inside = cloud @ normals.T >= (normals @ candidate - 1e-9)[None, :]
        return int(inside.sum(axis=0).min())

    def depth_along(normal: np.ndarray) -> int:
        norm = float(np.linalg.norm(normal))
        if norm <= 1e-12:
            return point_count
        normal = normal / norm
        offsets = cloud @ normal
        candidate_offset = float(candidate @ normal)
        # Halfspace { x : normal.x >= candidate_offset } contains the candidate on
        # its boundary; count the cloud points it contains.
        return int(np.sum(offsets >= candidate_offset - 1e-9))

    perturbation = 1e-6
    axes = [np.eye(dimension)[coordinate] for coordinate in range(dimension)]

    def with_perturbations(normal: np.ndarray) -> list[np.ndarray]:
        variants = [normal]
        for axis in axes:
            variants.append(normal + perturbation * axis)
            variants.append(normal - perturbation * axis)
        return variants

    best = point_count
    directions: list[np.ndarray] = []
    for axis in axes:
        directions.extend(with_perturbations(axis))
    # Directions of candidate-to-point vectors (useful in every dimension).
    for row in cloud:
        difference = row - candidate
        if np.linalg.norm(difference) > 1e-12:
            directions.extend(with_perturbations(difference))
    # Directions normal to hyperplanes through the candidate and d-1 cloud points.
    if dimension >= 2:
        for subset in combinations(range(point_count), dimension - 1):
            matrix = cloud[list(subset)] - candidate
            _, _, vh = np.linalg.svd(np.vstack([matrix, np.zeros((1, dimension))]))
            directions.extend(with_perturbations(vh[-1]))

    for direction in directions:
        best = min(best, depth_along(direction), depth_along(-direction))
        if best == 0:
            break
    return best


def _validate_explicit_families(
    families: Sequence[Sequence[int]], point_count: int, subset_size: int
) -> tuple[tuple[int, ...], ...]:
    if not families:
        raise GeometryError("explicit subset family must not be empty")
    validated: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for indices in families:
        family = tuple(sorted(int(index) for index in indices))
        if len(family) != subset_size:
            raise GeometryError(
                f"explicit subset {family} does not have size |Y| - f = {subset_size}"
            )
        if any(index < 0 or index >= point_count for index in family):
            raise GeometryError(f"explicit subset {family} has out-of-range indices")
        if family not in seen:
            seen.add(family)
            validated.append(family)
    return tuple(validated)


# ---------------------------------------------------------------------------
# Constraint templates (cached per LP shape)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ConstraintTemplate:
    """Pre-assembled CSC structure of the Section 2.2 LP for one shape.

    The LP's variables are ``z`` (``dimension`` free coordinates) followed by
    one non-negative convex-weight block of ``block_size`` entries per subset.
    Per subset the equality rows are ``z - Y_T^T alpha = 0`` (``dimension``
    rows) and ``sum(alpha) = 1`` (one row).  Everything below is coordinate
    independent; only the ``-Y_T`` entries change between calls, and their
    positions in COO order are recorded in ``cloud_slots``.
    """

    block_count: int
    block_size: int
    dimension: int
    shape: tuple[int, int]
    indices: np.ndarray  # CSC row indices
    indptr: np.ndarray  # CSC column pointers
    permutation: np.ndarray  # COO-order -> CSC-order data permutation
    static_data: np.ndarray  # COO-order data with zeros at cloud slots
    cloud_slots: np.ndarray  # COO-order positions of the -Y_T entries
    rhs: np.ndarray
    col_lower: np.ndarray  # -inf for z, 0 for the convex weights
    col_upper: np.ndarray  # +inf throughout

    @property
    def variable_count(self) -> int:
        return self.shape[1]

    def matrix_for(self, cloud: np.ndarray, families_flat: np.ndarray) -> csc_matrix:
        """Scatter ``cloud`` into the cached structure and return ``A_eq``.

        ``families_flat`` is the ``(block_count, block_size)`` integer array of
        member indices; the COO data order per block is ``d`` coordinate rows
        of ``(1.0, -Y_T[:, c])`` followed by the ``sum(alpha) = 1`` row.
        """
        data = self.static_data.copy()
        # (B, s, d) gather -> (B, d, s) to match the per-coordinate row order.
        data[self.cloud_slots] = -cloud[families_flat].transpose(0, 2, 1).ravel()
        return csc_matrix(
            (data[self.permutation], self.indices, self.indptr), shape=self.shape
        )


def _variable_bounds(dimension: int, weight_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of the Section 2.2 LP: free ``z``, non-negative weights."""
    lower = np.zeros(dimension + weight_count)
    lower[:dimension] = -np.inf
    return lower, np.full(dimension + weight_count, np.inf)


def _build_template(block_count: int, block_size: int, dimension: int) -> _ConstraintTemplate:
    """Assemble the COO/CSC index structure for one ``(B, s, d)`` LP shape."""
    entries_per_block = dimension * (1 + block_size) + block_size
    total_entries = block_count * entries_per_block
    rows = np.empty(total_entries, dtype=np.int64)
    cols = np.empty(total_entries, dtype=np.int64)
    static = np.zeros(total_entries, dtype=float)
    cloud_slot_mask = np.zeros(total_entries, dtype=bool)

    block_slot = np.arange(block_size)
    cursor = 0
    # One COO segment layout per block, vectorised over blocks below.
    segment_rows = np.empty(entries_per_block, dtype=np.int64)
    segment_cols = np.empty(entries_per_block, dtype=np.int64)
    segment_static = np.zeros(entries_per_block, dtype=float)
    segment_cloud = np.zeros(entries_per_block, dtype=bool)
    position = 0
    for coordinate in range(dimension):
        segment_rows[position] = coordinate
        segment_cols[position] = coordinate  # z coefficient (column set per block: constant)
        segment_static[position] = 1.0
        position += 1
        segment_rows[position : position + block_size] = coordinate
        segment_cols[position : position + block_size] = block_slot  # offset added per block
        segment_cloud[position : position + block_size] = True
        position += block_size
    segment_rows[position : position + block_size] = dimension
    segment_cols[position : position + block_size] = block_slot
    segment_static[position : position + block_size] = 1.0
    position += block_size

    alpha_entry = segment_cloud | (segment_rows == dimension)
    for block in range(block_count):
        row_base = block * (dimension + 1)
        col_base = dimension + block * block_size
        view = slice(cursor, cursor + entries_per_block)
        rows[view] = segment_rows + row_base
        cols[view] = np.where(alpha_entry, segment_cols + col_base, segment_cols)
        static[view] = segment_static
        cloud_slot_mask[view] = segment_cloud
        cursor += entries_per_block

    row_count = block_count * (dimension + 1)
    variable_count = dimension + block_count * block_size
    shape = (row_count, variable_count)

    # Derive the COO -> CSC permutation once: convert index-valued data.
    tracker = csc_matrix((np.arange(total_entries, dtype=float), (rows, cols)), shape=shape)
    permutation = tracker.data.astype(np.int64)

    rhs = np.tile(np.concatenate([np.zeros(dimension), [1.0]]), block_count)
    col_lower, col_upper = _variable_bounds(dimension, block_count * block_size)
    return _ConstraintTemplate(
        block_count=block_count,
        block_size=block_size,
        dimension=dimension,
        shape=shape,
        indices=tracker.indices.copy(),
        indptr=tracker.indptr.copy(),
        permutation=permutation,
        static_data=static,
        cloud_slots=np.flatnonzero(cloud_slot_mask),
        rhs=rhs,
        col_lower=col_lower,
        col_upper=col_upper,
    )


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

class GammaKernel:
    """Batched, cached solver for safe-area queries.

    A kernel instance owns a bounded template cache and a bounded answer
    memo, and counts its events into ``repro_kernel_events_total``; the
    module-level :data:`default_kernel` is shared by the protocol code.  All
    methods are deterministic: the same inputs produce the same outputs on
    every process, which the consensus algorithms require for agreement.

    **Answer memo.**  A query already solved by this kernel is returned, not
    re-solved, and the memo may only hand back what a cold solve of the same
    query returns:

    * every query is keyed on ``(f, cloud shape, cloud bytes, objective
      bytes)`` — bitwise, so ``-0.0`` and ``0.0`` are different queries —
      whether it arrives through :meth:`point`, :meth:`points_batch` or
      :meth:`points_multi`, which all answer each query as :meth:`point`
      does;
    * queries with an explicit ``subset_indices`` family bypass the memo;
    * answers are stored and handed out as copies, an empty ``Gamma``
      (``None``) is an answer like any other, and a query that raises stores
      nothing — the next identical query raises again from a fresh solve;
    * the table holds at most :data:`_MEMO_LIMIT` entries, is flushed whole
      when full, and is emptied by :meth:`clear_cache`.

    The memo takes no lock: every step is a single atomic dict operation on
    values nobody mutates, so threads sharing one kernel (the server's
    campaign threads share :data:`default_kernel`) can at worst both solve a
    query neither had stored yet, or overshoot the bound by one entry per
    racing thread — whereas a lock could be inherited held by a pool worker
    forked mid-store.

    Args:
        max_cached_templates: bound on distinct LP shapes kept alive (the
            protocols only ever touch a handful; the bound guards pathological
            sweeps over many configurations).
    """

    def __init__(self, max_cached_templates: int = 64) -> None:
        if max_cached_templates < 1:
            raise GeometryError("the template cache must hold at least one shape")
        self._max_cached_templates = max_cached_templates
        self._templates: dict[tuple[int, int, int], _ConstraintTemplate] = {}
        self._memo: dict[tuple, np.ndarray | None] = {}

    # -- cache -------------------------------------------------------------------

    @property
    def template_cache_size(self) -> int:
        """Number of LP constraint templates currently cached."""
        return len(self._templates)

    @property
    def memo_size(self) -> int:
        """Number of answers currently held by the answer memo."""
        return len(self._memo)

    def clear_cache(self) -> None:
        self._templates.clear()
        self._memo.clear()

    def _memo_store(self, key: tuple, answer: object) -> None:
        """Remember ``answer`` (already a private copy) as the result of ``key``."""
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
            _EVENTS["memo_evictions"].inc()
        self._memo[key] = answer

    def _template(self, block_count: int, block_size: int, dimension: int) -> _ConstraintTemplate:
        key = (block_count, block_size, dimension)
        template = self._templates.get(key)
        if template is not None:
            _EVENTS["template_hits"].inc()
            # Move-to-end so eviction below is least-recently-used.
            self._templates[key] = self._templates.pop(key)
            return template
        _EVENTS["template_misses"].inc()
        template = _build_template(block_count, block_size, dimension)
        if len(self._templates) >= self._max_cached_templates:
            self._templates.pop(next(iter(self._templates)))
        self._templates[key] = template
        return template

    # -- family selection --------------------------------------------------------

    def _families_for(
        self,
        cloud: np.ndarray,
        fault_bound: int,
        subset_indices: Sequence[Sequence[int]] | None,
    ) -> tuple[tuple[int, ...], ...]:
        point_count = cloud.shape[0]
        subset_size = point_count - fault_bound
        if subset_indices is not None:
            return _validate_explicit_families(subset_indices, point_count, subset_size)
        families = pruned_subset_family(cloud, fault_bound)
        _EVENTS["blocks_pruned_away"].inc(comb(point_count, subset_size) - len(families))
        return families

    # -- single query ------------------------------------------------------------

    def point(
        self,
        points: object,
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
        subset_indices: Sequence[Sequence[int]] | None = None,
    ) -> np.ndarray | None:
        """Return a point of ``Gamma(points)`` or ``None`` when it is empty.

        Same edge cases as the oracle
        :func:`repro.core.safe_area.safe_area_point` (``f = 0`` returns the
        centroid, an empty or numerically degenerate ``Gamma`` resolves
        through the minimum-slack program).  At ``d <= 2`` the point is the
        closed form's — the lexicographic minimum of the objective's optimal
        set, the interval end at ``d = 1`` — with no LP; at ``d >= 3``, or
        for an explicit subset family, it is the vertex HiGHS returns for the
        Section 2.2 LP over the pruned (or given) family.
        """
        cloud = _as_cloud_array(points)
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        _EVENTS["single_queries"].inc()
        return self._answer(cloud, fault_bound, objective, subset_indices)

    def _answer(
        self,
        cloud: np.ndarray,
        fault_bound: int,
        objective: np.ndarray | Sequence[float] | None,
        subset_indices: Sequence[Sequence[int]] | None,
    ) -> np.ndarray | None:
        """One query, counted by the caller: edge cases, memo, then a solve."""
        point_count, dimension = cloud.shape
        if point_count == 0:
            return None
        if fault_bound == 0:
            return cloud.mean(axis=0)
        if point_count - fault_bound <= 0:
            return None

        objective_head = self._objective_head(objective, dimension)
        if subset_indices is not None:
            families = self._families_for(cloud, fault_bound, subset_indices)
            return self._solve_single(cloud, families, objective_head)
        key = (fault_bound, cloud.shape, cloud.tobytes(), objective_head.tobytes())
        cached = self._memo.get(key, _MISS)
        if cached is not _MISS:
            _EVENTS["memo_hits"].inc()
            return _private_copy(cached)
        if dimension <= 2:
            answer = self._closed_form(cloud, fault_bound, objective_head)
        else:
            answer = self._solve_single(
                cloud, self._families_for(cloud, fault_bound, None), objective_head
            )
        self._memo_store(key, _private_copy(answer))
        return answer

    def _closed_form(
        self, cloud: np.ndarray, fault_bound: int, objective_head: np.ndarray
    ) -> np.ndarray | None:
        """``Gamma``'s point at ``d <= 2`` without the Section 2.2 LP.

        ``d = 1``: the trimmed interval's lower end for a non-negative
        objective, its upper end for a negative one.  ``d = 2``:
        :func:`_planar_gamma_point`.  When that finds no certified point the
        relaxed program over the pruned family decides, so an empty ``Gamma``
        is still reported as ``None``.
        """
        if not (np.isfinite(cloud).all() and np.isfinite(objective_head).all()):
            raise ValueError("coefficients must not contain inf or nan")
        _EVENTS["closed_form_answers"].inc()
        if cloud.shape[1] == 1:
            interval = safe_area_interval_1d(cloud, fault_bound)
            answer = None if interval is None else np.asarray(
                [interval[1] if objective_head[0] < 0.0 else interval[0]]
            )
        else:
            answer = _planar_gamma_point(cloud, fault_bound, objective_head)
        if answer is None:
            families = np.asarray(pruned_subset_family(cloud, fault_bound), dtype=np.int64)
            return self._relaxed_point(cloud, families)
        return answer

    def _objective_head(
        self, objective: np.ndarray | Sequence[float] | None, dimension: int
    ) -> np.ndarray:
        if objective is None:
            return np.zeros(dimension)
        head = np.asarray(objective, dtype=float)
        if head.shape != (dimension,):
            raise GeometryError(f"objective must have length d={dimension}")
        return head

    def _solve_single(
        self,
        cloud: np.ndarray,
        families: tuple[tuple[int, ...], ...],
        objective_head: np.ndarray,
    ) -> np.ndarray | None:
        from repro.geometry.linprog import solve_linear_program

        dimension = cloud.shape[1]
        block_size = len(families[0])
        families_flat = np.asarray(families, dtype=np.int64)
        template = self._template(len(families), block_size, dimension)
        matrix = template.matrix_for(cloud, families_flat)
        objective = np.zeros(template.variable_count)
        objective[:dimension] = objective_head

        _EVENTS["lp_solves"].inc()
        _EVENTS["blocks_assembled"].inc(len(families))
        try:
            result = solve_linear_program(
                objective,
                equality_matrix=matrix,
                equality_rhs=template.rhs,
                bounds=(template.col_lower, template.col_upper),
            )
        except LinearProgramError as error:
            # Clusters of near-coincident points (honest states late in a
            # contraction) can leave HiGHS unable to classify the strict
            # equality program at all.  The relaxed minimum-slack program is
            # feasible by construction, so it resolves exactly those
            # degenerate instances — and still reports genuine emptiness.
            # Only solver-status failures qualify (they carry a status code);
            # input-validation errors stay loud.
            if error.status is None:
                raise
            result = None
        if result is not None and result.feasible and result.solution is not None:
            return result.solution[:dimension]
        return self._relaxed_point(cloud, families_flat)

    # -- batched queries ---------------------------------------------------------

    def points_batch(
        self,
        clouds: Sequence[object],
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
        subset_indices: Sequence[Sequence[Sequence[int]]] | None = None,
    ) -> list[np.ndarray | None]:
        """Answer many safe-area queries of one shape, each as :meth:`point` would.

        Every query goes through the same per-query memo and solve as a
        single :meth:`point` call, so a batch answer never depends on its
        batch-mates.

        Args:
            clouds: the query multisets; all must share one ``(m, d)`` shape
                (the protocol use case: one query per witness family of equal
                quorum size).
            fault_bound: the shared ``f``.
            objective: optional shared objective over each query's ``z``.
            subset_indices: optional explicit subset family per query
                (default: :func:`pruned_subset_family` of each cloud).

        Returns one entry per query: the chosen point, or ``None`` for an
        empty safe area.
        """
        if not clouds:
            return []
        arrays = [_as_cloud_array(cloud) for cloud in clouds]
        if any(array.shape != arrays[0].shape for array in arrays):
            raise GeometryError("all clouds in a batch must share one (m, d) shape")
        if subset_indices is not None and len(subset_indices) != len(arrays):
            raise GeometryError(
                f"subset_indices covers {len(subset_indices)} queries, "
                f"but {len(arrays)} were given"
            )
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        _EVENTS["batch_calls"].inc()
        _EVENTS["batch_queries"].inc(len(arrays))
        families = [None] * len(arrays) if subset_indices is None else subset_indices
        return [
            self._answer(array, fault_bound, objective, family)
            for array, family in zip(arrays, families)
        ]

    def points_multi(
        self,
        clouds: Sequence[object],
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
    ) -> list[np.ndarray | None]:
        """Answer a whole round's safe-area queries in one assembled pass.

        The multi-instance entry point of the columnar execution substrate:
        the caller hands over *every* ``Gamma`` query of a simulation round —
        across all processes of all trials in the batch — and the kernel
        dedupes bitwise-identical clouds (the common case once trials share
        receive views or states collapse), solving each distinct cloud once.

        Unlike :meth:`points_batch`, clouds may have heterogeneous shapes.
        Each distinct cloud is solved through :meth:`point`, so results are
        bitwise identical to per-query single solves, which is what lets the
        columnar engine share one solve across many object-runtime-equivalent
        processes.  At ``d <= 2`` the answer follows :meth:`point`'s
        solver-independent rule: the lexicographic minimum of the objective's
        optimal set (``c.z``, then ``x``, then ``y``), so a zero objective
        asks for the lexicographic minimum of ``Gamma``.

        Returns one entry per query, aligned with ``clouds``: the chosen
        point, or ``None`` for an empty safe area.
        """
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        arrays = [_as_cloud_array(cloud) for cloud in clouds]
        _EVENTS["multi_calls"].inc()
        _EVENTS["multi_queries"].inc(len(arrays))

        # Dedupe bitwise-identical queries; remember one representative each.
        order: list[tuple[tuple[int, int], bytes]] = []
        representatives: dict[tuple[tuple[int, int], bytes], int] = {}
        for index, array in enumerate(arrays):
            key = (array.shape, array.tobytes())
            if key in representatives:
                _EVENTS["multi_dedup_hits"].inc()
            else:
                representatives[key] = index
            order.append(key)

        solved = {
            key: self.point(arrays[index], fault_bound, objective=objective)
            for key, index in representatives.items()
        }
        return [solved[key] for key in order]

    # -- relaxed fallback --------------------------------------------------------

    def _relaxed_point(
        self, cloud: np.ndarray, families_flat: np.ndarray
    ) -> np.ndarray | None:
        """Minimum-slack re-solve distinguishing empty ``Gamma`` from round-off.

        Mirrors the oracle's ``_relaxed_safe_area_point``: minimise a shared
        non-negative slack ``t`` bounding ``|z - Y_T^T alpha|`` per coordinate
        and block, and accept the candidate when the optimal slack is at
        floating-point scale relative to the coordinates.
        """
        from repro.geometry.linprog import solve_linear_program

        block_count, block_size = families_flat.shape
        dimension = cloud.shape[1]
        variable_count = dimension + block_count * block_size + 1
        slack_column = variable_count - 1

        # Inequality rows, one per (block b, coordinate c, sign s) in that
        # order: s * (z_c - Y_T[:, c] @ alpha_b) - t <= 0, entered as the z
        # column, the block's weight columns, then the slack column.
        gathered = cloud[families_flat].transpose(0, 2, 1)  # (B, d, s)
        signs = np.asarray([1.0, -1.0])[None, None, :, None]
        entries = (block_count, dimension, 2, block_size + 2)
        cols = np.empty(entries, dtype=np.int64)
        cols[..., 0] = np.arange(dimension)[None, :, None]
        cols[..., 1:-1] = dimension + np.arange(block_count * block_size).reshape(
            block_count, 1, 1, block_size
        )
        cols[..., -1] = slack_column
        data = np.empty(entries)
        data[..., :1] = signs
        data[..., 1:-1] = -signs * gathered[:, :, None, :]
        data[..., -1] = -1.0
        row_count = block_count * dimension * 2
        inequality_matrix = csc_matrix(
            (data.ravel(), (np.repeat(np.arange(row_count), block_size + 2), cols.ravel())),
            shape=(row_count, variable_count),
        )
        inequality_rhs = np.zeros(row_count)

        equality_rows = np.repeat(np.arange(block_count, dtype=np.int64), block_size)
        equality_cols = (
            dimension
            + (np.arange(block_count, dtype=np.int64)[:, None] * block_size
               + np.arange(block_size, dtype=np.int64)[None, :]).ravel()
        )
        equality_matrix = csc_matrix(
            (np.ones(block_count * block_size), (equality_rows, equality_cols)),
            shape=(block_count, variable_count),
        )
        equality_rhs = np.ones(block_count)

        objective = np.zeros(variable_count)
        objective[slack_column] = 1.0
        # The slack is one more non-negative column after the weights.
        bounds = _variable_bounds(dimension, block_count * block_size + 1)
        _EVENTS["relaxed_solves"].inc()
        result = solve_linear_program(
            objective,
            inequality_matrix=inequality_matrix,
            inequality_rhs=inequality_rhs,
            equality_matrix=equality_matrix,
            equality_rhs=equality_rhs,
            bounds=bounds,
        )
        if not result.feasible or result.solution is None or result.objective is None:
            return None
        scale = max(1.0, float(np.max(np.abs(cloud))))
        if result.objective > _SLACK_TOLERANCE * scale:
            return None
        return result.solution[: cloud.shape[1]]


#: Shared kernel used by the protocol layer (``SafeAreaCalculator`` et al.).
default_kernel = GammaKernel()


def _register_kernel_metrics() -> dict[str, Any]:
    """Bind one event counter child per kind; publish the shared kernel's cache sizes.

    Every kernel counts at the event into the process registry, in the
    parent and in every pool worker alike (worker registries ship their
    deltas back over the result pipes).  The children are bound here, once:
    a query pays one locked add per event, never a label lookup.
    """
    registry = get_registry()
    events = registry.counter(
        "repro_kernel_events_total",
        "Gamma kernel events (queries, solves, cache hits) by kind.",
        labelnames=("kind",),
    )
    templates = registry.gauge(
        "repro_kernel_template_cache_size",
        "LP constraint templates currently cached by the shared kernel.",
    )
    memo = registry.gauge(
        "repro_kernel_memo_size",
        "Answers currently held by the shared kernel's query memo.",
    )
    registry.register_collector(
        lambda: (
            templates.set(default_kernel.template_cache_size),
            memo.set(default_kernel.memo_size),
        )
    )
    return {kind: events.labels(kind=kind) for kind in (
        "single_queries", "batch_queries", "batch_calls",
        "multi_queries", "multi_calls", "multi_dedup_hits", "lp_solves",
        "relaxed_solves", "template_hits", "template_misses",
        "blocks_assembled", "blocks_pruned_away",
        "memo_hits", "memo_evictions", "closed_form_answers",
    )}


#: ``kind`` -> bound ``repro_kernel_events_total`` child.  ``memo_hits /
#: (single_queries + batch_queries)`` is the share of queries that repeated,
#: ``memo_evictions`` counts whole-table flushes at the bound, and
#: ``closed_form_answers`` counts queries at ``d <= 2`` answered without the
#: Section 2.2 LP (each one whose certificate failed is also a
#: ``relaxed_solves``).
_EVENTS = _register_kernel_metrics()
