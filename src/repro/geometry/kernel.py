"""Batched, cached geometry kernel for the safe area ``Gamma(Y)``.

Every protocol in this repository bottoms out in the same computation: pick a
point of the safe area ``Gamma(Y)`` of Equation (1), the intersection of the
convex hulls of all ``(|Y| - f)``-subsets of a multiset ``Y``.  The literal
Section 2.2 linear program enumerates all ``C(|Y|, |Y| - f)`` subsets and
assembles one dense constraint block per subset, which is exponential in
``f``.  This module is the production path around that bottleneck;
:func:`repro.core.safe_area.safe_area_point` remains the unoptimised oracle
it is validated against.

Three independent optimisations, composed by :class:`GammaKernel`:

* **No LP at** ``d <= 2``.  ``Gamma`` is the Tukey-depth-``(f+1)`` region of
  ``Y``.  On the line that is the trimmed interval; in the plane it is the
  intersection of the halfplanes on every member pair's line, and the
  objective is minimised over them by LP duality in numpy, with the chosen
  vertex checked against every halfplane (a free optimality certificate,
  :func:`_planar_program`).  The program has one shape per ``(|Y|, f)``,
  so all of a call's queries of one shape run as one program over their
  stack, and an answer is bitwise the same at any batch size.  Ties on the
  objective go to the lexicographic minimum, a rule that needs no solver.
  A query whose certificate fails takes the relaxed program, so an empty
  ``Gamma`` is still reported.

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
  on the pruned family at ``d >= 3``, assembled straight into sparse form
  (:func:`_hull_intersection_system`, which
  :func:`repro.geometry.convex_hull.hulls_intersection_point` shares); the
  relaxed program uses the family at every ``d``.

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

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Any, Sequence

import numpy as np

from repro.exceptions import GeometryError, LinearProgramError
from repro.geometry.linprog import csc_matrix
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

#: How many vertices on the dual bound make one block of a planar query's
#: check against every halfplane, strongest bound first
#: (:func:`_planar_program`); the pick is the lexicographically smallest
#: vertex that passes in the first block where any does.  The first block
#: almost always holds the optimum; the next is reached only by the queries
#: whose block had none (duplicate-heavy grids stack many near-equal bounds
#: on one line).
_CANDIDATES = 16

#: Bound on one planar program's work, in member projections (``Q x P x m``
#: for ``Q`` clouds of ``m`` members and ``P`` halfplanes): a longer stack is
#: cut into chunks of at most this many.  Measured on calls of 150 to 300
#: clouds at ``f = 1``, chunk sizes interleaved: at ``m = 16`` this bound's
#: 33-query chunks cost 14-22 % less per query than 16-query ones and no
#: more than 67-query ones; at ``m = 12`` its 80-query chunks cost what 40-
#: and 160-query ones do (within 5 %), 20-query ones 15-31 % more.  A
#: 300-cloud call at ``m = 12`` peaks at 2.5 MB of temporaries (1.4 MB in
#: 40-query chunks, 4.6 in 160-query ones, 9.3 unchunked).
_CHUNK_ELEMENTS = 1 << 17

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
    """An array or nested sequence as a ``(k, d)`` float array; a float array is not copied."""
    cloud = np.asarray(points, dtype=float)
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


def _compact(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the column indices where ``mask`` holds, in order, padded.

    Returns ``(columns, valid)`` of shape ``(rows, width)``, ``width`` the
    largest count of any row (at least 1); padded slots repeat some column
    and read ``False`` in ``valid``.  A row's valid slots never depend on
    the other rows.
    """
    counts = np.add.reduce(mask, axis=1, dtype=np.intp)
    width = np.maximum.reduce(counts, initial=1)
    columns = (~mask).argsort(axis=1, kind="stable")[:, :width]
    return columns, np.arange(width) < counts[:, None]


def _planar_gamma_points(
    clouds: np.ndarray, fault_bound: int, objective: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The optimal points of ``Gamma`` for a stack of same-shape planar clouds.

    ``clouds`` is ``(Q, m, 2)``; the stack is cut into chunks of at most
    :data:`_CHUNK_ELEMENTS` member projections, and each chunk runs one
    fixed-shape program (:func:`_planar_program`).  Returns ``(points,
    certified, residuals)``, one row per cloud: the point, whether it is
    certified (an uncertified row is meaningless and the caller takes the
    relaxed program), and the certified point's largest halfplane violation
    over the cloud's spread about its centroid.
    """
    query_count, point_count, _ = clouds.shape
    normal_count = point_count * (point_count - 1) + _AXES.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // (normal_count * point_count))
    parts = [
        _planar_program(clouds[start : start + chunk], fault_bound, objective)
        for start in range(0, query_count, chunk)
    ]
    if len(parts) == 1:
        return parts[0]
    points, certified, residuals = zip(*parts)
    return np.concatenate(points), np.concatenate(certified), np.concatenate(residuals)


def _planar_program(
    clouds: np.ndarray, fault_bound: int, objective: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of :func:`_planar_gamma_points`: every step over all ``Q`` at once.

    ``Gamma`` is the Tukey-depth-``(f+1)`` region ``{z : u.z <= k(u)}`` over
    unit directions ``u``, where ``k(u)`` is the ``(f+1)``-th largest member
    projection.  Two members swap places in the projection order only at the
    normals of the line through them, so between consecutive pair normals
    the ``(f+1)``-th member is one point and ``k`` is linear there.  No two
    consecutive normals of the set (every pair's normal in both orientations
    plus the four axes) are ``π`` or more apart, so ``Gamma`` is exactly the
    intersection of their halfplanes.  Pairs with a zero difference, and
    pairs through a repeated member value (the first copy's pairs carry the
    same lines), are masked out; their slots hold ``e1``, a halfplane of
    ``Gamma`` like any other.

    The objective is minimised over those halfplanes by LP duality, with
    ties broken by the perturbed objective ``c + δ e1 + δ² e2`` (``δ -> 0+``),
    whose unique optimum is the lexicographic minimum of ``c``'s optimal set:
    the smallest ``c.v``, then ``x``, then ``y``.  A zero objective asks for
    the lexicographic minimum of ``Gamma``, the optimum of ``e1`` under the
    same rule.  Every pair of halfplanes whose normals bracket the perturbed
    ``-c`` meets in a vertex that bounds the optimum from below.  The bound
    is taken over the *turn* normals — those whose offset is, exactly, one
    of their own pair's projections: the lines that can carry an edge of
    ``Gamma`` — plus the axes.  The vertices on the best bound are checked
    against every halfplane, the strongest bounds (largest ``(c.v, x, y)``)
    first, :data:`_CANDIDATES` at a time; in the first block where any
    passes, the lexicographically smallest that passes is the optimum: the
    dual bound plus primal feasibility certify it.  A block is checked in
    that pick order, ``(c.v, x, y)`` and then block position, so the first
    vertex to pass is the pick: every query's first vertex alone, then the
    rest of the block at once for the few queries whose first one failed.
    Both checks allow each vertex its own rounding on top of
    :data:`_CERTIFICATE_TOLERANCE` of the cloud's spread about its centroid,
    the frame everything is computed in (a tight cluster far from the origin
    keeps its precision).

    Every step is elementwise, or a reduction or sort along one query's own
    axes — no matrix product, whose summation could depend on the layout —
    so a row's answer is bitwise the same whatever else shares its chunk.
    """
    query_count, point_count, _ = clouds.shape
    queries = np.arange(query_count)
    rows = queries[:, None]
    # The centroid by sequential adds (the last running sum): a reduction's
    # summation order may depend on the stack's shape.
    centre = np.add.accumulate(clouds, axis=1)[:, -1]
    centre /= point_count
    local = clouds - centre[:, None, :]
    local_x, local_y = local[..., 0].copy(), local[..., 1].copy()
    scale = np.maximum.reduce(np.abs(local), axis=(1, 2))

    # The halfplanes: every usable pair's unit normal in both orientations,
    # then the axes.  A pair's members are equal exactly when their
    # difference is zero.
    first, second = _upper_pairs(point_count)
    pair_count = first.shape[0]
    x, y = clouds[..., 0], clouds[..., 1]
    delta_x, delta_y = x[:, second] - x[:, first], y[:, second] - y[:, first]
    length = np.sqrt(delta_x * delta_x + delta_y * delta_y)
    coincide = np.zeros((query_count, point_count, point_count), dtype=bool)
    coincide[:, first, second] = (delta_x == 0.0) & (delta_y == 0.0)
    fresh = ~np.logical_or.reduce(coincide, axis=1)  # equal to no earlier member
    usable = (length > 0.0) & fresh[:, first] & fresh[:, second]
    length = np.where(usable, length, 1.0)
    normal_count = 2 * pair_count + _AXES.shape[0]
    normal_x, normal_y = np.empty((2, query_count, normal_count))
    normal_x[:, :pair_count] = np.where(usable, -delta_y / length, 1.0)
    normal_y[:, :pair_count] = np.where(usable, delta_x / length, 0.0)
    normal_x[:, pair_count : 2 * pair_count] = -normal_x[:, :pair_count]
    normal_y[:, pair_count : 2 * pair_count] = -normal_y[:, :pair_count]
    normal_x[:, 2 * pair_count :] = _AXES[:, 0]
    normal_y[:, 2 * pair_count :] = _AXES[:, 1]

    # The offsets: per normal, the (f+1)-th largest member projection, kept
    # as a running top f+1 (max and min pick one of the products exactly) in
    # reused buffers.  While the top is short, the member fills its first
    # empty place: max(-inf, v) is v.
    *top, value, spare = np.empty((fault_bound + 3, query_count, normal_count))
    for member in range(point_count):
        np.multiply(local_x[:, member, None], normal_x, out=value)
        np.multiply(local_y[:, member, None], normal_y, out=spare)
        np.add(value, spare, out=value)
        for place in range(fault_bound + 1):
            if place == member:
                top[place], value = value, top[place]
                break
            held = top[place]
            np.maximum(held, value, out=spare)
            if place < fault_bound:  # what the last place drops goes nowhere
                np.minimum(held, value, out=value)
            top[place], spare = spare, held
    offsets = top[-1]

    # The dual side: turn normals plus the axes.  A pair's opposite normal is
    # its normal negated, so its projections are the pair's own negated,
    # exactly: one equality test (blind to a zero's sign) serves both.
    pair_x, pair_y = normal_x[:, :pair_count], normal_y[:, :pair_count]
    ahead = local_x[:, first] * pair_x + local_y[:, first] * pair_y
    behind = local_x[:, second] * pair_x + local_y[:, second] * pair_y
    dual = np.empty((query_count, normal_count), dtype=bool)
    for turn, own in (
        (dual[:, :pair_count], offsets[:, :pair_count]),
        (dual[:, pair_count : 2 * pair_count], -offsets[:, pair_count : 2 * pair_count]),
    ):
        np.equal(own, ahead, out=turn)
        turn |= own == behind
        turn &= usable
    dual[:, 2 * pair_count :] = True

    # Which side of -c each normal lies on: the sign of cross(-c, normal),
    # or, for a normal parallel to -c up to rounding, the side of -e1, then
    # of -e2.
    if objective[0] == 0.0 and objective[1] == 0.0:
        objective = _AXES[0]  # the same sides and the same order
    size = np.maximum.reduce(np.abs(objective))
    lean = normal_x * objective[1] - normal_y * objective[0]
    tilt = np.where(np.abs(normal_y) > _PARALLEL_TOLERANCE, -normal_y, normal_x)
    below = np.where(np.abs(lean) <= _PARALLEL_TOLERANCE * size, tilt, lean) < 0.0
    # -c = a * u + b * w with a, b > 0: u on the negative side, w on the
    # positive side and less than π after it.  One stable sort of each row
    # puts its u normals first and its w normals last, each in order (two
    # of the four axes lie on either side, so neither is ever empty).
    u_side = dual & below
    w_side = dual & ~below
    side = dual.view(np.int8) + np.int8(1)  # 0 for u, 2 for w, 1 for neither
    side -= u_side.view(np.int8) << np.int8(1)
    arranged = side.argsort(axis=1, kind="stable")
    u_count = np.add.reduce(u_side, axis=1, dtype=np.intp)
    w_count = np.add.reduce(w_side, axis=1, dtype=np.intp)
    u_width, w_width = np.maximum.reduce(u_count), np.maximum.reduce(w_count)
    u_index, w_index = arranged[:, :u_width], arranged[:, normal_count - w_width :]
    u_valid = np.arange(u_width) < u_count[:, None]
    w_valid = np.arange(w_width) >= w_width - w_count[:, None]
    u_x = normal_x[rows, u_index][:, :, None]
    u_y = normal_y[rows, u_index][:, :, None]
    offset_u = offsets[rows, u_index][:, :, None]
    w_x = normal_x[rows, w_index][:, None, :]
    w_y = normal_y[rows, w_index][:, None, :]
    offset_w = offsets[rows, w_index][:, None, :]
    sines = u_x * w_y - u_y * w_x
    bracket = u_valid[:, :, None] & w_valid[:, None, :] & (sines >= _MIN_BRACKET_SINE)
    sines = np.where(bracket, sines, 1.0)
    vertex_x = (offset_u * w_y - offset_w * u_y) / sines
    vertex_y = (u_x * offset_w - w_x * offset_u) / sines
    values = vertex_x * objective[0] + vertex_y * objective[1]

    # What each vertex may be off by: the certificate's tolerance plus its
    # own rounding, which grows as 1 / sine.
    error = _CERTIFICATE_TOLERANCE * scale[:, None, None] + (
        _ROUNDING * (scale[:, None, None] + np.maximum(np.abs(vertex_x), np.abs(vertex_y))) / sines
    )
    slack = size * error
    bound = np.maximum.reduce(np.where(bracket, values - slack, -np.inf), axis=(1, 2))
    on_bound = bracket & (values >= bound[:, None, None] - slack)

    # The primal side: the vertices on the bound against every halfplane,
    # strongest bound first, :data:`_CANDIDATES` at a time; in the first
    # block where any passes, the lexicographically smallest that passes.
    # One sort puts every block in that pick order (valid slots first, then
    # c.v, x, y, then the slot, as the strongest-first order breaks ties),
    # so the first vertex to pass is the pick: each query's first vertex is
    # checked alone, then the rest of its block at once for the few queries
    # whose first one failed.
    slots, slot_valid = _compact(on_bound.reshape(query_count, -1))
    values = values.reshape(query_count, -1)[rows, slots]
    vertex_x = vertex_x.reshape(query_count, -1)[rows, slots]
    vertex_y = vertex_y.reshape(query_count, -1)[rows, slots]
    error = error.reshape(query_count, -1)[rows, slots]
    padded = ~slot_valid
    error[padded] = -np.inf  # a padded slot never passes
    width = slots.shape[1]
    keys = [vertex_y, vertex_x, values, padded]
    if width > _CANDIDATES:
        strongest = np.lexsort((-vertex_y, -vertex_x, np.where(slot_valid, -values, np.inf)), axis=1)
        rank = np.empty_like(strongest)
        rank[rows, strongest] = np.arange(width)
        keys.append(rank // _CANDIDATES)
    order = np.lexsort(keys, axis=1)
    remaining = np.add.reduce(slot_valid, axis=1, dtype=np.intp)
    certified = np.zeros(query_count, dtype=bool)
    chosen = np.zeros(query_count, dtype=np.intp)
    residual = np.zeros(query_count)
    pending = queries
    for start in range(0, width, _CANDIDATES):
        block = order[pending, start : start + _CANDIDATES]
        in_block = remaining[pending] - start
        for columns in (slice(0, 1), slice(1, _CANDIDATES)):
            left = (~certified[pending] & (in_block > columns.start)).nonzero()[0]
            if left.shape[0] == 0:
                continue
            asked, held = pending[left], block[left, columns]
            at = asked[:, None]
            if asked.shape[0] == query_count:
                against_x, against_y, against = normal_x, normal_y, offsets
            else:
                against_x, against_y, against = normal_x[asked], normal_y[asked], offsets[asked]
            violation = np.maximum.reduce(
                vertex_x[at, held][:, :, None] * against_x[:, None, :]
                + vertex_y[at, held][:, :, None] * against_y[:, None, :]
                - against[:, None, :],
                axis=2,
            )
            passed = violation <= error[at, held]
            pick = passed.argmax(axis=1)
            hit = passed[np.arange(left.shape[0]), pick]
            done, pick = asked[hit], pick[hit]
            certified[done] = True
            chosen[done] = held[hit, pick]
            residual[done] = violation[hit, pick]
        pending = pending[~certified[pending] & (remaining[pending] > start + _CANDIDATES)]
        if pending.shape[0] == 0:
            break
    # An uncertified row keeps the origin of the local frame and no margin.
    vertex = np.zeros((query_count, 2))
    margin = np.zeros(query_count)
    settled = certified.nonzero()[0]
    chosen = chosen[settled]
    vertex[settled, 0], vertex[settled, 1] = vertex_x[settled, chosen], vertex_y[settled, chosen]
    margin[settled] = error[settled, chosen]

    # Many vertices of Gamma are members: a member within the vertex's own
    # error that passes the same check is that vertex, without the rounding.
    gaps = np.maximum(np.abs(local_x - vertex[:, :1]), np.abs(local_y - vertex[:, 1:]))
    nearest = gaps.argmin(axis=1)
    member_violation = np.maximum.reduce(
        local_x[queries, nearest, None] * normal_x
        + local_y[queries, nearest, None] * normal_y
        - offsets,
        axis=1,
    )
    snap = (gaps[queries, nearest] <= margin) & (member_violation <= margin)
    points = np.where(snap[:, None], clouds[queries, nearest], centre + vertex)
    residual = np.where(snap, member_violation, residual) / np.where(scale > 0.0, scale, 1.0)
    return points, certified, residual


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


# ---------------------------------------------------------------------------
# The Section 2.2 equality system
# ---------------------------------------------------------------------------

def _variable_bounds(dimension: int, weight_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of the Section 2.2 LP: free ``z``, non-negative weights."""
    lower = np.zeros(dimension + weight_count)
    lower[:dimension] = -np.inf
    return lower, np.full(dimension + weight_count, np.inf)


def _hull_intersection_system(
    members: np.ndarray, sizes: np.ndarray
) -> tuple[Any, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``z`` lies in the hull of every block: ``(A_eq, b_eq, bounds)``.

    ``members`` stacks the blocks' members, ``(sum(sizes), d)``; block ``b``
    is the next ``sizes[b]`` rows.  The variables are ``z`` (``d`` free
    columns) and then one non-negative weight per member, whose column holds
    ``(-y, 1)``.  Block ``b`` owns ``d + 1`` rows: ``z - Y_b^T alpha_b = 0``,
    one per coordinate, then ``sum(alpha_b) = 1``.  The matrix is assembled
    in canonical CSC form, explicit zeros kept, which HiGHS takes as it is.
    """
    weight_count, dimension = members.shape
    block_count = sizes.shape[0]
    block_rows = dimension + 1
    z_entries = dimension * block_count
    indptr = np.empty(dimension + weight_count + 1, dtype=np.int32)
    indptr[: dimension + 1] = np.arange(dimension + 1) * block_count
    indptr[dimension + 1 :] = z_entries + block_rows * np.arange(1, weight_count + 1)
    first_row = np.arange(block_count, dtype=np.int32) * block_rows
    indices = np.empty(z_entries + weight_count * block_rows, dtype=np.int32)
    indices[:z_entries] = (np.arange(dimension, dtype=np.int32)[:, None] + first_row).ravel()
    indices[z_entries:] = (
        np.repeat(first_row, sizes)[:, None] + np.arange(block_rows, dtype=np.int32)
    ).ravel()
    data = np.empty(z_entries + weight_count * block_rows)
    data[:z_entries] = 1.0
    weights = data[z_entries:].reshape(weight_count, block_rows)
    np.negative(members, out=weights[:, :dimension])
    weights[:, dimension] = 1.0
    matrix = csc_matrix(
        (data, indices, indptr), shape=(block_count * block_rows, dimension + weight_count)
    )
    rhs = np.zeros((block_count, block_rows))
    rhs[:, dimension] = 1.0
    return matrix, rhs.ravel(), _variable_bounds(dimension, weight_count)


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

class GammaKernel:
    """Batched, cached solver for safe-area queries.

    A kernel instance owns a bounded answer memo, and counts its events into ``repro_kernel_events_total``; the
    module-level :data:`default_kernel` is shared by the protocol code.  All
    methods are deterministic: the same inputs produce the same outputs on
    every process, which the consensus algorithms require for agreement.

    **Answer memo.**  A query already solved by this kernel is returned, not
    re-solved, and the memo may only hand back what a cold solve of the same
    query returns:

    * every query is keyed on ``(f, cloud shape, cloud bytes, objective
      bytes)`` — bitwise, so ``-0.0`` and ``0.0`` are different queries —
      whether it arrives through :meth:`point`, :meth:`points_batch` or
      :meth:`points_multi`; all three look every query up, then solve the
      misses together, and an answer never depends on what else was in the
      batch, so it is bitwise what :meth:`point` returns;
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
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, np.ndarray | None] = {}

    # -- cache -------------------------------------------------------------------

    @property
    def memo_size(self) -> int:
        """Number of answers currently held by the answer memo."""
        return len(self._memo)

    def clear_cache(self) -> None:
        self._memo.clear()

    def _memo_store(self, key: tuple, answer: object) -> None:
        """Remember ``answer`` (already a private copy) as the result of ``key``."""
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
            _EVENTS["memo_evictions"].inc()
        self._memo[key] = answer

    # -- family selection --------------------------------------------------------

    def _families_for(self, cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
        point_count = cloud.shape[0]
        subset_size = point_count - fault_bound
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
    ) -> np.ndarray | None:
        """Return a point of ``Gamma(points)`` or ``None`` when it is empty.

        Same edge cases as the oracle
        :func:`repro.core.safe_area.safe_area_point` (``f = 0`` returns the
        centroid, an empty or numerically degenerate ``Gamma`` resolves
        through the minimum-slack program).  At ``d <= 2`` the point is the
        closed form's — the lexicographic minimum of the objective's optimal
        set, the interval end at ``d = 1`` — with no LP; at ``d >= 3`` it is
        the vertex HiGHS returns for the Section 2.2 LP over the pruned
        family.
        """
        cloud = _as_cloud_array(points)
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        _EVENTS["single_queries"].inc()
        return self._answer_all([cloud], fault_bound, objective)[0]

    def _answer_all(
        self,
        clouds: Sequence[np.ndarray],
        fault_bound: int,
        objective: np.ndarray | Sequence[float] | None,
        blobs: Sequence[bytes] | None = None,
    ) -> list[np.ndarray | None]:
        """The queries, counted by the caller: edge cases, memo, then solves.

        ``blobs``, when given, holds each cloud's bytes (a caller that
        deduped on them passes them on), so no cloud is turned into bytes
        twice.  The memo misses are solved together (:meth:`_solve_misses`).
        A repeat of a query still unanswered waits for the next pass, where
        the memo serves it, so the events count as if each query had been
        asked alone, in order.
        """
        answers: list[np.ndarray | None] = [None] * len(clouds)
        heads: dict[int, tuple[np.ndarray, bytes]] = {}
        pending: list[tuple[int, tuple, np.ndarray, np.ndarray]] = []
        for index, cloud in enumerate(clouds):
            point_count, dimension = cloud.shape
            if point_count == 0:
                continue
            if fault_bound == 0:
                answers[index] = cloud.mean(axis=0)
                continue
            if point_count - fault_bound <= 0:
                continue
            if dimension not in heads:
                head = self._objective_head(objective, dimension)
                heads[dimension] = head, head.tobytes()
            head, head_bytes = heads[dimension]
            blob = cloud.tobytes() if blobs is None else blobs[index]
            pending.append((index, (fault_bound, cloud.shape, blob, head_bytes), cloud, head))

        while pending:
            misses, waiting, asked = [], [], set()
            hits = 0
            for query in pending:
                cached = self._memo.get(query[1], _MISS)
                if cached is not _MISS:
                    hits += 1
                    answers[query[0]] = _private_copy(cached)
                elif query[1] in asked:
                    waiting.append(query)
                else:
                    asked.add(query[1])
                    misses.append(query)
            _EVENTS["memo_hits"].inc(hits)
            for (index, key, _, _), answer in zip(misses, self._solve_misses(misses, fault_bound)):
                self._memo_store(key, _private_copy(answer))
                answers[index] = answer
            pending = waiting
        return answers

    def _solve_misses(
        self, queries: list[tuple[int, tuple, np.ndarray, np.ndarray]], fault_bound: int
    ) -> list[np.ndarray | None]:
        """Distinct memo misses, in order: the LP one query at a time at
        ``d >= 3``, one closed-form program per shape at ``d <= 2``."""
        answers: list[np.ndarray | None] = [None] * len(queries)
        shapes: dict[tuple[int, int], list[int]] = {}
        for position, (_, _, cloud, _) in enumerate(queries):
            shapes.setdefault(cloud.shape, []).append(position)
        for (_, dimension), positions in shapes.items():
            head = queries[positions[0]][3]
            clouds = [queries[position][2] for position in positions]
            if dimension <= 2:
                solved = self._closed_forms(np.stack(clouds), fault_bound, head)
            else:
                solved = [
                    self._solve_single(cloud, self._families_for(cloud, fault_bound), head)
                    for cloud in clouds
                ]
            for position, answer in zip(positions, solved):
                answers[position] = answer
        return answers

    def _closed_forms(
        self, clouds: np.ndarray, fault_bound: int, objective_head: np.ndarray
    ) -> list[np.ndarray | None]:
        """``Gamma``'s points for a ``(Q, m, d)`` stack at ``d <= 2``, with no LP.

        ``d = 1``: the trimmed interval's lower end for a non-negative
        objective, its upper end for a negative one.  ``d = 2``: the batched
        program :func:`_planar_gamma_points`, whose certified slack goes into
        ``repro_kernel_certificate_residual``.  A query it cannot certify
        takes the relaxed program over the pruned family, alone, so an empty
        ``Gamma`` is still reported as ``None``.
        """
        if not (np.isfinite(clouds).all() and np.isfinite(objective_head).all()):
            raise ValueError("coefficients must not contain inf or nan")
        _EVENTS["closed_form_batches"].inc()
        _EVENTS["closed_form_answers"].inc(clouds.shape[0])
        if clouds.shape[2] == 1:
            end = 1 if objective_head[0] < 0.0 else 0
            intervals = [safe_area_interval_1d(cloud, fault_bound) for cloud in clouds]
            return [None if interval is None else np.asarray([interval[end]]) for interval in intervals]
        points, certified, residuals = _planar_gamma_points(clouds, fault_bound, objective_head)
        answers: list[np.ndarray | None] = list(points)
        _CERTIFICATE_RESIDUAL.observe_many(residuals[certified].tolist())
        for position in np.flatnonzero(~certified).tolist():
            cloud = clouds[position]
            families = np.asarray(pruned_subset_family(cloud, fault_bound), dtype=np.int64)
            answers[position] = self._relaxed_point(cloud, families)
        return answers

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
        families_flat = np.asarray(families, dtype=np.int64)
        block_count, block_size = families_flat.shape
        matrix, rhs, bounds = _hull_intersection_system(
            cloud[families_flat].reshape(-1, dimension), np.full(block_count, block_size)
        )
        objective = np.zeros(matrix.shape[1])
        objective[:dimension] = objective_head

        _EVENTS["lp_solves"].inc()
        _EVENTS["blocks_assembled"].inc(len(families))
        try:
            result = solve_linear_program(
                objective,
                equality_matrix=matrix,
                equality_rhs=rhs,
                bounds=bounds,
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
    ) -> list[np.ndarray | None]:
        """Answer many safe-area queries of one shape, each as :meth:`point` would.

        Every query is looked up in the memo on its own, and the misses are
        solved together by a program whose answers never depend on their
        batch-mates, so each is bitwise what a single :meth:`point` returns.

        Args:
            clouds: the query multisets; all must share one ``(m, d)`` shape
                (the protocol use case: one query per witness family of equal
                quorum size).
            fault_bound: the shared ``f``.
            objective: optional shared objective over each query's ``z``.

        Returns one entry per query: the chosen point, or ``None`` for an
        empty safe area.
        """
        if not clouds:
            return []
        arrays = [_as_cloud_array(cloud) for cloud in clouds]
        if any(array.shape != arrays[0].shape for array in arrays):
            raise GeometryError("all clouds in a batch must share one (m, d) shape")
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        _EVENTS["batch_calls"].inc()
        _EVENTS["batch_queries"].inc(len(arrays))
        return self._answer_all(arrays, fault_bound, objective)

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
        The distinct clouds are looked up in the memo and the misses of each
        shape solved together, by a program whose answers are bitwise those
        of per-query single solves, which is what lets the columnar engine
        share one solve across many object-runtime-equivalent processes
        (``clouds`` may be one ``(Q, m, d)`` array).  At ``d <= 2`` the
        answer follows :meth:`point`'s solver-independent rule: the lexicographic minimum of the objective's
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
            representatives.setdefault(key, index)
            order.append(key)
        _EVENTS["multi_dedup_hits"].inc(len(arrays) - len(representatives))

        answers = self._answer_all(
            [arrays[index] for index in representatives.values()],
            fault_bound,
            objective,
            [blob for _, blob in representatives],
        )
        solved = dict(zip(representatives, answers))
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
    """Bind one event counter child per kind; publish the shared kernel's memo size.

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
    memo = registry.gauge(
        "repro_kernel_memo_size",
        "Answers currently held by the shared kernel's query memo.",
    )
    registry.register_collector(lambda: memo.set(default_kernel.memo_size))
    return {kind: events.labels(kind=kind) for kind in (
        "single_queries", "batch_queries", "batch_calls",
        "multi_queries", "multi_calls", "multi_dedup_hits", "lp_solves",
        "relaxed_solves",
        "blocks_assembled", "blocks_pruned_away",
        "memo_hits", "memo_evictions", "closed_form_answers", "closed_form_batches",
    )}


#: ``kind`` -> bound ``repro_kernel_events_total`` child.  ``memo_hits /
#: (single_queries + batch_queries + multi_queries - multi_dedup_hits)`` is
#: the share of queries that repeated (:meth:`GammaKernel.points_multi` hands
#: its distinct queries to the memo),
#: ``memo_evictions`` counts whole-table flushes at the bound, and
#: ``closed_form_answers`` counts queries at ``d <= 2`` answered without the
#: Section 2.2 LP (each one whose certificate failed is also a
#: ``relaxed_solves``), and ``closed_form_batches`` the programs that
#: answered them: one per shape among a call's memo misses.
_EVENTS = _register_kernel_metrics()

#: Each certified ``d = 2`` point's largest halfplane violation, over its
#: cloud's spread about the centroid: how much of the certificate's
#: tolerance (:data:`_CERTIFICATE_TOLERANCE` plus the vertex's rounding) the
#: answer used.  ``0`` and below means no halfplane is violated at all.
_CERTIFICATE_RESIDUAL = get_registry().histogram(
    "repro_kernel_certificate_residual",
    "Largest halfplane violation of each certified d = 2 Gamma point, over its cloud's spread.",
    buckets=(0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10),
)
