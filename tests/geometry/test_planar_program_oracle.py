"""The planar Γ program against its frozen predecessor, bit for bit.

``geometry/kernel.py::_planar_program`` answers every ``d = 2`` safe-area
query.  Its earlier body lives on here as :func:`reference_planar_program`:
the running top f+1 in fresh arrays, the turn test over both orientations
of every pair normal, and the primal check of a whole block of
:data:`~repro.geometry.kernel._CANDIDATES` vertices at once, the
lexicographic minimum of the passing ones winning.  The kernel's program
makes fewer passes over the same floating-point expressions, so its points
(zero signs included), ``certified`` flags and residuals must equal the
reference's exactly, whatever the cloud, the objective or the chunking.

The clouds are the shapes where a pass could go astray: uniform, integer
grids (duplicates, collinear runs, many vertices tied on the bound),
exactly collinear, a ``1e-7`` spread ``1e6`` from the origin, and
origin-symmetric ones (exact zeros everywhere); under zero, axis-parallel
and oblique objectives, ``m`` from 3 to 17 and stacks of up to 60 clouds,
so a stack crosses chunk boundaries.  A call-count guard pins how many
Python-level and C-level function calls one program makes.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import kernel as kernel_module
from repro.geometry.kernel import (
    _AXES,
    _CANDIDATES,
    _CERTIFICATE_TOLERANCE,
    _MIN_BRACKET_SINE,
    _PARALLEL_TOLERANCE,
    _ROUNDING,
    _planar_gamma_points,
    _planar_program,
    _upper_pairs,
)


# ---------------------------------------------------------------------------
# The reference: the program as it stood before its passes were cut
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _halfplane_members(point_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The two members behind each pair normal of :func:`reference_planar_program`.

    Normal ``h < C(m, 2)`` is pair ``h`` of :func:`_upper_pairs` turned by
    ``+π/2``, normal ``C(m, 2) + h`` the same pair turned by ``-π/2``.
    """
    first, second = _upper_pairs(point_count)
    return np.concatenate((first, first)), np.concatenate((second, second))


def _compact(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the column indices where ``mask`` holds, in order, padded.

    Returns ``(columns, valid)`` of shape ``(rows, width)``, ``width`` the
    largest count of any row (at least 1); padded slots repeat some column
    and read ``False`` in ``valid``.  A row's valid slots never depend on
    the other rows.
    """
    counts = mask.sum(axis=1)
    width = max(int(counts.max(initial=0)), 1)
    columns = np.argsort(~mask, axis=1, kind="stable")[:, :width]
    return columns, np.arange(width) < counts[:, None]


def reference_planar_program(
    clouds: np.ndarray, fault_bound: int, objective: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The program's previous body: the same halfplanes, offsets, dual bound
    and certificate as :func:`~repro.geometry.kernel._planar_program` (whose
    docstring states the method), each the long way: the running top in
    fresh arrays, the turn test over both orientations' projections, and
    every block of candidates checked against every halfplane at once, the
    lexicographic minimum of the passing ones winning.
    """
    query_count, point_count, _ = clouds.shape
    queries = np.arange(query_count)
    rows = queries[:, None]
    # The centroid by sequential adds: a reduction's summation order may
    # depend on the stack's shape.
    centre = clouds[:, 0].copy()
    for member in range(1, point_count):
        centre += clouds[:, member]
    centre /= point_count
    local = clouds - centre[:, None, :]
    local_x, local_y = local[..., 0].copy(), local[..., 1].copy()
    scale = np.abs(local).max(axis=(1, 2))

    # The halfplanes: every usable pair's unit normal in both orientations,
    # then the axes.
    first, second = _upper_pairs(point_count)
    pair_count = first.shape[0]
    x, y = clouds[..., 0], clouds[..., 1]
    delta_x, delta_y = x[:, second] - x[:, first], y[:, second] - y[:, first]
    length = np.sqrt(delta_x * delta_x + delta_y * delta_y)
    equal = (x[:, :, None] == x[:, None, :]) & (y[:, :, None] == y[:, None, :])
    repeated = np.tril(equal, k=-1).any(axis=2)  # equal to an earlier member
    usable = (length > 0.0) & ~repeated[:, first] & ~repeated[:, second]
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
    # as a running top f+1 (max and min pick one of the products exactly).
    top = [np.full((query_count, normal_count), -np.inf) for _ in range(fault_bound + 1)]
    for member in range(point_count):
        value = local_x[:, member, None] * normal_x + local_y[:, member, None] * normal_y
        for place, held in enumerate(top):
            top[place] = np.maximum(held, value)
            np.minimum(held, value, out=value)
    offsets = top[-1]

    # The dual side: turn normals plus the axes.
    member_a, member_b = _halfplane_members(point_count)
    own = offsets[:, : 2 * pair_count]
    pair_x, pair_y = normal_x[:, : 2 * pair_count], normal_y[:, : 2 * pair_count]
    turn = np.tile(usable, 2) & (
        (own == local_x[:, member_a] * pair_x + local_y[:, member_a] * pair_y)
        | (own == local_x[:, member_b] * pair_x + local_y[:, member_b] * pair_y)
    )
    dual = np.concatenate((turn, np.ones((query_count, _AXES.shape[0]), dtype=bool)), axis=1)

    # Which side of -c each normal lies on: the sign of cross(-c, normal),
    # or, for a normal parallel to -c up to rounding, the side of -e1, then
    # of -e2.
    if not objective.any():
        objective = _AXES[0]  # the same sides and the same order
    size = max(abs(objective[0]), abs(objective[1]))
    lean = normal_x * objective[1] - normal_y * objective[0]
    tilt = np.where(np.abs(normal_y) > _PARALLEL_TOLERANCE, -normal_y, normal_x)
    below = np.where(np.abs(lean) <= _PARALLEL_TOLERANCE * size, tilt, lean) < 0.0
    # -c = a * u + b * w with a, b > 0: u on the negative side, w on the
    # positive side and less than π after it.
    u_index, u_valid = _compact(dual & below)
    w_index, w_valid = _compact(dual & ~below)
    u_x, u_y, offset_u = (array[rows, u_index][:, :, None] for array in (normal_x, normal_y, offsets))
    w_x, w_y, offset_w = (array[rows, w_index][:, None, :] for array in (normal_x, normal_y, offsets))
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
    bound = np.where(bracket, values - slack, -np.inf).max(axis=(1, 2))
    on_bound = bracket & (values >= bound[:, None, None] - slack)

    # The primal side: the vertices on the bound against every halfplane,
    # strongest bound first, :data:`_CANDIDATES` at a time; in the first
    # block where any passes, the lexicographically smallest that passes.
    slots, slot_valid = _compact(on_bound.reshape(query_count, -1))
    values, vertex_x, vertex_y, error = (
        array.reshape(query_count, -1)[rows, slots] for array in (values, vertex_x, vertex_y, error)
    )
    order = np.lexsort((-vertex_y, -vertex_x, np.where(slot_valid, -values, np.inf)), axis=1)
    remaining = slot_valid.sum(axis=1)
    certified = np.zeros(query_count, dtype=bool)
    vertex = np.zeros((query_count, 2))
    margin, residual = np.zeros(query_count), np.zeros(query_count)
    pending = queries
    for start in range(0, order.shape[1], _CANDIDATES):
        block = order[pending, start : start + _CANDIDATES]
        at = pending[:, None]
        candidate_x, candidate_y = vertex_x[at, block], vertex_y[at, block]
        violation = (
            candidate_x[:, :, None] * normal_x[at]
            + candidate_y[:, :, None] * normal_y[at]
            - offsets[at]
        ).max(axis=2)
        passed = slot_valid[at, block] & (violation <= error[at, block])
        key = np.where(passed, values[at, block], np.inf)
        pick = np.lexsort((candidate_y, candidate_x, key), axis=1)[:, 0]
        within = np.arange(pending.shape[0])
        hit = passed[within, pick]
        done, pick, within = pending[hit], pick[hit], within[hit]
        certified[done] = True
        vertex[done, 0], vertex[done, 1] = candidate_x[within, pick], candidate_y[within, pick]
        margin[done] = error[at, block][within, pick]
        residual[done] = violation[within, pick]
        pending = pending[~hit & (remaining[pending] > start + _CANDIDATES)]
        if pending.shape[0] == 0:
            break

    # Many vertices of Gamma are members: a member within the vertex's own
    # error that passes the same check is that vertex, without the rounding.
    gaps = np.maximum(np.abs(local_x - vertex[:, :1]), np.abs(local_y - vertex[:, 1:]))
    nearest = gaps.argmin(axis=1)
    member_violation = (
        local_x[queries, nearest, None] * normal_x
        + local_y[queries, nearest, None] * normal_y
        - offsets
    ).max(axis=1)
    snap = (gaps[queries, nearest] <= margin) & (member_violation <= margin)
    points = np.where(snap[:, None], clouds[queries, nearest], centre + vertex)
    residual = np.where(snap, member_violation, residual) / np.where(scale > 0.0, scale, 1.0)
    return points, certified, residual


# ---------------------------------------------------------------------------
# Bitwise equality
# ---------------------------------------------------------------------------

CLOUD_KINDS = ("uniform", "integer_grid", "collinear", "far_cluster", "symmetric")


def _stack(kind: str, query_count: int, point_count: int, seed: int) -> np.ndarray:
    """``query_count`` clouds of ``point_count`` planar members, all of ``kind``."""
    rng = np.random.default_rng(seed)
    shape = (query_count, point_count, 2)
    if kind == "uniform":
        return rng.uniform(-2.0, 2.0, size=shape)
    if kind == "integer_grid":
        # Five values per axis: duplicates, collinear runs and ties on the bound.
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "collinear":
        steps = rng.integers(-4, 5, size=(query_count, point_count, 1)).astype(float)
        direction = rng.choice([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]], size=query_count)
        return rng.integers(-3, 4, size=(query_count, 1, 2)) + steps * direction[:, None, :]
    if kind == "far_cluster":
        return 1e6 + 1e-7 * rng.uniform(-1.0, 1.0, size=shape)
    # Origin-symmetric: every member's mirror image is a member too (and the
    # origin fills an odd count), so the centroid and many products are zeros.
    half = rng.integers(-3, 4, size=(query_count, point_count // 2, 2)).astype(float)
    if rng.random() < 0.5:
        half = rng.uniform(-1.0, 1.0, size=half.shape)
    middle = np.zeros((query_count, point_count % 2, 2))
    return np.concatenate((half, middle, -half), axis=1)


OBJECTIVES = (
    (0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -2.5), (1.0, 1.0), (-0.3, 0.7),
)


def _bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return (
        left.shape == right.shape
        and left.dtype == right.dtype
        and np.array_equal(left, right)
        and np.array_equal(np.signbit(left), np.signbit(right))
    )


@st.composite
def programs(draw):
    """``(clouds, f, objective, chunk)``: up to 60 clouds of one kind.

    ``chunk`` is the queries per chunk (``None``: the kernel's own bound,
    which cuts the larger stacks at ``m >= 14``).
    """
    point_count = draw(st.integers(3, 17))
    fault_bound = draw(st.integers(0, (point_count - 1) // 3))
    query_count = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(CLOUD_KINDS))
    clouds = _stack(kind, query_count, point_count, draw(st.integers(0, 2**32 - 1)))
    objective = draw(
        st.one_of(
            st.sampled_from(OBJECTIVES),
            st.tuples(
                st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False)
            ),
        )
    )
    chunk = draw(st.sampled_from([None, 1, 7]))
    return clouds, fault_bound, np.asarray(objective, dtype=float), chunk


@settings(max_examples=300, deadline=None)
@given(program=programs())
def test_the_program_is_bitwise_its_reference(program):
    clouds, fault_bound, objective, chunk = program
    _, point_count, _ = clouds.shape
    bound = kernel_module._CHUNK_ELEMENTS
    if chunk is not None:
        bound = chunk * (point_count * (point_count - 1) + 4) * point_count
    with mock.patch.object(kernel_module, "_CHUNK_ELEMENTS", bound):
        answer = _planar_gamma_points(clouds, fault_bound, objective)
        with mock.patch.object(kernel_module, "_planar_program", reference_planar_program):
            expected = _planar_gamma_points(clouds, fault_bound, objective)
    for got, want in zip(answer, expected):
        assert _bitwise_equal(got, want)


def test_blocks_of_tied_vertices_are_checked_in_the_reference_order():
    # Integer grids at m = 17 stack more than one block of vertices on the
    # bound for some queries; the later blocks must be reached the same way.
    clouds = _stack("integer_grid", 60, 17, 40)
    for objective in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
        objective = np.asarray(objective)
        for got, want in zip(
            _planar_program(clouds, 5, objective), reference_planar_program(clouds, 5, objective)
        ):
            assert _bitwise_equal(got, want)


# ---------------------------------------------------------------------------
# Call counts
# ---------------------------------------------------------------------------

def program_calls(clouds: np.ndarray, fault_bound: int) -> int:
    """Python-level and C-level function calls one ``_planar_program`` makes.

    ``sys.setprofile`` sees every Python frame and every builtin or method
    call (numpy's Python wrappers, array methods, ``ufunc.reduce``); a
    ufunc applied directly or through an operator is not a call it sees.
    """
    objective = np.asarray([1.0, 0.0])
    _planar_program(clouds, fault_bound, objective)  # warm the caches
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        _planar_program(clouds, fault_bound, objective)
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_program():
    # No timing.  The reference makes 155 calls at either shape (the
    # wrappers np.tril, np.argsort, np.full, np.ones, ndarray.max and .sum
    # and generator steps each add frames), and a Q = 1 query pays for every
    # one of them; the program makes 62 and 59.
    rng = np.random.default_rng(40)
    assert program_calls(rng.uniform(-1.0, 1.0, size=(40, 12, 2)), 1) <= 65
    assert program_calls(rng.uniform(-1.0, 1.0, size=(1, 4, 2)), 1) <= 62
