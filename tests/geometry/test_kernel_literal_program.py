"""The kernel against the literal Section 2.2 program: the oracle harness.

:class:`~repro.geometry.kernel.GammaKernel` answers ``d <= 2`` queries
without an LP and ``d = 3`` queries with a template-assembled LP.  The
literal dense program :func:`~repro.core.safe_area.safe_area_point`, handed
the same pruned subset family, is the oracle for both:

* at ``d = 3`` it describes the identical equality system row for row, so
  HiGHS must resolve both to the same vertex — bit for bit, across the
  small-``n`` regime the paper's experiments live in and on the coordinate
  patterns where a sparse assembly could plausibly diverge from a dense one
  (stored exact zeros, ``1e-12`` entries, duplicate members);
* at ``d <= 2`` the closed form must agree on emptiness, return a point of
  depth at least ``f + 1`` whose depth margin — the smallest ``k(u) - u.z``
  over all directions, ``k(u)`` the ``(f+1)``-th largest member projection
  — is at least ``-1e-9`` of the cloud's scale, and reach a ``c.z`` no
  worse than the program's, within ``1e-9`` of the scale, whenever the
  program's point lies in ``Gamma``.  A zero objective asks for the
  lexicographic minimum, whose ``x`` is the optimum of the first-axis
  objective.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safe_area import safe_area_point
from repro.geometry.kernel import GammaKernel, halfspace_depth, pruned_subset_family

CLOUD_KINDS = ("uniform", "exact_zeros", "tiny", "integer_grid")

#: Tolerance of every closed-form check, relative to ``max(1, max |y|)``.
TOLERANCE = 1e-9


def _cloud(point_count: int, dimension: int, seed: int, kind: str = "uniform") -> np.ndarray:
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-2.0, 2.0, size=(point_count, dimension))
    if kind == "exact_zeros":
        cloud[rng.random(cloud.shape) < 0.4] = 0.0
    elif kind == "tiny":
        cloud[rng.random(cloud.shape) < 0.4] = 1e-12
    elif kind == "integer_grid":
        # Five grid values per axis: duplicates and collinear runs are certain.
        cloud = rng.integers(-2, 3, size=(point_count, dimension)).astype(float)
    return cloud


def _literal(cloud: np.ndarray, fault_bound: int, objective: np.ndarray | None):
    return safe_area_point(
        cloud,
        fault_bound,
        subset_indices=pruned_subset_family(cloud, fault_bound),
        objective=objective,
    )


def _assert_bitwise(kernel_point, literal_point) -> None:
    assert (kernel_point is None) == (literal_point is None)
    if kernel_point is not None:
        assert kernel_point.tobytes() == literal_point.tobytes()


def depth_margin(cloud: np.ndarray, fault_bound: int, point: np.ndarray) -> float:
    """``min_u k(u) - u.z``: non-negative exactly on ``Gamma``.

    ``k(u) - u.z`` is ``u.(y - z)`` for one member ``y`` between two angles
    at which member projections swap, so its minimum over the circle sits at
    such an angle or where ``u`` points from a member to ``z``.  Those finitely
    many directions (at ``d = 1``, the two of the line) make this exact.
    """
    if cloud.shape[1] == 1:
        directions = np.asarray([[1.0], [-1.0]])
    else:
        differences = (cloud[:, None, :] - cloud[None, :, :]).reshape(-1, 2)
        towards = point[None, :] - cloud
        candidates = np.vstack(
            [np.column_stack([-differences[:, 1], differences[:, 0]]), towards, np.eye(2)]
        )
        candidates = np.vstack([candidates, -candidates])
        norms = np.linalg.norm(candidates, axis=1)
        directions = candidates[norms > 0.0] / norms[norms > 0.0, None]
    rank = cloud.shape[0] - fault_bound - 1
    depth = np.partition(cloud @ directions.T, rank, axis=0)[rank]
    return float(np.min(depth - directions @ point))


def assert_closed_form_matches_the_program(cloud, fault_bound, objective, kernel_events) -> bool:
    """One ``d <= 2`` query against the oracle; True when the closed form answered.

    The closed form's answer must lie in ``Gamma`` (margin and depth) and be
    no worse than the program's whenever the program's own point lies in
    ``Gamma`` up to rounding — on features below ~1e-7 HiGHS can return a
    point outside it.
    An answer from the relaxed program (certificate failed) only has to
    agree on emptiness: that program minimises a slack, not the objective.
    """
    dimension = cloud.shape[1]
    events = kernel_events()
    point = GammaKernel().point(cloud, fault_bound, objective=objective)
    first_axis = np.eye(dimension)[0]
    target = first_axis if objective is None or not np.any(objective) else np.asarray(objective)
    literal = _literal(cloud, fault_bound, target)
    assert events.lp_solves == 0
    assert (point is None) == (literal is None), (point, literal)
    if point is None or events.relaxed_solves:
        return False
    scale = max(1.0, float(np.max(np.abs(cloud))))
    assert depth_margin(cloud, fault_bound, point) >= -TOLERANCE * scale
    assert halfspace_depth(cloud, point) >= fault_bound + 1
    if depth_margin(cloud, fault_bound, literal) >= -1e-14 * scale:
        assert float(target @ point) <= float(target @ literal) + TOLERANCE * scale
    return True


class TestKernelMatchesLiteralProgram:
    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("point_count", range(4, 14))
    def test_spatial_query_is_bitwise_the_literal_program(self, point_count, kind, kernel_events):
        fault_bound = 1
        cloud = _cloud(point_count, 3, 100 + point_count * 10 + 3, kind)
        kernel, events = GammaKernel(), kernel_events()
        for objective in (None, np.asarray([1.0, 0.0, 0.0])):
            _assert_bitwise(
                kernel.point(cloud, fault_bound, objective=objective),
                _literal(cloud, fault_bound, objective),
            )
        # Every solve went through a template: there is no other route.
        assert events.dense_solves == 0 and events.closed_form_answers == 0
        assert events.template_hits + events.template_misses == events.lp_solves

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("point_count", range(4, 14))
    @pytest.mark.parametrize("dimension", (1, 2))
    def test_closed_form_reaches_the_literal_optimum(
        self, point_count, dimension, kind, kernel_events
    ):
        seed = 100 + point_count * 10 + dimension
        cloud = _cloud(point_count, dimension, seed, kind)
        random_objective = np.random.default_rng(seed).normal(size=dimension)
        for fault_bound in (1, 2):
            at_the_bound = point_count >= (dimension + 1) * fault_bound + 1
            for objective in (None, np.eye(dimension)[0], -np.eye(dimension)[0], random_objective):
                answered = assert_closed_form_matches_the_program(
                    cloud, fault_bound, objective, kernel_events
                )
                assert answered or not at_the_bound  # Lemma 1: Gamma is non-empty

    def test_round_pass_matches_the_literal_program(self):
        fault_bound = 2
        clouds = [_cloud(point_count, 2, seed=point_count) for point_count in range(7, 12)]
        points = GammaKernel().points_multi(clouds, fault_bound, objective=[1.0, 0.0])
        assert len(points) == len(clouds)
        for cloud, point in zip(clouds, points):
            literal = _literal(cloud, fault_bound, np.asarray([1.0, 0.0]))
            assert (point is None) == (literal is None)
            if point is not None:
                assert abs(point[0] - literal[0]) <= TOLERANCE * max(1.0, np.abs(cloud).max())

    def test_square_cloud_pins_the_lexicographic_tie_rule(self):
        # The 4 x 4 grid with f = 1: Gamma is [0, 3]^2 with its corners cut
        # along x + y = 1 and its mirror images, so every axis objective and
        # the diagonal one is optimal along a whole edge.  The answer is the
        # edge's lexicographically smallest end, whatever a solver would pick.
        cloud = np.asarray([[x, y] for x in range(4) for y in range(4)], dtype=float)
        expected = {
            (1.0, 0.0): (0.0, 1.0),
            (0.0, 0.0): (0.0, 1.0),
            (-1.0, 0.0): (3.0, 1.0),
            (0.0, 1.0): (1.0, 0.0),
            (0.0, -1.0): (1.0, 3.0),
            (1.0, 1.0): (0.0, 1.0),
            (-1.0, -1.0): (2.0, 3.0),
        }
        for objective, corner in expected.items():
            point = GammaKernel().point(cloud, 1, objective=objective)
            assert np.allclose(point, corner, rtol=0.0, atol=1e-12), (objective, point)
            assert halfspace_depth(cloud, point) >= 2
        zero = GammaKernel().point(cloud, 1, objective=[0.0, 0.0])
        assert np.array_equal(GammaKernel().point(cloud, 1), zero)

    def test_one_dimension_takes_an_interval_end(self, kernel_events):
        cloud = np.asarray([[3.0], [-1.0], [7.0], [0.5], [2.0]])
        kernel, events = GammaKernel(), kernel_events()
        assert kernel.point(cloud, 1, objective=[2.0])[0] == 0.5
        assert kernel.point(cloud, 1, objective=[-0.5])[0] == 3.0
        assert kernel.point(cloud, 1)[0] == 0.5  # zero objective: the lexicographic minimum
        assert events.lp_solves == 0 and events.closed_form_answers == 3


# ---------------------------------------------------------------------------
# Hypothesis: the shapes where a closed form could go wrong
# ---------------------------------------------------------------------------

coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
fault_bounds = st.sampled_from([1, 2, 3, 4])


def _point_count(draw, dimension: int, fault_bound: int) -> int:
    """Exactly at Lemma 1's bound, where Gamma is a single Tverberg point, or a little above."""
    return (dimension + 1) * fault_bound + 1 + draw(st.sampled_from([0, 0, 1, 3]))


@st.composite
def near_collinear(draw):
    fault_bound = draw(fault_bounds)
    count = _point_count(draw, 2, fault_bound)
    origin = np.asarray(draw(st.tuples(coordinate, coordinate)))
    direction = np.asarray(draw(st.tuples(coordinate, coordinate)))
    steps = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
    jitter = st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False)
    offsets = draw(st.lists(st.tuples(jitter, jitter), min_size=count, max_size=count))
    cloud = origin + np.asarray(steps, dtype=float)[:, None] * direction + np.asarray(offsets)
    return cloud, fault_bound


@st.composite
def duplicate_heavy(draw):
    fault_bound = draw(fault_bounds)
    dimension = draw(st.sampled_from([1, 2]))
    count = _point_count(draw, dimension, fault_bound)
    point = st.lists(coordinate, min_size=dimension, max_size=dimension)
    values = draw(st.lists(point, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=count, max_size=count))
    return np.asarray([values[pick] for pick in picks], dtype=float), fault_bound


@st.composite
def integer_grid(draw):
    fault_bound = draw(fault_bounds)
    dimension = draw(st.sampled_from([1, 2]))
    count = _point_count(draw, dimension, fault_bound)
    cells = st.lists(st.integers(-3, 3), min_size=dimension, max_size=dimension)
    return np.asarray(draw(st.lists(cells, min_size=count, max_size=count)), dtype=float), fault_bound


@st.composite
def general_position(draw):
    fault_bound = draw(fault_bounds)
    dimension = draw(st.sampled_from([1, 2]))
    count = _point_count(draw, dimension, fault_bound)
    point = st.lists(coordinate, min_size=dimension, max_size=dimension)
    return np.asarray(draw(st.lists(point, min_size=count, max_size=count)), dtype=float), fault_bound


objectives = st.one_of(
    st.just("zero"), st.just("first_axis"), st.tuples(coordinate, coordinate)
)

SHAPES = [near_collinear(), duplicate_heavy(), integer_grid(), general_position()]
SHAPE_IDS = ["near-collinear", "duplicate-heavy", "integer-grid", "general-position"]


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_closed_form_answers_are_certified_oracle_optima(shape, kernel_events):
    answered: list[bool] = []

    @settings(max_examples=60, deadline=None)
    @given(query=shape, choice=objectives)
    def check(query, choice):
        cloud, fault_bound = query
        dimension = cloud.shape[1]
        if choice == "zero":
            objective = np.zeros(dimension)
        elif choice == "first_axis":
            objective = np.eye(dimension)[0]
        else:
            objective = np.asarray(choice[:dimension], dtype=float)
        answered.append(
            assert_closed_form_matches_the_program(cloud, fault_bound, objective, kernel_events)
        )

    check()
    # The relaxed program is the exception: Gamma is never empty at these sizes.
    assert sum(answered) >= 0.8 * len(answered)
