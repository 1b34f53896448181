"""Unit tests for repro.geometry.convex_hull."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.convex_hull import (
    _hull_distance_program,
    contains_point,
    distance_to_hull,
    hulls_intersection_point,
)
from repro.geometry.linprog import _assemble_program, solve_linear_program

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
TRIANGLE = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]


class TestContainment:
    def test_interior_point(self):
        assert contains_point(UNIT_SQUARE, [0.5, 0.5])

    def test_vertex_is_contained(self):
        assert contains_point(UNIT_SQUARE, [1.0, 1.0])

    def test_boundary_point(self):
        assert contains_point(UNIT_SQUARE, [0.5, 0.0])

    def test_outside_point(self):
        assert not contains_point(UNIT_SQUARE, [1.5, 0.5])

    def test_degenerate_segment(self):
        segment = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        assert contains_point(segment, [0.5, 0.5, 0.5])
        assert not contains_point(segment, [0.5, 0.5, 0.6])

    def test_single_point_hull(self):
        assert contains_point([[2.0, 2.0]], [2.0, 2.0])
        assert not contains_point([[2.0, 2.0]], [2.0, 2.1])

    def test_near_and_far_misses_are_outside(self):
        assert not contains_point(TRIANGLE, [5.0, 5.0])
        assert not contains_point(TRIANGLE, [1.0 + 1e-5, 1.0])

    def test_membership_tolerance_is_1e_6(self):
        assert contains_point(UNIT_SQUARE, [1.0 + 5e-7, 0.5])
        assert not contains_point(UNIT_SQUARE, [1.0 + 2e-6, 0.5])

    def test_midpoint_of_a_near_degenerate_segment(self):
        # The weight-feasibility program called this midpoint outside: HiGHS
        # reported it infeasible even without presolve, at distance 0.0.
        segment = np.asarray([[1e-06, 2.0], [1.0463535684904082e-13, 0.0]])
        assert contains_point(segment, segment.mean(axis=0))
        lifted = np.column_stack([segment, np.zeros(2)])
        assert contains_point(lifted, lifted.mean(axis=0))


class TestIntersection:
    def test_overlapping_squares(self):
        shifted = [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]]
        point = hulls_intersection_point([UNIT_SQUARE, shifted])
        assert point is not None
        assert contains_point(UNIT_SQUARE, point)
        assert contains_point(shifted, point)

    def test_disjoint_hulls(self):
        far = [[10.0, 10.0], [11.0, 10.0], [10.0, 11.0]]
        assert hulls_intersection_point([UNIT_SQUARE, far]) is None

    def test_touching_hulls(self):
        left = [[0.0, 0.0], [1.0, 0.0]]
        right = [[1.0, 0.0], [2.0, 0.0]]
        point = hulls_intersection_point([left, right])
        assert point is not None
        assert np.allclose(point, [1.0, 0.0], atol=1e-6)

    def test_three_way_intersection(self):
        a = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
        b = [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]]
        c = [[0.5, 0.5], [0.6, 0.5], [0.5, 0.6]]
        assert hulls_intersection_point([a, b, c]) is not None

    def test_square_and_crossing_segment(self):
        segment = [[0.5, 0.5], [2.0, 2.0]]
        point = hulls_intersection_point([UNIT_SQUARE, segment])
        assert point is not None
        assert contains_point(UNIT_SQUARE, point)
        assert contains_point(segment, point)

    def test_mismatched_dimensions_raise(self):
        with pytest.raises(GeometryError):
            hulls_intersection_point([[[0.0, 0.0]], [[0.0, 0.0, 0.0]]])

    def test_no_hulls_raise(self):
        with pytest.raises(GeometryError):
            hulls_intersection_point([])


class TestDistance:
    def test_zero_inside(self):
        assert distance_to_hull(UNIT_SQUARE, [0.25, 0.75]) == pytest.approx(0.0, abs=1e-7)

    def test_positive_outside(self):
        assert distance_to_hull(UNIT_SQUARE, [2.0, 0.5]) == pytest.approx(1.0, abs=1e-6)

    def test_distance_to_triangle_vertex(self):
        assert distance_to_hull(TRIANGLE, [3.0, 0.0]) == pytest.approx(1.0, abs=1e-6)

    def test_distance_to_single_point(self):
        assert distance_to_hull([[0.0, 0.0]], [0.0, 3.0]) == pytest.approx(3.0, abs=1e-6)

    def test_empty_hull_raises(self):
        with pytest.raises(GeometryError):
            distance_to_hull(np.empty((0, 2)), [0.0, 0.0])


def lp_distance(cloud, target) -> float:
    """The Chebyshev distance as the LP: what ``distance_to_hull`` solves from d = 3 on."""
    result = solve_linear_program(
        **_hull_distance_program(np.asarray(cloud, dtype=float), np.asarray(target, dtype=float))
    )
    return max(0.0, float(result.objective))


def reference_hull_distance_program(cloud: np.ndarray, target: np.ndarray) -> dict:
    """The former builder: two row lists per coordinate, stacked."""
    point_count, dimension = cloud.shape
    objective = np.zeros(point_count + 1)
    objective[-1] = 1.0
    rows, rhs = [], []
    for coordinate in range(dimension):
        row = np.zeros(point_count + 1)
        row[:point_count] = cloud[:, coordinate]
        row[-1] = -1.0
        rows.append(row)
        rhs.append(float(target[coordinate]))
        row = np.zeros(point_count + 1)
        row[:point_count] = -cloud[:, coordinate]
        row[-1] = -1.0
        rows.append(row)
        rhs.append(-float(target[coordinate]))
    equality_matrix = np.zeros((1, point_count + 1))
    equality_matrix[0, :point_count] = 1.0
    return dict(
        objective=objective,
        inequality_matrix=np.vstack(rows),
        inequality_rhs=np.asarray(rhs),
        equality_matrix=equality_matrix,
        equality_rhs=np.asarray([1.0]),
        bounds=(0, None),
    )


def assembled(program: dict) -> list[bytes]:
    """What HiGHS is handed for ``program``, as bytes."""
    objective, matrix, *vectors = _assemble_program(
        program["objective"], program["inequality_matrix"], program["inequality_rhs"],
        program["equality_matrix"], program["equality_rhs"], program["bounds"],
    )
    arrays = [objective, matrix.data, matrix.indices, matrix.indptr, *vectors]
    return [np.asarray(matrix.shape).tobytes()] + [array.tobytes() for array in arrays]


class TestDistanceProgram:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_one_expression_assembles_the_former_program_bitwise(self, dimension):
        rng = np.random.default_rng(dimension)
        for point_count in (1, 4, 9):
            cloud = rng.normal(size=(point_count, dimension))
            cloud[0, 0] = -0.0
            cloud[-1, -1] = 0.0
            target = rng.normal(size=dimension)
            assert assembled(_hull_distance_program(cloud, target)) == assembled(
                reference_hull_distance_program(cloud, target)
            )


class TestPlanarDistanceMatchesTheProgram:
    """At d <= 2 the distance has a closed form; the LP is its oracle, to 1e-12."""

    @staticmethod
    def assert_matches(cloud, target) -> float:
        distance = distance_to_hull(cloud, target)
        assert abs(distance - lp_distance(cloud, target)) <= 1e-12
        return distance

    def test_inside_points_are_exactly_zero(self):
        assert distance_to_hull(UNIT_SQUARE, [0.25, 0.75]) == 0.0
        assert distance_to_hull(TRIANGLE, [0.5, 0.5]) == 0.0
        assert distance_to_hull([[0.0], [2.0], [1.0]], [1.5]) == 0.0

    def test_outside_on_an_edge_and_at_a_vertex(self):
        assert self.assert_matches(UNIT_SQUARE, [2.0, 0.5]) == pytest.approx(1.0)
        assert self.assert_matches(TRIANGLE, [3.0, 3.0]) == pytest.approx(2.0)
        assert self.assert_matches(TRIANGLE, [1.0, 1.0]) <= 1e-15  # on the hypotenuse
        assert self.assert_matches(TRIANGLE, [2.0, 0.0]) <= 1e-15  # a vertex
        assert self.assert_matches([[0.0], [2.0]], [-0.5]) == 0.5

    def test_collinear_and_coincident_inputs(self):
        line = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]
        assert self.assert_matches(line, [1.5, 1.5]) <= 1e-15
        assert self.assert_matches(line, [1.5, 2.5]) == pytest.approx(0.5)
        assert self.assert_matches(line, [5.0, 4.0]) == pytest.approx(2.0)  # from (3, 3)
        assert self.assert_matches([[2.0, -1.0]] * 4, [0.0, 0.5]) == pytest.approx(2.0)

    def test_random_clouds_inside_outside_and_on_edges(self):
        rng = np.random.default_rng(2013)
        for trial in range(300):
            dimension = 1 + trial % 2
            cloud = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 12)), dimension))
            if trial % 3 == 0:
                cloud = np.round(cloud, 1)  # duplicates and collinear runs
            for target in (
                rng.uniform(-3.0, 3.0, size=dimension),
                cloud.mean(axis=0),
                (cloud[0] + cloud[-1]) / 2.0,
            ):
                self.assert_matches(cloud, target)
