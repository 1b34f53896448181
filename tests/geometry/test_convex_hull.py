"""Unit tests for repro.geometry.convex_hull."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.convex_hull import (
    contains_point,
    convex_combination_weights,
    distance_to_hull,
    hulls_intersection_point,
)

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

    def test_weights_reconstruct_target(self):
        weights = convex_combination_weights(TRIANGLE, [0.5, 0.5])
        assert weights is not None
        assert weights.sum() == pytest.approx(1.0)
        reconstructed = weights @ np.asarray(TRIANGLE)
        assert np.allclose(reconstructed, [0.5, 0.5], atol=1e-6)

    def test_weights_none_outside(self):
        assert convex_combination_weights(TRIANGLE, [5.0, 5.0]) is None


class TestIntersection:
    def test_overlapping_squares(self):
        shifted = [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]]
        point = hulls_intersection_point([UNIT_SQUARE, shifted])
        assert point is not None
        assert contains_point(UNIT_SQUARE, point, tolerance=1e-6)
        assert contains_point(shifted, point, tolerance=1e-6)

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
        assert contains_point(UNIT_SQUARE, point, tolerance=1e-6)
        assert contains_point(segment, point, tolerance=1e-6)

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

