"""Unit tests for repro.geometry.points."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry import points


class TestAsPoint:
    def test_list_becomes_float_array(self):
        point = points.as_point([1, 2, 3])
        assert point.dtype == float
        assert point.shape == (3,)

    def test_dimension_check_passes(self):
        assert points.as_point([1.0, 2.0], dimension=2).shape == (2,)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(GeometryError):
            points.as_point([1.0, 2.0], dimension=3)

    def test_two_dimensional_input_raises(self):
        with pytest.raises(GeometryError):
            points.as_point(np.zeros((2, 2)))

    def test_empty_point_raises(self):
        with pytest.raises(GeometryError):
            points.as_point([])

    def test_nan_raises(self):
        with pytest.raises(GeometryError):
            points.as_point([1.0, float("nan")])

    def test_infinity_raises(self):
        with pytest.raises(GeometryError):
            points.as_point([float("inf"), 0.0])


class TestAsCloud:
    def test_list_of_rows(self):
        cloud = points.as_cloud([[0.0, 1.0], [2.0, 3.0]])
        assert cloud.shape == (2, 2)

    def test_ndarray_is_copied_read_only(self):
        original = np.zeros((2, 2))
        cloud = points.as_cloud(original)
        assert not np.shares_memory(cloud, original)
        assert not cloud.flags.writeable
        with pytest.raises(ValueError):
            cloud[0, 0] = 5.0
        original[0, 0] = 5.0
        assert cloud[0, 0] == 0.0

    def test_rows_are_read_only(self):
        cloud = points.as_cloud([[0.0, 1.0]])
        with pytest.raises(ValueError):
            cloud[0, 0] = 5.0

    def test_duplicate_rows_are_kept(self):
        # A cloud is a multiset by row index: equal members stay distinct.
        cloud = points.as_cloud([[1.0, 1.0], [1.0, 1.0]])
        assert cloud.shape == (2, 2)
        assert np.array_equal(cloud[0], cloud[1])

    def test_non_finite_raises(self):
        with pytest.raises(GeometryError):
            points.as_cloud(np.array([[0.0, np.inf]]))

    def test_inconsistent_dimensions_raise(self):
        with pytest.raises(GeometryError):
            points.as_cloud([[1.0], [1.0, 2.0]])

    def test_empty_without_dimension_raises(self):
        with pytest.raises(GeometryError):
            points.as_cloud([])

    def test_empty_array_raises(self):
        with pytest.raises(GeometryError):
            points.as_cloud(np.empty((0, 3)))


class TestSummaries:
    def test_centroid(self):
        assert np.allclose(points.centroid([[0.0, 0.0], [2.0, 4.0]]), [1.0, 2.0])

    def test_centroid_of_empty_raises(self):
        with pytest.raises(GeometryError):
            points.centroid(np.empty((0, 2)))
