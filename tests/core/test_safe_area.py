"""Unit tests for the safe area Gamma(Y) (definition (1), Lemma 1, Section 2.2 LP)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.safe_area import (
    SafeAreaCalculator,
    safe_area_contains,
    safe_area_is_empty,
    safe_area_point,
    safe_area_point_via_tverberg,
    safe_area_subset_count,
)
from repro.exceptions import EmptyIntersectionError, GeometryError
from repro.geometry.convex_hull import distance_to_hull

SQUARE_PLUS_CENTER = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
BASIS_PLUS_ORIGIN_3D = np.vstack([np.eye(3), np.zeros((1, 3))])


class TestSubsetCount:
    def test_formula(self):
        assert safe_area_subset_count(5, 1) == 5
        assert safe_area_subset_count(7, 2) == 21

    def test_invalid(self):
        with pytest.raises(GeometryError):
            safe_area_subset_count(3, -1)
        with pytest.raises(GeometryError):
            safe_area_subset_count(3, 4)


class TestSafeAreaPoint:
    def test_lemma1_point_exists_at_the_bound(self):
        # |Y| = 5 >= (2+1)*1 + 1 = 4 in the plane.
        point = safe_area_point(SQUARE_PLUS_CENTER, fault_bound=1)
        assert point is not None
        assert safe_area_contains(SQUARE_PLUS_CENTER, 1, point, tolerance=1e-5)

    def test_point_is_in_every_leave_f_out_hull(self):
        cloud = np.asarray(SQUARE_PLUS_CENTER)
        point = safe_area_point(cloud, fault_bound=1)
        for indices in combinations(range(len(cloud)), len(cloud) - 1):
            assert distance_to_hull(cloud[list(indices)], point) < 1e-5

    def test_empty_below_the_bound(self):
        # The Theorem 1 construction: d+1 points in R^d make Gamma empty for f=1.
        assert safe_area_is_empty(BASIS_PLUS_ORIGIN_3D, fault_bound=1)
        assert safe_area_point(BASIS_PLUS_ORIGIN_3D, fault_bound=1) is None

    def test_zero_faults_returns_centroid(self):
        point = safe_area_point(SQUARE_PLUS_CENTER, fault_bound=0)
        assert np.allclose(point, SQUARE_PLUS_CENTER.mean(axis=0))

    def test_duplicate_points_are_fine(self):
        cloud = np.asarray([[1.0, 1.0]] * 5)
        point = safe_area_point(cloud, fault_bound=1)
        assert np.allclose(point, [1.0, 1.0], atol=1e-6)

    def test_one_dimensional_gamma_is_trimmed_interval(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        point = safe_area_point(cloud, fault_bound=1)
        # Gamma = [1, 3] (dropping one extreme from each side).
        assert 1.0 - 1e-6 <= float(point[0]) <= 3.0 + 1e-6

    def test_objective_steers_the_choice(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        low = safe_area_point(cloud, 1, objective=np.asarray([1.0]))
        high = safe_area_point(cloud, 1, objective=np.asarray([-1.0]))
        assert float(low[0]) == pytest.approx(1.0, abs=1e-6)
        assert float(high[0]) == pytest.approx(3.0, abs=1e-6)

    def test_explicit_subset_families(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        point = safe_area_point(cloud, 1, subset_indices=[(0, 1, 2, 3), (1, 2, 3, 4)])
        assert point is not None

    def test_bad_subset_family_rejected(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(GeometryError):
            safe_area_point(cloud, 1, subset_indices=[(0, 1)])

    def test_bad_objective_rejected(self):
        with pytest.raises(GeometryError):
            safe_area_point(SQUARE_PLUS_CENTER, 1, objective=np.asarray([1.0, 2.0, 3.0]))

    def test_more_faults_than_points(self):
        assert safe_area_point(np.asarray([[0.0], [1.0]]), fault_bound=3) is None


class TestTverbergRoute:
    def test_matches_lp_route_on_small_instance(self):
        lp_point = safe_area_point(SQUARE_PLUS_CENTER, 1)
        tverberg_point = safe_area_point_via_tverberg(SQUARE_PLUS_CENTER, 1)
        assert lp_point is not None and tverberg_point is not None
        # Both must lie in Gamma (they need not coincide).
        assert safe_area_contains(SQUARE_PLUS_CENTER, 1, tverberg_point, tolerance=1e-5)

    def test_empty_for_insufficient_points(self):
        assert safe_area_point_via_tverberg(BASIS_PLUS_ORIGIN_3D, 1) is None

    def test_zero_faults(self):
        point = safe_area_point_via_tverberg(SQUARE_PLUS_CENTER, 0)
        assert np.allclose(point, SQUARE_PLUS_CENTER.mean(axis=0))


class TestSafeAreaCalculator:
    def test_deterministic_choice(self):
        calculator = SafeAreaCalculator(fault_bound=1)
        first = calculator.choose(SQUARE_PLUS_CENTER)
        second = calculator.choose(SQUARE_PLUS_CENTER)
        assert np.allclose(first, second)

    def test_identical_across_instances(self):
        # Two independent calculators (as at two different processes) must make
        # the same choice on the same multiset — required for agreement.
        a = SafeAreaCalculator(fault_bound=1).choose(SQUARE_PLUS_CENTER)
        b = SafeAreaCalculator(fault_bound=1).choose(SQUARE_PLUS_CENTER)
        assert np.allclose(a, b)

    def test_raises_on_empty_gamma(self):
        with pytest.raises(EmptyIntersectionError):
            SafeAreaCalculator(fault_bound=1).choose(BASIS_PLUS_ORIGIN_3D)

    def test_custom_tie_break(self):
        cloud = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        calculator = SafeAreaCalculator(fault_bound=1, tie_break_objective=(-1.0,))
        assert float(calculator.choose(cloud)[0]) == pytest.approx(3.0, abs=1e-6)

    def test_collapsed_states_yield_that_point(self):
        # All states identical (the fixed point of the iterative algorithms).
        cloud = np.asarray([[2.0, -3.0]] * 4)
        point = SafeAreaCalculator(fault_bound=1).choose(cloud)
        assert np.allclose(point, [2.0, -3.0], atol=1e-5)
