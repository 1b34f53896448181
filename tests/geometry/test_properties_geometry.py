"""Property-based tests (hypothesis) for the geometry substrate.

These check the structural invariants the BVC algorithms rely on:

* convex combinations of a cloud lie in its hull;
* the centroid of any cloud is in its hull; hull membership is preserved
  under taking super-clouds;
* the distance-to-hull function is zero exactly on members of the hull;
* Radon / Tverberg partitions produce witnesses inside every block's hull;
* ``Gamma(Y)`` is non-empty whenever ``|Y| >= (d+1)f + 1`` (Lemma 1), and any
  point of ``Gamma`` lies in the hull of every ``(|Y|-f)``-subset.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.safe_area import safe_area_contains, safe_area_point
from repro.geometry.convex_hull import (
    contains_point,
    distance_to_hull,
)
from repro.geometry.tverberg import radon_partition

# Bounded, well-scaled coordinates keep the LPs numerically tame and the
# examples meaningful.
coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def cloud_strategy(min_points: int, max_points: int, dimension: int):
    return st.lists(
        st.lists(coordinate, min_size=dimension, max_size=dimension),
        min_size=min_points,
        max_size=max_points,
    ).map(lambda rows: np.asarray(rows, dtype=float))


@settings(max_examples=40, deadline=None)
@given(cloud=cloud_strategy(1, 6, 2))
@example(cloud=np.asarray([[1e-06, 2.0], [1.0463535684904082e-13, 0.0]]))
def test_centroid_is_in_hull(cloud):
    centroid = cloud.mean(axis=0)
    assert contains_point(cloud, centroid)


@settings(max_examples=40, deadline=None)
@given(cloud=cloud_strategy(1, 6, 2), extra=st.lists(coordinate, min_size=2, max_size=2))
def test_hull_membership_monotone_under_adding_points(cloud, extra):
    target = cloud[0]
    bigger = np.vstack([cloud, np.asarray(extra, dtype=float)[None, :]])
    assert contains_point(bigger, target)


@settings(max_examples=40, deadline=None)
@given(
    cloud=cloud_strategy(1, 6, 3),
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
)
def test_convex_combinations_are_inside(cloud, weights):
    raw = np.asarray(weights[: cloud.shape[0]], dtype=float)
    if raw.sum() <= 1e-9:
        raw = np.ones(cloud.shape[0])
    raw = raw / raw.sum()
    target = raw @ cloud
    assert contains_point(cloud, target)
    assert distance_to_hull(cloud, target) < 1e-6


@settings(max_examples=40, deadline=None)
@given(cloud=cloud_strategy(2, 6, 2))
def test_distance_zero_iff_contained(cloud):
    member = cloud[-1]
    assert distance_to_hull(cloud, member) < 1e-6
    far_away = cloud.max(axis=0) + 5.0
    assert distance_to_hull(cloud, far_away) > 1.0


@settings(max_examples=30, deadline=None)
@given(cloud=cloud_strategy(4, 6, 2))
def test_radon_witness_lies_in_both_blocks(cloud):
    partition = radon_partition(cloud)
    for block in partition.blocks:
        assert distance_to_hull(cloud[list(block)], partition.witness) <= 1e-5


@settings(max_examples=25, deadline=None)
@given(cloud=cloud_strategy(4, 7, 2))
def test_lemma1_gamma_nonempty_for_f1(cloud):
    # |Y| >= 4 = (d+1)*1 + 1 in the plane, so Gamma with f = 1 is never empty.
    point = safe_area_point(cloud, fault_bound=1)
    assert point is not None
    assert safe_area_contains(cloud, 1, point, tolerance=1e-5)


@settings(max_examples=25, deadline=None)
@given(cloud=cloud_strategy(4, 6, 1))
def test_gamma_point_in_every_leave_f_out_hull_1d(cloud):
    point = safe_area_point(cloud, fault_bound=1)
    assert point is not None
    for indices in combinations(range(len(cloud)), len(cloud) - 1):
        assert distance_to_hull(cloud[list(indices)], point) < 1e-5
