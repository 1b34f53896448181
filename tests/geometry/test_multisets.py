"""Unit tests for repro.geometry.multisets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.multisets import PointMultiset, iter_index_partitions


class TestIndexEnumeration:
    def test_partition_counts_match_stirling_numbers(self):
        # Stirling numbers of the second kind: S(4, 2) = 7, S(5, 3) = 25.
        assert len(list(iter_index_partitions(4, 2))) == 7
        assert len(list(iter_index_partitions(5, 3))) == 25

    def test_partitions_cover_all_indices(self):
        for blocks in iter_index_partitions(5, 2):
            flattened = sorted(index for block in blocks for index in block)
            assert flattened == list(range(5))

    def test_partitions_blocks_nonempty(self):
        for blocks in iter_index_partitions(4, 3):
            assert all(len(block) >= 1 for block in blocks)

    def test_partition_into_more_parts_than_elements_is_empty(self):
        assert list(iter_index_partitions(2, 3)) == []


class TestPointMultiset:
    def test_len_and_dimension(self):
        multiset = PointMultiset([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
        assert len(multiset) == 3
        assert multiset.dimension == 2

    def test_duplicates_are_kept(self):
        multiset = PointMultiset([[1.0, 1.0], [1.0, 1.0]])
        assert len(multiset) == 2
        assert np.array_equal(multiset[0], multiset[1])

    def test_points_are_read_only(self):
        multiset = PointMultiset([[0.0, 1.0]])
        with pytest.raises(ValueError):
            multiset.points[0, 0] = 5.0

    def test_equality_and_hash(self):
        a = PointMultiset([[1.0, 2.0]])
        b = PointMultiset([[1.0, 2.0]])
        assert a == b
        assert hash(a) == hash(b)

    def test_select_out_of_range_raises(self):
        with pytest.raises(GeometryError):
            PointMultiset([[0.0]]).select([3])

    def test_select_empty(self):
        empty = PointMultiset([[0.0, 1.0]]).select([])
        assert len(empty) == 0
        assert empty.dimension == 2

    def test_centroid(self):
        multiset = PointMultiset([[0.0, 0.0], [2.0, 2.0]])
        assert np.allclose(multiset.centroid(), [1.0, 1.0])

    def test_centroid_of_empty_raises(self):
        empty = PointMultiset([[0.0]]).select([])
        with pytest.raises(GeometryError):
            empty.centroid()
