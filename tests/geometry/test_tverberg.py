"""Unit tests for repro.geometry.tverberg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.convex_hull import contains_point
from repro.geometry.tverberg import (
    figure1_instance,
    find_tverberg_partition,
    iter_index_partitions,
    radon_partition,
    verify_tverberg_partition,
)


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


class TestRadonPartition:
    def test_square_plus_nothing(self):
        # 4 points in the plane always admit a Radon partition.
        partition = radon_partition([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert len(partition.blocks) == 2
        witness = verify_tverberg_partition(partition.multiset, partition.blocks)
        assert witness is not None

    def test_triangle_with_interior_point(self):
        partition = radon_partition([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        # One block must be the interior point alone; the witness is that point.
        sizes = sorted(len(block) for block in partition.blocks)
        assert sizes == [1, 3]
        assert contains_point([[1.0, 1.0]], partition.witness)

    def test_witness_in_both_hulls(self):
        cloud = np.asarray([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.5]])
        partition = radon_partition(cloud)
        for block in partition.blocks:
            assert contains_point(cloud[list(block)], partition.witness)

    def test_too_few_points_raises(self):
        with pytest.raises(GeometryError):
            radon_partition([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_one_dimensional_radon(self):
        partition = radon_partition([[0.0], [1.0], [3.0]])
        assert len(partition.blocks) == 2


class TestFindTverbergPartition:
    def test_single_part_returns_centroid(self):
        partition = find_tverberg_partition([[0.0, 0.0], [2.0, 2.0]], parts=1)
        assert partition is not None
        assert np.allclose(partition.witness, [1.0, 1.0])

    def test_more_parts_than_points_returns_none(self):
        assert find_tverberg_partition([[0.0, 0.0]], parts=2) is None

    def test_three_parts_in_the_plane(self):
        multiset, parts = figure1_instance()
        partition = find_tverberg_partition(multiset, parts)
        assert partition is not None
        assert len(partition.blocks) == 3
        witness = verify_tverberg_partition(partition.multiset, partition.blocks)
        assert witness is not None
        for index in range(len(partition.blocks)):
            block = partition.multiset[list(partition.blocks[index])]
            assert contains_point(block, partition.witness)

    def test_one_dimensional_three_parts(self):
        # 5 points on a line admit a partition into 3 parts with a common point.
        partition = find_tverberg_partition([[0.0], [1.0], [2.0], [3.0], [4.0]], parts=3)
        assert partition is not None

    def test_duplicate_points_are_allowed(self):
        cloud = [[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 3
        partition = find_tverberg_partition(cloud, parts=3)
        assert partition is not None


class TestVerifyPartition:
    def test_rejects_non_partition(self):
        multiset = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(GeometryError):
            verify_tverberg_partition(multiset, [(0, 1), (1, 2)])

    def test_rejects_out_of_range_index(self):
        multiset = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(GeometryError):
            verify_tverberg_partition(multiset, [(0, 1), (3,)])

    def test_rejects_empty_block(self):
        multiset = np.array([[0.0], [1.0]])
        with pytest.raises(GeometryError):
            verify_tverberg_partition(multiset, [(0, 1), ()])

    def test_returns_none_for_disjoint_hulls(self):
        multiset = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert verify_tverberg_partition(multiset, [(0, 1), (2, 3)]) is None


class TestFigure1:
    def test_instance_shape(self):
        multiset, parts = figure1_instance()
        assert multiset.shape == (7, 2)
        assert not multiset.flags.writeable
        assert parts == 3

    def test_matches_paper_parameters(self):
        # n = 7, d = 2, f = 2  =>  n = (d + 1) f + 1 exactly.
        multiset, parts = figure1_instance()
        fault_bound = parts - 1
        assert len(multiset) == (multiset.shape[1] + 1) * fault_bound + 1
