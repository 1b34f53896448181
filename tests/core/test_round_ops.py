"""Unit tests for the shared pure round/decision functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import SafeAverageAggregator
from repro.core.baselines import coordinatewise_median
from repro.core.round_ops import (
    approx_subset_families,
    coordinatewise_decision,
    lower_median,
    quorum_families,
    restricted_round_clouds,
    restricted_round_step,
)
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ProtocolError


class TestRestrictedRoundStep:
    def test_matches_the_aggregator_on_full_membership(self):
        # The process classes used SafeAverageAggregator before the
        # extraction; on a full 0..n-1 membership the pure function must
        # reproduce its update bit for bit.
        rng = np.random.default_rng(7)
        received = rng.uniform(0.0, 1.0, size=(5, 2))
        aggregator = SafeAverageAggregator(fault_bound=1, quorum=4)
        step = aggregator.aggregate({i: received[i] for i in range(5)})
        update = restricted_round_step(received, fault_bound=1, quorum=4)
        assert np.array_equal(step.new_state, update)

    def test_cloud_enumeration_is_lexicographic(self):
        received = np.arange(8.0).reshape(4, 2)
        clouds = restricted_round_clouds(received, quorum=3)
        families = quorum_families(4, 3)
        assert families == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for cloud, family in zip(clouds, families):
            assert np.array_equal(cloud, received[list(family)])

    def test_memoised_choose_is_transparent(self):
        rng = np.random.default_rng(8)
        received = rng.uniform(0.0, 1.0, size=(5, 2))
        plain = restricted_round_step(received, fault_bound=1, quorum=4)
        chooser = SafeAreaCalculator(fault_bound=1)
        cache: dict[bytes, np.ndarray] = {}

        def memoised(clouds: np.ndarray) -> list[np.ndarray]:
            for cloud in clouds:
                if cloud.tobytes() not in cache:
                    cache[cloud.tobytes()] = chooser.choose(cloud)
            return [cache[cloud.tobytes()] for cloud in clouds]

        assert np.array_equal(
            plain, restricted_round_step(received, fault_bound=1, quorum=4, choose_all=memoised)
        )

    def test_one_kernel_batch_per_update(self, kernel_events):
        # The object runtime hands a round's clouds over at once: one batch
        # whose answers are the ones each cloud gets alone.
        received = np.random.default_rng(10).uniform(0.0, 1.0, size=(5, 2))
        chooser = SafeAreaCalculator(fault_bound=1)
        events = kernel_events()
        update = restricted_round_step(received, fault_bound=1, quorum=4)
        step = SafeAverageAggregator(fault_bound=1, quorum=4).aggregate(
            {i: received[i] for i in range(5)}
        )
        assert (events.batch_calls, events.batch_queries, events.single_queries) == (2, 10, 0)
        singles = [chooser.choose(cloud) for cloud in restricted_round_clouds(received, 4)]
        assert np.array_equal(update, np.vstack(singles).mean(axis=0))
        assert all(map(np.array_equal, step.chosen_points, singles))


class TestLowerMedian:
    def test_odd_count(self):
        assert lower_median(np.asarray([3.0, 1.0, 2.0])) == 2.0

    def test_even_count_takes_lower_of_middle_pair(self):
        assert lower_median(np.asarray([1.0, 2.0, 3.0, 4.0])) == 2.0

    def test_single_value(self):
        assert lower_median(np.asarray([7.0])) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ProtocolError):
            lower_median(np.asarray([]))

    def test_duplicates_and_negative_values(self):
        assert lower_median(np.asarray([-1.0, 5.0, -1.0, 5.0])) == -1.0

    def test_input_is_left_unsorted(self):
        values = np.asarray([3.0, 1.0, 2.0])
        lower_median(values)
        assert values.tolist() == [3.0, 1.0, 2.0]


class TestCoordinatewiseDecision:
    def test_matches_baseline_median(self):
        rng = np.random.default_rng(9)
        cloud = rng.uniform(-1.0, 1.0, size=(6, 3))
        assert np.array_equal(coordinatewise_decision(cloud), coordinatewise_median(cloud))


class TestApproxSubsetFamilies:
    def test_all_subsets_mode(self):
        families = approx_subset_families([3, 1, 2], {}, quorum=2, subset_mode="all_subsets")
        assert families == [(1, 3), (2, 3), (1, 2)]  # member order, sorted within

    def test_witness_mode_filters_and_dedupes(self):
        families = approx_subset_families(
            [0, 1, 2, 3],
            {
                10: (1, 0),       # valid
                11: (0, 1),       # duplicate of the first after sorting
                12: (0, 9),       # unknown member -> dropped
                13: (0, 1, 2),    # wrong size -> dropped
                14: (2, 3),       # valid
            },
            quorum=2,
            subset_mode="witness_subsets",
        )
        assert families == [(0, 1), (2, 3)]

    def test_witness_mode_falls_back_to_enumeration(self):
        families = approx_subset_families(
            [0, 1, 2], {10: (0, 9)}, quorum=2, subset_mode="witness_subsets"
        )
        assert families == [(0, 1), (0, 2), (1, 2)]
