"""Unit tests for the shared pure round/decision functions."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.baselines import coordinatewise_median
from repro.core.conditions import SystemConfiguration
from repro.core.restricted_async import RestrictedAsyncProcess
from repro.core.round_ops import (
    approx_round_step,
    approx_subset_families,
    coordinatewise_decision,
    lower_median,
    quorum_families,
    restricted_round_clouds,
    restricted_round_step,
    safe_average,
)
from repro.core.safe_area import SafeAreaCalculator
from repro.exceptions import ProtocolError
from repro.geometry.convex_hull import distance_to_hull

HONEST = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _family_means(clouds: list[np.ndarray], fault_bound: int) -> np.ndarray:
    """Equation (9) the long way: one ``choose`` per cloud, then the mean."""
    chooser = SafeAreaCalculator(fault_bound=fault_bound)
    return np.vstack([chooser.choose(cloud) for cloud in clouds]).mean(axis=0)


class TestSafeAverage:
    def test_fault_free_average_stays_in_hull(self):
        states = np.vstack([HONEST, [[0.5, 0.5]]])
        update = safe_average(
            states, quorum_families(5, 4), SafeAreaCalculator(fault_bound=1).choose_all
        )
        assert distance_to_hull(HONEST, update) < 1e-6

    def test_byzantine_outlier_excluded_from_influence(self):
        # One of the five states is wildly off; every chosen point lies in
        # the hull of each 4-subset, hence in the honest hull.
        states = np.vstack([HONEST, [[1000.0, -1000.0]]])
        update = safe_average(
            states, quorum_families(5, 4), SafeAreaCalculator(fault_bound=1).choose_all
        )
        assert distance_to_hull(HONEST, update) < 1e-5

    def test_families_pick_rows_in_family_order(self):
        states = np.random.default_rng(3).uniform(size=(6, 2))
        families = [(5, 0, 2, 3, 1), (4, 3, 2, 1, 0)]
        update = safe_average(states, families, SafeAreaCalculator(fault_bound=1).choose_all)
        expected = _family_means([states[list(family)] for family in families], 1)
        assert update.tobytes() == expected.tobytes()


class TestRestrictedRoundStep:
    def test_restricted_async_update_equals_restricted_round_step(self):
        # restricted_async's Step 2 is the sorted members' matrix through
        # restricted_round_step at quorum n - 3f: the same clouds, in the
        # same order, as every quorum-subset of the sorted sender ids.
        rng = np.random.default_rng(7)
        configuration = SystemConfiguration(process_count=7, dimension=2, fault_bound=1)
        core = RestrictedAsyncProcess(
            process_id=3,
            configuration=configuration,
            input_vector=np.zeros(2),
            epsilon=0.1,
            value_lower=0.0,
            value_upper=1.0,
        )
        collected = {member: rng.uniform(size=2) for member in (6, 3, 0, 4, 1, 2)}
        members = sorted(collected)
        matrix = np.vstack([collected[member] for member in members])
        update = core.next_state(collected)
        assert update.tobytes() == restricted_round_step(matrix, 1, 4).tobytes()
        clouds = [
            np.vstack([collected[member] for member in family])
            for family in combinations(members, 4)
        ]
        assert update.tobytes() == _family_means(clouds, 1).tobytes()

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
        events = kernel_events()
        update = restricted_round_step(received, fault_bound=1, quorum=4)
        assert (events.batch_calls, events.batch_queries, events.single_queries) == (1, 5, 0)
        expected = _family_means(list(restricted_round_clouds(received, 4)), 1)
        assert update.tobytes() == expected.tobytes()


class TestApproxRoundStep:
    def test_witness_families_match_per_family_clouds(self, kernel_events):
        # Each family's cloud holds its members' tuples in the family's
        # order, whatever order the tuples arrived in; one batch per update.
        rng = np.random.default_rng(11)
        tuples = {member: rng.uniform(size=2) for member in (4, 0, 3, 1, 2)}
        families = approx_subset_families(
            list(tuples), {7: (3, 4, 0, 1), 8: (2, 1, 0, 4)}, 4
        )
        events = kernel_events()
        update = approx_round_step(tuples, families, SafeAreaCalculator(fault_bound=1))
        assert (events.batch_calls, events.batch_queries) == (1, 2)
        clouds = [np.vstack([tuples[member] for member in family]) for family in families]
        assert update.tobytes() == _family_means(clouds, 1).tobytes()


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
    def test_without_witness_reports_every_subset_in_member_order(self):
        families = approx_subset_families([3, 1, 2], {}, quorum=2)
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
        )
        assert families == [(0, 1), (2, 3)]

    def test_witness_mode_falls_back_to_enumeration(self):
        families = approx_subset_families([0, 1, 2], {10: (0, 9)}, quorum=2)
        assert families == [(0, 1), (0, 2), (1, 2)]
