"""Unit tests for repro.byzantine.strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.strategies import (
    CoordinateAttackStrategy,
    CrashStrategy,
    EquivocationStrategy,
    OutsideHullStrategy,
    RandomNoiseStrategy,
)
from repro.exceptions import ByzantineBehaviorError, ConfigurationError
from repro.network.message import Message


def make_message(recipient=1, payload=None, round_index=1):
    if payload is None:
        payload = {"value": (0.25, 0.75)}
    return Message(sender=9, recipient=recipient, protocol="p", kind="K",
                   payload=payload, round_index=round_index)


class TestCrashStrategy:
    def test_immediate_crash_drops_all(self):
        strategy = CrashStrategy()
        assert strategy.mutate(make_message(round_index=1)) == []
        assert strategy.mutate(make_message(round_index=None)) == []

    def test_crash_after_round(self):
        strategy = CrashStrategy(crash_round=3)
        assert strategy.mutate(make_message(round_index=1)) != []
        assert strategy.mutate(make_message(round_index=2)) != []
        assert strategy.mutate(make_message(round_index=3)) == []
        # Once crashed, even untagged messages are suppressed.
        assert strategy.mutate(make_message(round_index=None)) == []

    def test_round_free_traffic_before_crash_passes(self):
        # A deferred crash (crash_round > 1) must let round-free traffic
        # (round_index=None, e.g. one-shot broadcasts) through while the
        # process is still alive — only round-tagged traffic can trigger the
        # crash.
        strategy = CrashStrategy(crash_round=2)
        untagged = make_message(round_index=None)
        assert strategy.mutate(untagged) == [untagged]
        # Still alive after round-1 traffic and further untagged messages.
        assert strategy.mutate(make_message(round_index=1)) != []
        later_untagged = make_message(round_index=None)
        assert strategy.mutate(later_untagged) == [later_untagged]

    def test_round_free_traffic_after_crash_is_dropped(self):
        strategy = CrashStrategy(crash_round=2)
        assert strategy.mutate(make_message(round_index=None)) != []
        # The round-2 message triggers the crash; everything after — tagged
        # or round-free — is suppressed, and the crash is permanent even if
        # later traffic carries an earlier round tag.
        assert strategy.mutate(make_message(round_index=2)) == []
        assert strategy.mutate(make_message(round_index=None)) == []
        assert strategy.mutate(make_message(round_index=1)) == []


class TestEquivocationStrategy:
    def test_different_recipients_get_different_values(self):
        pool = [[0.0, 0.0], [1.0, 1.0]]
        strategy = EquivocationStrategy(pool)
        to_even = strategy.mutate(make_message(recipient=2))[0]
        to_odd = strategy.mutate(make_message(recipient=3))[0]
        assert to_even.payload["value"] != to_odd.payload["value"]

    def test_same_recipient_is_consistent(self):
        strategy = EquivocationStrategy([[0.0, 0.0], [1.0, 1.0]])
        first = strategy.mutate(make_message(recipient=2))[0]
        second = strategy.mutate(make_message(recipient=2))[0]
        assert first.payload == second.payload

    def test_mismatched_vector_dimension_rejected(self):
        # Tiling a 3-vector into a 2-leaf would recycle coordinates and
        # report a value nobody chose; the strategy must refuse instead.
        strategy = EquivocationStrategy([[5.0, 6.0, 7.0]])
        with pytest.raises(ByzantineBehaviorError):
            strategy.mutate(make_message(payload={"value": (0.0, 0.0)}))

    def test_scalar_leaves_get_first_coordinate(self):
        # Per-coordinate broadcasts carry scalar leaves; those are replaced
        # by the pool vector's first coordinate, never rejected.
        strategy = EquivocationStrategy([[5.0, 6.0, 7.0]])
        mutated = strategy.mutate(make_message(recipient=3, payload={"value": 0.25}))[0]
        assert mutated.payload["value"] == 5.0

    def test_matching_vector_dimension_replaced(self):
        strategy = EquivocationStrategy([[5.0, 6.0]])
        mutated = strategy.mutate(make_message(payload={"value": (0.0, 0.0)}))[0]
        assert mutated.payload["value"] == (5.0, 6.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            EquivocationStrategy([])


class TestOutsideHullStrategy:
    def test_values_shifted_far_away(self):
        strategy = OutsideHullStrategy(offset=100.0, scale=2.0)
        mutated = strategy.mutate(make_message())[0]
        assert mutated.payload["value"] == (100.5, 101.5)

    def test_metadata_untouched(self):
        strategy = OutsideHullStrategy()
        payload = {"round": 4, "members": [0, 1], "value": (0.5,)}
        mutated = strategy.mutate(make_message(payload=payload))[0]
        assert mutated.payload["round"] == 4
        assert mutated.payload["members"] == [0, 1]


class TestRandomNoiseStrategy:
    def test_values_within_box(self):
        strategy = RandomNoiseStrategy(low=-2.0, high=2.0, seed=1)
        for _ in range(20):
            mutated = strategy.mutate(make_message())[0]
            values = np.asarray(mutated.payload["value"])
            assert np.all(values >= -2.0) and np.all(values <= 2.0)

    def test_deterministic_given_seed(self):
        first = RandomNoiseStrategy(seed=5).mutate(make_message())[0]
        second = RandomNoiseStrategy(seed=5).mutate(make_message())[0]
        assert first.payload == second.payload

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RandomNoiseStrategy(low=1.0, high=0.0)


class TestCoordinateAttackStrategy:
    def test_vector_coordinate_overridden(self):
        strategy = CoordinateAttackStrategy(coordinate=1, target=9.0)
        mutated = strategy.mutate(make_message(payload={"value": (0.1, 0.2, 0.3)}))[0]
        assert mutated.payload["value"] == (0.1, 9.0, 0.3)

    def test_scalar_leaves_always_replaced(self):
        strategy = CoordinateAttackStrategy(coordinate=0, target=9.0)
        mutated = strategy.mutate(make_message(payload={"x": 0.5}))[0]
        assert mutated.payload["x"] == 9.0

    def test_out_of_range_coordinate_rejected_at_construction(self):
        # The silent no-op regression: an out-of-range coordinate used to
        # pass honest values through untouched.  With the dimension known it
        # must be refused up front.
        with pytest.raises(ConfigurationError):
            CoordinateAttackStrategy(coordinate=2, target=9.0, dimension=2)

    def test_coordinate_at_dimension_boundary_accepted(self):
        strategy = CoordinateAttackStrategy(coordinate=1, target=9.0, dimension=2)
        mutated = strategy.mutate(make_message(payload={"value": (0.1, 0.2)}))[0]
        assert mutated.payload["value"] == (0.1, 9.0)

    def test_out_of_range_coordinate_rejected_at_mutation(self):
        # Without a declared dimension the mismatch can only surface at
        # mutation time — it must raise, not silently forward honest values.
        strategy = CoordinateAttackStrategy(coordinate=5, target=9.0)
        with pytest.raises(ByzantineBehaviorError):
            strategy.mutate(make_message(payload={"value": (0.1, 0.2)}))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            CoordinateAttackStrategy(coordinate=-1, target=0.0)
