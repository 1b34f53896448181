"""Tests for the coordinated adversary layer (repro.byzantine.coordinator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.coordinator import (
    COORDINATED_STRATEGY_NAMES,
    AdversaryCoordinator,
    collect_value_leaves,
)
from repro.core.conditions import SystemConfiguration
from repro.exceptions import ByzantineBehaviorError, ConfigurationError
from repro.geometry.convex_hull import contains_point
from repro.network.message import Message
from repro.processes.registry import ProcessRegistry


def make_registry(process_count=5, dimension=2, fault_bound=1, faulty=(4,)):
    configuration = SystemConfiguration(process_count, dimension, fault_bound)
    rng = np.random.default_rng(17)
    inputs = {pid: rng.uniform(0.0, 1.0, size=dimension) for pid in range(process_count)}
    return ProcessRegistry(configuration, inputs, faulty_ids=faulty)


def make_message(sender=4, recipient=0, payload=None, round_index=1):
    if payload is None:
        payload = {"value": (0.5, 0.5)}
    return Message(sender=sender, recipient=recipient, protocol="p", kind="K",
                   payload=payload, round_index=round_index)


class TestConstruction:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryCoordinator("nonsense", make_registry())

    def test_empty_faulty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryCoordinator("split_world", make_registry(faulty=()))

    def test_mutator_for_non_faulty_id_rejected(self):
        coordinator = AdversaryCoordinator("split_world", make_registry(faulty=(4,)))
        with pytest.raises(ConfigurationError):
            coordinator.mutator_for(0)

    def test_all_named_strategies_construct(self):
        for name in COORDINATED_STRATEGY_NAMES:
            coordinator = AdversaryCoordinator(name, make_registry())
            assert coordinator.mutator_for(4).faulty_id == 4


class TestSplitWorld:
    def test_camps_are_cross_faulty_consistent(self):
        # Two different faulty senders must tell the *same* recipient the
        # same story — that is what distinguishes the coordinated attack from
        # independent equivocation.
        registry = make_registry(process_count=6, fault_bound=2, faulty=(4, 5))
        coordinator = AdversaryCoordinator("split_world", registry)
        first = coordinator.mutator_for(4)
        second = coordinator.mutator_for(5)
        for recipient in (0, 1, 2, 3):
            told_by_first = first.mutate(make_message(sender=4, recipient=recipient))[0]
            told_by_second = second.mutate(make_message(sender=5, recipient=recipient))[0]
            assert told_by_first.payload == told_by_second.payload

    def test_recipients_split_into_dimension_plus_one_camps(self):
        registry = make_registry(process_count=8, dimension=2, fault_bound=1, faulty=(7,))
        coordinator = AdversaryCoordinator("split_world", registry)
        mutator = coordinator.mutator_for(7)
        stories = {}
        for recipient in registry.honest_ids:
            payload = mutator.mutate(make_message(sender=7, recipient=recipient))[0].payload
            stories.setdefault(tuple(payload["value"]), []).append(recipient)
        assert len(stories) == registry.configuration.dimension + 1

    def test_camp_values_are_honest_inputs(self):
        registry = make_registry()
        coordinator = AdversaryCoordinator("split_world", registry)
        mutator = coordinator.mutator_for(4)
        honest_inputs = {tuple(registry.input_of(pid)) for pid in registry.honest_ids}
        for recipient in registry.honest_ids:
            payload = mutator.mutate(make_message(recipient=recipient))[0].payload
            assert tuple(payload["value"]) in honest_inputs


class TestHullCollapse:
    def test_report_lies_inside_honest_hull(self):
        registry = make_registry(process_count=6, dimension=2, faulty=(5,))
        coordinator = AdversaryCoordinator("hull_collapse", registry)
        payload = coordinator.mutator_for(5).mutate(make_message(sender=5))[0].payload
        point = np.asarray(payload["value"])
        assert contains_point(registry.honest_input_multiset(), point)

    def test_explicit_target_used_everywhere(self):
        registry = make_registry()
        coordinator = AdversaryCoordinator(
            "hull_collapse", registry, params={"target": (0.25, 0.75)}
        )
        mutator = coordinator.mutator_for(4)
        for recipient in registry.honest_ids:
            payload = mutator.mutate(make_message(recipient=recipient))[0].payload
            assert tuple(payload["value"]) == (0.25, 0.75)

    def test_wrong_target_shape_rejected(self):
        registry = make_registry(dimension=2)
        coordinator = AdversaryCoordinator(
            "hull_collapse", registry, params={"target": (1.0, 2.0, 3.0)}
        )
        with pytest.raises(ConfigurationError):
            coordinator.mutator_for(4).mutate(make_message())

    def test_mismatched_leaf_shape_rejected(self):
        registry = make_registry(dimension=2)
        coordinator = AdversaryCoordinator("hull_collapse", registry)
        with pytest.raises(ByzantineBehaviorError):
            coordinator.mutator_for(4).mutate(
                make_message(payload={"value": (0.1, 0.2, 0.3)})
            )


class TestAdaptiveExtreme:
    def test_aim_tracks_sighted_traffic(self):
        registry = make_registry(dimension=2)
        coordinator = AdversaryCoordinator("adaptive_extreme", registry)
        mutator = coordinator.mutator_for(4)
        # Round 1: no sightings yet, the aim derives from the honest inputs.
        first_aim = np.asarray(mutator.mutate(make_message(round_index=1))[0].payload["value"])
        # Round 2 sightings: honest states have moved to a tight cluster near
        # the origin; the re-aimed report must move with them.
        for sender in registry.honest_ids:
            coordinator.observe(
                make_message(sender=sender, recipient=4,
                             payload={"value": (0.01 * sender, 0.02)}, round_index=2)
            )
        second_aim = np.asarray(mutator.mutate(make_message(round_index=2))[0].payload["value"])
        assert not np.allclose(first_aim, second_aim)
        assert np.linalg.norm(second_aim) < np.linalg.norm(first_aim) + 1.0

    def test_aim_is_consistent_within_a_round(self):
        registry = make_registry(process_count=6, fault_bound=2, faulty=(4, 5))
        coordinator = AdversaryCoordinator("adaptive_extreme", registry)
        first = coordinator.mutator_for(4).mutate(make_message(sender=4, round_index=3))[0]
        second = coordinator.mutator_for(5).mutate(make_message(sender=5, round_index=3))[0]
        assert first.payload == second.payload

    def test_faulty_traffic_is_not_sighted(self):
        registry = make_registry()
        coordinator = AdversaryCoordinator("adaptive_extreme", registry)
        coordinator.observe(
            make_message(sender=4, recipient=0, payload={"value": (99.0, 99.0)}, round_index=1)
        )
        assert coordinator._sightings == {}


class TestTheorem4Scenario:
    def test_faulty_processes_crash(self):
        registry = make_registry(process_count=6, fault_bound=2, faulty=(4, 5))
        coordinator = AdversaryCoordinator("theorem4_scenario", registry)
        assert coordinator.mutator_for(4).mutate(make_message(sender=4, round_index=1)) == []
        assert coordinator.mutator_for(5).mutate(make_message(sender=5, round_index=2)) == []

    def test_deferred_crash_round(self):
        registry = make_registry()
        coordinator = AdversaryCoordinator(
            "theorem4_scenario", registry, params={"crash_round": 2}
        )
        mutator = coordinator.mutator_for(4)
        assert mutator.mutate(make_message(round_index=1)) != []
        assert mutator.mutate(make_message(round_index=2)) == []

    def test_slow_process_nominates_last_honest(self):
        registry = make_registry(process_count=5, faulty=(4,))
        assert AdversaryCoordinator.nominate_slow_processes(registry, {}) == (3,)

    def test_slow_process_override(self):
        nominated = AdversaryCoordinator.nominate_slow_processes(
            make_registry(), {"slow_processes": [1, 2]}
        )
        assert nominated == (1, 2)


class TestCollectValueLeaves:
    def test_collects_matching_vectors_only(self):
        payload = {
            "value": (0.1, 0.2),
            "other": np.array([1.0, 2.0, 3.0]),  # wrong dimension: skipped
            "nested": {"inner": [0.3, 0.4]},
            "members": [0, 1],  # structural key: skipped
            "count": 7,  # int: skipped
        }
        leaves = collect_value_leaves(payload, dimension=2)
        assert len(leaves) == 2
        assert {tuple(leaf) for leaf in leaves} == {(0.1, 0.2), (0.3, 0.4)}

    def test_scalars_are_not_vectors(self):
        assert collect_value_leaves({"x": 0.5}, dimension=1) == []
