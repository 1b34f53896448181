"""Tests for the engine's name factories (repro.engine.factories)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.coordinator import AdversaryCoordinator, CoordinatedMutator
from repro.engine.factories import (
    ADVERSARY_NAMES,
    COORDINATED_STRATEGY_NAMES,
    build_registry,
    build_scheduler,
    derive_faulty_seeds,
    make_adversaries,
    make_strategy,
)
from repro.engine.spec import TrialSpec
from repro.exceptions import ConfigurationError
from repro.network.message import Message
from repro.network.scheduler import LaggingScheduler


def make_message(recipient=0, payload=None, round_index=1):
    if payload is None:
        payload = {"value": (0.25, 0.75)}
    return Message(sender=9, recipient=recipient, protocol="p", kind="K",
                   payload=payload, round_index=round_index)


class TestDeriveFaultySeeds:
    def test_one_seed_per_faulty_id(self):
        seeds = derive_faulty_seeds(42, [3, 1, 2])
        assert sorted(seeds) == [1, 2, 3]
        assert len(set(seeds.values())) == 3

    def test_deterministic_and_order_independent(self):
        assert derive_faulty_seeds(7, [1, 2]) == derive_faulty_seeds(7, [2, 1])

    def test_adjacent_root_seeds_do_not_collide(self):
        # The old scheme (adversary_seed + faulty_id) made seed s / id 2 and
        # seed s+1 / id 1 share a stream.  Spawned sequences must not.
        for base in (0, 10, 999):
            first = derive_faulty_seeds(base, [1, 2])
            second = derive_faulty_seeds(base + 1, [1, 2])
            assert first[2] != second[1]
            assert first[1] != second[1]


class TestMakeAdversaries:
    def _spec(self, adversary, **overrides):
        defaults = dict(
            protocol="exact",
            workload="uniform_box",
            adversary=adversary,
            process_count=7,
            dimension=2,
            fault_bound=2,
            seed=5,
        )
        defaults.update(overrides)
        return TrialSpec(**defaults)

    def test_none_has_no_mutators_or_coordinator(self):
        spec = self._spec("none")
        bundle = make_adversaries(spec, build_registry(spec))
        assert bundle.mutators == {}
        assert bundle.coordinator is None
        assert bundle.traffic_observer is None

    def test_independent_strategy_gets_one_mutator_per_faulty_id(self):
        spec = self._spec("random_noise")
        registry = build_registry(spec)
        bundle = make_adversaries(spec, registry)
        assert set(bundle.mutators) == set(registry.faulty_ids)
        assert bundle.coordinator is None

    def test_coordinated_strategy_shares_one_coordinator(self):
        for name in COORDINATED_STRATEGY_NAMES:
            spec = self._spec(name)
            registry = build_registry(spec)
            bundle = make_adversaries(spec, registry)
            assert isinstance(bundle.coordinator, AdversaryCoordinator)
            assert set(bundle.mutators) == set(registry.faulty_ids)
            coordinators = {
                mutator.coordinator
                for mutator in bundle.mutators.values()
                if isinstance(mutator, CoordinatedMutator)
            }
            assert coordinators == {bundle.coordinator}
            assert bundle.traffic_observer == bundle.coordinator.observe

    def test_adjacent_seed_trials_produce_distinct_noise_attacks(self):
        # Regression for the additive seeding bug: with seeds s and s+1 the
        # noise streams of (trial A, faulty id k) and (trial B, faulty id
        # k-1) used to be identical.
        spec_a = self._spec("random_noise", adversary_seed=100)
        spec_b = self._spec("random_noise", adversary_seed=101)
        registry = build_registry(spec_a)
        mutators_a = make_adversaries(spec_a, registry).mutators
        mutators_b = make_adversaries(spec_b, registry).mutators
        faulty = sorted(registry.faulty_ids)
        assert len(faulty) == 2
        high, low = faulty[1], faulty[0]
        noise_a = mutators_a[high].mutate(make_message())[0].payload["value"]
        noise_b = mutators_b[low].mutate(make_message())[0].payload["value"]
        assert noise_a != noise_b


class TestMakeStrategy:
    def test_coordinate_attack_validated_against_registry_dimension(self):
        spec = TrialSpec(protocol="exact", workload="uniform_box", process_count=5,
                         dimension=2, fault_bound=1, seed=1)
        registry = build_registry(spec)
        with pytest.raises(ConfigurationError):
            make_strategy("coordinate_attack", registry, params={"coordinate": 2, "target": 0.0})
        strategy = make_strategy(
            "coordinate_attack", registry, params={"coordinate": 1, "target": 0.0}
        )
        assert strategy.coordinate == 1


class TestTheorem4SchedulerCoupling:
    def _spec(self, **overrides):
        defaults = dict(
            protocol="approx",
            workload="uniform_box",
            adversary="theorem4_scenario",
            scheduler="random",
            process_count=4,
            dimension=1,
            fault_bound=1,
            seed=2,
        )
        defaults.update(overrides)
        return TrialSpec(**defaults)

    def test_theorem4_overrides_scheduler_with_lagging(self):
        spec = self._spec()
        registry = build_registry(spec)
        scheduler = build_scheduler(spec, registry)
        assert isinstance(scheduler, LaggingScheduler)
        assert scheduler.slow_processes == {registry.honest_ids[-1]}

    def test_theorem4_slow_process_override(self):
        spec = self._spec(adversary_params={"slow_processes": (0,)})
        registry = build_registry(spec)
        scheduler = build_scheduler(spec, registry)
        assert scheduler.slow_processes == {0}

    def test_other_adversaries_keep_their_scheduler(self):
        spec = self._spec(adversary="crash")
        registry = build_registry(spec)
        assert not isinstance(build_scheduler(spec, registry), LaggingScheduler)


class TestAdversaryNames:
    def test_all_names_resolve(self):
        spec = TrialSpec(protocol="exact", workload="uniform_box", process_count=7,
                         dimension=2, fault_bound=2, seed=3)
        registry = build_registry(spec)
        for name in ADVERSARY_NAMES:
            params = {"coordinate": 0, "target": 1.0} if name == "coordinate_attack" else {}
            bundle = make_adversaries(
                TrialSpec(protocol="exact", workload="uniform_box", adversary=name,
                          process_count=7, dimension=2, fault_bound=2, seed=3,
                          adversary_params=params),
                registry,
            )
            if name == "none":
                assert bundle.mutators == {}
            else:
                assert set(bundle.mutators) == set(registry.faulty_ids)
