"""Unit and protocol tests for the Exact BVC algorithm (Theorem 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.adversary import ByzantineSyncProcess
from repro.byzantine.strategies import (
    CrashStrategy,
    EquivocationStrategy,
    OutsideHullStrategy,
    RandomNoiseStrategy,
)
from repro.core.conditions import SystemConfiguration, minimum_processes_exact_sync
from repro.core.exact_bvc import ExactBVCProcess, run_exact_bvc
from repro.core.validity import check_exact_outcome
from repro.exceptions import ProtocolError, ResilienceError
from repro.network.sync_runtime import SynchronousRuntime
from repro.processes.registry import ProcessRegistry
from repro.workloads.generators import uniform_box_registry


def registry_at_bound(dimension, fault_bound, seed=0):
    process_count = minimum_processes_exact_sync(dimension, fault_bound)
    return uniform_box_registry(process_count, dimension, fault_bound, seed=seed)


class TestProcessConstruction:
    def test_resilience_enforced(self):
        configuration = SystemConfiguration(4, 3, 1)
        with pytest.raises(ResilienceError):
            ExactBVCProcess(0, configuration, np.zeros(3))

    def test_allow_insufficient(self):
        configuration = SystemConfiguration(4, 3, 1)
        process = ExactBVCProcess(0, configuration, np.zeros(3), allow_insufficient=True)
        assert process.total_rounds == 2

    def test_wrong_input_dimension_rejected(self):
        configuration = SystemConfiguration(5, 3, 1)
        with pytest.raises(ProtocolError):
            ExactBVCProcess(0, configuration, np.zeros(2))

    def test_decision_before_termination_raises(self):
        configuration = SystemConfiguration(5, 3, 1)
        process = ExactBVCProcess(0, configuration, np.zeros(3))
        assert not process.has_decided()
        with pytest.raises(ProtocolError):
            process.decision()


class TestFaultFreeRuns:
    def test_agreement_and_validity_without_faults(self, fault_free_registry):
        outcome = run_exact_bvc(fault_free_registry)
        report = check_exact_outcome(fault_free_registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok

    def test_rounds_equal_f_plus_one(self, fault_free_registry):
        outcome = run_exact_bvc(fault_free_registry)
        assert outcome.rounds_executed == 2

    def test_identical_inputs_decide_that_input(self):
        configuration = SystemConfiguration(4, 2, 1)
        inputs = {pid: np.asarray([0.25, 0.75]) for pid in range(4)}
        registry = ProcessRegistry(configuration, inputs)
        outcome = run_exact_bvc(registry)
        for decision in outcome.decisions.values():
            assert np.allclose(decision, [0.25, 0.75], atol=1e-6)

    def test_per_coordinate_broadcast_mode(self, fault_free_registry):
        outcome = run_exact_bvc(fault_free_registry, broadcast_mode="per_coordinate")
        report = check_exact_outcome(fault_free_registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok

    def test_agreed_multiset_matches_inputs_without_faults(self, fault_free_registry):
        outcome = run_exact_bvc(fault_free_registry)
        # In a fault-free run the reconstructed multiset is exactly the inputs.
        assert outcome.decisions  # run completed
        all_inputs = np.array(
            [fault_free_registry.input_of(pid) for pid in fault_free_registry.process_ids]
        )
        # Re-run with direct access to a process to inspect its multiset.
        for process in decided_processes(fault_free_registry):
            # Fault-free Step 1 relays every input unchanged: bit-exact rows.
            assert np.array_equal(process.agreed_multiset, all_inputs)

    def test_shared_multisets_are_read_only(self, fault_free_registry):
        clouds = [process.agreed_multiset for process in decided_processes(fault_free_registry)]
        clouds.append(fault_free_registry.honest_input_multiset())
        for cloud in clouds:
            assert not cloud.flags.writeable
            with pytest.raises(ValueError):
                cloud[0, 0] = 5.0


def decided_processes(registry):
    """Every process of a fault-free Exact BVC run, after it decided."""
    processes = {
        pid: ExactBVCProcess(pid, registry.configuration, registry.input_of(pid))
        for pid in registry.process_ids
    }
    SynchronousRuntime(processes).run()
    return list(processes.values())


@pytest.mark.parametrize("dimension,fault_bound", [(1, 1), (2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("strategy_name", ["crash", "equivocate", "outside_hull", "noise"])
class TestUnderAttackAtTheBound:
    def test_agreement_and_validity(self, dimension, fault_bound, strategy_name):
        registry = registry_at_bound(dimension, fault_bound, seed=dimension * 7 + fault_bound)
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        strategies = {
            "crash": lambda: CrashStrategy(),
            "equivocate": lambda: EquivocationStrategy(honest_inputs),
            "outside_hull": lambda: OutsideHullStrategy(offset=25.0),
            "noise": lambda: RandomNoiseStrategy(low=-10, high=10, seed=1),
        }
        mutators = {pid: strategies[strategy_name]() for pid in registry.faulty_ids}
        outcome = run_exact_bvc(registry, adversary_mutators=mutators)
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok, f"disagreement {report.max_disagreement}"
        assert report.validity_ok, f"hull distance {report.max_hull_distance}"


class TestAttackDetails:
    def test_crash_in_second_round(self):
        registry = registry_at_bound(2, 2, seed=3)
        mutators = {pid: CrashStrategy(crash_round=2) for pid in registry.faulty_ids}
        outcome = run_exact_bvc(registry, adversary_mutators=mutators)
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok

    def test_adversary_not_using_budget(self, small_registry):
        # Faulty id exists but no mutator: behaves honestly.
        outcome = run_exact_bvc(small_registry)
        report = check_exact_outcome(small_registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok

    def test_per_coordinate_mode_under_attack(self):
        registry = registry_at_bound(2, 1, seed=5)
        mutators = {pid: OutsideHullStrategy(offset=50.0) for pid in registry.faulty_ids}
        outcome = run_exact_bvc(registry, adversary_mutators=mutators, broadcast_mode="per_coordinate")
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok

    def test_message_complexity_grows_with_n(self):
        small = run_exact_bvc(registry_at_bound(1, 1, seed=1))
        large = run_exact_bvc(registry_at_bound(3, 1, seed=1))
        assert large.messages_sent > small.messages_sent


class EagerExactBVCProcess(ExactBVCProcess):
    """Resolves and decides in the final round, as every core once did."""

    def deliver(self, round_index, inbox):
        super().deliver(round_index, inbox)
        if round_index == self.total_rounds:
            self.decision()


def run_cores(registry, core_class, mutators, broadcast_mode):
    """Run one Exact BVC execution; return every process object, faulty wrappers included."""
    processes = {}
    for pid in registry.process_ids:
        core = core_class(
            pid, registry.configuration, registry.input_of(pid), broadcast_mode=broadcast_mode
        )
        processes[pid] = (
            ByzantineSyncProcess(core, mutators[pid]) if pid in mutators else core
        )
    SynchronousRuntime(processes, honest_ids=registry.honest_ids).run()
    return processes


class TestLazyDecision:
    """A core decides when first asked: a faulty core never resolves or queries Gamma."""

    def test_one_gamma_query_per_honest_process(self, kernel_events):
        registry = registry_at_bound(2, 1, seed=11)
        mutators = {pid: CrashStrategy() for pid in registry.faulty_ids}
        events = kernel_events()
        run_exact_bvc(registry, adversary_mutators=mutators)
        assert events.single_queries == len(registry.honest_ids)

    @pytest.mark.parametrize("broadcast_mode", ["whole_vector", "per_coordinate"])
    def test_faulty_core_decides_what_eager_resolution_gave(self, broadcast_mode):
        registry = registry_at_bound(2, 2, seed=12)

        def mutators():
            return {pid: RandomNoiseStrategy(low=-5, high=5, seed=pid) for pid in registry.faulty_ids}

        lazy = run_cores(registry, ExactBVCProcess, mutators(), broadcast_mode)
        eager = run_cores(registry, EagerExactBVCProcess, mutators(), broadcast_mode)
        assert all(lazy[pid].inner._decision is None for pid in registry.faulty_ids)
        for pid in registry.process_ids:
            assert lazy[pid].decision().tobytes() == eager[pid].decision().tobytes(), pid
