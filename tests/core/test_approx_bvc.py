"""Protocol tests for the asynchronous Approximate BVC algorithm (Theorem 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.adversary import MessageMutator, replace_payload
from repro.byzantine.strategies import CrashStrategy, EquivocationStrategy, OutsideHullStrategy
from repro.core.approx_bvc import (
    ApproxBVCProcess,
    contraction_factor,
    round_threshold,
    run_approx_bvc,
    witness_contraction_factor,
)
from repro.core.conditions import SystemConfiguration, minimum_processes_approx_async
from repro.core.validity import check_approximate_outcome
from repro.exceptions import ConfigurationError, ResilienceError
from repro.network.scheduler import LaggingScheduler, RandomScheduler, RoundRobinScheduler
from repro.workloads.generators import uniform_box_registry


def registry_at_bound(dimension, fault_bound, seed=0):
    process_count = minimum_processes_approx_async(dimension, fault_bound)
    return uniform_box_registry(process_count, dimension, fault_bound, seed=seed)


class TestContractionAndRounds:
    def test_gamma_formula_all_subsets(self):
        # gamma = 1 / (n * C(n, n-f))
        assert contraction_factor(4, 1) == pytest.approx(1 / (4 * 4))
        assert contraction_factor(5, 1) == pytest.approx(1 / (5 * 5))
        assert contraction_factor(7, 2) == pytest.approx(1 / (7 * 21))

    def test_gamma_formula_witness_subsets(self):
        # Appendix F: gamma = 1 / n^2.
        assert witness_contraction_factor(5, 1) == pytest.approx(1 / 25)

    def test_round_threshold_matches_paper_formula(self):
        gamma = 0.04
        # 1 + ceil(log_{1/(1-gamma)}((U - nu) / eps))
        expected = 1 + int(np.ceil(np.log(1.0 / 0.2) / np.log(1.0 / 0.96)))
        assert round_threshold(1.0, 0.2, gamma) == expected

    def test_round_threshold_when_already_converged(self):
        assert round_threshold(0.05, 0.1, 0.04) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            round_threshold(1.0, 0.0, 0.04)
        with pytest.raises(ConfigurationError):
            round_threshold(1.0, 0.1, 1.5)
        with pytest.raises(ConfigurationError):
            contraction_factor(1, 0)
        with pytest.raises(ConfigurationError):
            witness_contraction_factor(4, 4)

    @pytest.mark.parametrize("process_count, fault_bound", [(4, 1), (5, 1), (7, 2), (10, 3)])
    def test_witness_gamma_ignores_f_and_is_never_below_equation_11s(self, process_count, fault_bound):
        # Appendix F averages over at most n witness subsets instead of all
        # C(n, n - f) of them, so its weight is 1 / n^2 whatever f is, and
        # never smaller than Equation (11)'s weight once f >= 1.
        witness = witness_contraction_factor(process_count, fault_bound)
        assert witness == pytest.approx(1 / process_count**2)
        assert witness == witness_contraction_factor(process_count, 0)
        assert witness >= contraction_factor(process_count, fault_bound)

    @pytest.mark.parametrize("factor", [contraction_factor, witness_contraction_factor])
    @pytest.mark.parametrize("process_count, fault_bound", [(1, 0), (4, -1), (4, 4)])
    def test_both_gamma_forms_reject_invalid_counts(self, factor, process_count, fault_bound):
        with pytest.raises(ConfigurationError):
            factor(process_count, fault_bound)


class TestProcessConstruction:
    def test_resilience_enforced(self):
        configuration = SystemConfiguration(4, 2, 1)
        with pytest.raises(ResilienceError):
            ApproxBVCProcess(0, configuration, np.zeros(2), 0.1, 0.0, 1.0)

    def test_value_bounds_validated(self):
        configuration = SystemConfiguration(5, 2, 1)
        with pytest.raises(ConfigurationError):
            ApproxBVCProcess(0, configuration, np.zeros(2), 0.1, 1.0, 0.0)

    def test_total_rounds_follow_static_rule(self):
        configuration = SystemConfiguration(5, 2, 1)
        process = ApproxBVCProcess(0, configuration, np.zeros(2), 0.25, 0.0, 1.0)
        assert process.total_rounds == round_threshold(1.0, 0.25, process.gamma)

    def test_process_uses_the_witness_gamma(self):
        configuration = SystemConfiguration(5, 2, 1)
        process = ApproxBVCProcess(0, configuration, np.zeros(2), 0.25, 0.0, 1.0)
        assert process.gamma == witness_contraction_factor(5, 1)


class TestFaultFreeConvergence:
    def test_epsilon_agreement_and_validity(self):
        registry = uniform_box_registry(4, 1, 1, fault_count=0, seed=2)
        outcome = run_approx_bvc(registry, epsilon=0.2, scheduler=RoundRobinScheduler())
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.2)
        assert report.agreement_ok
        assert report.validity_ok

    def test_identical_inputs_fixed_point(self):
        registry = uniform_box_registry(5, 2, 1, fault_count=0, seed=3)
        inputs = {pid: np.asarray([0.3, 0.7]) for pid in registry.process_ids}
        from repro.processes.registry import ProcessRegistry
        registry = ProcessRegistry(registry.configuration, inputs)
        outcome = run_approx_bvc(registry, epsilon=0.2, scheduler=RandomScheduler(1))
        for decision in outcome.decisions.values():
            assert np.allclose(decision, [0.3, 0.7], atol=1e-5)

    def test_state_histories_recorded(self):
        registry = uniform_box_registry(4, 1, 1, fault_count=0, seed=4)
        outcome = run_approx_bvc(registry, epsilon=0.3, scheduler=RandomScheduler(2))
        for history in outcome.state_histories.values():
            assert len(history) == outcome.rounds_executed + 1


@pytest.mark.parametrize("strategy_name", ["crash", "equivocate", "outside_hull"])
class TestUnderAttackAtTheBound:
    def test_epsilon_agreement_and_validity_d1(self, strategy_name):
        registry = registry_at_bound(1, 1, seed=11)
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        strategies = {
            "crash": lambda: CrashStrategy(),
            "equivocate": lambda: EquivocationStrategy(honest_inputs),
            "outside_hull": lambda: OutsideHullStrategy(offset=30.0),
        }
        mutators = {pid: strategies[strategy_name]() for pid in registry.faulty_ids}
        outcome = run_approx_bvc(
            registry, epsilon=0.25, adversary_mutators=mutators, scheduler=RandomScheduler(7)
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.25)
        assert report.agreement_ok, f"disagreement {report.max_disagreement}"
        assert report.validity_ok, f"hull distance {report.max_hull_distance}"

    def test_epsilon_agreement_and_validity_d2(self, strategy_name):
        registry = registry_at_bound(2, 1, seed=12)
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        strategies = {
            "crash": lambda: CrashStrategy(),
            "equivocate": lambda: EquivocationStrategy(honest_inputs),
            "outside_hull": lambda: OutsideHullStrategy(offset=30.0),
        }
        mutators = {pid: strategies[strategy_name]() for pid in registry.faulty_ids}
        outcome = run_approx_bvc(
            registry, epsilon=0.35, adversary_mutators=mutators, scheduler=RandomScheduler(8)
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.35)
        assert report.agreement_ok
        assert report.validity_ok


class _WrongDimensionMutator(MessageMutator):
    """Reliably broadcast a state with one coordinate too many."""

    def mutate(self, message):
        payload = message.payload
        if message.kind != "RB_INIT" or payload["broadcaster"] != message.sender:
            return [message]
        longer = {**payload, "value": tuple(payload["value"]) + (0.5,)}
        return [replace_payload(message, longer)]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("scheduler_name", ["random", "round_robin", "lagging"])
def test_wrong_dimension_state_is_malformed_not_fatal(dimension, scheduler_name):
    # The faulty broadcaster follows Bracha faithfully, so its (d+1)-vector is
    # RB-delivered at every honest process; it must count as a missing tuple,
    # not reach the round step (where np.vstack used to raise).
    registry = registry_at_bound(dimension, 1, seed=21)
    scheduler = {
        "random": lambda: RandomScheduler(3),
        "round_robin": RoundRobinScheduler,
        "lagging": lambda: LaggingScheduler(slow_processes=[registry.honest_ids[0]], seed=2),
    }[scheduler_name]()
    mutators = {pid: _WrongDimensionMutator() for pid in registry.faulty_ids}
    outcome = run_approx_bvc(
        registry, epsilon=0.3, adversary_mutators=mutators, scheduler=scheduler
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
    assert report.agreement_ok, f"disagreement {report.max_disagreement}"
    assert report.validity_ok, f"hull distance {report.max_hull_distance}"
    for history in outcome.state_histories.values():
        assert all(state.shape == (dimension,) for state in history)


class TestSchedulersAndModes:
    def test_lagging_scheduler_does_not_break_convergence(self):
        registry = registry_at_bound(1, 1, seed=13)
        scheduler = LaggingScheduler(slow_processes=[registry.honest_ids[-1]], seed=1)
        mutators = {pid: CrashStrategy() for pid in registry.faulty_ids}
        outcome = run_approx_bvc(
            registry, epsilon=0.3, adversary_mutators=mutators, scheduler=scheduler
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
        assert report.agreement_ok and report.validity_ok

    def test_rounds_override(self):
        registry = registry_at_bound(1, 1, seed=15)
        outcome = run_approx_bvc(
            registry, epsilon=0.01, max_rounds_override=3, scheduler=RandomScheduler(6)
        )
        assert outcome.rounds_executed == 3

    def test_contraction_bound_holds_per_round(self):
        # Equation (12): the honest range contracts at least by (1 - gamma).
        from repro.analysis.convergence import measured_contraction_factors

        registry = registry_at_bound(2, 1, seed=16)
        mutators = {pid: OutsideHullStrategy(offset=20.0) for pid in registry.faulty_ids}
        outcome = run_approx_bvc(
            registry, epsilon=0.1, adversary_mutators=mutators,
            max_rounds_override=5, scheduler=RandomScheduler(9),
        )
        gamma = witness_contraction_factor(registry.configuration.process_count, 1)
        factors = measured_contraction_factors(outcome.state_histories)
        assert np.all(factors <= 1.0 - gamma + 1e-9)
