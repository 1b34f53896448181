"""End-to-end checks of the paper's headline claims.

Each test maps to a theorem / claim and runs the full stack (workload
generator -> protocol over the simulated network with a live adversary ->
LP-based verification).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.strategies import EquivocationStrategy, OutsideHullStrategy
from repro.core.approx_bvc import run_approx_bvc
from repro.core.conditions import (
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
)
from repro.core.exact_bvc import run_exact_bvc
from repro.core.impossibility import (
    THEOREM4_EPSILON,
    analyze_async_necessity,
    analyze_sync_necessity,
)
from repro.core.restricted_sync import run_restricted_sync_bvc
from repro.core.safe_area import safe_area_is_empty
from repro.core.validity import check_approximate_outcome, check_exact_outcome
from repro.exceptions import EmptyIntersectionError
from repro.network.scheduler import LaggingScheduler, RandomScheduler
from repro.workloads.generators import (
    basis_counterexample_registry,
    probability_vector_registry,
    uniform_box_registry,
)


class TestTheorem1And3ExactBVC:
    """Synchronous exact BVC: impossible below max(3f+1,(d+1)f+1), correct at it."""

    def test_sufficiency_at_the_bound_d2_f1(self):
        n = minimum_processes_exact_sync(2, 1)
        registry = uniform_box_registry(n, 2, 1, seed=31)
        mutators = {
            pid: EquivocationStrategy([registry.input_of(h) for h in registry.honest_ids])
            for pid in registry.faulty_ids
        }
        outcome = run_exact_bvc(registry, adversary_mutators=mutators)
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok, report

    def test_sufficiency_at_the_bound_d3_f1(self):
        n = minimum_processes_exact_sync(3, 1)
        registry = probability_vector_registry(n, 3, 1, seed=32)
        mutators = {pid: OutsideHullStrategy(offset=77.0) for pid in registry.faulty_ids}
        outcome = run_exact_bvc(registry, adversary_mutators=mutators)
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok
        # The decision of a probability-vector instance is itself a distribution.
        decision = outcome.decisions[registry.honest_ids[0]]
        assert float(decision.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_necessity_step1_cannot_pick_a_valid_decision_below_the_bound(self):
        # Below the bound (n = d + 1, f = 1) Step 2 of the algorithm has no
        # point to pick: Gamma of the broadcast multiset is empty for the
        # standard-basis inputs, so the algorithm fails with an explicit error
        # (and, by Theorem 1, no other algorithm can do better).
        registry_below = basis_counterexample_registry(2, epsilon=0.25)
        # Use only d + 1 = 3 of its processes' inputs for the emptiness check.
        inputs = np.vstack([np.eye(2), np.zeros((1, 2))])
        assert safe_area_is_empty(inputs, fault_bound=1)

    def test_exact_bvc_raises_below_bound_when_forced(self):
        from functools import partial

        from repro.core.conditions import SystemConfiguration
        from repro.core.driver import run_protocol
        from repro.core.exact_bvc import ExactBVCProcess
        from repro.processes.registry import ProcessRegistry

        # n = d + 1 = 3 with the standard-basis construction and one (silent)
        # fault position; allow_insufficient bypasses the static check and the
        # run then fails because Gamma(S) is empty.
        configuration = SystemConfiguration(3, 2, 1)
        inputs = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [0.0, 0.0]}
        registry = ProcessRegistry(configuration, inputs, faulty_ids=frozenset())
        with pytest.raises(EmptyIntersectionError):
            run_protocol(registry, partial(ExactBVCProcess, allow_insufficient=True))


class TestTheorem4And5ApproxBVC:
    """Asynchronous approximate BVC: impossible below (d+2)f+1, correct at it."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_necessity_forced_gap_below_the_bound(self, dimension):
        witness = analyze_async_necessity(dimension)
        assert witness.violates_epsilon_agreement
        assert witness.max_forced_gap == pytest.approx(4 * THEOREM4_EPSILON, abs=1e-6)

    def test_sufficiency_at_the_bound_with_slow_process_and_attack(self):
        n = minimum_processes_approx_async(2, 1)
        registry = uniform_box_registry(n, 2, 1, seed=33)
        mutators = {pid: OutsideHullStrategy(offset=44.0) for pid in registry.faulty_ids}
        scheduler = LaggingScheduler(slow_processes=[registry.honest_ids[0]], seed=2)
        outcome = run_approx_bvc(
            registry, epsilon=0.3, adversary_mutators=mutators, scheduler=scheduler
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
        assert report.agreement_ok and report.validity_ok

    def test_round_count_matches_static_rule(self):
        n = minimum_processes_approx_async(1, 1)
        registry = uniform_box_registry(n, 1, 1, seed=34)
        outcome = run_approx_bvc(registry, epsilon=0.25, scheduler=RandomScheduler(1))
        from repro.core.approx_bvc import round_threshold, witness_contraction_factor

        lower, upper = registry.value_bounds()
        expected = round_threshold(upper - lower, 0.25, witness_contraction_factor(n, 1))
        assert outcome.rounds_executed == expected


class TestSynchronousVsAsynchronousGap:
    """The asynchronous bound exceeds the synchronous one by f when d > 1."""

    def test_bound_gap(self):
        for dimension in (2, 3, 4):
            assert (
                minimum_processes_approx_async(dimension, 1)
                - minimum_processes_exact_sync(dimension, 1)
                == 1
            )

    def test_sync_possible_where_async_is_not(self):
        # At n = (d+1)f + 1 = 4 (d=2, f=1): exact synchronous BVC works...
        registry = uniform_box_registry(4, 2, 1, seed=35)
        mutators = {pid: OutsideHullStrategy() for pid in registry.faulty_ids}
        outcome = run_exact_bvc(registry, adversary_mutators=mutators)
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok
        # ... while the asynchronous necessity construction shows no algorithm
        # with n = d + 2 = 4 can achieve epsilon-agreement.
        witness = analyze_async_necessity(2)
        assert witness.violates_epsilon_agreement


class TestTheorem6Restricted:
    def test_restricted_sync_at_bound_with_attack(self):
        registry = uniform_box_registry(5, 2, 1, seed=36)
        mutators = {pid: OutsideHullStrategy(offset=20.0) for pid in registry.faulty_ids}
        outcome = run_restricted_sync_bvc(
            registry, epsilon=0.3, adversary_mutators=mutators, max_rounds_override=10
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
        assert report.agreement_ok and report.validity_ok

    def test_lemma1_threshold_is_sharp_for_theorem1_inputs(self):
        # (d+1)f points can have empty Gamma; (d+1)f + 1 cannot.
        for dimension in (1, 2, 3):
            sparse = analyze_sync_necessity(dimension, process_count=dimension + 1)
            dense = analyze_sync_necessity(dimension, process_count=dimension + 2)
            assert sparse.gamma_empty and not dense.gamma_empty
