"""Attack matrix: every algorithm x every adversary strategy x every workload family.

A coarse-grained sweep that exercises the full stack under each combination
and verifies the appropriate correctness conditions.  Parameters are kept
small so the whole matrix runs in seconds.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import make_strategy
from repro.core.approx_bvc import run_approx_bvc
from repro.core.conditions import (
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
    minimum_processes_restricted_sync,
)
from repro.core.exact_bvc import run_exact_bvc
from repro.core.restricted_sync import run_restricted_sync_bvc
from repro.core.validity import check_approximate_outcome, check_exact_outcome
from repro.network.scheduler import RandomScheduler
from repro.workloads.generators import (
    gradient_registry,
    probability_vector_registry,
    uniform_box_registry,
)

STRATEGIES = ("crash", "equivocate", "outside_hull", "random_noise")


def build_registry(workload: str, process_count: int, dimension: int, fault_bound: int, seed: int):
    if workload == "uniform":
        return uniform_box_registry(process_count, dimension, fault_bound, seed=seed)
    if workload == "probability":
        return probability_vector_registry(process_count, dimension, fault_bound, seed=seed)
    return gradient_registry(process_count, dimension, fault_bound, seed=seed)


@pytest.mark.parametrize("workload", ["uniform", "probability", "gradient"])
@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_exact_bvc_matrix(workload, strategy_name):
    dimension, fault_bound = 2, 1
    n = minimum_processes_exact_sync(dimension, fault_bound)
    registry = build_registry(workload, n, dimension, fault_bound, seed=41)
    mutators = {pid: make_strategy(strategy_name, registry, seed=1) for pid in registry.faulty_ids}
    outcome = run_exact_bvc(registry, adversary_mutators=mutators)
    report = check_exact_outcome(registry, outcome.decisions)
    assert report.agreement_ok and report.validity_ok, (workload, strategy_name, report)


@pytest.mark.parametrize("workload", ["uniform", "probability"])
@pytest.mark.parametrize("strategy_name", ("crash", "outside_hull"))
def test_approx_bvc_matrix(workload, strategy_name):
    dimension, fault_bound = 1, 1
    n = minimum_processes_approx_async(dimension, fault_bound)
    registry = build_registry(workload, n, dimension, fault_bound, seed=42)
    mutators = {pid: make_strategy(strategy_name, registry, seed=2) for pid in registry.faulty_ids}
    outcome = run_approx_bvc(
        registry, epsilon=0.3, adversary_mutators=mutators, scheduler=RandomScheduler(3)
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
    assert report.agreement_ok and report.validity_ok, (workload, strategy_name, report)


@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_restricted_sync_matrix(strategy_name):
    dimension, fault_bound = 2, 1
    n = minimum_processes_restricted_sync(dimension, fault_bound)
    registry = build_registry("uniform", n, dimension, fault_bound, seed=43)
    mutators = {pid: make_strategy(strategy_name, registry, seed=3) for pid in registry.faulty_ids}
    outcome = run_restricted_sync_bvc(
        registry, epsilon=0.3, adversary_mutators=mutators, max_rounds_override=10
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
    assert report.agreement_ok and report.validity_ok, (strategy_name, report)


def test_two_faults_exact_bvc_with_mixed_strategies():
    dimension, fault_bound = 2, 2
    n = minimum_processes_exact_sync(dimension, fault_bound)
    registry = uniform_box_registry(n, dimension, fault_bound, seed=44)
    faulty = sorted(registry.faulty_ids)
    mutators = {
        faulty[0]: make_strategy("equivocate", registry, seed=4),
        faulty[1]: make_strategy("outside_hull", registry, seed=5),
    }
    outcome = run_exact_bvc(registry, adversary_mutators=mutators)
    report = check_exact_outcome(registry, outcome.decisions)
    assert report.agreement_ok and report.validity_ok
