"""Property-based tests over whole protocol runs.

Hypothesis drives the *inputs* (honest input vectors, adversary seeds); every
generated scenario must satisfy the paper's correctness conditions.  Instance
sizes are kept minimal (the smallest configurations admitted by the bounds)
so each example runs in a fraction of a second.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.byzantine.strategies import EquivocationStrategy, OutsideHullStrategy
from repro.core.conditions import SystemConfiguration
from repro.core.exact_bvc import run_exact_bvc
from repro.core.restricted_sync import run_restricted_sync_bvc
from repro.core.safe_area import SafeAreaCalculator
from repro.core.validity import check_approximate_outcome, check_exact_outcome
from repro.geometry.points import as_cloud
from repro.processes.registry import ProcessRegistry

coordinate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def vector_list(count: int, dimension: int):
    return st.lists(
        st.lists(coordinate, min_size=dimension, max_size=dimension),
        min_size=count,
        max_size=count,
    )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=vector_list(4, 2), attack_offset=st.floats(min_value=5.0, max_value=100.0))
def test_exact_bvc_always_valid_under_outside_hull_attack(inputs, attack_offset):
    configuration = SystemConfiguration(4, 2, 1)
    registry = ProcessRegistry(
        configuration,
        {pid: np.asarray(vector) for pid, vector in enumerate(inputs)},
        faulty_ids={3},
    )
    outcome = run_exact_bvc(
        registry, adversary_mutators={3: OutsideHullStrategy(offset=attack_offset)}
    )
    report = check_exact_outcome(registry, outcome.decisions)
    assert report.agreement_ok
    assert report.validity_ok


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=vector_list(5, 2))
def test_restricted_sync_stays_in_honest_hull(inputs):
    configuration = SystemConfiguration(5, 2, 1)
    registry = ProcessRegistry(
        configuration,
        {pid: np.asarray(vector) for pid, vector in enumerate(inputs)},
        faulty_ids={4},
    )
    honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
    outcome = run_restricted_sync_bvc(
        registry,
        epsilon=0.5,
        adversary_mutators={4: EquivocationStrategy(honest_inputs)},
        max_rounds_override=5,
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=1e6)
    assert report.validity_ok


@settings(max_examples=20, deadline=None)
@given(inputs=vector_list(5, 2))
def test_safe_area_choice_is_deterministic_across_processes(inputs):
    # Agreement in Step 2 of the exact algorithm rests on this determinism.
    cloud = as_cloud(inputs)
    chooser_a = SafeAreaCalculator(fault_bound=1)
    chooser_b = SafeAreaCalculator(fault_bound=1)
    assert np.allclose(chooser_a.choose(cloud), chooser_b.choose(cloud), atol=1e-9)
