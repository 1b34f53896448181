"""Unit and protocol tests for the baselines (intro counterexample, E1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.strategies import CoordinateAttackStrategy
from repro.core.baselines import (
    coordinatewise_median,
    run_coordinatewise_consensus,
)
from repro.core.exact_bvc import run_exact_bvc
from repro.core.validity import check_exact_outcome
from repro.exceptions import ConfigurationError
from repro.workloads.generators import intro_counterexample_registry


class TestAggregationFunctions:
    def test_coordinatewise_median(self):
        cloud = np.asarray([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert np.allclose(coordinatewise_median(cloud), [2.0, 20.0])

    def test_coordinatewise_median_even_count_lower(self):
        cloud = np.asarray([[1.0], [2.0], [3.0], [4.0]])
        assert coordinatewise_median(cloud)[0] == 2.0

    def test_coordinatewise_median_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            coordinatewise_median(np.empty((0, 2)))



class TestIntroCounterexample:
    def attack(self, registry):
        return {
            pid: CoordinateAttackStrategy(coordinate=0, target=1.0 / 6.0)
            for pid in registry.faulty_ids
        }

    def test_paper_example_baseline_decides_one_sixth_vector(self):
        registry = intro_counterexample_registry()
        outcome = run_coordinatewise_consensus(registry, adversary_mutators=self.attack(registry))
        decision = outcome.decisions[registry.honest_ids[0]]
        assert np.allclose(decision, [1.0 / 6.0] * 3, atol=1e-9)

    def test_baseline_satisfies_agreement_but_not_vector_validity(self):
        registry = intro_counterexample_registry()
        outcome = run_coordinatewise_consensus(registry, adversary_mutators=self.attack(registry))
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok
        assert not report.validity_ok
        assert report.max_hull_distance > 0.1

    def test_baseline_satisfies_scalar_validity_per_coordinate(self):
        registry = intro_counterexample_registry()
        outcome = run_coordinatewise_consensus(registry, adversary_mutators=self.attack(registry))
        decision = outcome.decisions[registry.honest_ids[0]]
        honest = registry.honest_input_multiset()
        for coordinate in range(3):
            assert honest[:, coordinate].min() - 1e-9 <= decision[coordinate]
            assert decision[coordinate] <= honest[:, coordinate].max() + 1e-9

    def test_exact_bvc_on_extended_example_is_valid(self):
        registry = intro_counterexample_registry(extended=True)
        outcome = run_exact_bvc(registry, adversary_mutators=self.attack(registry))
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok and report.validity_ok
        decision = outcome.decisions[registry.honest_ids[0]]
        assert float(np.sum(decision)) == pytest.approx(1.0, abs=1e-6)

    def test_baseline_still_invalid_on_extended_example(self):
        registry = intro_counterexample_registry(extended=True)
        outcome = run_coordinatewise_consensus(registry, adversary_mutators=self.attack(registry))
        report = check_exact_outcome(registry, outcome.decisions)
        assert report.agreement_ok
        assert not report.validity_ok

    def test_baseline_without_attack_can_still_be_invalid(self):
        # Even the nominal faulty input [1/6,1/6,1/6] (sent honestly) drags the
        # coordinate-wise medians outside the honest hull.
        registry = intro_counterexample_registry()
        outcome = run_coordinatewise_consensus(registry)
        report = check_exact_outcome(registry, outcome.decisions)
        assert not report.validity_ok
