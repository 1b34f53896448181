"""Unit tests for the independent agreement/validity verification layer."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.validity as validity
from repro.core.validity import check_approximate_outcome, check_exact_outcome
from repro.exceptions import AgreementViolation
from repro.geometry.convex_hull import distance_to_hull


class TestExactChecks:
    def test_agreement_and_validity_hold(self, small_registry):
        decisions = {pid: np.asarray([0.5, 0.5]) for pid in small_registry.honest_ids}
        report = check_exact_outcome(small_registry, decisions)
        assert report.agreement_ok and report.validity_ok
        assert report.max_disagreement == pytest.approx(0.0)
        assert report.max_hull_distance == pytest.approx(0.0, abs=1e-9)

    def test_disagreement_detected(self, small_registry):
        decisions = {pid: np.asarray([0.5, 0.5]) for pid in small_registry.honest_ids}
        decisions[small_registry.honest_ids[0]] = np.asarray([0.4, 0.5])
        report = check_exact_outcome(small_registry, decisions)
        assert not report.agreement_ok
        assert report.max_disagreement == pytest.approx(0.1)

    def test_validity_violation_detected(self, small_registry):
        decisions = {pid: np.asarray([2.0, 2.0]) for pid in small_registry.honest_ids}
        report = check_exact_outcome(small_registry, decisions)
        assert report.agreement_ok
        assert not report.validity_ok
        assert report.max_hull_distance == pytest.approx(1.0, abs=1e-6)

    def test_no_decisions_raises(self, small_registry):
        with pytest.raises(AgreementViolation):
            check_exact_outcome(small_registry, {})


class TestApproximateChecks:
    def test_within_epsilon(self, small_registry):
        decisions = {
            pid: np.asarray([0.5 + 0.01 * index, 0.5])
            for index, pid in enumerate(small_registry.honest_ids)
        }
        report = check_approximate_outcome(small_registry, decisions, epsilon=0.1)
        assert report.agreement_ok
        assert report.validity_ok
        assert report.epsilon == 0.1

    def test_beyond_epsilon(self, small_registry):
        decisions = {pid: np.asarray([0.0, 0.0]) for pid in small_registry.honest_ids}
        decisions[small_registry.honest_ids[-1]] = np.asarray([0.5, 0.0])
        report = check_approximate_outcome(small_registry, decisions, epsilon=0.1)
        assert not report.agreement_ok
        assert report.max_disagreement == pytest.approx(0.5)

    def test_validity_checked_against_honest_inputs_only(self, small_registry):
        # (0.9, 0.9) is in the hull of all five inputs and of the honest four.
        decisions = {pid: np.asarray([0.9, 0.9]) for pid in small_registry.honest_ids}
        report = check_approximate_outcome(small_registry, decisions, epsilon=0.1)
        assert report.validity_ok

    def test_invalid_epsilon_rejected(self, small_registry):
        decisions = {pid: np.asarray([0.5, 0.5]) for pid in small_registry.honest_ids}
        with pytest.raises(ValueError):
            check_approximate_outcome(small_registry, decisions, epsilon=0.0)


class TestOneHullLpPerDistinctDecision:
    """Identical decision rows share one hull-distance LP; the report is unchanged."""

    @pytest.fixture
    def hull_lps(self, monkeypatch):
        calls: list[np.ndarray] = []
        distance_to_hull = validity.distance_to_hull

        def counting(points, target, *args, **kwargs):
            calls.append(np.asarray(target, dtype=float).copy())
            return distance_to_hull(points, target, *args, **kwargs)

        monkeypatch.setattr(validity, "distance_to_hull", counting)
        return calls

    @staticmethod
    def per_row_report(registry, decisions, epsilon=None):
        """The report computed the long way: one LP for every honest decision."""
        rows = [np.asarray(decisions[pid], dtype=float) for pid in sorted(decisions)]
        cloud = np.vstack(rows)
        disagreement = float(np.max(cloud.max(axis=0) - cloud.min(axis=0)))
        hull_distance = max(
            distance_to_hull(registry.honest_input_multiset(), row) for row in rows
        )
        return validity.ValidityReport(
            agreement_ok=disagreement <= (1e-7 if epsilon is None else epsilon),
            validity_ok=hull_distance <= 1e-6,
            max_disagreement=disagreement,
            max_hull_distance=hull_distance,
            epsilon=epsilon,
        )

    def test_four_identical_decisions_cost_one_lp(self, small_registry, hull_lps):
        decisions = {pid: np.asarray([0.3, 0.6]) for pid in small_registry.honest_ids}
        assert len(decisions) == 4
        report = check_exact_outcome(small_registry, decisions)
        assert len(hull_lps) == 1
        assert report == self.per_row_report(small_registry, decisions)
        assert report.agreement_ok and report.validity_ok

    def test_an_outlier_among_identical_rows_still_flips_validity(self, small_registry, hull_lps):
        decisions = {pid: np.asarray([0.3, 0.6]) for pid in small_registry.honest_ids}
        decisions[small_registry.honest_ids[2]] = np.asarray([1.5, 0.6])
        report = check_approximate_outcome(small_registry, decisions, epsilon=0.1)
        assert len(hull_lps) == 2  # the shared row once, the outlier once
        assert report == self.per_row_report(small_registry, decisions, epsilon=0.1)
        assert not report.validity_ok
        assert report.max_hull_distance == pytest.approx(0.5, abs=1e-6)

    def test_negative_zero_is_its_own_row(self, small_registry, hull_lps):
        decisions = {pid: np.asarray([0.0, 0.5]) for pid in small_registry.honest_ids}
        decisions[small_registry.honest_ids[0]] = np.asarray([-0.0, 0.5])
        report = check_exact_outcome(small_registry, decisions)
        assert len(hull_lps) == 2  # bitwise dedupe: equal values, different bytes
        assert report == self.per_row_report(small_registry, decisions)
