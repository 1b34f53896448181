"""Smoke tests for the experiment runners (reduced parameters).

Every experiment id from DESIGN.md must at least execute and report the
qualitative outcome the paper predicts; the benchmarks run the full-size
versions.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import render_table


class TestCheapExperiments:
    def test_e1_baseline_validity(self):
        rows = experiments.experiment_baseline_validity()
        by_algorithm = {row["algorithm"]: row for row in rows}
        baseline = by_algorithm["coordinate-wise scalar consensus (n=4, paper example)"]
        exact = by_algorithm["Exact BVC (Gamma decision, n=5)"]
        assert baseline["agreement"] and not baseline["vector_validity"]
        assert exact["agreement"] and exact["vector_validity"]
        # Paper shape: the baseline's decision [1/6, 1/6, 1/6] sums to 1/2.
        assert baseline["decision_sum"] == pytest.approx(0.5, abs=1e-6)
        assert exact["decision_sum"] == pytest.approx(1.0, abs=1e-6)

    def test_e2_sync_impossibility(self):
        rows = experiments.experiment_sync_impossibility(dimensions=(1, 2, 3))
        for row in rows:
            assert row["gamma_empty_below"] is True
            assert row["gamma_empty_at_bound"] is False

    def test_e7_async_impossibility(self):
        rows = experiments.experiment_async_impossibility(dimensions=(1, 2), epsilon=0.25)
        for row in rows:
            assert row["violates_epsilon_agreement"] is True
            assert row["max_forced_gap"] == pytest.approx(1.0, abs=1e-6)

    def test_e3_safe_area_existence(self):
        rows = experiments.experiment_safe_area_existence(dimensions=(1, 2), fault_bounds=(1,), samples=3)
        for row in rows:
            assert row["gamma_nonempty"] == row["samples"]

    def test_e6_safe_area_cost(self):
        rows = experiments.experiment_safe_area_cost(configurations=((4, 1, 1), (5, 2, 1)))
        assert all(row["point_found"] for row in rows)
        assert rows[0]["subsets_in_gamma"] == 4
        # The kernel never assembles more blocks than the full enumeration.
        assert all(row["kernel_blocks"] <= row["subsets_in_gamma"] for row in rows)

    def test_e10_appendix_f(self):
        rows = experiments.experiment_appendix_f()
        assert all(row["gamma_point_found"] for row in rows)
        assert all(row["subsets_witness_bound"] <= row["n"] for row in rows)
        # The reduction grows with f (paper: C(n, n-f) vs <= n).
        assert rows[-1]["reduction_factor"] > rows[0]["reduction_factor"]

    def test_e4_figure1(self):
        rows = experiments.experiment_figure1_tverberg()
        assert rows[0]["found"] is True
        assert rows[0]["parts"] == 3
        assert rows[0]["witness_in_all_hulls"] is True
        # The paper's drawing: one triangle and two segments.
        assert sorted(rows[0]["block_sizes"]) == [2, 2, 3]

    def test_e13_resilience_landscape(self):
        rows = experiments.experiment_resilience_landscape(dimensions=(2,), fault_bounds=(1,))
        assert rows[0]["approx_async"] == 5

    def test_tables_render(self):
        rows = experiments.experiment_resilience_landscape(dimensions=(1, 2), fault_bounds=(1,))
        text = render_table(rows, title="landscape")
        assert "landscape" in text
        assert "approx_async" in text

    def test_make_strategy_rejects_unknown(self):
        registry = experiments.intro_counterexample_registry()
        with pytest.raises(ValueError):
            experiments.make_strategy("unknown", registry)


class TestProtocolExperiments:
    def test_e5_exact_bvc_small(self):
        rows = experiments.experiment_exact_bvc(
            configurations=((2, 1), (3, 1)), strategies=("crash", "outside_hull")
        )
        assert len(rows) == 4
        for row in rows:
            assert row["agreement"] and row["validity"]
            assert row["rounds"] == row["f"] + 1  # termination in f + 1 rounds
        # Message complexity grows with n (EIG relaying).
        crash_messages = {row["n"]: row["messages"] for row in rows if row["attack"] == "crash"}
        assert crash_messages[5] > crash_messages[4]

    def test_e8_approx_bvc_small(self):
        rows = experiments.experiment_approx_bvc(
            configurations=((1, 1),), strategies=("crash",), epsilon=0.3
        )
        assert len(rows) == 1
        assert rows[0]["eps_agreement"] and rows[0]["validity"]

    def test_e9_contraction_rate(self):
        rows = experiments.experiment_contraction_rate(dimension=1, fault_bound=1, rounds=3)
        assert len(rows) == 3
        assert all(row["within_bound"] for row in rows)
        assert all(row["range_after"] <= row["range_before"] + 1e-12 for row in rows)
        assert rows[-1]["range_after"] < rows[0]["range_before"]

    def test_e11_e12_restricted(self):
        rows = experiments.experiment_restricted_rounds(
            dimension=1, fault_bound=1, strategies=("crash",),
            sync_rounds_override=6, async_rounds_override=6,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["eps_agreement"] and row["validity"]

    def test_e14_applications(self):
        rows = experiments.experiment_applications(epsilon=0.3)
        assert len(rows) == 3
        for row in rows:
            assert row["agreement"] and row["validity"]
        assert rows[0]["decision_is_distribution"] is True

    def test_experiments_serve_from_a_result_store(self, tmp_path):
        # With a store configured, the first run populates it and the second
        # is served from it — producing the identical table either way.
        store_path = tmp_path / "experiments.db"
        previous = experiments.set_result_store(store_path)
        try:
            cold = experiments.experiment_exact_bvc(
                configurations=((2, 1),), strategies=("crash",)
            )
            warm = experiments.experiment_exact_bvc(
                configurations=((2, 1),), strategies=("crash",)
            )
        finally:
            assert experiments.set_result_store(previous) == store_path
        assert cold == warm
        from repro.store import open_store

        with open_store(store_path) as store:
            assert len(store) == 1

    def test_e16_adversary_coordination(self):
        rows = experiments.experiment_adversary_coordination(dimension=1, epsilon=0.3)
        # Five independent strategies plus the four coordinated ones.
        assert len(rows) == 9
        families = {row["family"] for row in rows}
        assert families == {"independent", "coordinated"}
        for row in rows:
            # At the bound no adversary — coordinated or not — may succeed.
            assert row["attack_succeeded"] is False
            assert row["agreement"] and row["validity"]
        theorem4 = [row for row in rows if row["attack"] == "theorem4_scenario"]
        assert theorem4[0]["protocol"] == "approx"
