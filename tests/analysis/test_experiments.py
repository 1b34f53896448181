"""The experiment tables at their fixed instances, claim column by claim column.

Each runner takes no arguments, so the table checked here is the table
``python -m repro.cli run`` prints and ``benchmarks/reference/`` pins.  Every
table runs once per module (:func:`tables`); each test asserts the paper's
claim on every row of one table.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import experiments
from repro.analysis.report import render_table
from repro.cli import EXPERIMENT_REGISTRY
from repro.core.impossibility import THEOREM4_EPSILON
from repro.engine import COORDINATED_STRATEGY_NAMES, STRATEGY_NAMES


@pytest.fixture(scope="module")
def tables():
    return {experiment_id: runner() for experiment_id, (_, runner) in EXPERIMENT_REGISTRY.items()}


def test_e1_baseline_violates_validity_and_exact_bvc_keeps_it(tables):
    by_algorithm = {row["algorithm"]: row for row in tables["E1"]}
    exact = by_algorithm.pop("Exact BVC (Gamma decision, n=5)")
    assert exact["agreement"] and exact["vector_validity"]
    assert exact["decision_sum"] == pytest.approx(1.0, abs=1e-6)
    assert len(by_algorithm) == 2
    for baseline in by_algorithm.values():
        assert baseline["agreement"] and not baseline["vector_validity"]
        # Paper shape: the baseline's decision [1/6, 1/6, 1/6] sums to 1/2.
        assert baseline["decision_sum"] == pytest.approx(0.5, abs=1e-6)


def test_e2_gamma_is_empty_below_the_bound_only(tables):
    rows = tables["E2"]
    assert [row["dimension"] for row in rows] == list(experiments.E2_DIMENSIONS)
    for row in rows:
        assert row["gamma_empty_below"] is True
        assert row["gamma_empty_at_bound"] is False
        assert row["n_at_bound"] == row["n_below_bound"] + 1 <= row["required_n"]


def test_e3_gamma_is_nonempty_on_every_sample(tables):
    rows = tables["E3"]
    grid = list(itertools.product(experiments.E3_DIMENSIONS, experiments.E3_FAULT_BOUNDS))
    assert [(row["dimension"], row["fault_bound"]) for row in rows] == grid
    for row in rows:
        assert row["multiset_size"] == (row["dimension"] + 1) * row["fault_bound"] + 1
        assert row["gamma_nonempty"] == row["samples"] == experiments.E3_SAMPLES
        assert row["tverberg_partition_found"] in (None, row["samples"])


def test_e4_figure1_partition(tables):
    (row,) = tables["E4"]
    assert row["found"] is True
    assert row["parts"] == 3
    assert row["witness_in_all_hulls"] is True
    # The paper's drawing: one triangle and two segments.
    assert sorted(row["block_sizes"]) == [2, 2, 3]


def test_e5_exact_bvc_agrees_and_is_valid_in_f_plus_one_rounds(tables):
    rows = tables["E5"]
    assert len(rows) == len(experiments.E5_CONFIGURATIONS) * len(STRATEGY_NAMES)
    for row in rows:
        assert row["agreement"] and row["validity"]
        assert row["rounds"] == row["f"] + 1
    # Message complexity grows with n (EIG relaying).
    crash_messages = {row["n"]: row["messages"] for row in rows if row["attack"] == "crash"}
    assert crash_messages[5] > crash_messages[4]


def test_e6_every_configuration_has_a_gamma_point(tables):
    rows = tables["E6"]
    assert [(row["n"], row["d"], row["f"]) for row in rows] == list(experiments.E6_CONFIGURATIONS)
    for row in rows:
        assert row["point_found"]
        # The kernel never assembles more blocks than the full enumeration.
        assert row["kernel_blocks"] <= row["subsets_in_gamma"]


def test_e7_forced_decisions_are_four_epsilon_apart(tables):
    rows = tables["E7"]
    assert [row["dimension"] for row in rows] == list(experiments.E7_DIMENSIONS)
    for row in rows:
        assert row["epsilon"] == THEOREM4_EPSILON
        assert row["violates_epsilon_agreement"] is True
        assert row["max_forced_gap"] == pytest.approx(4 * THEOREM4_EPSILON, abs=1e-6)


def test_e8_approx_bvc_reaches_epsilon_agreement_and_validity(tables):
    rows = tables["E8"]
    assert len(rows) == len(experiments.E8_CONFIGURATIONS) * len(experiments.E8_STRATEGIES)
    for row in rows:
        assert row["eps_agreement"] and row["validity"]
        assert row["max_disagreement"] <= row["epsilon"] == experiments.E8_EPSILON


def test_e9_every_round_contracts_within_the_bound(tables):
    rows = tables["E9"]
    assert [row["round"] for row in rows] == list(range(1, experiments.E9_ROUNDS + 1))
    for row in rows:
        assert row["within_bound"]
        assert row["range_after"] <= row["range_before"] + 1e-12


def test_e10_witness_subsets_never_exceed_n(tables):
    rows = tables["E10"]
    assert [(row["n"], row["d"], row["f"]) for row in rows] == list(experiments.E10_CONFIGURATIONS)
    for row in rows:
        assert row["gamma_point_found"]
        assert row["subsets_witness_bound"] <= row["n"]
    # The reduction grows with f (paper: C(n, n-f) vs <= n).
    assert rows[-1]["reduction_factor"] > rows[0]["reduction_factor"]


def test_e11_restricted_rounds_agree_and_are_valid(tables):
    rows = tables["E11"]
    assert len(rows) == 2 * len(experiments.E11_STRATEGIES)
    for row in rows:
        assert row["eps_agreement"] and row["validity"]
    capped = [row for row in rows if row["structure"] == "restricted asynchronous"]
    assert all(row["rounds"] <= experiments.E11_ASYNC_ROUNDS for row in capped)


def test_e13_landscape_is_the_paper_bounds(tables):
    rows = tables["E13"]
    grid = list(itertools.product(experiments.E13_DIMENSIONS, experiments.E13_FAULT_BOUNDS))
    assert [(row["dimension"], row["fault_bound"]) for row in rows] == grid
    for row in rows:
        d, f = row["dimension"], row["fault_bound"]
        assert row["scalar"] == 3 * f + 1
        assert row["exact_sync"] == max(3 * f + 1, (d + 1) * f + 1)
        assert row["approx_async"] == (d + 2) * f + 1
        assert row["restricted_sync"] == (d + 2) * f + 1
        assert row["restricted_async"] == (d + 4) * f + 1


def test_e14_applications_agree_and_are_valid(tables):
    rows = tables["E14"]
    assert len(rows) == 3
    for row in rows:
        assert row["agreement"] and row["validity"]
    assert [row["decision_is_distribution"] for row in rows] == [True, None, None]


def test_e16_no_adversary_succeeds_at_the_bound(tables):
    rows = tables["E16"]
    assert [row["attack"] for row in rows] == [
        *STRATEGY_NAMES, "coordinate_attack", *COORDINATED_STRATEGY_NAMES
    ]
    for row in rows:
        assert row["attack_succeeded"] is False
        assert row["agreement"] and row["validity"]
    protocols = {row["attack"]: row["protocol"] for row in rows}
    assert protocols.pop("theorem4_scenario") == "approx"
    assert set(protocols.values()) == {"exact"}


def test_tables_render(tables):
    text = render_table(tables["E13"], title="landscape")
    assert "landscape" in text
    assert "approx_async" in text


def test_make_strategy_rejects_unknown():
    registry = experiments.intro_counterexample_registry()
    with pytest.raises(ValueError):
        experiments.make_strategy("unknown", registry)


def test_experiments_serve_from_a_result_store(tmp_path, tables):
    # With a store configured, the first run populates it and the second is
    # served from it: the full E5 table is identical either way, and the
    # store holds one row per trial of the campaign.
    store_path = tmp_path / "experiments.db"
    previous = experiments.set_result_store(store_path)
    try:
        cold = experiments.experiment_exact_bvc()
        warm = experiments.experiment_exact_bvc()
    finally:
        assert experiments.set_result_store(previous) == store_path
    assert cold == warm == tables["E5"]
    from repro.store import open_store

    with open_store(store_path) as store:
        assert len(store) == len(experiments.E5_CONFIGURATIONS) * len(STRATEGY_NAMES)
