"""Differential-oracle harness for the coordinated columnar scenario class.

The object runtime is the oracle.  Coordinated restricted-sync adversaries
are executed through both engines here, asserting byte-identical JSONL rows
(after :func:`~repro.engine.spec.strip_timing`): decisions, verdicts, round
and traffic counters, recorded state histories, and error rows alike.  A
divergence anywhere in this file means the columnar path changed trial
*semantics*, not just trial *speed*.  Restricted-async runs always take the
object runtime; the file also pins that they are pure functions of their
specs under ``engine="auto"``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import (
    COORDINATED_STRATEGY_NAMES,
    Campaign,
    CampaignSession,
    TrialSpec,
    run_trial,
    run_specs_vectorized,
    strip_timing,
)

DETERMINISTIC_SCHEDULERS = ("round_robin", "lagging")


def _rows(results) -> list[str]:
    return strip_timing([result.to_row() for result in results])


def _assert_rows_identical(specs) -> list[str]:
    object_rows = _rows(CampaignSession(specs, engine="object").rows())
    vectorized_rows = _rows(CampaignSession(specs, engine="vectorized").rows())
    assert object_rows == vectorized_rows
    return object_rows


class TestCoordinatedDifferential:
    """Coordinated restricted-sync adversaries: batched vs object mutators."""

    @pytest.mark.parametrize("adversary", COORDINATED_STRATEGY_NAMES)
    def test_adversary_grid_matches_oracle(self, adversary):
        campaign = Campaign.from_grid(
            f"diff-{adversary}",
            protocols=("restricted_sync",),
            adversaries=(adversary,),
            dimensions=(1, 2),
            fault_bounds=(1, 2),
            repeats=2,
            base_seed=41,
            max_rounds_override=3,
        )
        rows = _assert_rows_identical(campaign.specs)
        statuses = {json.loads(row)["status"] for row in rows}
        assert statuses == {"ok"}

    def test_reference_grid_class_matches_oracle(self):
        # The benchmark reference grid's scenario class: d=2, all three
        # value-level coordinated strategies, multiple repeats per cell.
        campaign = Campaign.from_grid(
            "diff-reference-class",
            protocols=("restricted_sync",),
            adversaries=("split_world", "hull_collapse", "adaptive_extreme"),
            dimensions=(2,),
            fault_bounds=(2,),
            repeats=3,
            base_seed=59,
            max_rounds_override=3,
        )
        _assert_rows_identical(campaign.specs)

    def test_explicit_collapse_target_matches_oracle(self):
        specs = [
            TrialSpec(
                protocol="restricted_sync", workload="uniform_box",
                adversary="hull_collapse", process_count=9, dimension=2,
                fault_bound=2, max_rounds_override=3, seed=seed,
                adversary_params={"target": [0.25, -0.5]}, trial_index=index,
            )
            for index, seed in enumerate((3, 4))
        ]
        _assert_rows_identical(specs)

    def test_coordinated_error_rows_match_oracle(self):
        specs = [
            # hull_collapse target with the wrong shape: the coordinator
            # raises ConfigurationError at the first mutate, which must
            # surface as an identical error row from both engines.
            TrialSpec(
                protocol="restricted_sync", workload="uniform_box",
                adversary="hull_collapse", process_count=9, dimension=2,
                fault_bound=2, max_rounds_override=3, seed=5,
                adversary_params={"target": [1.0, 2.0, 3.0]}, trial_index=0,
            ),
            # Below the resilience bound: fails in registry construction,
            # before any coordinated machinery runs.
            TrialSpec(
                protocol="restricted_sync", workload="uniform_box",
                adversary="split_world", process_count=4, dimension=2,
                fault_bound=1, max_rounds_override=3, seed=6, trial_index=1,
            ),
        ]
        rows = _assert_rows_identical(specs)
        statuses = [json.loads(row)["status"] for row in rows]
        assert statuses == ["error", "error"]

    @pytest.mark.parametrize("adversary", COORDINATED_STRATEGY_NAMES)
    def test_recorded_histories_match_oracle(self, adversary):
        spec = TrialSpec(
            protocol="restricted_sync", workload="uniform_box",
            adversary=adversary, process_count=9, dimension=2, fault_bound=2,
            max_rounds_override=3, seed=13, record_history=True,
        )
        object_result = run_trial(spec)
        (vectorized_result,) = run_specs_vectorized([spec])
        assert object_result.ok and vectorized_result.ok
        assert (
            object_result.state_histories.keys()
            == vectorized_result.state_histories.keys()
        )
        for process_id, object_history in object_result.state_histories.items():
            vectorized_history = vectorized_result.state_histories[process_id]
            assert len(object_history) == len(vectorized_history)
            for object_state, vectorized_state in zip(object_history, vectorized_history):
                assert np.array_equal(object_state, vectorized_state)


class TestAsyncDeterminism:
    """Restricted-async runs are pure functions of their specs."""

    def _specs(self, scheduler):
        return [
            TrialSpec(
                protocol="restricted_async", workload="uniform_box",
                scheduler=scheduler, process_count=6, dimension=1,
                fault_bound=1, max_rounds_override=4, seed=seed,
                trial_index=index,
            )
            for index, seed in enumerate((2, 3, 2))
        ]

    @pytest.mark.parametrize("scheduler", DETERMINISTIC_SCHEDULERS)
    def test_repeated_runs_are_byte_identical(self, scheduler):
        specs = self._specs(scheduler)
        first = _rows(CampaignSession(specs, engine="auto").rows())
        second = _rows(CampaignSession(specs, engine="auto").rows())
        assert first == second
        # Identical specs at different positions produce identical rows
        # modulo the trial index: no state leaks from one trial to the next.
        first_row = json.loads(first[0])
        repeat_row = json.loads(first[2])
        first_row.pop("spec_trial_index"), repeat_row.pop("spec_trial_index")
        assert first_row == repeat_row

    @pytest.mark.parametrize("scheduler", DETERMINISTIC_SCHEDULERS)
    def test_worker_count_invariance(self, scheduler):
        specs = self._specs(scheduler)
        inline = _rows(CampaignSession(specs, engine="auto", workers=1).rows())
        pooled = _rows(CampaignSession(specs, engine="auto", workers=2).rows())
        assert inline == pooled

    def test_lagging_scheduler_seed_flows_from_trial_seed(self):
        # The lagging scheduler draws from a stream keyed by the trial's
        # scheduler seed; each trial seed must reproduce its own row.
        base = TrialSpec(
            protocol="restricted_async", workload="uniform_box",
            scheduler="lagging", process_count=6, dimension=1,
            fault_bound=1, max_rounds_override=4, seed=11,
        )
        other = dataclasses.replace(base, seed=12)
        for spec in (base, other):
            first = _rows(CampaignSession([spec], engine="auto").rows())
            second = _rows(CampaignSession([spec], engine="auto").rows())
            assert first == second == _rows([run_trial(spec)])
