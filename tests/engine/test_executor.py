"""Tests for run_trial and the campaign executor (including worker-pool paths).

The worker-count invariance test here is the unit-level version of the
engine's central guarantee: a trial is a pure function of its spec, so JSONL
output is byte-identical (modulo the ``elapsed_ms`` timing field) for any
``workers`` value.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.engine import (
    ENGINE_CHOICES,
    Campaign,
    CampaignSession,
    CampaignStatus,
    TrialSpec,
    iter_jsonl,
    read_jsonl,
    run_campaign,
    run_trial,
    strip_timing,
)
from repro.exceptions import ConfigurationError


class TestRunTrial:
    def test_exact_trial_succeeds_at_the_bound(self):
        result = run_trial(
            TrialSpec(
                protocol="exact",
                workload="uniform_box",
                adversary="outside_hull",
                process_count=5,
                dimension=2,
                fault_bound=1,
                seed=42,
            )
        )
        assert result.ok
        assert result.agreement and result.validity
        assert result.rounds == 2  # f + 1 EIG rounds
        assert result.messages_sent > 0
        assert result.deliveries is None  # synchronous run
        assert len(result.decision) == 2
        assert result.elapsed_ms > 0

    @pytest.mark.parametrize("scheduler", ["round_robin", "lagging"])
    def test_restricted_async_zero_round_budget(self, scheduler):
        # A process checks its budget only after finishing a round, so a
        # zero-round override still runs one update: the decision is the
        # state after it, and the row reports the override as its rounds.
        result = run_trial(
            TrialSpec(
                protocol="restricted_async",
                workload="uniform_box",
                scheduler=scheduler,
                process_count=6,
                dimension=1,
                fault_bound=1,
                max_rounds_override=0,
                seed=9,
                record_history=True,
            )
        )
        assert result.ok
        assert result.to_row()["rounds"] == 0
        first_honest = min(result.state_histories)
        for history in result.state_histories.values():
            assert len(history) == 2  # the input, then one update
        assert result.decision == tuple(float(x) for x in result.state_histories[first_honest][1])
        assert result.decision != tuple(float(x) for x in result.state_histories[first_honest][0])

    def test_approx_trial_reports_async_counters(self):
        result = run_trial(
            TrialSpec(
                protocol="approx",
                workload="uniform_box",
                adversary="crash",
                scheduler="round_robin",
                process_count=4,
                dimension=1,
                fault_bound=1,
                epsilon=0.3,
                seed=1,
            )
        )
        assert result.ok
        assert result.agreement and result.validity
        assert result.deliveries > 0

    def test_is_pure_function_of_spec(self):
        spec = TrialSpec(
            protocol="approx",
            workload="uniform_box",
            adversary="random_noise",
            process_count=4,
            dimension=1,
            fault_bound=1,
            epsilon=0.3,
            seed=77,
        )
        first, second = run_trial(spec), run_trial(spec)
        assert first.decision == second.decision
        assert first.deliveries == second.deliveries
        assert first.messages_sent == second.messages_sent

    def test_protocol_failure_becomes_error_row(self):
        # n = 3 is below every vector resilience bound: the protocol's own
        # precondition check must surface as campaign data, not a crash.
        result = run_trial(
            TrialSpec(
                protocol="exact",
                workload="uniform_box",
                process_count=3,
                dimension=2,
                fault_bound=1,
            )
        )
        assert result.status == "error"
        assert "ResilienceError" in result.error
        assert result.decision is None

    def test_fixed_instance_workload_must_match_declared_configuration(self):
        # intro_counterexample always builds the paper's d=3 instance; a spec
        # declaring a different configuration is an error row, not a silently
        # mislabelled trial.
        result = run_trial(
            TrialSpec(
                protocol="exact",
                workload="intro_counterexample",
                process_count=4,
                dimension=2,
                fault_bound=1,
            )
        )
        assert result.status == "error"
        assert "declares" in result.error

    def test_coordinatewise_honours_round_cap(self):
        # A 1-round cap is below the f + 1 = 2 rounds EIG needs, so the
        # runtime's budget must trip — proving the override reaches the runner.
        result = run_trial(
            TrialSpec(
                protocol="coordinatewise",
                workload="uniform_box",
                process_count=4,
                dimension=2,
                fault_bound=1,
                max_rounds_override=1,
                seed=3,
            )
        )
        assert result.status == "error"
        assert "round budget" in result.error

    def test_record_history_keeps_per_round_states(self):
        spec = TrialSpec(
            protocol="approx",
            workload="uniform_box",
            process_count=4,
            dimension=1,
            fault_bound=1,
            epsilon=0.3,
            max_rounds_override=3,
            seed=5,
            record_history=True,
        )
        result = run_trial(spec)
        assert result.ok
        assert len(result.state_histories) == 3  # one of the four processes is faulty
        assert all(len(history) == 4 for history in result.state_histories.values())
        assert "state_histories" not in result.to_row()


class TestExecutor:
    GRID = dict(
        protocols=("exact",),
        adversaries=("crash", "outside_hull", "random_noise"),
        dimensions=(1, 2),
        repeats=2,
        base_seed=31,
    )

    def test_worker_count_does_not_change_rows(self, tmp_path):
        campaign = Campaign.from_grid("invariance", **self.GRID)
        sequential = tmp_path / "w1.jsonl"
        pooled = tmp_path / "w2.jsonl"
        summary_one, _ = run_campaign(campaign, workers=1, jsonl_path=sequential)
        summary_two, _ = run_campaign(campaign, workers=2, jsonl_path=pooled)
        assert summary_one.trials == summary_two.trials == len(campaign)
        # The equivalence comparison streams both files (strip_timing accepts
        # any row iterable) — no full materialisation needed.
        rows_one = strip_timing(iter_jsonl(sequential))
        rows_two = strip_timing(iter_jsonl(pooled))
        assert rows_one == rows_two

    def test_results_arrive_in_spec_order(self):
        campaign = Campaign.from_grid("order", **self.GRID)
        results = list(CampaignSession(campaign.specs, workers=2).rows())
        assert [result.spec.trial_index for result in results] == list(range(len(campaign)))

    def test_summary_counts_errors_and_streams_jsonl(self, tmp_path):
        # One good trial and one under-provisioned (error) trial.
        campaign = Campaign.from_specs(
            "mixed",
            [
                TrialSpec(protocol="exact", workload="uniform_box",
                          process_count=5, dimension=2, fault_bound=1, seed=1),
                TrialSpec(protocol="exact", workload="uniform_box",
                          process_count=3, dimension=2, fault_bound=1, seed=2),
            ],
        )
        path = tmp_path / "mixed.jsonl"
        summary, results = run_campaign(campaign, workers=1, jsonl_path=path, collect=True)
        assert (summary.ok, summary.errors) == (1, 1)
        assert summary.trials_per_second > 0
        rows = read_jsonl(path)
        assert len(rows) == 2
        assert [row["status"] for row in rows] == ["ok", "error"]
        assert [result.status for result in results] == ["ok", "error"]

    def test_summary_row_renders(self):
        campaign = Campaign.from_specs(
            "tiny",
            [TrialSpec(protocol="exact", workload="uniform_box",
                       process_count=5, dimension=2, fault_bound=1)],
        )
        summary, _ = run_campaign(campaign, workers=1)
        row = summary.to_row()
        assert row["campaign"] == "tiny"
        assert row["trials"] == 1
        assert row["errors"] == 0


class TestIterJsonl:
    def test_streams_rows_lazily(self, tmp_path):
        import json
        from itertools import islice

        path = tmp_path / "rows.jsonl"
        path.write_text(
            "".join(json.dumps({"index": index}) + "\n" for index in range(100))
            + "\n\n"  # trailing blank lines are skipped
        )
        iterator = iter_jsonl(path)
        assert iter(iterator) is iterator  # a generator, not a list
        head = list(islice(iterator, 3))
        assert head == [{"index": 0}, {"index": 1}, {"index": 2}]
        iterator.close()  # closing early must not error (file handle released)

    def test_read_jsonl_is_the_materialised_view(self, tmp_path):
        import json

        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join(json.dumps({"index": index}) for index in range(5)) + "\n")
        assert read_jsonl(path) == list(iter_jsonl(path))
        assert len(read_jsonl(path)) == 5

    def test_torn_line_is_a_configuration_error_naming_the_file_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"index": 0}\n\n{"index": 1}\n{"index": 2, "na')
        iterator = iter_jsonl(path)
        assert [next(iterator), next(iterator)] == [{"index": 0}, {"index": 1}]
        with pytest.raises(ConfigurationError, match=r"torn\.jsonl: line 4: not valid JSON"):
            next(iterator)


class TestCampaignSummary:
    def _summary(self, elapsed_seconds: float) -> CampaignStatus:
        return CampaignStatus(
            run_id="r", name="s", state="finished", trials=4, emitted=4, ok=4,
            errors=0, agreement_failures=0, validity_failures=0, cache_hits=0,
            deferred=0, fallback_reasons={}, workers=1, engine="object",
            elapsed_seconds=elapsed_seconds,
        )

    def test_trials_per_second_clamped_at_zero_elapsed(self):
        # A clock-resolution-zero run must not report float("inf"):
        # json.dumps would emit `Infinity`, which is not valid JSON.
        assert self._summary(0.0).trials_per_second == 0.0
        assert self._summary(2.0).trials_per_second == 2.0

    def test_to_row_serialises_to_valid_json_at_zero_elapsed(self):
        text = json.dumps(self._summary(0.0).to_row())
        assert "Infinity" not in text
        assert json.loads(text)["trials_per_s"] == 0.0

    def test_to_row_columns_are_the_cli_summary_table(self):
        assert list(self._summary(2.0).to_row()) == [
            "campaign", "engine", "trials", "ok", "errors", "agreement_failures",
            "validity_failures", "workers", "cache_hits", "fallbacks", "seconds",
            "trials_per_s",
        ]

    def test_to_row_sums_fallback_reasons(self):
        status = replace(self._summary(2.0), fallback_reasons={"a": 2, "b": 1})
        assert status.to_row()["fallbacks"] == 3

    def test_run_campaign_returns_the_final_status(self):
        campaign = Campaign.from_specs(
            "final-status",
            [TrialSpec(protocol="exact", workload="uniform_box",
                       process_count=5, dimension=2, fault_bound=1, seed=seed)
             for seed in range(3)],
        )
        summary, rows = run_campaign(campaign, workers=1, engine="object", collect=True)
        assert isinstance(summary, CampaignStatus)
        assert summary.state == "finished" and summary.error is None
        assert summary.trials == summary.emitted == summary.ok == len(rows) == 3

    def test_to_row_records_engine(self):
        campaign = Campaign.from_specs(
            "engine-row",
            [TrialSpec(protocol="exact", workload="uniform_box",
                       process_count=5, dimension=2, fault_bound=1)],
        )
        for engine in ENGINE_CHOICES:
            summary, _ = run_campaign(campaign, workers=1, engine=engine)
            assert summary.to_row()["engine"] == engine
