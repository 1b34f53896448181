"""Integration tests: the campaign session's write-through store cache.

The cache-correctness contract under test: a campaign run twice against the
same store produces byte-identical export rows (modulo ``elapsed_ms``) with
zero recomputed trials — whichever engine executes the misses and however
many workers fan them out.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import replace

import pytest

from repro.engine import (
    ENGINE_CHOICES,
    Campaign,
    CampaignSession,
    TrialSpec,
    read_jsonl,
    run_campaign,
    strip_timing,
)
from repro.exceptions import ConfigurationError
from repro.store import ResultStore, open_store, trial_key


def _mixed_campaign() -> Campaign:
    """A small grid exercising columnar-eligible, object-only and error rows."""
    grid = Campaign.from_grid(
        "store-mixed",
        protocols=("restricted_sync",),
        adversaries=("none", "crash"),
        dimensions=(1,),
        repeats=2,
        base_seed=31,
        max_rounds_override=2,
    )
    extra = [
        # Coordinated adversary: always falls back to the object engine.
        TrialSpec(protocol="restricted_sync", workload="uniform_box", adversary="split_world",
                  process_count=4, dimension=1, fault_bound=1, max_rounds_override=2, seed=5),
        # Under-provisioned: a deterministic error row.
        TrialSpec(protocol="exact", workload="uniform_box",
                  process_count=3, dimension=2, fault_bound=1, seed=6),
    ]
    return Campaign.from_specs("store-mixed", list(grid.specs) + extra)


class TestCacheCorrectness:
    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_second_run_is_byte_identical_with_zero_recomputation(
        self, engine, workers, tmp_path
    ):
        campaign = _mixed_campaign()
        store_path = tmp_path / "store.db"
        cold_jsonl = tmp_path / "cold.jsonl"
        warm_jsonl = tmp_path / "warm.jsonl"
        cold, _ = run_campaign(
            campaign, workers=workers, jsonl_path=cold_jsonl,
            engine=engine, store=store_path,
        )
        warm, _ = run_campaign(
            campaign, workers=workers, jsonl_path=warm_jsonl,
            engine=engine, store=store_path,
        )
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.trials == len(campaign)  # zero recomputed
        assert strip_timing(read_jsonl(cold_jsonl)) == strip_timing(read_jsonl(warm_jsonl))
        # Store-served rows are also identical to a storeless reference run.
        plain_jsonl = tmp_path / "plain.jsonl"
        run_campaign(campaign, workers=1, jsonl_path=plain_jsonl, engine=engine)
        assert strip_timing(read_jsonl(plain_jsonl)) == strip_timing(read_jsonl(warm_jsonl))

    def test_cache_serves_across_engines_and_worker_counts(self, tmp_path):
        # One cold auto run; every (engine, workers) combination replays warm.
        campaign = _mixed_campaign()
        store_path = tmp_path / "store.db"
        cold_jsonl = tmp_path / "cold.jsonl"
        run_campaign(campaign, workers=1, jsonl_path=cold_jsonl, engine="auto",
                     store=store_path)
        reference = strip_timing(read_jsonl(cold_jsonl))
        for engine in ENGINE_CHOICES:
            for workers in (1, 4):
                warm_jsonl = tmp_path / f"warm-{engine}-w{workers}.jsonl"
                warm, _ = run_campaign(
                    campaign, workers=workers, jsonl_path=warm_jsonl,
                    engine=engine, store=store_path,
                )
                assert warm.cache_hits == len(campaign), (engine, workers)
                assert strip_timing(read_jsonl(warm_jsonl)) == reference, (engine, workers)

    def test_cache_hits_across_different_trial_indices(self, tmp_path):
        # The same physical trial at a different campaign position must hit:
        # trial_index is excluded from the content address, and the served
        # row must carry the *requested* position.
        spec = TrialSpec(protocol="restricted_sync", workload="uniform_box", adversary="none",
                         process_count=4, dimension=1, fault_bound=1,
                         max_rounds_override=2, seed=9)
        filler = TrialSpec(protocol="exact", workload="uniform_box",
                           process_count=3, dimension=2, fault_bound=1, seed=10)
        store_path = tmp_path / "store.db"
        first = Campaign.from_specs("first", [spec])
        run_campaign(first, store=store_path)
        shifted = Campaign.from_specs("shifted", [filler, spec])
        summary, results = run_campaign(
            shifted, store=store_path, collect=True
        )
        assert summary.cache_hits == 1
        assert results[1].spec.trial_index == 1
        assert results[1].to_row()["spec_trial_index"] == 1

    def test_reuse_cached_false_records_but_recomputes(self, tmp_path):
        campaign = _mixed_campaign()
        store_path = tmp_path / "store.db"
        run_campaign(campaign, store=store_path)
        refreshed, _ = run_campaign(campaign, store=store_path, reuse_cached=False)
        assert refreshed.cache_hits == 0
        with open_store(store_path) as store:
            assert len(store) == len(campaign)  # idempotent overwrite, no duplicates

    def test_record_history_trials_are_never_served(self, tmp_path):
        spec = TrialSpec(protocol="approx", workload="uniform_box", adversary="none",
                         process_count=4, dimension=1, fault_bound=1, epsilon=0.3,
                         max_rounds_override=3, seed=5, record_history=True)
        campaign = Campaign.from_specs("history", [spec])
        store_path = tmp_path / "store.db"
        run_campaign(campaign, store=store_path)
        summary, results = run_campaign(campaign, store=store_path, collect=True)
        assert summary.cache_hits == 0  # cached row cannot satisfy histories
        assert results[0].state_histories  # the re-run kept them
        # But the row it recorded *is* servable by the history-free twin.
        twin = Campaign.from_specs(
            "twin", [TrialSpec(**{**spec.to_dict(), "record_history": False})]
        )
        twin_summary, _ = run_campaign(twin, store=store_path)
        assert twin_summary.cache_hits == 1


class TestResume:
    def test_interrupted_campaign_resumes_with_only_missing_trials(self, tmp_path):
        campaign = _mixed_campaign()
        store_path = tmp_path / "store.db"
        # "Interrupt" after the first three trials: run a prefix sub-campaign.
        prefix = Campaign.from_specs(campaign.name, campaign.specs[:3])
        run_campaign(prefix, store=store_path)
        resumed_jsonl = tmp_path / "resumed.jsonl"
        resumed, _ = run_campaign(
            campaign, jsonl_path=resumed_jsonl, store=store_path
        )
        assert resumed.cache_hits == 3  # only the missing trials executed
        uninterrupted_jsonl = tmp_path / "uninterrupted.jsonl"
        run_campaign(campaign, jsonl_path=uninterrupted_jsonl)
        assert strip_timing(read_jsonl(resumed_jsonl)) == strip_timing(
            read_jsonl(uninterrupted_jsonl)
        )

    def test_abandoned_iterator_keeps_committed_units(self, tmp_path):
        # Error specs are cheap and object-engine only: 40 of them split into
        # STORE_COMMIT_CHUNK-sized transactional units.
        specs = [
            TrialSpec(protocol="exact", workload="uniform_box",
                      process_count=3, dimension=2, fault_bound=1, seed=seed,
                      trial_index=index)
            for index, seed in enumerate(range(40))
        ]
        store = ResultStore(tmp_path / "store.db")
        # engine="object": under "auto" these same-shape specs would form one
        # columnar unit and commit all 40 rows in its single transaction.
        iterator = CampaignSession(specs, store=store, engine="object").rows()
        for _ in range(5):
            next(iterator)
        iterator.close()  # simulate the interruption
        committed = len(store)
        assert committed >= 5  # everything emitted was committed first
        assert committed < len(specs)  # ... but the run did not finish
        resumed = CampaignSession(specs, store=store)
        results = list(resumed.rows())
        assert len(results) == len(specs)
        # Everything committed is served; only the remainder executed.
        assert resumed.status().cache_hits == committed
        store.close()


def _rewrite_stored_row(store_path, edit) -> None:
    """Apply ``edit`` to the one row in the store, behind the store's back."""
    connection = sqlite3.connect(store_path)
    try:
        with connection:
            ((text,),) = connection.execute("SELECT row FROM trials").fetchall()
            row = json.loads(text)
            edit(row)
            connection.execute("UPDATE trials SET row = ?", (json.dumps(row, sort_keys=True),))
    finally:
        connection.close()


class TestServedRows:
    """A hit is served onto the requested spec; a malformed stored row is refused."""

    SPEC = TrialSpec(protocol="restricted_sync", workload="uniform_box", adversary="crash",
                     process_count=4, dimension=1, fault_bound=1, max_rounds_override=2, seed=9)

    def _store_at_index(self, tmp_path, trial_index: int):
        # Campaign(...) keeps trial_index verbatim (from_specs would renumber).
        store_path = tmp_path / "store.db"
        stored = replace(self.SPEC, trial_index=trial_index)
        run_campaign(Campaign(name="stored", specs=(stored,)), store=store_path)
        return store_path

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda row: row.update(spec_bogus=1),
            lambda row: row.pop("spec_protocol"),
            lambda row: row.update(bogus=1),
            lambda row: row.pop("status"),
        ],
        ids=["extra-spec-field", "missing-spec-field", "unknown-outcome-field", "no-status"],
    )
    def test_malformed_rows_are_rejected(self, tmp_path, corrupt):
        store_path = self._store_at_index(tmp_path, 0)
        _rewrite_stored_row(store_path, corrupt)
        with pytest.raises(ConfigurationError):
            run_campaign(Campaign(name="warm", specs=(self.SPEC,)), store=store_path)

    def test_row_from_another_index_is_served_at_the_requested_one(self, tmp_path):
        store_path = self._store_at_index(tmp_path, 7)
        requested = Campaign(name="warm", specs=(replace(self.SPEC, trial_index=3),))
        summary, served = run_campaign(requested, store=store_path, collect=True)
        _, fresh = run_campaign(requested, collect=True)
        assert summary.cache_hits == 1
        assert served[0].spec.trial_index == 3
        rows = [result.to_row() for result in served]
        assert strip_timing(rows) == strip_timing(result.to_row() for result in fresh)


class TestStoreKeysAgainstLiveRows:
    def test_store_rows_keyed_by_spec_content(self, tmp_path):
        campaign = _mixed_campaign()
        store_path = tmp_path / "store.db"
        run_campaign(campaign, store=store_path)
        with open_store(store_path) as store:
            for spec in campaign.specs:
                assert trial_key(spec) in store
