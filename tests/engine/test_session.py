"""Campaign sessions: typed events, status snapshots, cooperative cancellation.

The session is the single execution path every consumer rides
(``run_campaign``, ``run_fuzz``, the experiments, the HTTP server), so these
tests pin its contract directly:

* ``events()`` yields planned/claimed/fallback/unit-committed/row/finished
  in a coherent order, with rows in spec order and byte-identical to the
  functional API;
* ``status()`` snapshots are consistent mid-flight and terminal afterwards;
* cancellation — whether by ``cancel()`` or by abandoning the generator (the
  client-disconnect analog) — halts work promptly, **releases SQLite
  claims**, and leaves the store resumable: a rerun serves everything
  already committed and recomputes nothing twice;
* there is one campaign loop: the same rows and the same event order with no
  store, a fresh, a warm or a contended one, inline or pooled.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.engine import (
    Campaign,
    CampaignSession,
    ClaimedEvent,
    FinishedEvent,
    PlannedEvent,
    RowEvent,
    TrialSpec,
    UnitCommittedEvent,
    run_fuzz,
    run_trial,
    strip_timing,
)
from repro.engine import pool as pool_module
from repro.engine import session as session_module
from repro.engine.session import STORE_COMMIT_CHUNK
from repro.store.backend import ResultStore
from repro.store.keys import trial_key


def _specs(count: int = 8) -> list[TrialSpec]:
    return [
        TrialSpec(protocol="exact", workload="uniform_box", process_count=5,
                  dimension=1, fault_bound=1, seed=index, trial_index=index)
        for index in range(count)
    ]


def _object_specs(count: int = 8) -> list[TrialSpec]:
    """Adversarial ``exact`` trials: object-engine work under every engine."""
    return [replace(spec, adversary="crash") for spec in _specs(count)]


def _rows(results) -> list[str]:
    return strip_timing(result.to_row() for result in results)


def _oracle_rows(specs) -> list[str]:
    return _rows(run_trial(spec) for spec in specs)


class TestEventStream:
    def test_rows_arrive_in_spec_order_and_match_the_object_oracle(self):
        specs = _specs(6)
        expected = _oracle_rows(specs)
        session = CampaignSession(specs, engine="auto")
        events = list(session.events())
        rows = [event for event in events if isinstance(event, RowEvent)]
        assert [event.position for event in rows] == list(range(len(specs)))
        assert _rows(event.result for event in rows) == expected
        assert all(event.source == "executed" for event in rows)

    def test_event_shape_planned_first_finished_last(self):
        session = CampaignSession(_specs(4), engine="auto")
        events = list(session.events())
        assert isinstance(events[0], PlannedEvent)
        assert events[0].trials == 4
        assert isinstance(events[-1], FinishedEvent)
        assert events[-1].status.state == "finished"
        assert session.state == "finished"

    def test_stored_session_emits_claimed_and_committed_events(self, tmp_path):
        specs = _specs(6)
        session = CampaignSession(specs, store=tmp_path / "store.db")
        events = list(session.events())
        claimed = [event for event in events if isinstance(event, ClaimedEvent)]
        assert len(claimed) == 1 and claimed[0].granted == len(specs)
        committed = [event for event in events if isinstance(event, UnitCommittedEvent)]
        assert committed and all(event.committed for event in committed)

    def test_warm_rerun_serves_rows_from_cache(self, tmp_path):
        specs = _specs(5)
        store_path = tmp_path / "store.db"
        assert len(list(CampaignSession(specs, store=store_path).rows())) == 5
        warm = CampaignSession(specs, store=store_path)
        rows = [event for event in warm.events() if isinstance(event, RowEvent)]
        assert all(event.source == "cache" for event in rows)
        assert warm.status().cache_hits == len(specs)

    def test_session_is_single_use(self):
        session = CampaignSession(_specs(2))
        list(session.events())
        with pytest.raises(RuntimeError, match="single-use"):
            next(session.events())

    def test_rows_wrapper_filters_row_events(self):
        specs = _specs(4)
        assert _rows(CampaignSession(specs).rows()) == _oracle_rows(specs)

    @pytest.mark.parametrize("engine", ["auto", "object"])
    def test_object_rows_leave_as_their_trials_finish(self, engine, tmp_path, monkeypatch):
        """The emission rule: a finished row waits for its commit group only."""
        specs = _object_specs(10)
        ran = []

        def counting_run_trial(spec):
            ran.append(spec.trial_index)
            return run_trial(spec)

        monkeypatch.setattr(session_module, "run_trial", counting_run_trial)

        # No store, nothing to commit: a row leaves when its trial ends.
        for consumed, _ in enumerate(CampaignSession(specs, engine=engine).rows(), start=1):
            assert len(ran) == consumed

        # With a store: the row's whole group has run and is already stored.
        ran.clear()
        with ResultStore(tmp_path / "store.db") as store:
            session = CampaignSession(specs, engine=engine, store=store)
            for consumed, result in enumerate(session.rows(), start=1):
                groups = -(-consumed // STORE_COMMIT_CHUNK)
                assert len(ran) == min(groups * STORE_COMMIT_CHUNK, len(specs))
                assert trial_key(result.spec) in store

    def test_pooled_store_commits_once_per_pool_task(self, tmp_path):
        """On the pool the commit group is the pool task, not a 4-trial slice."""
        specs = _object_specs(24)
        with ResultStore(tmp_path / "store.db") as store:
            start = store.generation()
            session = CampaignSession(specs, store=store, workers=2, engine="object")
            committed: set[int] = set()
            tasks = []
            pooled = []
            for event in session.events():
                if isinstance(event, UnitCommittedEvent):
                    assert all(trial_key(specs[p]) in store for p in event.positions)
                    assert committed.isdisjoint(event.positions)
                    committed.update(event.positions)
                    tasks.append(event.positions)
                elif isinstance(event, RowEvent):
                    assert event.position in committed
                    pooled.append(event.result)
            # One commit per cost-model-sized pool task, whatever its size.
            assert committed == set(range(len(specs)))
            assert store.generation() - start == len(tasks) > 1

        no_store = CampaignSession(specs, workers=2, engine="object").rows()
        inline = CampaignSession(specs, store=tmp_path / "inline.db", engine="object").rows()
        assert _rows(pooled) == _rows(no_store) == _rows(inline)


class TestOneLoop:
    @pytest.mark.parametrize("engine", ["auto", "object"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("store_state", ["none", "fresh", "warm", "contended"])
    def test_every_store_state_rides_the_same_loop(
        self, store_state, workers, engine, tmp_path, monkeypatch
    ):
        # Columnar-eligible and object-only trials, interleaved.
        specs = [
            replace(spec, adversary="crash") if index % 3 == 0 else spec
            for index, spec in enumerate(_specs(10))
        ]
        store_path = None if store_state == "none" else tmp_path / "store.db"
        if store_state == "warm":
            list(CampaignSession(specs, store=store_path).rows())
        elif store_state == "contended":
            # A crashed owner: holds two claims it will never commit.
            with ResultStore(store_path) as ghost:
                ghost.claim_keys([trial_key(specs[3]), trial_key(specs[4])], "ghost")
            monkeypatch.setattr(session_module, "CLAIM_WAIT_SECONDS", 1.0)

        session = CampaignSession(
            specs, store=store_path, workers=workers, engine=engine
        )
        events = list(session.events())

        rows = [event for event in events if isinstance(event, RowEvent)]
        assert [event.position for event in rows] == list(range(len(specs)))
        assert _rows(event.result for event in rows) == _oracle_rows(specs)
        served = "cache" if store_state == "warm" else "executed"
        assert {event.source for event in rows} == {served}
        assert [type(event) for event in events].count(FinishedEvent) == 1
        assert events[-1].status.state == "finished"

        planned, committed = False, set()
        for event in events:
            if isinstance(event, PlannedEvent):
                planned = True
            elif isinstance(event, UnitCommittedEvent):
                assert event.committed == (store_path is not None)
                committed.update(event.positions)
            elif isinstance(event, RowEvent) and event.source == "executed":
                assert planned and event.position in committed
        if store_path is not None:
            with ResultStore(store_path) as store:
                assert len(store) == len(specs)
                assert store.claim_stats() == {"live": 0, "expired": 0}


class TestStatus:
    def test_snapshot_midstream_and_terminal(self):
        specs = _specs(6)
        session = CampaignSession(specs, engine="object")
        assert session.status().state == "pending"
        rows = session.rows()
        next(rows), next(rows)
        status = session.status()
        assert status.state == "running"
        assert status.emitted == 2 and status.trials == 6
        list(rows)
        final = session.status()
        assert final.state == "finished"
        assert final.emitted == final.ok == 6
        assert final.state == "finished" and final.elapsed_seconds > 0

    def test_summary_carries_run_id_and_fallbacks(self):
        specs = _specs(4)
        session = CampaignSession(Campaign.from_specs("pinned", specs), engine="object")
        list(session.rows())
        summary = session.summary()
        assert summary.state == "finished"
        assert summary.run_id == session.run_id and len(summary.run_id) == 16
        assert summary.name == "pinned"
        assert summary.trials == summary.ok == 4
        assert sum(summary.fallback_reasons.values()) == 4  # forced object

    def test_status_to_dict_is_json_shaped(self):
        session = CampaignSession(_specs(2))
        list(session.rows())
        payload = session.status().to_dict()
        assert payload["state"] == "finished"
        assert payload["run_id"] == session.run_id
        assert isinstance(payload["fallback_reasons"], dict)


class TestCancellation:
    def test_cancel_mid_stream_halts_and_releases_claims(self, tmp_path):
        store_path = tmp_path / "store.db"
        specs = _specs(12)
        # Object engine -> STORE_COMMIT_CHUNK-sized units, so cancellation
        # has unit boundaries to act on (a columnar batch ships whole).
        session = CampaignSession(specs, store=store_path, engine="object")
        consumed = []
        for result in session.rows():
            consumed.append(result)
            if len(consumed) == 3:
                session.cancel()
        assert session.state == "cancelled"
        assert len(consumed) < len(specs)
        with ResultStore(store_path) as store:
            assert store.claim_stats() == {"live": 0, "expired": 0}

    def test_generator_close_is_client_disconnect(self, tmp_path):
        """Abandoning rows() (a dropped HTTP client) cancels like cancel()."""
        store_path = tmp_path / "store.db"
        session = CampaignSession(_specs(12), store=store_path)
        rows = session.rows()
        next(rows), next(rows)
        rows.close()
        assert session.state == "cancelled"
        with ResultStore(store_path) as store:
            assert store.claim_stats() == {"live": 0, "expired": 0}

    def test_multiworker_cancel_halts_promptly_and_releases_claims(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.db"
        specs = _specs(16)
        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 2)
        session = CampaignSession(specs, store=store_path, workers=2, engine="object")
        received = 0
        for _ in session.rows():
            received += 1
            if received == 2:
                session.cancel()
        assert session.state == "cancelled"
        assert session.status().emitted == received
        with ResultStore(store_path) as store:
            assert store.claim_stats() == {"live": 0, "expired": 0}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_after_cancel_is_byte_identical_with_zero_recompute(
        self, tmp_path, workers, monkeypatch
    ):
        """The satellite contract: cancel -> resume completes, recomputing
        nothing that was committed, and exports byte-identical rows."""
        store_path = tmp_path / "store.db"
        specs = _specs(12)
        expected = _oracle_rows(specs)

        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 2)
        first = CampaignSession(specs, store=store_path, workers=workers, engine="object")
        consumed = 0
        for _ in first.rows():
            consumed += 1
            if consumed == 3:
                first.cancel()
        assert first.state == "cancelled"

        committed = len(ResultStore(store_path))
        # Commit-then-emit: every consumed row is durably in the store.
        assert committed >= consumed

        resumed = CampaignSession(specs, store=store_path, workers=workers)
        rows = _rows(resumed.rows())
        assert rows == expected
        # Zero duplicate computation: everything the first run committed is
        # served from the store, only the remainder executes.
        assert resumed.status().cache_hits == committed

    def test_cancel_inside_an_inline_columnar_unit(self, tmp_path):
        """A 20,000-trial columnar batch (~4 s) stops within a second of the
        cancel, commits nothing, and a resume equals an uncancelled run."""
        store_path = tmp_path / "store.db"
        specs = _specs(20_000)
        session = CampaignSession(specs, store=store_path, engine="auto")
        cancelled_at: list[float] = []

        def cancel() -> None:
            cancelled_at.append(time.perf_counter())
            session.cancel()

        timer = threading.Timer(0.5, cancel)
        rows = 0
        try:
            for event in session.events():
                if isinstance(event, PlannedEvent):
                    assert event.columnar_units == 1 and event.object_units == 0
                    timer.start()  # the next pull runs the unit
                rows += isinstance(event, RowEvent)
        finally:
            timer.cancel()
        ended_at = time.perf_counter()
        assert cancelled_at and ended_at - cancelled_at[0] < 1.0
        assert session.state == "cancelled"
        assert rows == 0
        with ResultStore(store_path) as store:
            assert len(store) == 0

        resumed = CampaignSession(specs, store=store_path, engine="auto")
        assert _rows(resumed.rows()) == _rows(CampaignSession(specs, engine="auto").rows())
        assert resumed.status().cache_hits == 0

    def test_cancel_before_start_emits_nothing(self):
        session = CampaignSession(_specs(4))
        session.cancel()
        rows = list(session.rows())
        assert rows == []
        assert session.state == "cancelled"


class TestConsumersRideSessions:
    def test_fuzz_report_carries_run_id_and_fallback_reasons(self):
        report = run_fuzz(count=4, seed=3, workers=1)
        assert len(report.run_id) == 16
        assert isinstance(report.fallback_reasons, dict)
        assert report.runs == 4

    def test_run_campaign_summary_run_id_matches_session(self, tmp_path):
        from repro.engine import run_campaign

        campaign = Campaign.from_specs("c", _specs(3))
        summary, _ = run_campaign(campaign, store=tmp_path / "s.db")
        assert len(summary.run_id) == 16
        assert summary.cache_hits == 0 and summary.trials == 3
