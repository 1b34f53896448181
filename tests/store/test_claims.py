"""Claim coordination: concurrent campaigns over one store do disjoint work.

The SQLite backend's ``claims`` table is the multi-process story behind the
campaign session's write-through cache: a miss is claimed before it runs, a denied
claim means another live process owns that trial, and the denier serves the
owner's committed rows instead of recomputing.  These tests pin the claim
semantics at the backend level and the zero-duplicate-computation guarantee
at the session level.
"""

from __future__ import annotations

import threading

from repro.engine import CampaignSession, TrialSpec, run_trial, strip_timing
from repro.store.backend import ResultStore


def _specs(count: int = 8) -> list[TrialSpec]:
    return [
        TrialSpec(protocol="exact", workload="uniform_box", process_count=5,
                  dimension=1, fault_bound=1, seed=index, trial_index=index)
        for index in range(count)
    ]


def _uncached_rows(specs: list[TrialSpec]) -> list[str]:
    return strip_timing(result.to_row() for result in CampaignSession(specs).rows())


class TestSqliteClaims:
    def test_first_owner_wins_and_second_is_denied(self, tmp_path):
        path = tmp_path / "store.db"
        first, second = ResultStore(path), ResultStore(path)
        keys = [f"k{index}" for index in range(6)]
        assert first.claim_keys(keys, "A") == set(keys)
        assert second.claim_keys(keys, "B") == set()
        # Disjoint keys are granted freely.
        assert second.claim_keys(["other"], "B") == {"other"}
        first.close(), second.close()

    def test_reclaim_by_same_owner_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        assert store.claim_keys(["k"], "A") == {"k"}
        assert store.claim_keys(["k"], "A") == {"k"}
        store.close()

    def test_commit_settles_the_claim_and_denies_future_claims(self, tmp_path):
        path = tmp_path / "store.db"
        first, second = ResultStore(path), ResultStore(path)
        first.claim_keys(["k"], "A")
        result = run_trial(_specs(1)[0])
        first.put_rows([("k", result.to_row())])
        # The claim died with the commit; a committed key is a cache hit,
        # not claimable work.
        assert second.claim_keys(["k"], "B") == set()
        assert first.release_claims(["k"], "A") == 0
        first.close(), second.close()

    def test_release_frees_keys_for_other_owners(self, tmp_path):
        path = tmp_path / "store.db"
        first, second = ResultStore(path), ResultStore(path)
        first.claim_keys(["k1", "k2"], "A")
        assert first.release_claims(["k1"], "A") == 1
        assert second.claim_keys(["k1", "k2"], "B") == {"k1"}
        first.close(), second.close()

    def test_release_requires_ownership(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.claim_keys(["k"], "A")
        assert store.release_claims(["k"], "B") == 0
        assert store.claim_keys(["k"], "C") == set()
        store.close()

    def test_expired_claims_are_reclaimable(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.claim_keys(["k"], "A")
        # Backdate the claim past the TTL: a crashed owner must not block
        # other processes forever.
        with store._connection:
            store._connection.execute(
                "UPDATE claims SET claimed_at = claimed_at - ?",
                (store.CLAIM_TTL_SECONDS + 1,),
            )
        assert store.claim_keys(["k"], "B") == {"k"}
        store.close()


class TestConcurrentCampaigns:
    def test_two_sessions_sharing_a_store_never_duplicate_work(self, tmp_path):
        """ROADMAP item 1 acceptance: cache hits + executed = total, per run."""
        path = tmp_path / "store.db"
        specs = _specs(8)
        expected = _uncached_rows(specs)

        outputs: dict[str, list[str]] = {}
        executed: dict[str, int] = {}
        errors: list[BaseException] = []

        def campaign(name: str) -> None:
            store = ResultStore(path)  # one connection per "process"
            try:
                session = CampaignSession(specs, store=store, claim_wait_timeout=120.0)
                rows = [result.to_row() for result in session.rows()]
                outputs[name] = strip_timing(rows)
                executed[name] = len(specs) - session.status().cache_hits
            except BaseException as error:  # noqa: BLE001 — surface in main thread
                errors.append(error)
            finally:
                store.close()

        threads = [threading.Thread(target=campaign, args=(name,)) for name in ("A", "B")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        # Both campaigns emit the full, byte-identical row stream ...
        assert outputs["A"] == outputs["B"] == expected
        # ... but every trial was computed exactly once across the pair:
        # a run executes what it does not serve, and deferred trials served
        # from the other run's commits count as hits.
        assert executed["A"] + executed["B"] == len(specs)

    def test_abandoned_claims_are_recomputed_after_timeout(self, tmp_path):
        path = tmp_path / "store.db"
        specs = _specs(4)
        from repro.store.keys import trial_key

        saboteur = ResultStore(path)
        # A "crashed process": claims two trials, never commits them.
        saboteur.claim_keys([trial_key(specs[1]), trial_key(specs[2])], "ghost")

        store = ResultStore(path)
        session = CampaignSession(specs, store=store, claim_wait_timeout=1.0)
        rows = [result.to_row() for result in session.rows()]
        assert strip_timing(rows) == _uncached_rows(specs)
        # The ghost's trials were recomputed locally: nothing was served.
        assert session.status().cache_hits == 0
        saboteur.close(), store.close()


class TestInterruptResumeUnderPersistentPool:
    def test_interrupted_pooled_run_resumes_without_recompute(self, tmp_path):
        store_path = tmp_path / "store.db"
        specs = _specs(12)
        store = ResultStore(store_path)
        stream = CampaignSession(specs, store=store, workers=2, chunksize=2).rows()
        consumed = [next(stream) for _ in range(3)]
        stream.close()  # interrupt mid-campaign; emitted rows are committed
        store.close()

        store = ResultStore(store_path)
        resumed = CampaignSession(specs, store=store, workers=2)
        results = list(resumed.rows())
        store.close()
        assert len(results) == len(specs)
        assert strip_timing(result.to_row() for result in results) == _uncached_rows(specs)
        # Commit-then-emit: everything consumed before the interrupt (at
        # minimum) is served from the store on resume.
        assert len(consumed) <= resumed.status().cache_hits <= len(specs)
