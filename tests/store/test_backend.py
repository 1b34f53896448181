"""Unit tests for repro.store.backend: the ResultStore contract on SQLite."""

from __future__ import annotations

import json

import pytest

from repro.engine import TrialResult, TrialSpec, run_trial
from repro.exceptions import ConfigurationError
from repro.store import (
    ENGINE_VERSION,
    ResultStore,
    open_store,
    trial_key,
)
from repro.store import backend as backend_module


def _make_store(tmp_path):
    return ResultStore(tmp_path / "store.db")


def _result(seed: int = 1, process_count: int = 5) -> TrialResult:
    # Under-provisioned specs (n=3) produce deterministic error rows without
    # touching the LP stack — cheap fodder for storage tests.
    spec = TrialSpec(protocol="exact", workload="uniform_box",
                     process_count=process_count, dimension=2, fault_bound=1, seed=seed)
    return run_trial(spec)


class TestResultStoreContract:
    def test_put_get_roundtrip_and_contains(self, tmp_path):
        store = _make_store(tmp_path)
        result = _result(seed=1)
        key = trial_key(result.spec)
        assert key not in store
        assert store.put_results([(key, result)]) == 1
        assert key in store
        assert len(store) == 1
        assert store.get_rows([key]) == {key: result.to_row()}
        assert store.get_rows(["0" * 64]) == {}

    def test_error_rows_store_like_any_other(self, tmp_path):
        store = _make_store(tmp_path)
        error_result = _result(seed=2, process_count=3)
        assert error_result.status == "error"
        key = trial_key(error_result.spec)
        store.put_results([(key, error_result)])
        (entry,) = list(store.iter_entries())
        assert entry.row["status"] == "error"
        assert entry.result().to_row() == error_result.to_row()

    def test_last_write_wins(self, tmp_path):
        store = _make_store(tmp_path)
        result = _result(seed=3)
        key = trial_key(result.spec)
        store.put_results([(key, result)])
        store.put_results([(key, result)])
        assert len(store) == 1

    def test_persistence_across_reopen(self, tmp_path):
        store = _make_store(tmp_path)
        results = [_result(seed=seed, process_count=3) for seed in range(5)]
        store.put_results([(trial_key(result.spec), result) for result in results])
        store.close()
        reopened = _make_store(tmp_path)
        assert len(reopened) == 5
        for result in results:
            assert trial_key(result.spec) in reopened
        reopened.close()

    def test_gc_deletes_only_stale_engine_versions(self, tmp_path):
        store = _make_store(tmp_path)
        fresh = _result(seed=10, process_count=3)
        stale = _result(seed=11, process_count=3)
        store.put_rows([(trial_key(fresh.spec), fresh.to_row())])
        store.put_rows(
            [(trial_key(stale.spec, engine_version="0.0.1/rows0"), stale.to_row())],
            engine_version="0.0.1/rows0",
        )
        assert store.stats()["stale_trials"] == 1
        assert store.gc(dry_run=True) == 1
        assert len(store) == 2  # dry run deletes nothing
        assert store.gc() == 1
        assert len(store) == 1
        (entry,) = list(store.iter_entries())
        assert entry.engine_version == ENGINE_VERSION

    def test_iter_entries_sorted_and_filterable(self, tmp_path):
        store = _make_store(tmp_path)
        ok_result = _result(seed=5)
        error_result = _result(seed=6, process_count=3)
        store.put_results([
            (trial_key(ok_result.spec), ok_result),
            (trial_key(error_result.spec), error_result),
        ])
        keys = [entry.key for entry in store.iter_entries()]
        assert keys == sorted(keys)
        errors = list(store.iter_entries(where={"status": "error"}))
        assert [entry.row["status"] for entry in errors] == ["error"]
        shaped = list(store.iter_entries(where={"process_count": 5, "status": "ok"}))
        assert len(shaped) == 1
        with pytest.raises(ConfigurationError, match="unfilterable"):
            list(store.iter_entries(where={"bogus": 1}))

    def test_import_jsonl_rederives_keys(self, tmp_path):
        results = [_result(seed=seed, process_count=3) for seed in range(3)]
        jsonl = tmp_path / "campaign.jsonl"
        jsonl.write_text("".join(result.to_json() + "\n" for result in results))
        store = _make_store(tmp_path)
        assert store.import_jsonl(jsonl) == 3
        for result in results:
            assert trial_key(result.spec) in store

    def test_import_rejects_malformed_rows(self, tmp_path):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text(json.dumps({"status": "ok", "bogus_field": 1}) + "\n")
        store = _make_store(tmp_path)
        with pytest.raises(ConfigurationError, match="bad.jsonl: row 1"):
            store.import_jsonl(jsonl)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (json.dumps({"status": "ok", "bogus_field": 1}) + "\n", "row 4"),
            # A torn last line (``head -c``) is not JSON at all; the blank
            # line before it shows the message counts file lines, not rows.
            ('\n{"status": "ok", "spec_adver', "tail-bad.jsonl: line 5: not valid JSON"),
        ],
    )
    def test_import_commits_nothing_when_a_later_row_is_malformed(
        self, tmp_path, monkeypatch, tail, message
    ):
        # Validation runs over the whole file before the first commit, so a
        # bad row 4 must not leave rows 1-3 servable in the store.
        results = [_result(seed=seed, process_count=3) for seed in range(3)]
        jsonl = tmp_path / "tail-bad.jsonl"
        jsonl.write_text("".join(result.to_json() + "\n" for result in results) + tail)
        store = _make_store(tmp_path)
        monkeypatch.setattr(backend_module, "_IMPORT_BATCH", 2)  # batches smaller than the file
        with pytest.raises(ConfigurationError, match=message):
            store.import_jsonl(jsonl)
        assert len(store) == 0

    def test_import_under_old_engine_version_stays_unreachable(self, tmp_path):
        # An old export imported under its true provenance must not become a
        # cache hit for current-salt lookups — it lands stale and gc'able.
        result = _result(seed=4, process_count=3)
        jsonl = tmp_path / "old.jsonl"
        jsonl.write_text(result.to_json() + "\n")
        store = _make_store(tmp_path)
        assert store.import_jsonl(jsonl, engine_version="0.0.1/rows0") == 1
        assert trial_key(result.spec) not in store  # current salt cannot reach it
        assert trial_key(result.spec, engine_version="0.0.1/rows0") in store
        assert store.stats()["stale_trials"] == 1
        assert store.gc() == 1


class TestGenerationCounter:
    """The serving layer's cache-invalidation contract: the generation moves
    exactly when stored content changes (rows added/deleted), never on
    no-ops, and is visible across handles and reopens."""

    def test_bumps_only_when_rows_actually_change(self, tmp_path):
        store = _make_store(tmp_path)
        start = store.generation()
        assert store.put_rows([]) == 0
        assert store.generation() == start  # empty commit: no bump

        result = _result(seed=20, process_count=3)
        store.put_rows([(trial_key(result.spec), result.to_row())])
        after_put = store.generation()
        assert after_put > start


    def test_import_and_gc_bump_like_any_write(self, tmp_path):
        store = _make_store(tmp_path)
        result = _result(seed=21, process_count=3)
        jsonl = tmp_path / "import.jsonl"
        jsonl.write_text(result.to_json() + "\n")
        before = store.generation()
        assert store.import_jsonl(jsonl, engine_version="0.0.1/rows0") == 1
        imported = store.generation()
        assert imported > before
        assert store.gc(dry_run=True) == 1
        assert store.generation() == imported  # dry run: no bump
        assert store.gc() == 1
        assert store.generation() > imported

    def test_survives_reopen(self, tmp_path):
        store = _make_store(tmp_path)
        result = _result(seed=22, process_count=3)
        store.put_rows([(trial_key(result.spec), result.to_row())])
        committed = store.generation()
        assert committed > 0
        store.close()
        reopened = _make_store(tmp_path)
        assert reopened.generation() == committed
        reopened.close()

    def test_external_commits_are_visible_without_reopening(self, tmp_path):
        """Two handles on one store: a commit through one is visible to the
        other on its next statement — the pooled-read-handle contract."""
        reader = _make_store(tmp_path)
        writer = _make_store(tmp_path)
        assert reader.generation() == 0
        result = _result(seed=23, process_count=3)
        key = trial_key(result.spec)
        writer.put_rows([(key, result.to_row())])
        assert reader.generation() == writer.generation()
        assert key in reader
        writer.close()
        reader.close()

    def test_iter_keys_matches_iter_entries(self, tmp_path):
        store = _make_store(tmp_path)
        ok_result = _result(seed=24)
        error_result = _result(seed=25, process_count=3)
        store.put_results([
            (trial_key(ok_result.spec), ok_result),
            (trial_key(error_result.spec), error_result),
        ])
        assert list(store.iter_keys()) == [entry.key for entry in store.iter_entries()]
        assert list(store.iter_keys(where={"status": "error"})) == [
            entry.key for entry in store.iter_entries(where={"status": "error"})
        ]
        assert list(store.iter_keys(where={"status": "timeout"})) == []

    def test_iter_entries_paginates_in_key_order(self, tmp_path):
        store = _make_store(tmp_path)
        results = [_result(seed=seed, process_count=3) for seed in range(5)]
        store.put_results([(trial_key(result.spec), result) for result in results])
        full = [entry.key for entry in store.iter_entries()]
        assert full == sorted(full)

        paged: list[str] = []
        after = None
        while True:
            page = [
                entry.key
                for entry in store.iter_entries(after_key=after, limit=2)
            ]
            if not page:
                break
            assert len(page) <= 2
            paged.extend(page)
            after = page[-1]
        assert paged == full


class TestOpenStore:
    def test_suffixless_path_opens_sqlite_like_any_other(self, tmp_path):
        for name in ("warehouse.db", "warehouse"):
            with open_store(tmp_path / name) as store:
                assert store.backend_name == "sqlite"
            assert (tmp_path / name).is_file()

    def test_non_database_file_rejected(self, tmp_path):
        target = tmp_path / "corrupt.db"
        target.write_text("this is not a sqlite database, not even close")
        with pytest.raises(ConfigurationError, match="not a usable SQLite"):
            open_store(target)

    def test_directory_rejected_with_the_way_out(self, tmp_path):
        # e.g. a JSONL shard directory written before stores were one file.
        directory = tmp_path / "jsonl-store"
        directory.mkdir()
        with pytest.raises(ConfigurationError) as raised:
            open_store(directory)
        message = str(raised.value)
        assert str(directory) in message
        assert "single SQLite file" in message
        assert "store export" in message and "store import" in message
        assert list(directory.iterdir()) == []
