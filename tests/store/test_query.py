"""Unit tests for repro.store.query: typed filters and aggregates."""

from __future__ import annotations

import pytest

from repro.engine import Campaign, run_campaign
from repro.exceptions import ConfigurationError
from repro.store import (
    ENGINE_VERSION,
    ResultStore,
    TrialFilter,
    aggregate_store,
    query_store,
)


@pytest.fixture
def populated_store(tmp_path):
    """A store holding a small mixed grid (two protocols, two adversaries)."""
    store = ResultStore(tmp_path / "store.db")
    campaign = Campaign.from_grid(
        "query-grid",
        protocols=("exact", "restricted_sync"),
        adversaries=("none", "crash"),
        dimensions=(1,),
        repeats=1,
        base_seed=13,
        max_rounds_override=2,
    )
    run_campaign(campaign, store=store)
    yield store, len(campaign)
    store.close()


class TestQueryStore:
    def test_unfiltered_returns_everything_key_ordered(self, populated_store):
        store, total = populated_store
        hits = query_store(store)
        assert len(hits) == total
        assert [hit.key for hit in hits] == sorted(hit.key for hit in hits)
        assert all(hit.result.ok for hit in hits)
        assert all(hit.engine_version == ENGINE_VERSION for hit in hits)

    def test_shape_filters_match_spec_fields(self, populated_store):
        store, _ = populated_store
        exact_hits = query_store(store, TrialFilter(protocol="exact"))
        assert exact_hits and all(hit.result.spec.protocol == "exact" for hit in exact_hits)
        crash_hits = query_store(store, TrialFilter(protocol="exact", adversary="crash"))
        assert len(crash_hits) == 1
        assert query_store(store, TrialFilter(dimension=9)) == []

    def test_limit_truncates_deterministically(self, populated_store):
        store, total = populated_store
        limited = query_store(store, limit=2)
        assert len(limited) == 2
        assert [hit.key for hit in limited] == [hit.key for hit in query_store(store)][:2]
        assert len(query_store(store, limit=0)) == 0
        with pytest.raises(ConfigurationError):
            query_store(store, limit=-1)

    def test_typed_rows_render(self, populated_store):
        store, _ = populated_store
        row = query_store(store, limit=1)[0].to_row()
        assert set(row) >= {"key", "protocol", "adversary", "n", "d", "f", "status"}
        assert len(row["key"]) == 12


class TestAggregateStore:
    def test_counters_match_campaign_totals(self, populated_store):
        store, total = populated_store
        rows = aggregate_store(store, group_by=("protocol",))
        assert sum(row["trials"] for row in rows) == total
        assert all(row["errors"] == 0 for row in rows)
        by_protocol = {row["protocol"]: row for row in rows}
        assert set(by_protocol) == {"exact", "restricted_sync"}

    def test_multi_column_grouping_sorted(self, populated_store):
        store, _ = populated_store
        rows = aggregate_store(store, group_by=("protocol", "adversary"))
        groups = [(row["protocol"], row["adversary"]) for row in rows]
        assert groups == sorted(groups)
        assert all(row["trials"] == 1 for row in rows)

    def test_filter_composes_with_grouping(self, populated_store):
        store, _ = populated_store
        rows = aggregate_store(
            store, group_by=("adversary",), trial_filter=TrialFilter(protocol="exact")
        )
        assert sum(row["trials"] for row in rows) == 2

    def test_unknown_group_column_rejected(self, populated_store):
        store, _ = populated_store
        with pytest.raises(ConfigurationError, match="cannot group by"):
            aggregate_store(store, group_by=("epsilon",))
        with pytest.raises(ConfigurationError, match="at least one"):
            aggregate_store(store, group_by=())
