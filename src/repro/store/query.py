"""Query layer: typed filters and aggregates over a result store.

The store answers "what happened at (n, f, d, adversary)?" without rerunning
anything: :func:`query_store` returns :class:`StoredTrial` rows (the full
:class:`~repro.engine.spec.TrialResult` plus provenance stamps) matching a
:class:`TrialFilter`, and :func:`aggregate_store` reduces matching rows to
per-group outcome counters — the same counters a live
:class:`~repro.engine.session.CampaignStatus` reports.

Filters on shape columns (:data:`~repro.store.backend.INDEXED_COLUMNS`) are
pushed down to the store as SQL ``WHERE`` clauses, so only matching rows are
ever parsed.  Results are ordered by content key, which makes every query
deterministic for a given store state regardless of insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterator, Sequence

from repro.engine.spec import TrialResult
from repro.exceptions import ConfigurationError
from repro.store.backend import ResultStore, StoreEntry
from repro.store.keys import ENGINE_VERSION

__all__ = ["AGGREGATE_COLUMNS", "StoredTrial", "TrialFilter", "query_store", "aggregate_store"]

#: Spec columns :func:`aggregate_store` may group by.
AGGREGATE_COLUMNS = (
    "protocol",
    "workload",
    "adversary",
    "scheduler",
    "process_count",
    "dimension",
    "fault_bound",
    "status",
)


@dataclass(frozen=True)
class TrialFilter:
    """Shape filter over stored trials; ``None`` fields match everything."""

    protocol: str | None = None
    workload: str | None = None
    adversary: str | None = None
    scheduler: str | None = None
    process_count: int | None = None
    dimension: int | None = None
    fault_bound: int | None = None
    status: str | None = None

    def to_where(self) -> dict[str, Any]:
        """The backend-pushable ``where`` mapping (set fields only)."""
        return {
            filter_field.name: getattr(self, filter_field.name)
            for filter_field in fields(self)
            if getattr(self, filter_field.name) is not None
        }


@dataclass(frozen=True)
class StoredTrial:
    """One query hit: content address, provenance, and the materialised result."""

    key: str
    engine_version: str
    created_at: float
    result: TrialResult

    @property
    def stale(self) -> bool:
        """True when the row predates the current engine revision."""
        return self.engine_version != ENGINE_VERSION

    def to_row(self) -> dict[str, Any]:
        """One summary table row for the CLI (key abbreviated, outcome inline)."""
        spec = self.result.spec
        return {
            "key": self.key[:12],
            "protocol": spec.protocol,
            "workload": spec.workload,
            "adversary": spec.adversary,
            "n": spec.process_count,
            "d": spec.dimension,
            "f": spec.fault_bound,
            "seed": spec.seed,
            "status": self.result.status,
            "agreement": self.result.agreement,
            "validity": self.result.validity,
            "rounds": self.result.rounds,
        }


def _matching_entries(
    store: ResultStore, trial_filter: TrialFilter | None, limit: int | None = None
) -> Iterator[StoreEntry]:
    where = trial_filter.to_where() if trial_filter is not None else {}
    return store.iter_entries(where=where or None, limit=limit)


def query_store(
    store: ResultStore,
    trial_filter: TrialFilter | None = None,
    limit: int | None = None,
) -> list[StoredTrial]:
    """Return matching trials as typed rows, ordered by content key.

    ``limit`` is pushed down to the backend (SQL ``LIMIT`` on SQLite), so a
    limited query over a large store never scans past its answer.
    """
    if limit is not None and limit < 0:
        raise ConfigurationError("query limit must be non-negative")
    hits: list[StoredTrial] = []
    for entry in _matching_entries(store, trial_filter, limit=limit):
        if limit is not None and len(hits) >= limit:
            break
        hits.append(
            StoredTrial(
                key=entry.key,
                engine_version=entry.engine_version,
                created_at=entry.created_at,
                result=entry.result(),
            )
        )
    return hits


def aggregate_store(
    store: ResultStore,
    group_by: Sequence[str] = ("protocol", "adversary"),
    trial_filter: TrialFilter | None = None,
) -> list[dict[str, Any]]:
    """Reduce matching trials to per-group outcome counters.

    One row per distinct ``group_by`` value combination, carrying the group
    columns plus ``trials`` / ``ok`` / ``errors`` / ``agreement_failures`` /
    ``validity_failures`` — the campaign-summary counters, recomputed from
    the warehouse instead of a live run.  Rows are ordered by group value.
    """
    unknown = set(group_by) - set(AGGREGATE_COLUMNS)
    if unknown:
        raise ConfigurationError(
            f"cannot group by {sorted(unknown)}; known columns: {', '.join(AGGREGATE_COLUMNS)}"
        )
    if not group_by:
        raise ConfigurationError("aggregate needs at least one group_by column")
    groups: dict[tuple, dict[str, int]] = {}
    for entry in _matching_entries(store, trial_filter):
        # Work on the raw row dict: the group columns and outcome flags are
        # plain fields, so no per-row TrialResult/TrialSpec construction.
        row = entry.row
        group = tuple(
            row.get("status") if column == "status" else row.get(f"spec_{column}")
            for column in group_by
        )
        counters = groups.setdefault(
            group,
            {"trials": 0, "ok": 0, "errors": 0, "agreement_failures": 0, "validity_failures": 0},
        )
        counters["trials"] += 1
        if row.get("status") == "ok":
            counters["ok"] += 1
            if row.get("agreement") is False:
                counters["agreement_failures"] += 1
            if row.get("validity") is False:
                counters["validity_failures"] += 1
        else:
            counters["errors"] += 1
    rows = []
    for group in sorted(groups, key=lambda values: tuple(map(str, values))):
        row: dict[str, Any] = dict(zip(group_by, group))
        row.update(groups[group])
        rows.append(row)
    return rows
