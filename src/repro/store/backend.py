"""The result store: one ``ResultStore`` class over one SQLite file.

A :class:`ResultStore` is an append-mostly warehouse of trial rows keyed by
:func:`~repro.store.keys.trial_key` content addresses, with the durability
contract the campaign session's resume path relies on:

* :meth:`ResultStore.put_results` is **transactional** (one SQL transaction
  per call) — the session calls it once per completed execution unit, so an
  interrupted campaign leaves the store at a clean unit boundary;
* writes are **idempotent** — re-putting a key overwrites with the same
  bytes, so replaying a partial or whole unit after a crash is harmless;
* rows are stamped with the :data:`~repro.store.keys.ENGINE_VERSION` they
  were produced under.  Because keys are salted with that version, stale
  rows are unreachable by lookup; :meth:`ResultStore.gc` deletes them;
* every mutating commit bumps a **generation counter**
  (:meth:`ResultStore.generation`) in the same transaction, so read-side
  caches (ETag digests, response bodies) can validate in O(1): equal
  generations bracket an unchanged result set, across processes.

:class:`ResultStore` keeps the rows in a single SQLite file, with the
spec's shape columns mirrored into indexed columns, so the query
layer can push ``WHERE`` clauses into the database (atomic transactions,
cheap point lookups at millions of rows).  The greppable, merge-friendly
form of a store is its JSONL export (``repro store export`` /
:meth:`ResultStore.import_jsonl`), not a second on-disk layout.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.engine.spec import TrialResult, iter_jsonl
from repro.exceptions import ConfigurationError
from repro.obs.registry import get_registry
from repro.store.keys import ENGINE_VERSION, trial_key

__all__ = [
    "INDEXED_COLUMNS",
    "StoreEntry",
    "ResultStore",
    "open_store",
]

#: Spec/outcome columns the store can filter on without parsing rows (SQLite
#: mirrors them into indexed columns).  Keys of the ``where`` mapping accepted
#: by :meth:`ResultStore.iter_entries` must come from this set.
INDEXED_COLUMNS = (
    "protocol",
    "workload",
    "adversary",
    "scheduler",
    "process_count",
    "dimension",
    "fault_bound",
    "status",
    "engine_version",
)

# Row-dict field backing each indexed column ("engine_version" is stamp
# metadata, not a row field, and is handled separately).
_ROW_FIELD = {
    "protocol": "spec_protocol",
    "workload": "spec_workload",
    "adversary": "spec_adversary",
    "scheduler": "spec_scheduler",
    "process_count": "spec_process_count",
    "dimension": "spec_dimension",
    "fault_bound": "spec_fault_bound",
    "status": "status",
}


@dataclass(frozen=True)
class StoreEntry:
    """One stored trial: content address, provenance stamps, and the row."""

    key: str
    engine_version: str
    created_at: float
    row: dict[str, Any]

    def result(self) -> TrialResult:
        """Materialise the row back into a :class:`TrialResult`."""
        return TrialResult.from_row(self.row)


def _check_where(where: Mapping[str, Any] | None) -> dict[str, Any]:
    if not where:
        return {}
    unknown = set(where) - set(INDEXED_COLUMNS)
    if unknown:
        raise ConfigurationError(
            f"unfilterable store columns: {sorted(unknown)}; "
            f"indexed columns are {', '.join(INDEXED_COLUMNS)}"
        )
    return dict(where)


# Store-layer telemetry (see docs/OBSERVABILITY.md).  Families are created at
# import.
_STORE_ROWS_WRITTEN = get_registry().counter(
    "repro_store_rows_written_total",
    "Trial rows committed to a result store, by backend.",
    labelnames=("backend",),
)
_STORE_GENERATION_BUMPS = get_registry().counter(
    "repro_store_generation_bumps_total",
    "Mutating commits that advanced a store's generation counter.",
    labelnames=("backend",),
)
_STORE_CLAIMS = get_registry().counter(
    "repro_store_claims_total",
    "Cross-process claim requests, by outcome (granted = this owner computes "
    "the key; denied = another live owner already holds it).",
    labelnames=("outcome",),
)


def _count_claims(granted: int, requested: int) -> None:
    if granted:
        _STORE_CLAIMS.labels(outcome="granted").inc(granted)
    if requested > granted:
        _STORE_CLAIMS.labels(outcome="denied").inc(requested - granted)


def _indexed_values(row: Mapping[str, Any]) -> tuple[Any, ...]:
    return tuple(row.get(_ROW_FIELD[column]) for column in _ROW_FIELD)


_SQLITE_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS trials (
    key TEXT PRIMARY KEY,
    engine_version TEXT NOT NULL,
    {", ".join(f"{column} {'INTEGER' if column in ('process_count', 'dimension', 'fault_bound') else 'TEXT'}" for column in _ROW_FIELD)},
    created_at REAL NOT NULL,
    row TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_trials_shape
    ON trials (protocol, dimension, fault_bound, adversary);
CREATE INDEX IF NOT EXISTS idx_trials_version ON trials (engine_version);
CREATE TABLE IF NOT EXISTS claims (
    key TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    claimed_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
INSERT OR IGNORE INTO meta (name, value) VALUES ('generation', 0);
"""

_BUMP_GENERATION = "UPDATE meta SET value = value + 1 WHERE name = 'generation'"

# SQLite caps bound parameters per statement; stay well under the historic
# 999 default.
_SQLITE_KEY_CHUNK = 500

# Rows per transaction when import_jsonl ingests a file.
_IMPORT_BATCH = 256


class ResultStore:
    """Content-addressed warehouse of trial rows (see module docstring).

    One SQLite file with the spec's shape columns mirrored into indexed
    columns.
    """

    #: Human-readable backend name (the ``backend`` metric label and the
    #: ``backend`` field of :meth:`stats`).
    backend_name = "sqlite"

    #: Seconds after which an unreleased claim expires (a crashed claimant
    #: must not block other processes forever).
    CLAIM_TTL_SECONDS = 300.0

    def __init__(self, path: str | Path, check_same_thread: bool = True) -> None:
        # ``check_same_thread=False`` is for pooled handles whose owner
        # guarantees one-thread-at-a-time use but closes them from a
        # different thread at shutdown (the serving layer's per-thread pool).
        self.path = Path(path)
        if self.path.is_dir():
            raise ConfigurationError(
                f"{self.path} is a directory; a result store is a single SQLite file "
                "(JSONL shard directories are no longer read — `repro store export` / "
                "`repro store import` is the greppable format)"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=check_same_thread
            )
        except sqlite3.Error as error:
            raise ConfigurationError(
                f"{self.path} is not a usable SQLite result store: {error}"
            ) from error
        try:
            # Concurrent campaigns over one store serialise their claim and
            # commit transactions; wait for the lock instead of failing.
            self._connection.execute("PRAGMA busy_timeout = 30000")
            self._connection.executescript(_SQLITE_SCHEMA)
            self._connection.commit()
        except sqlite3.DatabaseError as error:
            self._connection.close()
            raise ConfigurationError(
                f"{self.path} is not a usable SQLite result store: {error}"
            ) from error

    def get_rows(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Return ``{key: row}`` for every requested key present in the store."""
        found: dict[str, dict[str, Any]] = {}
        for start in range(0, len(keys), _SQLITE_KEY_CHUNK):
            chunk = list(keys[start : start + _SQLITE_KEY_CHUNK])
            placeholders = ",".join("?" for _ in chunk)
            cursor = self._connection.execute(
                f"SELECT key, row FROM trials WHERE key IN ({placeholders})", chunk
            )
            for key, row_text in cursor:
                found[key] = json.loads(row_text)
        return found

    def contains_keys(self, keys: Sequence[str]) -> set[str]:
        """Return the subset of ``keys`` present in the store (index-only).

        The session uses this for its cache-hit census so that a warm run
        never has to materialise every cached row at once.
        """
        present: set[str] = set()
        for start in range(0, len(keys), _SQLITE_KEY_CHUNK):
            chunk = list(keys[start : start + _SQLITE_KEY_CHUNK])
            placeholders = ",".join("?" for _ in chunk)
            cursor = self._connection.execute(
                f"SELECT key FROM trials WHERE key IN ({placeholders})", chunk
            )
            present.update(key for (key,) in cursor)
        return present

    def put_rows(
        self,
        entries: Sequence[tuple[str, dict[str, Any]]],
        engine_version: str = ENGINE_VERSION,
    ) -> int:
        """Write ``(key, row)`` pairs in **one transaction**; last write wins.

        Returns the number of rows written.  ``engine_version`` is the stamp
        recorded on each row (tests and importers may backdate it; the
        session always writes the current revision).
        """
        now = time.time()
        records = [
            (key, engine_version, *_indexed_values(row), now, json.dumps(row, sort_keys=True))
            for key, row in entries
        ]
        columns = ", ".join(_ROW_FIELD)
        placeholders = ",".join("?" for _ in range(len(_ROW_FIELD) + 4))
        with self._connection:  # one transaction per call — the unit-commit contract
            self._connection.executemany(
                f"INSERT OR REPLACE INTO trials (key, engine_version, {columns}, created_at, row) "
                f"VALUES ({placeholders})",
                records,
            )
            # A committed row settles its claim in the same transaction, so
            # concurrent claimants polling for it see claim-gone and
            # row-present atomically.
            self._connection.executemany(
                "DELETE FROM claims WHERE key = ?", [(key,) for key, _ in entries]
            )
            if records:
                self._connection.execute(_BUMP_GENERATION)
        if records:
            _STORE_ROWS_WRITTEN.labels(backend=self.backend_name).inc(len(records))
            _STORE_GENERATION_BUMPS.labels(backend=self.backend_name).inc()
        return len(records)

    def put_results(self, pairs: Iterable[tuple[str, TrialResult]]) -> int:
        """Store ``(key, result)`` pairs as one transactional batch."""
        return self.put_rows([(key, result.to_row()) for key, result in pairs])

    def claim_keys(self, keys: Sequence[str], owner: str) -> set[str]:
        """Try to claim ``keys`` for ``owner``; return the granted subset.

        The session claims its cache misses before running them so that
        several processes sharing one store split the work instead of
        duplicating it: a denied key means another live owner is computing
        that trial, and the caller should poll for its committed row.
        Claims are advisory — they coordinate work, they do not gate writes
        (commits stay last-write-wins, which keeps crash recovery trivial).
        """
        now = time.time()
        granted: set[str] = set()
        # BEGIN IMMEDIATE takes the write lock up front: two processes
        # claiming the same keys serialise here instead of deadlocking on a
        # shared-to-exclusive lock upgrade mid-transaction.
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            self._connection.execute(
                "DELETE FROM claims WHERE claimed_at < ?", (now - self.CLAIM_TTL_SECONDS,)
            )
            for start in range(0, len(keys), _SQLITE_KEY_CHUNK):
                chunk = list(keys[start : start + _SQLITE_KEY_CHUNK])
                markers = ",".join("?" for _ in chunk)
                committed = {
                    key
                    for (key,) in self._connection.execute(
                        f"SELECT key FROM trials WHERE key IN ({markers})", chunk
                    )
                }
                # Keys already committed are cache hits, not work — deny
                # them so the caller re-checks the store.
                candidates = [key for key in chunk if key not in committed]
                self._connection.executemany(
                    "INSERT OR IGNORE INTO claims (key, owner, claimed_at) VALUES (?, ?, ?)",
                    [(key, owner, now) for key in candidates],
                )
                granted.update(
                    key
                    for (key,) in self._connection.execute(
                        f"SELECT key FROM claims WHERE owner = ? AND key IN ({markers})",
                        [owner, *chunk],
                    )
                )
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise
        _count_claims(granted=len(granted), requested=len(keys))
        return granted

    def release_claims(self, keys: Sequence[str], owner: str) -> int:
        """Drop ``owner``'s claims on ``keys`` (committed rows already drop
        theirs); returns the number released."""
        released = 0
        with self._connection:
            for start in range(0, len(keys), _SQLITE_KEY_CHUNK):
                chunk = list(keys[start : start + _SQLITE_KEY_CHUNK])
                markers = ",".join("?" for _ in chunk)
                cursor = self._connection.execute(
                    f"DELETE FROM claims WHERE owner = ? AND key IN ({markers})",
                    [owner, *chunk],
                )
                released += cursor.rowcount
        return released

    @staticmethod
    def _scan_clauses(
        filters: Mapping[str, Any], after_key: str | None, limit: int | None
    ) -> tuple[str, str, list[Any]]:
        conditions = [f"{column} = ?" for column in filters]
        values: list[Any] = list(filters.values())
        if after_key is not None:
            conditions.append("key > ?")
            values.append(after_key)
        clause = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        tail = " ORDER BY key"
        if limit is not None:
            tail += " LIMIT ?"
            values.append(limit)
        return clause, tail, values

    def iter_entries(
        self,
        where: Mapping[str, Any] | None = None,
        after_key: str | None = None,
        limit: int | None = None,
    ) -> Iterator[StoreEntry]:
        """Yield stored entries in key order, optionally filtered and paginated.

        ``where`` filters on :data:`INDEXED_COLUMNS`; ``after_key`` resumes a
        key-ordered scan strictly after that key and ``limit`` caps the yield
        count — together they let a consumer page through a large store in
        bounded slices (the HTTP export stream) without holding a cursor, and
        without the backend materialising anything beyond the requested page.
        """
        clause, tail, values = self._scan_clauses(_check_where(where), after_key, limit)
        cursor = self._connection.execute(
            f"SELECT key, engine_version, created_at, row FROM trials{clause}{tail}",
            values,
        )
        for key, engine_version, created_at, row_text in cursor:
            yield StoreEntry(key, engine_version, created_at, json.loads(row_text))

    def iter_keys(self, where: Mapping[str, Any] | None = None) -> Iterator[str]:
        """Yield matching content keys in sorted order, rows never deserialised.

        The ETag digest is computed from this index-only scan, so
        revalidation cost is bounded by key count, not row payload size.
        """
        # Index-only scan: the ETag digest never touches the row TEXT column.
        clause, tail, values = self._scan_clauses(_check_where(where), None, None)
        for (key,) in self._connection.execute(
            f"SELECT key FROM trials{clause}{tail}", values
        ):
            yield key

    def generation(self) -> int:
        """Monotonic content generation: bumped by every mutating commit.

        ``put_rows``, ``gc`` and ``import_jsonl`` advance it
        transactionally whenever they actually change rows, so two reads of an
        equal generation bracket an unchanged result set.  This is what turns
        ETag revalidation into an O(1) lookup — a cached ``(generation,
        filter) → digest`` entry stays valid exactly until the store mutates —
        and it is shared across processes (the SQLite ``meta`` table), so
        concurrent writers invalidate each other's caches.  Claims do not
        bump it: they coordinate work, not content.
        """
        (value,) = self._connection.execute(
            "SELECT value FROM meta WHERE name = 'generation'"
        ).fetchone()
        return int(value)

    def __len__(self) -> int:
        (count,) = self._connection.execute("SELECT COUNT(*) FROM trials").fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        return bool(self.contains_keys([key]))

    def gc(self, dry_run: bool = False) -> int:
        """Delete (or with ``dry_run`` just count) rows under any salt but ``ENGINE_VERSION``.

        Those rows are unreachable by lookup — their keys were derived under
        a salt no current :func:`~repro.store.keys.trial_key` call uses — so
        removing them only reclaims space, never cache hits.
        """
        # engine_version is an indexed column, so neither the count nor the
        # delete needs to parse a single row.
        if dry_run:
            (stale,) = self._connection.execute(
                "SELECT COUNT(*) FROM trials WHERE engine_version != ?", (ENGINE_VERSION,)
            ).fetchone()
            return int(stale)
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM trials WHERE engine_version != ?", (ENGINE_VERSION,)
            )
            if cursor.rowcount:
                self._connection.execute(_BUMP_GENERATION)
        if cursor.rowcount:
            _STORE_GENERATION_BUMPS.labels(backend=self.backend_name).inc()
        return cursor.rowcount

    def stats(self) -> dict[str, Any]:
        """Aggregate view for the CLI: counts by engine version and status."""
        # Grouped over the indexed columns, without deserialising any row.
        by_version = {
            version: int(count)
            for version, count in self._connection.execute(
                "SELECT engine_version, COUNT(*) FROM trials "
                "GROUP BY engine_version ORDER BY engine_version"
            )
        }
        by_status = {
            status: int(count)
            for status, count in self._connection.execute(
                "SELECT status, COUNT(*) FROM trials GROUP BY status ORDER BY status"
            )
        }
        total = sum(by_version.values())
        claims = self.claim_stats()
        return {
            "backend": self.backend_name,
            "path": str(self.path),
            "trials": total,
            "current_engine_version": ENGINE_VERSION,
            "stale_trials": total - by_version.get(ENGINE_VERSION, 0),
            "engine_versions": by_version,
            "statuses": by_status,
            "claims_live": claims["live"],
            "claims_expired": claims["expired"],
        }

    def import_jsonl(
        self,
        path: str | Path,
        engine_version: str = ENGINE_VERSION,
    ) -> int:
        """Ingest a campaign/fuzz JSONL export, re-deriving each row's key.

        Rows stream through :func:`~repro.engine.spec.iter_jsonl` (the
        file is never materialised whole) and commit in transactional
        batches.  Returns the number of rows ingested; malformed rows — a
        line that is not JSON, a row that is not a trial — raise
        :class:`~repro.exceptions.ConfigurationError` rather than importing a
        corrupt warehouse.

        ``engine_version`` is the provenance claim for the file: JSONL rows
        carry no version stamp, so the caller must say which engine revision
        produced them (default: the current one, i.e. a fresh export).  Keys
        are salted with that version *and* the rows are stamped with it —
        importing an old export under its true version keeps its rows
        unreachable by current lookups instead of laundering them into
        cache hits.
        """
        # Validation pass first: nothing is committed until the whole file
        # parses, so a malformed row cannot leave a half-imported warehouse.
        for row_number, row in enumerate(iter_jsonl(path), start=1):
            # Row ordinal, not file line: iter_jsonl skips blank lines.
            try:
                TrialResult.from_row(row)
            except ConfigurationError as error:
                raise ConfigurationError(f"{path}: row {row_number}: {error}") from error
        ingested = 0
        batch: list[tuple[str, dict[str, Any]]] = []
        for row in iter_jsonl(path):
            result = TrialResult.from_row(row)
            batch.append((trial_key(result.spec, engine_version=engine_version), result.to_row()))
            if len(batch) >= _IMPORT_BATCH:
                ingested += self.put_rows(batch, engine_version=engine_version)
                batch.clear()
        if batch:
            ingested += self.put_rows(batch, engine_version=engine_version)
        return ingested

    def list_claims(self) -> list[dict[str, Any]]:
        """Outstanding claims as ``{key, owner, claimed_at, age_seconds, expired}``.

        Diagnostic surface for stuck concurrent campaigns (``repro store
        claims``): a long-lived *live* claim is a session still computing;
        an *expired* one is a crashed claimant whose keys the next session
        will re-claim.
        """
        now = time.time()
        return [
            {
                "key": key,
                "owner": owner,
                "claimed_at": claimed_at,
                "age_seconds": max(0.0, now - claimed_at),
                "expired": claimed_at < now - self.CLAIM_TTL_SECONDS,
            }
            for key, owner, claimed_at in self._connection.execute(
                "SELECT key, owner, claimed_at FROM claims ORDER BY claimed_at, key"
            )
        ]

    def claim_stats(self) -> dict[str, int]:
        """Live/expired claim counts (``{"live": n, "expired": n}``)."""
        cutoff = time.time() - self.CLAIM_TTL_SECONDS
        (live,) = self._connection.execute(
            "SELECT COUNT(*) FROM claims WHERE claimed_at >= ?", (cutoff,)
        ).fetchone()
        (expired,) = self._connection.execute(
            "SELECT COUNT(*) FROM claims WHERE claimed_at < ?", (cutoff,)
        ).fetchone()
        return {"live": int(live), "expired": int(expired)}

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# The ledger's span patcher (benchmarks/ledger/spans.py) wraps store
# methods through this name.
SqliteResultStore = ResultStore


def open_store(path: str | Path, check_same_thread: bool = True) -> ResultStore:
    """Open (creating if needed) the SQLite result store at ``path``.

    ``check_same_thread=False`` relaxes SQLite's thread pinning for pooled
    handles (see :class:`ResultStore`).
    """
    return ResultStore(path, check_same_thread=check_same_thread)
