"""Campaign execution entry points: thin wrappers over :class:`CampaignSession`.

The planning, cache, claim and dispatch machinery lives in
:mod:`repro.engine.session` — a campaign run is a first-class
:class:`~repro.engine.session.CampaignSession` object with typed progress
events, cooperative cancellation and status snapshots.  This module keeps the
historical functional surface on top of it:

* :func:`execute_specs` — yield one row per spec, in spec order, through a
  session (byte-identical to the pre-session engine for every engine and
  worker count, modulo ``elapsed_ms``);
* :func:`run_campaign` — run a whole :class:`~repro.engine.campaign.Campaign`
  with JSONL sink / callback / collection plumbing and return its
  :class:`~repro.engine.session.CampaignSummary`;
* the JSONL row helpers (:class:`JsonlSink`, :func:`iter_jsonl`,
  :func:`read_jsonl`, :func:`strip_timing`) used by equivalence comparisons
  and store imports.

There is exactly **one** planning/claims/cache code path — the session's; no
execution logic remains here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.engine.campaign import Campaign
from repro.engine.pool import ExecutionUnit
from repro.engine.session import (
    ENGINE_CHOICES,
    STORE_COMMIT_CHUNK,
    CampaignSession,
    CampaignSummary,
    StoreCacheStats,
    plan_specs,
)
from repro.engine.spec import TrialResult, TrialSpec
from repro.obs.trace import TraceRecorder

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.store.backend import ResultStore

__all__ = [
    "ENGINE_CHOICES",
    "STORE_COMMIT_CHUNK",
    "CampaignSession",
    "CampaignSummary",
    "JsonlSink",
    "ExecutionUnit",
    "StoreCacheStats",
    "plan_specs",
    "execute_specs",
    "run_campaign",
    "iter_jsonl",
    "read_jsonl",
    "strip_timing",
]


class JsonlSink:
    """Append trial rows to a JSON-lines file, one row per trial, as they arrive."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.rows_written = 0
        self._handle = None

    def __enter__(self) -> "JsonlSink":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        return self

    def write(self, result: TrialResult) -> None:
        if self._handle is None:
            raise RuntimeError("JsonlSink must be entered before writing")
        self._handle.write(result.to_json() + "\n")
        self.rows_written += 1

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream a campaign JSONL file one row dictionary at a time.

    Constant memory in the file size — the row consumers (equivalence
    comparisons, store imports) never need the whole file as a list.  Blank
    lines are skipped.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load every row of a campaign JSONL file back into dictionaries."""
    return list(iter_jsonl(path))


def strip_timing(rows: Iterable[dict[str, Any]]) -> list[str]:
    """Canonicalise rows for determinism comparison: drop timing fields, sort keys.

    Two campaign runs with the same seed must produce equal ``strip_timing``
    output regardless of worker count; ``TrialResult.TIMING_FIELDS`` is the
    single list of fields allowed to differ.
    """
    canonical = []
    for row in rows:
        kept = {key: value for key, value in row.items() if key not in TrialResult.TIMING_FIELDS}
        canonical.append(json.dumps(kept, sort_keys=True))
    return canonical


def execute_specs(
    specs: Sequence[TrialSpec],
    workers: int = 1,
    chunksize: int | None = None,
    engine: str = "auto",
    store: "ResultStore | None" = None,
    reuse_cached: bool = True,
    cache_stats: StoreCacheStats | None = None,
    fallback_reasons: dict[str, int] | None = None,
    claim_wait_timeout: float = 60.0,
) -> Iterator[TrialResult]:
    """Yield one :class:`TrialResult` per spec, in spec order.

    ``engine`` picks the execution substrate (see :data:`ENGINE_CHOICES`);
    the emitted rows are byte-identical (modulo ``elapsed_ms``) for every
    engine and worker count.  ``workers <= 1`` runs inline (no subprocess
    overhead, simplest debugging); otherwise the plan's execution units are
    cut into cost-model-sized tasks and fanned out over the persistent
    shared-memory pool while this iterator yields results back in order.  An
    explicit ``chunksize`` overrides the cost model's task sizing.

    With ``store`` set, execution becomes a write-through cache: cached rows
    are served without running anything (unless ``reuse_cached`` is False,
    which forces recomputation while still recording), misses commit to the
    store transactionally per execution unit, and ``cache_stats`` — if
    provided — is filled with the hit/miss split (trials served from a
    concurrent process's commits count as hits).  Rows remain byte-identical
    to an uncached run, whichever side of the cache they came from.
    ``claim_wait_timeout`` bounds how long this run waits for rows another
    process has claimed before recomputing them itself.
    """
    session = CampaignSession(
        specs,
        workers=workers,
        chunksize=chunksize,
        engine=engine,
        store=store,
        reuse_cached=reuse_cached,
        claim_wait_timeout=claim_wait_timeout,
        cache_stats=cache_stats,
        fallback_reasons=fallback_reasons,
    )
    yield from session.rows()


def run_campaign(
    campaign: Campaign,
    workers: int = 1,
    jsonl_path: str | Path | None = None,
    on_result: Callable[[TrialResult], None] | None = None,
    collect: bool = False,
    engine: str = "auto",
    store: "ResultStore | str | Path | None" = None,
    reuse_cached: bool = True,
    chunksize: int | None = None,
    trace: TraceRecorder | None = None,
) -> tuple[CampaignSummary, list[TrialResult]]:
    """Run every trial of the campaign, streaming rows to the optional sink.

    ``engine`` selects the execution substrate (:data:`ENGINE_CHOICES`); rows
    are byte-identical across engines and worker counts modulo
    ``elapsed_ms``.  ``store`` — a
    :class:`~repro.store.backend.ResultStore` or a path, opened (and closed)
    by the session via :func:`~repro.store.backend.open_store` — enables the
    write-through cache: cached trials are served without execution (set
    ``reuse_cached=False`` to force recomputation while still recording),
    misses commit per execution unit, and the summary's ``cache_hits``
    reports the split.  Returns the summary and — only when ``collect=True``
    — the full result list (large sweeps should rely on the JSONL sink
    instead and keep ``collect`` off).

    ``trace`` hands the session a :class:`~repro.obs.trace.TraceRecorder`;
    the caller owns writing the recorded timeline out (``trace.write(path)``).
    """
    session = CampaignSession(
        campaign,
        workers=workers,
        chunksize=chunksize,
        engine=engine,
        store=store,
        reuse_cached=reuse_cached,
        trace=trace,
    )
    collected: list[TrialResult] = []

    def _consume(results: Iterable[TrialResult], sink: JsonlSink | None) -> None:
        for result in results:
            if sink is not None:
                sink.write(result)
            if on_result is not None:
                on_result(result)
            if collect:
                collected.append(result)

    results = session.rows()
    try:
        if jsonl_path is not None:
            with JsonlSink(jsonl_path) as sink:
                _consume(results, sink)
        else:
            _consume(results, None)
    finally:
        # Deterministic cleanup on consumer errors: closing the row iterator
        # releases claims and closes a session-owned store.
        results.close()

    return session.summary(jsonl_path), collected
