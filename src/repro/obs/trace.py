"""Per-campaign trace timelines in the Chrome trace-event JSON format.

A :class:`TraceRecorder` collects *complete* spans (``ph: "X"``), instant
markers (``ph: "i"``) and thread-name metadata, then writes a file Perfetto
and ``chrome://tracing`` open directly::

    {"traceEvents": [...], "displayTimeUnit": "ms"}

Timestamps are epoch-based (``time.time()``) so spans measured in fork
workers land on the same timeline as the parent session, and are stored as
microseconds relative to the recorder's start.  String track names ("main",
"repro-pool-0", ...) map to stable integer ``tid``\\ s with ``thread_name``
metadata events, one lane per worker.

:func:`summarize_trace` aggregates a trace back into per-phase time sinks —
what ``repro trace summary`` prints.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "TraceRecorder",
    "load_trace",
    "summarize_trace",
    "format_trace_summary",
]


class TraceRecorder:
    """Thread-safe collector of Chrome trace events for one campaign/session.

    Events stay in memory until :meth:`write` saves them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._tids: dict[str, int] = {}
        self._pid = os.getpid()
        self.started_at = time.time()

    # -- recording -----------------------------------------------------------

    def _ts(self, epoch_seconds: float) -> float:
        return max(0.0, (epoch_seconds - self.started_at) * 1e6)

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = self._tids[track] = len(self._tids)
            self._events.append({
                "name": "thread_name", "ph": "M", "pid": self._pid, "tid": tid,
                "args": {"name": track},
            })
        return tid

    def complete(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        track: str = "main",
        category: str = "session",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a finished span: ``start`` is epoch seconds, ``duration`` seconds."""
        with self._lock:
            self._events.append({
                "name": name, "ph": "X", "cat": category,
                "ts": self._ts(start), "dur": max(0.0, duration) * 1e6,
                "pid": self._pid, "tid": self._tid(track),
                "args": dict(args) if args else {},
            })

    def instant(self, name: str, args: Mapping[str, Any]) -> None:
        """Record a zero-duration session marker on the main track (scope ``t`` = thread)."""
        with self._lock:
            self._events.append({
                "name": name, "ph": "i", "s": "t", "cat": "session",
                "ts": self._ts(time.time()),
                "pid": self._pid, "tid": self._tid("main"),
                "args": dict(args),
            })

    # -- output --------------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(event) for event in self._events]

    def write(self, path: str | Path) -> Path:
        """Write the trace file (pretty enough for diffing, valid for Perfetto)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        document = {"traceEvents": self.events(), "displayTimeUnit": "ms"}
        target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        return target


# --------------------------------------------------------------------------
# Trace analysis (``repro trace summary``)
# --------------------------------------------------------------------------


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load trace events from a file (either the object form or a bare array)."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    events = document["traceEvents"] if isinstance(document, dict) else document
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace file")
    return events


def summarize_trace(events: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate complete spans into per-(category, name) time sinks.

    Returns ``{"wall_ms": ..., "rows": [...]}`` where each row carries the
    span name, its category (phase), occurrence count, total/mean/max
    milliseconds and the share of trace wall-clock, sorted by total time
    descending — the "where did the time go" table.
    """
    spans = [event for event in events if event.get("ph") == "X"]
    if not spans:
        return {"wall_ms": 0.0, "rows": []}
    start = min(event["ts"] for event in spans)
    end = max(event["ts"] + event.get("dur", 0.0) for event in spans)
    wall_ms = (end - start) / 1000.0
    sinks: dict[tuple[str, str], dict[str, float]] = {}
    for event in spans:
        key = (str(event.get("cat", "")), str(event["name"]))
        sink = sinks.setdefault(key, {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
        duration_ms = event.get("dur", 0.0) / 1000.0
        sink["count"] += 1
        sink["total_ms"] += duration_ms
        sink["max_ms"] = max(sink["max_ms"], duration_ms)
    rows = [
        {
            "phase": category,
            "name": name,
            "count": int(sink["count"]),
            "total_ms": round(sink["total_ms"], 3),
            "mean_ms": round(sink["total_ms"] / sink["count"], 3),
            "max_ms": round(sink["max_ms"], 3),
            "share": round(sink["total_ms"] / wall_ms, 4) if wall_ms > 0 else 0.0,
        }
        for (category, name), sink in sinks.items()
    ]
    rows.sort(key=lambda row: (-row["total_ms"], row["phase"], row["name"]))
    return {"wall_ms": round(wall_ms, 3), "rows": rows}


def format_trace_summary(summary: Mapping[str, Any], limit: int = 20) -> str:
    """Human-readable top-time-sinks table for ``repro trace summary``."""
    rows = summary["rows"][:limit]
    if not rows:
        return "trace contains no spans\n"
    headers = ("phase", "name", "count", "total_ms", "mean_ms", "max_ms", "share")
    table = [headers] + [
        (
            row["phase"], row["name"], str(row["count"]),
            f"{row['total_ms']:.3f}", f"{row['mean_ms']:.3f}",
            f"{row['max_ms']:.3f}", f"{row['share'] * 100:.1f}%",
        )
        for row in rows
    ]
    widths = [max(len(line[column]) for line in table) for column in range(len(headers))]
    lines = [f"trace wall-clock: {summary['wall_ms']:.3f} ms"]
    for line in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"
