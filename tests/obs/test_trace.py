"""Trace recorder: Chrome trace-event well-formedness and span accounting.

Two claims matter for downstream tooling:

* the written file is a **valid Chrome trace** (Perfetto-loadable document
  shape, every event carrying the required fields for its phase), and
* span timestamps are **monotonically nested** — a span opened inside
  another lies within its parent's ``[ts, ts + dur]`` window, which is what
  makes the ``repro trace summary`` attribution trustworthy.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import Campaign, run_campaign
from repro.obs.trace import (
    TraceRecorder,
    format_trace_summary,
    load_trace,
    summarize_trace,
)

_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "s", "pid", "tid"),
    "M": ("name", "pid", "tid", "args"),
}


def _assert_valid_chrome_trace(events: list[dict]) -> None:
    assert events, "trace must contain events"
    for event in events:
        phase = event.get("ph")
        assert phase in _REQUIRED_BY_PHASE, f"unexpected phase {phase!r}"
        for field in _REQUIRED_BY_PHASE[phase]:
            assert field in event, f"{phase!r} event missing {field!r}: {event}"
        if phase == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0


class TestTraceRecorder:
    def test_written_file_is_a_valid_chrome_trace(self, tmp_path):
        recorder = TraceRecorder()
        base = recorder.started_at
        recorder.complete("outer", base, 1.0, category="lifecycle")
        recorder.instant("marker", {"detail": 1})
        path = recorder.write(tmp_path / "nested" / "trace.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        _assert_valid_chrome_trace(document["traceEvents"])
        assert load_trace(path) == document["traceEvents"]

    def test_load_accepts_bare_event_arrays(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([{"ph": "X", "name": "a", "ts": 0, "dur": 1}]))
        assert len(load_trace(path)) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('"not a trace"')
        with pytest.raises(ValueError):
            load_trace(bad)

    def test_spans_nest_monotonically(self):
        recorder = TraceRecorder()
        base = recorder.started_at
        recorder.complete("outer", base + 0.0, 1.0)
        recorder.complete("inner", base + 0.2, 0.5)
        recorder.complete("innermost", base + 0.3, 0.1)
        spans = {e["name"]: e for e in recorder.events() if e["ph"] == "X"}
        chain = [spans["outer"], spans["inner"], spans["innermost"]]
        for parent, child in zip(chain, chain[1:]):
            assert child["ts"] >= parent["ts"]
            assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_each_track_gets_one_thread_name_lane(self):
        recorder = TraceRecorder()
        base = recorder.started_at
        for track in ("main", "worker-0", "worker-1", "worker-0"):
            recorder.complete("unit", base, 0.01, track=track)
        metadata = [e for e in recorder.events() if e["ph"] == "M"]
        assert sorted(m["args"]["name"] for m in metadata) == [
            "main", "worker-0", "worker-1",
        ]
        tids = {m["args"]["name"]: m["tid"] for m in metadata}
        assert len(set(tids.values())) == 3


class TestTraceSummary:
    @staticmethod
    def _events() -> list[dict]:
        return [
            {"ph": "X", "cat": "execute", "name": "unit", "ts": 0.0, "dur": 60_000.0},
            {"ph": "X", "cat": "execute", "name": "unit", "ts": 60_000.0, "dur": 20_000.0},
            {"ph": "X", "cat": "store", "name": "census", "ts": 0.0, "dur": 100_000.0},
            {"ph": "i", "cat": "session", "name": "noise", "ts": 5.0, "s": "t"},
        ]

    def test_aggregates_by_phase_and_name(self):
        summary = summarize_trace(self._events())
        assert summary["wall_ms"] == 100.0
        census, unit = summary["rows"]
        assert (census["phase"], census["name"], census["count"]) == ("store", "census", 1)
        assert census["share"] == 1.0
        assert (unit["count"], unit["total_ms"], unit["mean_ms"]) == (2, 80.0, 40.0)
        assert unit["max_ms"] == 60.0 and unit["share"] == 0.8

    def test_empty_trace(self):
        assert summarize_trace([]) == {"wall_ms": 0.0, "rows": []}
        assert "no spans" in format_trace_summary(summarize_trace([]))

    def test_format_is_a_table_with_wall_clock(self):
        text = format_trace_summary(summarize_trace(self._events()))
        lines = text.strip().splitlines()
        assert lines[0] == "trace wall-clock: 100.000 ms"
        assert lines[1].split() == [
            "phase", "name", "count", "total_ms", "mean_ms", "max_ms", "share",
        ]
        assert any("census" in line and "100.0%" in line for line in lines)


class TestSessionTracing:
    def test_traced_campaign_accounts_for_its_wall_clock(self):
        campaign = Campaign.from_grid(
            "traced", adversaries=("crash",), dimensions=(1,), repeats=3, base_seed=7
        )
        trace = TraceRecorder()
        summary, _ = run_campaign(campaign, workers=1, trace=trace)
        assert summary.errors == 0
        events = trace.events()
        _assert_valid_chrome_trace(events)
        spans = [e for e in events if e["ph"] == "X"]
        session = [e for e in spans if e["name"] == "session"]
        units = [e for e in spans if e["name"].startswith("unit:")]
        assert len(session) == 1 and units
        assert sum(unit["args"]["trials"] for unit in units) == summary.trials
        # Inline execution: unit spans nest inside the session span and
        # account for most of it (planning/commit overhead is the rest).
        session_span = session[0]
        unit_total = sum(unit["dur"] for unit in units)
        assert 0 < unit_total <= session_span["dur"] * 1.10
        for unit in units:
            assert unit["ts"] >= session_span["ts"]
