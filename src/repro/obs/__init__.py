"""Unified observability layer: metrics registry + trace timelines.

Every layer of the stack instruments against the process-wide registry from
:func:`get_registry`; fork workers ship registry deltas back to the parent
over the pool's result pipes; ``GET /metrics?format=prometheus`` renders the
merged registry.  See ``docs/OBSERVABILITY.md`` for the metric catalog and
the trace quickstart.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    snapshot_delta,
    snapshot_jsonable,
)
from repro.obs.trace import (
    TraceRecorder,
    format_trace_summary,
    load_trace,
    summarize_trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceRecorder",
    "format_trace_summary",
    "get_registry",
    "load_trace",
    "render_prometheus",
    "snapshot_delta",
    "snapshot_jsonable",
    "summarize_trace",
]
