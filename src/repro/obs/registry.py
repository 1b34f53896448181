"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process (the module-level :func:`get_registry`
singleton) collects telemetry from every layer of the stack — geometry kernel,
vectorized engine, worker pool, results store, HTTP server.  The design goals,
in order:

* **Stdlib only, low overhead.**  An increment is one locked float add.
  Nothing here imports numpy or any other layer of ``repro`` (so every layer
  may import *this* module without cycles).
* **Mergeable.**  :meth:`MetricsRegistry.snapshot` produces a plain picklable
  dict; :func:`snapshot_delta` subtracts two snapshots; and
  :meth:`MetricsRegistry.merge` folds a (delta) snapshot into another
  registry.  This is how fork workers in :mod:`repro.engine.pool` ship their
  counters back to the parent over the existing result pipes: each unit reply
  carries the worker registry's delta since its previous reply, and the parent
  merges it — counter and histogram addition is associative and commutative,
  so parent totals are exact regardless of worker count or unit order.
* **One counter per fact.**  Every layer counts at the event, into its
  family here; no layer keeps a private tally to copy in later.  A hot path
  binds its labelled children once (``family.labels(...)`` at import) so an
  event costs one locked add.  Collectors only set gauges (cache sizes,
  seats, the LP backend) at collection time.
* **Fork-safe.**  The process registry's lock is re-created in a forked
  child (``os.register_at_fork``), so a pool worker forked while another
  thread held it does not inherit it held.

Prometheus text exposition lives in :func:`render_prometheus`.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "render_prometheus",
    "snapshot_delta",
    "snapshot_jsonable",
]

#: Default latency buckets (seconds): half-microsecond web requests through
#: ten-second campaign units.  Upper bounds, ascending; ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelValues = tuple[str, ...]


class _Family:
    """Shared machinery for one named metric and its labelled children."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._children: dict[_LabelValues, Any] = {}

    def labels(self, **labels: str) -> Any:
        """The child for one label-value combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    def _default_child(self) -> Any:
        """The unlabelled child (only valid for families without labelnames)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def _make_child(self) -> Any:  # pragma: no cover — overridden
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing counter family (values only ever grow)."""

    kind = "counter"

    class _Child:
        __slots__ = ("_registry", "value")

        def __init__(self, registry: "MetricsRegistry") -> None:
            self._registry = registry
            self.value = 0.0

        def inc(self, amount: float = 1.0) -> None:
            with self._registry._lock:
                self.value += amount

    def _make_child(self) -> "Counter._Child":
        return Counter._Child(self._registry)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class Gauge(_Family):
    """Instantaneous value family (queue depth, busy seats, cache sizes)."""

    kind = "gauge"

    class _Child:
        __slots__ = ("_registry", "value")

        def __init__(self, registry: "MetricsRegistry") -> None:
            self._registry = registry
            self.value = 0.0

        def set(self, value: float) -> None:
            with self._registry._lock:
                self.value = float(value)

    def _make_child(self) -> "Gauge._Child":
        return Gauge._Child(self._registry)

    def set(self, value: float) -> None:
        self._default_child().set(value)


class Histogram(_Family):
    """Fixed-bucket histogram family (latency distributions).

    ``buckets`` are finite upper bounds, strictly ascending; an implicit
    ``+Inf`` bucket catches the overflow.  Each child keeps per-bucket
    *non-cumulative* counts (cumulated only at exposition), a running sum and
    a total count — exactly the state that merges associatively across worker
    registries.
    """

    kind = "histogram"

    class _Child:
        __slots__ = ("_registry", "_bounds", "counts", "sum", "count")

        def __init__(self, registry: "MetricsRegistry", bounds: tuple[float, ...]) -> None:
            self._registry = registry
            self._bounds = bounds
            self.counts = [0] * (len(bounds) + 1)
            self.sum = 0.0
            self.count = 0

        def observe(self, value: float) -> None:
            index = _bucket_index(self._bounds, value)
            with self._registry._lock:
                self.counts[index] += 1
                self.sum += value
                self.count += 1

        def observe_many(self, values: Iterable[float]) -> None:
            """:meth:`observe` each of ``values`` in turn, under one lock."""
            bounds, counts = self._bounds, self.counts
            with self._registry._lock:
                for value in values:
                    counts[_bucket_index(bounds, value)] += 1
                    self.sum += value
                    self.count += 1

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: histogram buckets must be ascending and non-empty")
        super().__init__(registry, name, help_text, labelnames)
        self.buckets = bounds

    def _make_child(self) -> "Histogram._Child":
        return Histogram._Child(self._registry, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._default_child().observe_many(values)


def _bucket_index(bounds: tuple[float, ...], value: float) -> int:
    """Index of the first bucket whose upper bound admits ``value``."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class MetricsRegistry:
    """Thread-safe registry of named metric families.

    Metric registration is idempotent: asking for an existing name returns
    the existing family (and raises if the type or labels disagree), so every
    call site can declare its metrics locally without import-order dances.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- registration --------------------------------------------------------

    def _get_or_create(self, cls: type, name: str, help_text: str,
                       labelnames: Sequence[str], **kwargs: Any) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                return family
            if cls is Histogram:
                family = Histogram(self, name, help_text, tuple(labelnames), **kwargs)
            else:
                family = cls(self, name, help_text, tuple(labelnames))
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labelnames, buckets=buckets)

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Add a gauge-setting hook run by :meth:`collect` (idempotent per callable)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    # -- collection / snapshots ----------------------------------------------

    def collect(self) -> None:
        """Run every registered collector (sets the gauges they own)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    def snapshot(self, collect: bool = True) -> dict[str, dict[str, Any]]:
        """Picklable point-in-time copy of every family and sample."""
        if collect:
            self.collect()
        snap: dict[str, dict[str, Any]] = {}
        with self._lock:
            for name, family in self._families.items():
                samples: dict[_LabelValues, Any] = {}
                for key, child in family._children.items():
                    if family.kind == "histogram":
                        samples[key] = {
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    else:
                        samples[key] = child.value
                entry: dict[str, Any] = {
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "samples": samples,
                }
                if family.kind == "histogram":
                    entry["buckets"] = family.buckets
                snap[name] = entry
        return snap

    def merge(self, snap: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a snapshot (usually a delta) into this registry.

        Counters and histograms add; gauges take the incoming value.  Families
        absent here are created with the snapshot's declaration, so a parent
        can merge metrics only its workers ever touched.
        """
        for name, entry in snap.items():
            kind = entry["type"]
            labelnames = tuple(entry["labelnames"])
            if kind == "counter":
                family: _Family = self.counter(name, entry.get("help", ""), labelnames)
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""), labelnames)
            elif kind == "histogram":
                family = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    buckets=entry["buckets"],
                )
                if family.buckets != tuple(entry["buckets"]):
                    raise ValueError(f"metric {name!r}: bucket bounds disagree on merge")
            else:  # pragma: no cover — snapshots only ever carry known kinds
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
            for key, value in entry["samples"].items():
                child = family.labels(**dict(zip(labelnames, key)))
                with self._lock:
                    if kind == "counter":
                        child.value += value
                    elif kind == "gauge":
                        child.value = value
                    else:
                        counts = value["counts"]
                        if len(counts) != len(child.counts):
                            raise ValueError(
                                f"metric {name!r}: bucket counts disagree on merge"
                            )
                        for index, bucket_count in enumerate(counts):
                            child.counts[index] += bucket_count
                        child.sum += value["sum"]
                        child.count += value["count"]


def snapshot_delta(
    current: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Subtract two snapshots, keeping only counters/histograms that moved.

    This is the worker→parent wire payload: gauges are process-local state
    and are dropped, unchanged samples are dropped, and what remains merges
    into the parent registry via :meth:`MetricsRegistry.merge`.
    """
    delta: dict[str, dict[str, Any]] = {}
    for name, entry in current.items():
        kind = entry["type"]
        if kind == "gauge":
            continue
        base_samples = baseline.get(name, {}).get("samples", {})
        samples: dict[_LabelValues, Any] = {}
        for key, value in entry["samples"].items():
            base = base_samples.get(key)
            if kind == "counter":
                moved = value - (base or 0.0)
                if moved > 0:
                    samples[key] = moved
            else:
                base_counts = base["counts"] if base else [0] * len(value["counts"])
                counts = [c - b for c, b in zip(value["counts"], base_counts)]
                if any(counts):
                    samples[key] = {
                        "counts": counts,
                        "sum": value["sum"] - (base["sum"] if base else 0.0),
                        "count": value["count"] - (base["count"] if base else 0),
                    }
        if samples:
            slim = {k: v for k, v in entry.items() if k != "samples"}
            slim["samples"] = samples
            delta[name] = slim
    return delta


def snapshot_jsonable(snap: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Re-key a snapshot's tuple label keys as strings for JSON exposition."""
    out: dict[str, Any] = {}
    for name, entry in snap.items():
        labelnames = entry["labelnames"]
        samples = {}
        for key, value in entry["samples"].items():
            label = ",".join(f"{n}={v}" for n, v in zip(labelnames, key)) or "_"
            samples[label] = value
        out[name] = {"type": entry["type"], "samples": samples}
    return out


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_block(labelnames: Iterable[str], values: Iterable[str],
                 extra: tuple[str, str] | None = None) -> str:
    pairs = [f'{name}="{_escape_label(str(value))}"' for name, value in zip(labelnames, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format (v0.0.4)."""
    snap = registry.snapshot()
    lines: list[str] = []
    for name in sorted(snap):
        entry = snap[name]
        kind = entry["type"]
        labelnames = entry["labelnames"]
        if entry["help"]:
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(entry["samples"]):
            value = entry["samples"][key]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_label_block(labelnames, key)} {_format_value(value)}")
                continue
            bounds = entry["buckets"]
            cumulative = 0
            for index, bound in enumerate(bounds):
                cumulative += value["counts"][index]
                block = _label_block(labelnames, key, extra=("le", _format_value(bound)))
                lines.append(f"{name}_bucket{block} {cumulative}")
            block = _label_block(labelnames, key, extra=("le", "+Inf"))
            lines.append(f"{name}_bucket{block} {value['count']}")
            lines.append(f"{name}_sum{_label_block(labelnames, key)} {_format_value(value['sum'])}")
            lines.append(f"{name}_count{_label_block(labelnames, key)} {value['count']}")
    return "\n".join(lines) + "\n"


#: The process-wide registry every layer instruments against.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what ``/metrics`` exposes)."""
    return _REGISTRY


def _unlock_after_fork() -> None:
    """Give a forked child a free lock: the thread holding the parent's is not there."""
    _REGISTRY._lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # absent where the pool spawns instead of forking
    os.register_at_fork(after_in_child=_unlock_after_fork)
