"""Metrics registry: bucket math, worker-delta merging, exposition format.

The registry is the backbone of the telemetry layer, so its arithmetic gets
reference-grade coverage:

* **bucket boundaries** — Prometheus ``le`` semantics (a value equal to a
  bound lands *in* that bound's bucket) at every edge, including the
  implicit ``+Inf`` overflow;
* **merge associativity** — simulated worker registries ship deltas that
  must fold into identical parent totals regardless of merge order, because
  that is exactly what the fork pool does with its result pipes.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    snapshot_delta,
    snapshot_jsonable,
)

BOUNDS = (0.1, 1.0, 10.0)


def _hist_sample(registry: MetricsRegistry, name: str = "h"):
    snap = registry.snapshot(collect=False)
    return snap[name]["samples"][()]


class TestHistogramBuckets:
    def test_value_on_boundary_lands_in_that_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=BOUNDS)
        for bound in BOUNDS:
            hist.observe(bound)
        assert _hist_sample(registry)["counts"] == [1, 1, 1, 0]

    def test_below_first_and_above_last(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=BOUNDS)
        hist.observe(0.0)  # below every finite bound -> first bucket
        hist.observe(10.000001)  # above the last finite bound -> +Inf bucket
        hist.observe(1e9)
        sample = _hist_sample(registry)
        assert sample["counts"] == [1, 0, 0, 2]
        assert sample["count"] == 3

    def test_interior_values_respect_open_lower_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=BOUNDS)
        hist.observe(0.10000001)  # just above 0.1 -> second bucket
        assert _hist_sample(registry)["counts"] == [0, 1, 0, 0]

    def test_sum_and_count_track_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=BOUNDS)
        values = (0.05, 0.5, 5.0, 50.0)
        for value in values:
            hist.observe(value)
        sample = _hist_sample(registry)
        assert sample["count"] == len(values)
        assert sample["sum"] == pytest.approx(sum(values))

    def test_observing_many_is_observing_each_in_turn(self):
        values = [0.0, 0.1, 0.3, 1.0, 1e-17, 7.5, 10.0, 12.0, 0.7, 0.2]
        one_by_one, at_once = MetricsRegistry(), MetricsRegistry()
        for value in values:
            one_by_one.histogram("h", buckets=BOUNDS).observe(value)
        at_once.histogram("h", buckets=BOUNDS).observe_many(values)
        assert _hist_sample(at_once) == _hist_sample(one_by_one)  # the sum bitwise too

    def test_buckets_must_be_ascending_and_non_empty(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("bad3", buckets=(2.0, 1.0))


class TestMerge:
    @staticmethod
    def _simulated_worker(seed: int) -> MetricsRegistry:
        """A registry with the same families a fork worker would populate."""
        rng = random.Random(seed)
        registry = MetricsRegistry()
        units = registry.counter("units", labelnames=("kind",))
        seconds = registry.histogram("seconds", buckets=BOUNDS)
        for _ in range(rng.randrange(5, 40)):
            units.labels(kind=rng.choice(("trial", "batch"))).inc(rng.randrange(1, 4))
            seconds.observe(rng.uniform(0.0, 20.0))
        return registry

    def test_merge_is_associative_and_commutative(self):
        empty = MetricsRegistry().snapshot(collect=False)
        deltas = [
            snapshot_delta(self._simulated_worker(seed).snapshot(collect=False), empty)
            for seed in (1, 2, 3)
        ]
        orders = ([0, 1, 2], [2, 1, 0], [1, 0, 2])
        snapshots = []
        for order in orders:
            parent = MetricsRegistry()
            for index in order:
                parent.merge(deltas[index])
            snapshots.append(parent.snapshot(collect=False))
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_incremental_deltas_sum_to_the_direct_total(self):
        # A worker snapshots between units and ships only what moved — the
        # parent's merged totals must equal the worker's own final state.
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        counter = worker.counter("units", labelnames=("kind",))
        hist = worker.histogram("seconds", buckets=BOUNDS)
        baseline = worker.snapshot(collect=False)
        for step in range(4):
            counter.labels(kind="trial").inc(step + 1)
            hist.observe(0.3 * (step + 1))
            current = worker.snapshot(collect=False)
            parent.merge(snapshot_delta(current, baseline))
            baseline = current
        assert parent.snapshot(collect=False) == worker.snapshot(collect=False)

    def test_delta_drops_gauges_and_unchanged_samples(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(7.0)
        counter = registry.counter("c", labelnames=("kind",))
        counter.labels(kind="still").inc()
        baseline = registry.snapshot(collect=False)
        counter.labels(kind="moved").inc(2)
        delta = snapshot_delta(registry.snapshot(collect=False), baseline)
        assert "depth" not in delta
        assert delta["c"]["samples"] == {("moved",): 2.0}

    def test_merge_rejects_mismatched_buckets(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=BOUNDS).observe(0.5)
        target = MetricsRegistry()
        target.histogram("h", buckets=(0.5, 5.0))
        with pytest.raises(ValueError, match="disagree"):
            target.merge(source.snapshot(collect=False))

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks only where fork exists")
class TestFork:
    def test_a_child_forked_while_another_thread_holds_the_lock_can_snapshot(self):
        # A pool worker's first act is a registry snapshot; a fork taken while
        # another thread is inside the registry must not leave it waiting on a
        # lock whose holder does not exist in the child.
        registry = get_registry()
        held, release = threading.Event(), threading.Event()

        def holder() -> None:
            with registry._lock:
                held.set()
                release.wait(30)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(5)
            pid = os.fork()
            if pid == 0:  # the child: exit 0 only if the snapshot returns
                code = 1
                try:
                    registry.snapshot(collect=False)
                    code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 10.0
            while (finished := os.waitpid(pid, os.WNOHANG))[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child is stuck on the registry lock")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(finished[1]) == 0
        finally:
            release.set()
            thread.join()


class TestPrometheusRender:
    @staticmethod
    def _populated() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "counts \"things\"", ("kind",)).labels(
            kind="a\nb"
        ).inc(2)
        registry.gauge("repro_g", "a gauge").set(1.5)
        hist = registry.histogram("repro_h_seconds", "latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        return registry

    def test_lines_are_well_formed(self):
        text = render_prometheus(self._populated())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part and value_part
            float(value_part)  # every sample value parses as a number

    def test_histogram_exposition_is_cumulative_with_inf(self):
        text = render_prometheus(self._populated())
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_h_seconds_bucket{le="1"} 2' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_h_seconds_count 3" in text
        assert "repro_h_seconds_sum 2.55" in text

    def test_type_lines_and_label_escaping(self):
        text = render_prometheus(self._populated())
        assert "# TYPE repro_c_total counter" in text
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_h_seconds histogram" in text
        assert 'repro_c_total{kind="a\\nb"} 2' in text
        assert '# HELP repro_c_total counts "things"' in text

    def test_jsonable_snapshot_rekeys_labels(self):
        snap = snapshot_jsonable(self._populated().snapshot(collect=False))
        assert snap["repro_c_total"]["samples"] == {"kind=a\nb": 2.0}
        assert snap["repro_g"]["samples"]["_"] == 1.5
