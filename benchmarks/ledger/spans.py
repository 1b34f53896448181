"""Harness-side spans: time each layer from outside, through its public functions.

Nothing under ``src/`` knows about the ledger.  :meth:`Tracer.install`
replaces the layers' public entry points with wrappers that record one span
per call — name, start, end and the span that caused it — into a list held in
memory.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the per-layer seconds add up to the wall
clock of the blocks they ran in without double counting.

Work done inside fork workers cannot append to the parent's list.  There the
same wrappers observe each span's self time into a harness-owned histogram
family of the ``obs`` registry; the pool already ships registry deltas back
with every unit reply, which carries the workers' layer times to the parent
without touching ``src/``.  The family is registered, and the wrappers are
installed and enabled, before the pool forks.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from typing import Any, Callable, Iterator

from catalog import LAYERS

#: Registry family carrying worker-side span self times (label: span name).
WORKER_FAMILY = "ledger_span_self_seconds"

#: Span name of the harness's own root around each timed block.
ROOT = "harness.block"

#: Span name of ``solve_linear_program`` when no geometry span called it.
LINPROG = "geometry.linprog"


def layer_of(span_name: str) -> str | None:
    """The catalogue layer a span name belongs to (longest prefix), if any."""
    matching = [
        layer for layer in LAYERS if span_name == layer or span_name.startswith(layer + ".")
    ]
    return max(matching, key=len, default=None)


class Tracer:
    """Span recorder plus the monkeypatching that feeds it."""

    def __init__(self) -> None:
        from repro.obs.registry import get_registry

        self.enabled = False
        self.in_worker = False
        #: ``[name, start, end, parent_index]`` per finished or open span.
        self.spans: list[list[Any]] = []
        #: name -> ``[calls, total_seconds, self_seconds]`` (parent process).
        self.totals: dict[str, list[float]] = {}
        self._local = threading.local()
        self._worker_self = get_registry().histogram(
            WORKER_FAMILY,
            "Ledger harness: span self time observed inside pool workers.",
            labelnames=("span",),
            buckets=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
        )
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.in_worker = True
        self.spans = []
        self.totals = {}
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far (called when set-up ends)."""
        self.spans = []
        self.totals = {}
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else -1
        if name == LINPROG and stack and stack[-1][3].startswith("geometry."):
            # An LP solved on behalf of the kernel or a hull check is charged
            # to that caller's metric, not to a pool of anonymous LP time.
            name = stack[-1][3] + ".lp"
        index = len(self.spans)
        if not self.in_worker:
            self.spans.append([name, 0.0, 0.0, parent])
        # frame: [span index, children seconds, start, name]
        frame = [index, 0.0, time.perf_counter(), name]
        stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        name = frame[3]
        duration = end - frame[2]
        own = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if self.in_worker:
            self._worker_self.labels(span=name).observe(own)
            return
        span = self.spans[frame[0]]
        span[1], span[2] = frame[2], end
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += own

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (the harness's own root spans)."""
        return _SpanContext(self, name)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``func`` wrapped in a span called ``name``.

        A generator function gets one span per resumption, so the time its
        consumer spends between items is not charged to it.
        """
        tracer = self
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = func(*args, **kwargs)
                try:
                    while True:
                        if not tracer.enabled:
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                        else:
                            frame = tracer._enter(name)
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                tracer._exit(frame)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def patch_function(self, module: Any, attribute: str, name: str) -> None:
        """Wrap ``module.attribute`` wherever a ``repro`` module holds it by name.

        ``from x import f`` copies the reference into the importer's globals,
        so replacing it in the defining module alone would miss those callers.
        """
        original = getattr(module, attribute)
        wrapped = self.wrap(name, original)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)

    def patch_method(self, cls: type, attribute: str, name: str) -> None:
        setattr(cls, attribute, self.wrap(name, getattr(cls, attribute)))

    def install(self) -> None:
        """Wrap the public entry points of every layer, then start recording."""
        import repro.core.approx_bvc as approx_bvc
        import repro.core.baselines as baselines
        import repro.core.exact_bvc as exact_bvc
        import repro.core.restricted_async as restricted_async
        import repro.core.restricted_sync as restricted_sync
        import repro.core.validity as validity
        import repro.engine.pool as pool
        import repro.engine.session as session
        import repro.engine.trial as trial
        import repro.engine.vectorized as vectorized
        import repro.geometry.convex_hull as convex_hull
        import repro.geometry.kernel as kernel
        import repro.geometry.linprog as linprog
        import repro.server.service as service
        import repro.store.backend as backend
        import repro.store.keys as keys
        import repro.store.query as query

        for method in ("point", "points_batch", "points_multi"):
            self.patch_method(kernel.GammaKernel, method, f"geometry.kernel.{method}")
        self.patch_function(kernel, "pruned_subset_family", "geometry.family_prune")
        self.patch_function(linprog, "solve_linear_program", LINPROG)
        self.patch_function(convex_hull, "contains_point", "geometry.hull_check")
        self.patch_function(convex_hull, "distance_to_hull", "geometry.hull_check")

        self.patch_function(vectorized, "run_specs_vectorized", "engine.vectorized.run")
        self.patch_function(trial, "run_trial", "engine.trial.run")
        for module, function in (
            (exact_bvc, "run_exact_bvc"),
            (approx_bvc, "run_approx_bvc"),
            (restricted_sync, "run_restricted_sync_bvc"),
            (restricted_async, "run_restricted_async_bvc"),
            (baselines, "run_coordinatewise_consensus"),
        ):
            self.patch_function(module, function, "runtime.protocol")
        self.patch_function(validity, "check_exact_outcome", "runtime.validity")
        self.patch_function(validity, "check_approximate_outcome", "runtime.validity")

        self.patch_function(session, "plan_specs", "engine.session.plan")
        self.patch_function(keys, "trial_key", "engine.session.key")
        self.patch_method(session.CampaignSession, "events", "engine.session.events")
        self.patch_function(pool, "execute_plan", "engine.pool.execute_plan")

        for method in (
            "get_rows", "contains_keys", "put_rows", "claim_keys", "release_claims", "iter_entries",
        ):
            self.patch_method(backend.SqliteResultStore, method, f"store.{method}")

        for method in ("query_rows", "aggregate", "etag_for"):
            self.patch_method(service.CampaignService, method, f"service.{method}")
        # Not layers of their own: counting these calls tells cache hits
        # (service call without a store computation) from misses.
        self.patch_function(query, "query_store", "service.compute.query_store")
        self.patch_function(query, "aggregate_store", "service.compute.aggregate_store")

        self.enabled = True

    # -- read-out ------------------------------------------------------------

    def worker_totals(self, baseline: dict[str, Any] | None = None) -> dict[str, list[float]]:
        """name -> ``[calls, self_seconds]`` observed inside workers so far.

        ``baseline`` is an earlier return value to subtract (set-up work).
        """
        from repro.obs.registry import get_registry

        family = get_registry().snapshot(collect=False).get(WORKER_FAMILY, {})
        totals: dict[str, list[float]] = {}
        for (name,), sample in family.get("samples", {}).items():
            calls, seconds = float(sample["count"]), float(sample["sum"])
            if baseline and name in baseline:
                calls -= baseline[name][0]
                seconds -= baseline[name][1]
            totals[name] = [calls, seconds]
        return totals


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: list[Any] | None = None

    def __enter__(self) -> "_SpanContext":
        if self._tracer.enabled:
            self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._frame is not None:
            self._tracer._exit(self._frame)
