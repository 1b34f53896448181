"""Execute one :class:`~repro.engine.spec.TrialSpec` into a ``TrialResult``.

:func:`run_trial` is a pure function of its spec (all randomness flows through
the spec's seeds), which is what makes campaign results independent of worker
count and execution order.  It is a module-level function so worker processes
can receive it by name.

Protocol failures (liveness violations, resilience-check rejections, …) are
*data*, not crashes: campaigns deliberately sweep regions where the paper says
an algorithm must fail, so exceptions are captured into ``status="error"``
rows instead of tearing down the sweep.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from repro.core.approx_bvc import run_approx_bvc
from repro.core.baselines import run_coordinatewise_consensus
from repro.core.driver import ProtocolOutcome
from repro.core.exact_bvc import run_exact_bvc
from repro.core.restricted_async import run_restricted_async_bvc
from repro.core.restricted_sync import run_restricted_sync_bvc
from repro.core.validity import ValidityReport, check_approximate_outcome, check_exact_outcome
from repro.engine.factories import AdversaryBundle, build_registry, build_scheduler, make_adversaries
from repro.engine.spec import TrialResult, TrialSpec
from repro.processes.registry import ProcessRegistry

__all__ = ["run_trial", "run_trials", "ok_row", "error_row"]


def run_trials(specs: "Sequence[TrialSpec]") -> list[TrialResult]:
    """Run a chunk of specs back to back (the worker pool's object-unit entry).

    A trivial loop, kept as a named module-level function so worker processes
    can execute whole sized units per dispatch instead of one round-trip per
    trial.
    """
    return [run_trial(spec) for spec in specs]


def run_trial(spec: TrialSpec) -> TrialResult:
    """Run the protocol execution the spec describes and measure its outcome."""
    start = time.perf_counter()
    try:
        result = _execute(spec)
    except Exception as error:  # noqa: BLE001 — failures are campaign data
        result = error_row(spec, error)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return dataclasses.replace(result, elapsed_ms=elapsed_ms)


def error_row(spec: TrialSpec, error: Exception) -> TrialResult:
    """A failed trial as a ``status="error"`` row naming the exception."""
    return TrialResult(spec=spec, status="error", error=f"{type(error).__name__}: {error}")


def ok_row(
    spec: TrialSpec,
    registry: ProcessRegistry,
    outcome: ProtocolOutcome,
    report: ValidityReport,
) -> TrialResult:
    """A finished trial as a ``status="ok"`` row.

    The row carries the first honest process's decision; ``deliveries`` only
    for ``approx`` and ``state_histories`` only under ``record_history``.
    """
    first_honest = registry.honest_ids[0]
    return TrialResult(
        spec=spec,
        status="ok",
        agreement=report.agreement_ok,
        validity=report.validity_ok,
        max_disagreement=float(report.max_disagreement),
        max_hull_distance=float(report.max_hull_distance),
        rounds=outcome.rounds_executed,
        deliveries=outcome.deliveries if spec.protocol == "approx" else None,
        messages_sent=outcome.messages_sent,
        messages_dropped=outcome.messages_dropped,
        decision=tuple(float(x) for x in outcome.decisions[first_honest]),
        state_histories=outcome.state_histories if spec.record_history else None,
    )


def _execute(spec: TrialSpec) -> TrialResult:
    registry = build_registry(spec)
    outcome = _run_protocol(spec, registry, make_adversaries(spec, registry))
    if spec.protocol in ("exact", "coordinatewise"):
        report = check_exact_outcome(registry, outcome.decisions)
    else:
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=spec.epsilon)
    return ok_row(spec, registry, outcome, report)


def _run_protocol(
    spec: TrialSpec, registry: ProcessRegistry, adversary: AdversaryBundle
) -> ProtocolOutcome:
    # The drivers are named as module globals at call time, never kept in a
    # table: the ledger's span patcher rebinds these names to time them.
    # Coordinated adversaries watch the whole execution's traffic (the
    # paper's full-information adversary); independent strategies get no tap.
    common = {
        "adversary_mutators": adversary.mutators,
        "traffic_observer": adversary.traffic_observer,
    }
    if spec.protocol == "exact":
        return run_exact_bvc(registry, max_rounds=spec.max_rounds_override, **common)
    if spec.protocol == "coordinatewise":
        return run_coordinatewise_consensus(registry, max_rounds=spec.max_rounds_override, **common)
    common.update(epsilon=spec.epsilon, max_rounds_override=spec.max_rounds_override)
    if spec.protocol == "restricted_sync":
        return run_restricted_sync_bvc(registry, **common)
    # The asynchronous pair: TrialSpec admits no protocol name beyond the five.
    driver = run_approx_bvc if spec.protocol == "approx" else run_restricted_async_bvc
    return driver(registry, scheduler=build_scheduler(spec, registry), **common)
