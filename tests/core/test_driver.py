"""The five ``run_*`` drivers share one outcome, and ``run_trial`` rows read it.

Each driver is called directly on the registry, mutators and scheduler a
spec builds, and its :class:`ProtocolOutcome` is compared with the row
``run_trial`` makes of the same spec.  The last two checks pin the row
shape: ``deliveries`` only on ``approx`` rows, ``state_histories`` only for
the round protocols and only under ``record_history``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ProtocolOutcome,
    run_approx_bvc,
    run_coordinatewise_consensus,
    run_exact_bvc,
    run_restricted_async_bvc,
    run_restricted_sync_bvc,
)
from repro.engine import TrialSpec, minimum_processes_for, run_trial
from repro.engine.factories import build_registry, build_scheduler, make_adversaries

ROUND_PROTOCOLS = ("approx", "restricted_sync", "restricted_async")
PROTOCOLS = ("exact", "coordinatewise") + ROUND_PROTOCOLS


def _spec(protocol: str, adversary: str, record_history: bool) -> TrialSpec:
    return TrialSpec(
        protocol=protocol,
        workload="uniform_box",
        adversary=adversary,
        process_count=minimum_processes_for(protocol, 2, 1),
        dimension=2,
        fault_bound=1,
        seed=11,
        max_rounds_override=2 if protocol in ROUND_PROTOCOLS else None,
        record_history=record_history,
    )


def _drive(spec: TrialSpec) -> ProtocolOutcome:
    """Call the spec's driver by hand, on what ``run_trial`` would build."""
    registry = build_registry(spec)
    adversary = make_adversaries(spec, registry)
    common = {
        "adversary_mutators": adversary.mutators,
        "traffic_observer": adversary.traffic_observer,
    }
    rounds = {"max_rounds_override": spec.max_rounds_override, "epsilon": spec.epsilon}
    if spec.protocol == "exact":
        return run_exact_bvc(registry, **common)
    if spec.protocol == "coordinatewise":
        return run_coordinatewise_consensus(registry, **common)
    if spec.protocol == "restricted_sync":
        return run_restricted_sync_bvc(registry, **rounds, **common)
    scheduler = build_scheduler(spec, registry)
    if spec.protocol == "approx":
        return run_approx_bvc(registry, scheduler=scheduler, **rounds, **common)
    return run_restricted_async_bvc(registry, scheduler=scheduler, **rounds, **common)


@pytest.mark.parametrize("adversary", ["none", "crash"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_driver_outcome_is_the_trial_row(protocol, adversary):
    for record_history in (False, True):
        spec = _spec(protocol, adversary, record_history)
        outcome = _drive(spec)
        row = run_trial(spec)
        assert type(outcome) is ProtocolOutcome
        assert row.status == "ok", row.error
        first_honest = min(outcome.decisions)
        assert row.decision == tuple(float(x) for x in outcome.decisions[first_honest])
        assert row.rounds == outcome.rounds_executed
        assert row.messages_sent == outcome.messages_sent
        assert row.messages_dropped == outcome.messages_dropped
        if protocol == "approx":
            assert outcome.deliveries is not None
            assert row.deliveries == outcome.deliveries
        else:
            assert row.deliveries is None
        if protocol in ROUND_PROTOCOLS and record_history:
            assert row.state_histories is not None
            assert sorted(row.state_histories) == sorted(outcome.decisions)
            for process_id, history in row.state_histories.items():
                assert len(history) == outcome.rounds_executed + 1
                assert history[-1].tolist() == outcome.decisions[process_id].tolist()
        else:
            assert row.state_histories is None
