"""A finished object-engine trial leaves nothing for the cyclic collector.

Every object a trial builds — processes, their exchange and broadcast
engines, the network and its channels, the router the runtime binds the
processes to, the mutators of the faulty processes — is wired one way, so
reference counting frees the whole graph when the trial returns
(``docs/ARCHITECTURE.md``, "The asynchronous delivery loop").  With the
collector disabled, a trial followed by ``gc.collect()`` must find zero
unreachable objects; a reference cycle anywhere in a trial's graph makes the
count positive.
"""

from __future__ import annotations

import gc

import pytest

from repro.engine.factories import STRATEGY_NAMES, minimum_processes_for
from repro.engine.spec import TrialSpec
from repro.engine.trial import run_trial

PROTOCOLS = ("approx", "restricted_async", "exact", "restricted_sync")


def _spec(protocol: str, adversary: str) -> TrialSpec:
    return TrialSpec(
        protocol=protocol,
        workload="uniform_box",
        adversary=adversary,
        process_count=minimum_processes_for(protocol, 2, 1),
        dimension=2,
        fault_bound=1,
        seed=41,
        max_rounds_override=None if protocol == "exact" else 3,
    )


@pytest.mark.parametrize("adversary", STRATEGY_NAMES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trial_leaves_no_cyclic_garbage(protocol, adversary):
    spec = _spec(protocol, adversary)
    assert run_trial(spec).status == "ok"  # warm imports, caches and metric children
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_trial(spec)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result.status == "ok", result.error
    assert unreachable == 0
