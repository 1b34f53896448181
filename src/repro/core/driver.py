"""The one cast–run–collect path behind every protocol driver.

The five ``run_*`` drivers differ only in the process core they build; each
is a core factory plus one call to :func:`run_protocol`, whose runtime —
synchronous or asynchronous — follows from the core type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.byzantine.adversary import ByzantineAsyncProcess, ByzantineSyncProcess, MessageMutator
from repro.core.conditions import SystemConfiguration
from repro.network.async_runtime import AsynchronousRuntime
from repro.network.message import Message
from repro.network.scheduler import DeliveryScheduler
from repro.network.sync_runtime import SynchronousRuntime
from repro.processes.process import AsyncProcess, SyncProcess
from repro.processes.registry import ProcessRegistry

__all__ = ["ProtocolOutcome", "run_protocol"]


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of one complete protocol execution.

    Attributes:
        decisions: decision vector per honest process id.
        rounds_executed: rounds the synchronous runtime ran; on the
            asynchronous runtime, the rounds each honest process ran.
        messages_sent: total messages put on the network.
        messages_dropped: undeliverable messages (self-addressed or unknown
            recipient, typically Byzantine output) refused by the runtime.
        deliveries: deliveries the asynchronous runtime performed, else None.
        state_histories: per honest process of a round-based protocol, its
            state after every round (index 0 is the input), else None.
    """

    decisions: dict[int, np.ndarray]
    rounds_executed: int
    messages_sent: int
    messages_dropped: int
    deliveries: int | None = None
    state_histories: dict[int, list[np.ndarray]] | None = None


def run_protocol(
    registry: ProcessRegistry,
    make_core: Callable[[int, SystemConfiguration, np.ndarray], SyncProcess | AsyncProcess],
    adversary_mutators: Mapping[int, MessageMutator] | None = None,
    *,
    scheduler: DeliveryScheduler | None = None,
    max_rounds: int | None = None,
    traffic_observer: Callable[[Message], None] | None = None,
) -> ProtocolOutcome:
    """Build one core per process id, run them, and collect the honest outcome.

    ``make_core(process_id, configuration, input_vector)`` builds a core.
    Each faulty id with a mutator runs its core inside a Byzantine shell;
    faulty ids without one behave honestly.  ``scheduler`` drives the
    asynchronous runtime (default: a seeded random one); ``max_rounds``
    caps the synchronous one (default: one round more than the honest cores
    need).  ``traffic_observer`` sees every routed message (the coordinated
    adversary's full-information tap).
    """
    mutators = adversary_mutators or {}
    configuration = registry.configuration
    cores = {
        process_id: make_core(process_id, configuration, registry.input_of(process_id))
        for process_id in registry.process_ids
    }
    honest_ids = registry.honest_ids
    synchronous = isinstance(cores[honest_ids[0]], SyncProcess)
    byzantine = ByzantineSyncProcess if synchronous else ByzantineAsyncProcess
    processes = {
        process_id: (
            byzantine(core, mutators[process_id])
            if registry.is_faulty(process_id) and process_id in mutators
            else core
        )
        for process_id, core in cores.items()
    }
    needed_rounds = max(cores[process_id].total_rounds for process_id in honest_ids)
    deliveries = None
    if synchronous:
        result = SynchronousRuntime(
            processes,
            honest_ids=honest_ids,
            max_rounds=max_rounds if max_rounds is not None else needed_rounds + 1,
            traffic_observer=traffic_observer,
        ).run()
        rounds_executed = result.rounds_executed
    else:
        result = AsynchronousRuntime(
            processes, honest_ids=honest_ids, scheduler=scheduler, traffic_observer=traffic_observer
        ).run()
        rounds_executed = needed_rounds
        deliveries = result.deliveries
    state_histories = None
    if hasattr(cores[honest_ids[0]], "state_history"):
        state_histories = {process_id: cores[process_id].state_history for process_id in honest_ids}
    return ProtocolOutcome(
        decisions={
            process_id: np.asarray(result.decisions[process_id], dtype=float)
            for process_id in honest_ids
        },
        rounds_executed=rounds_executed,
        messages_sent=result.traffic.messages_sent,
        messages_dropped=result.traffic.messages_dropped,
        deliveries=deliveries,
        state_histories=state_histories,
    )
