"""Protocol tests for the restricted-round algorithms (Theorem 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.strategies import CrashStrategy, EquivocationStrategy, OutsideHullStrategy
from repro.core.conditions import (
    SystemConfiguration,
    minimum_processes_restricted_async,
    minimum_processes_restricted_sync,
)
from repro.core.restricted_async import (
    RestrictedAsyncProcess,
    restricted_async_contraction_factor,
    run_restricted_async_bvc,
)
from repro.core.restricted_sync import RestrictedSyncProcess, run_restricted_sync_bvc
from repro.core.validity import check_approximate_outcome
from repro.exceptions import ConfigurationError, ResilienceError
from repro.network.message import Message
from repro.network.scheduler import RandomScheduler
from repro.workloads.generators import uniform_box_registry


def sync_registry(dimension=2, fault_bound=1, seed=0):
    n = minimum_processes_restricted_sync(dimension, fault_bound)
    return uniform_box_registry(n, dimension, fault_bound, seed=seed)


def async_registry(dimension=2, fault_bound=1, seed=0):
    n = minimum_processes_restricted_async(dimension, fault_bound)
    return uniform_box_registry(n, dimension, fault_bound, seed=seed)


class TestConstruction:
    def test_sync_resilience_enforced(self):
        configuration = SystemConfiguration(4, 2, 1)  # needs 5
        with pytest.raises(ResilienceError):
            RestrictedSyncProcess(0, configuration, np.zeros(2), 0.1, 0.0, 1.0)

    def test_async_resilience_enforced(self):
        configuration = SystemConfiguration(6, 2, 1)  # needs 7
        with pytest.raises(ResilienceError):
            RestrictedAsyncProcess(0, configuration, np.zeros(2), 0.1, 0.0, 1.0)

    def test_async_contraction_factor(self):
        # gamma = 1 / (n * C(n - f, n - 3f))
        assert restricted_async_contraction_factor(7, 1) == pytest.approx(1 / (7 * 15))

    def test_async_contraction_requires_positive_quorum(self):
        with pytest.raises(ConfigurationError):
            restricted_async_contraction_factor(6, 2)

    def test_value_bounds_validated(self):
        configuration = SystemConfiguration(5, 2, 1)
        with pytest.raises(ConfigurationError):
            RestrictedSyncProcess(0, configuration, np.zeros(2), 0.1, 1.0, 0.0)


class TestRestrictedSync:
    def test_fault_free_convergence(self):
        registry = uniform_box_registry(5, 2, 1, fault_count=0, seed=1)
        outcome = run_restricted_sync_bvc(registry, epsilon=0.25, max_rounds_override=10)
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.25)
        assert report.agreement_ok and report.validity_ok

    @pytest.mark.parametrize("strategy_name", ["crash", "equivocate", "outside_hull"])
    def test_under_attack_at_the_bound(self, strategy_name):
        registry = sync_registry(seed=21)
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        strategies = {
            "crash": lambda: CrashStrategy(),
            "equivocate": lambda: EquivocationStrategy(honest_inputs),
            "outside_hull": lambda: OutsideHullStrategy(offset=40.0),
        }
        mutators = {pid: strategies[strategy_name]() for pid in registry.faulty_ids}
        outcome = run_restricted_sync_bvc(
            registry, epsilon=0.25, adversary_mutators=mutators, max_rounds_override=12
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.25)
        assert report.agreement_ok, f"disagreement {report.max_disagreement}"
        assert report.validity_ok, f"hull distance {report.max_hull_distance}"

    def test_static_round_rule_used_by_default(self):
        registry = uniform_box_registry(4, 1, 1, fault_count=0, seed=2)
        outcome = run_restricted_sync_bvc(registry, epsilon=0.5)
        process = RestrictedSyncProcess(
            0, registry.configuration, registry.input_of(0), 0.5, *registry.value_bounds()
        )
        assert outcome.rounds_executed == process.total_rounds

    def test_state_histories_have_one_entry_per_round(self):
        registry = uniform_box_registry(5, 2, 1, fault_count=0, seed=3)
        outcome = run_restricted_sync_bvc(registry, epsilon=0.3, max_rounds_override=4)
        for history in outcome.state_histories.values():
            assert len(history) == 5


class TestRestrictedAsync:
    def test_fault_free_convergence(self):
        registry = uniform_box_registry(7, 2, 1, fault_count=0, seed=4)
        outcome = run_restricted_async_bvc(
            registry, epsilon=0.25, max_rounds_override=8, scheduler=RandomScheduler(1)
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.25)
        assert report.agreement_ok and report.validity_ok

    @pytest.mark.parametrize("strategy_name", ["crash", "outside_hull"])
    def test_under_attack_at_the_bound(self, strategy_name):
        registry = async_registry(seed=22)
        strategies = {
            "crash": lambda: CrashStrategy(),
            "outside_hull": lambda: OutsideHullStrategy(offset=40.0),
        }
        mutators = {pid: strategies[strategy_name]() for pid in registry.faulty_ids}
        outcome = run_restricted_async_bvc(
            registry, epsilon=0.3, adversary_mutators=mutators,
            max_rounds_override=10, scheduler=RandomScheduler(2),
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
        assert report.agreement_ok, f"disagreement {report.max_disagreement}"
        assert report.validity_ok, f"hull distance {report.max_hull_distance}"

    def test_decisions_inside_honest_hull_even_with_equivocation(self):
        registry = async_registry(dimension=1, fault_bound=1, seed=23)
        honest_inputs = [registry.input_of(pid) for pid in registry.honest_ids]
        mutators = {pid: EquivocationStrategy(honest_inputs) for pid in registry.faulty_ids}
        outcome = run_restricted_async_bvc(
            registry, epsilon=0.3, adversary_mutators=mutators,
            max_rounds_override=8, scheduler=RandomScheduler(3),
        )
        report = check_approximate_outcome(registry, outcome.decisions, epsilon=0.3)
        assert report.validity_ok


#: STATE payloads that are not ``d`` finite floats (here ``d = 2``).
MALFORMED_STATES = [
    pytest.param(None, id="none"),
    pytest.param((0.1, 0.2, 0.3), id="wrong-shape"),
    pytest.param((float("nan"), 0.2), id="nan"),
    pytest.param((float("inf"), 0.2), id="inf"),
    pytest.param("0.1 0.2", id="string"),
]


def _with_state(message: Message, state) -> Message:
    return Message(
        sender=message.sender, recipient=message.recipient, protocol=message.protocol,
        kind=message.kind, payload={**message.payload, "state": state},
        round_index=message.round_index,
    )


class TestMalformedState:
    """Both restricted processes read a malformed STATE payload as no message."""

    @pytest.mark.parametrize("state", MALFORMED_STATES)
    def test_sync_process_reads_silence(self, state):
        registry = sync_registry(dimension=2, seed=31)
        n = registry.configuration.process_count

        def process(pid):
            return RestrictedSyncProcess(
                process_id=pid, configuration=registry.configuration,
                input_vector=registry.input_of(pid), epsilon=0.3,
                value_lower=-1.0, value_upper=1.0, max_rounds_override=1,
            )

        inbox = [
            message
            for sender in range(1, n)
            for message in process(sender).outgoing(1)
            if message.recipient == 0
        ]
        malformed, silent = process(0), process(0)
        malformed.deliver(1, [_with_state(inbox[0], state), *inbox[1:]])
        silent.deliver(1, inbox[1:])
        assert np.array_equal(malformed.decision(), silent.decision())

    @pytest.mark.parametrize("state", MALFORMED_STATES)
    def test_async_process_reads_silence(self, state):
        registry = async_registry(dimension=2, seed=32)
        configuration = registry.configuration
        wait_for = configuration.process_count - configuration.fault_bound - 1

        def started(pid):
            core = RestrictedAsyncProcess(
                process_id=pid, configuration=configuration,
                input_vector=registry.input_of(pid), epsilon=0.3,
                value_lower=-1.0, value_upper=1.0, max_rounds_override=1,
            )
            sent: list[Message] = []
            core.bind_transport(sent.append)
            core.on_start()
            return core, sent

        messages = []
        for sender in range(1, wait_for + 1):
            _, sent = started(sender)
            messages.extend(message for message in sent if message.recipient == 0)
        malformed, _ = started(0)
        silent, _ = started(0)
        for message in messages[:-1]:
            malformed.on_message(message)
            silent.on_message(message)
        # A malformed report neither completes the round nor takes the
        # sender's one slot: its valid report still counts afterwards.
        malformed.on_message(_with_state(messages[-1], state))
        assert not malformed.has_decided()
        malformed.on_message(messages[-1])
        silent.on_message(messages[-1])
        assert malformed.has_decided() and silent.has_decided()
        assert np.array_equal(malformed.decision(), silent.decision())
