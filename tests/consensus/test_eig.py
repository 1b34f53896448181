"""Unit tests for the EIG Byzantine broadcast substrate.

The two properties Step 1 of the Exact BVC algorithm needs from the broadcast
(with ``n >= 3f + 1`` in a synchronous complete graph) are checked directly:

* agreement — all non-faulty processes decide the same value, even when the
  sender is Byzantine and equivocates;
* validity — when the sender is non-faulty, the decision equals its value.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.byzantine.adversary import ByzantineSyncProcess
from repro.byzantine.strategies import CrashStrategy, EquivocationStrategy, RandomNoiseStrategy
from repro.consensus.eig import EigTable, eig_round_count
from repro.exceptions import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.network.sync_runtime import SynchronousRuntime
from repro.processes.process import SyncProcess


class EigBroadcastProcess(SyncProcess):
    """A stand-alone process running one EIG broadcast: a one-key table, payloads unbundled."""

    PROTOCOL = "eig_broadcast"
    KEY = 0

    def __init__(
        self,
        process_id: int,
        sender_id: int,
        process_ids: tuple[int, ...],
        fault_bound: int,
        value: Any = None,
        default: Any = 0.0,
    ) -> None:
        super().__init__(process_id)
        self.table = EigTable(process_id, tuple(process_ids), fault_bound)
        self.table.add(self.KEY, sender_id, value=value, default=default)
        self._decided = False

    def outgoing(self, round_index: int) -> list[Message]:
        payload = self.table.relay(round_index).get(self.KEY)
        if payload is None:
            return []
        return [
            Message(
                sender=self.process_id,
                recipient=recipient,
                protocol=self.PROTOCOL,
                kind="RELAY",
                payload=payload,
                round_index=round_index,
            )
            for recipient in self.table.process_ids
            if recipient != self.process_id
        ]

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        for message in inbox:
            if message.protocol != self.PROTOCOL:
                continue
            self.table.receive(round_index, message.sender, {self.KEY: message.payload})
        self.table.finish_round(round_index)
        if round_index >= self.table.total_rounds:
            self._decided = True

    def has_decided(self) -> bool:
        return self._decided

    def decision(self) -> Any:
        if not self._decided:
            raise ProtocolError(f"process {self.process_id} has not resolved its EIG tree yet")
        return self.table.resolve(self.KEY)


def run_broadcast(process_count, fault_bound, sender_id, sender_value, faulty=None, strategy_factory=None):
    """Drive a single EIG broadcast over the synchronous runtime."""
    faulty = set(faulty or ())
    process_ids = tuple(range(process_count))
    processes = {}
    for pid in process_ids:
        core = EigBroadcastProcess(
            process_id=pid,
            sender_id=sender_id,
            process_ids=process_ids,
            fault_bound=fault_bound,
            value=sender_value if pid == sender_id else None,
            default=0.0,
        )
        if pid in faulty and strategy_factory is not None:
            processes[pid] = ByzantineSyncProcess(core, strategy_factory(pid))
        else:
            processes[pid] = core
    honest = tuple(pid for pid in process_ids if pid not in faulty)
    runtime = SynchronousRuntime(processes, honest_ids=honest, max_rounds=fault_bound + 2)
    result = runtime.run()
    return {pid: result.decisions[pid] for pid in honest}


class TestRoundCount:
    def test_f_plus_one(self):
        assert eig_round_count(0) == 1
        assert eig_round_count(2) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            eig_round_count(-1)


class TestInstanceValidation:
    def test_sender_must_provide_value(self):
        table = EigTable(owner_id=0, process_ids=(0, 1, 2, 3), fault_bound=1)
        with pytest.raises(ConfigurationError):
            table.add("b", sender_id=0)

    def test_owner_must_be_member(self):
        with pytest.raises(ConfigurationError):
            EigTable(owner_id=9, process_ids=(0, 1, 2, 3), fault_bound=1)

    def test_malformed_relay_payload_ignored(self):
        table = EigTable(owner_id=1, process_ids=(0, 1, 2, 3), fault_bound=1)
        table.add("b", sender_id=0)
        table.receive(1, 0, {"b": {(0,): 7.0}})
        table.finish_round(1)
        # Valid second-round relays from processes 2 and 3, plus garbage entries
        # (wrong level, duplicated ids, unknown processes, non-tuple labels)
        # that must be dropped without corrupting the tree.
        table.receive(2, 2, {"b": {(0,): 7.0, (0, 0): 9.0, "junk": 1.0, (0, 9): 2.0}})
        table.receive(2, 3, {"b": {(0,): 7.0, (0, 2, 3): 5.0}})
        table.finish_round(2)
        assert table.resolve("b") == 7.0


class TestFaultFreeBroadcast:
    def test_all_processes_learn_sender_value(self):
        decisions = run_broadcast(4, 1, sender_id=0, sender_value=3.25)
        assert set(decisions.values()) == {3.25}

    def test_with_f_two(self):
        decisions = run_broadcast(7, 2, sender_id=3, sender_value=-1.5)
        assert set(decisions.values()) == {-1.5}

    def test_zero_faults_single_round(self):
        decisions = run_broadcast(3, 0, sender_id=1, sender_value=2.0)
        assert set(decisions.values()) == {2.0}


class TestByzantineSender:
    def test_equivocating_sender_still_yields_agreement(self):
        decisions = run_broadcast(
            4, 1, sender_id=0, sender_value=1.0,
            faulty={0},
            strategy_factory=lambda pid: EquivocationStrategy([[10.0], [20.0], [30.0]]),
        )
        assert len(set(decisions.values())) == 1

    def test_crashed_sender_yields_agreement_on_default(self):
        decisions = run_broadcast(
            4, 1, sender_id=0, sender_value=1.0,
            faulty={0},
            strategy_factory=lambda pid: CrashStrategy(),
        )
        assert set(decisions.values()) == {0.0}

    def test_equivocating_sender_with_f2(self):
        decisions = run_broadcast(
            7, 2, sender_id=0, sender_value=1.0,
            faulty={0, 6},
            strategy_factory=lambda pid: EquivocationStrategy([[5.0], [6.0]]),
        )
        assert len(set(decisions.values())) == 1


class TestByzantineRelay:
    def test_honest_sender_with_byzantine_relay_preserves_validity(self):
        decisions = run_broadcast(
            4, 1, sender_id=0, sender_value=4.5,
            faulty={2},
            strategy_factory=lambda pid: RandomNoiseStrategy(low=-99, high=99, seed=pid),
        )
        assert set(decisions.values()) == {4.5}

    def test_two_byzantine_relays_with_f2(self):
        decisions = run_broadcast(
            7, 2, sender_id=1, sender_value=8.0,
            faulty={5, 6},
            strategy_factory=lambda pid: RandomNoiseStrategy(low=-99, high=99, seed=pid),
        )
        assert set(decisions.values()) == {8.0}
