"""Unit tests for the synchronous and asynchronous runtimes.

The tests drive tiny purpose-built processes (an echo/flood protocol and a
counter protocol) rather than the BVC algorithms, so that runtime semantics —
round structure, FIFO order, termination, liveness failure detection — are
checked in isolation.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, TerminationError
from repro.network.async_runtime import AsynchronousRuntime
from repro.network.message import Message
from repro.network.scheduler import RoundRobinScheduler
from repro.network.sync_runtime import SynchronousRuntime
from repro.obs.registry import get_registry, snapshot_delta
from repro.processes.process import AsyncProcess, SyncProcess


class GossipSyncProcess(SyncProcess):
    """Each round, send the set of ids heard of; decide once all ids are known."""

    def __init__(self, process_id: int, all_ids: tuple[int, ...]):
        super().__init__(process_id)
        self.all_ids = all_ids
        self.known = {process_id}
        self._decided = False

    def outgoing(self, round_index: int) -> list[Message]:
        return [
            Message(
                sender=self.process_id,
                recipient=other,
                protocol="gossip",
                kind="KNOWN",
                payload=frozenset(self.known),
                round_index=round_index,
            )
            for other in self.all_ids
            if other != self.process_id
        ]

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        for message in inbox:
            self.known |= set(message.payload)
        if self.known == set(self.all_ids):
            self._decided = True

    def has_decided(self) -> bool:
        return self._decided

    def decision(self):
        return frozenset(self.known)


class SilentSyncProcess(SyncProcess):
    """Never sends, never decides (used to exercise the round budget)."""

    def outgoing(self, round_index: int) -> list[Message]:
        return []

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        pass

    def has_decided(self) -> bool:
        return False

    def decision(self):
        return None


class PingPongAsyncProcess(AsyncProcess):
    """Process 0 sends PING; every process echoes until a hop budget is spent."""

    def __init__(self, process_id: int, all_ids: tuple[int, ...], hops: int = 3):
        super().__init__(process_id)
        self.all_ids = all_ids
        self.hops = hops
        self.received: list[int] = []
        self._decided = False

    def on_start(self) -> None:
        if self.process_id == 0:
            for other in self.all_ids:
                if other != self.process_id:
                    self.send(Message(
                        sender=self.process_id, recipient=other, protocol="pingpong",
                        kind="PING", payload=self.hops,
                    ))

    def on_message(self, message: Message) -> None:
        remaining = int(message.payload)
        self.received.append(message.sender)
        if remaining > 0:
            for other in self.all_ids:
                if other != self.process_id:
                    self.send(Message(
                        sender=self.process_id, recipient=other, protocol="pingpong",
                        kind="PING", payload=remaining - 1,
                    ))
        if len(self.received) >= 2:
            self._decided = True

    def has_decided(self) -> bool:
        return self._decided

    def decision(self):
        return len(self.received)


class NeverDecidesAsyncProcess(AsyncProcess):
    """Sends nothing and never decides (used to exercise quiescence detection)."""

    def on_start(self) -> None:
        pass

    def on_message(self, message: Message) -> None:
        pass

    def has_decided(self) -> bool:
        return False

    def decision(self):
        return None


class TestSynchronousRuntime:
    def test_gossip_completes_in_one_round_for_complete_graph(self):
        ids = (0, 1, 2, 3)
        processes = {pid: GossipSyncProcess(pid, ids) for pid in ids}
        result = SynchronousRuntime(processes).run()
        assert result.rounds_executed == 1
        assert all(decision == frozenset(ids) for decision in result.decisions.values())

    def test_messages_counted(self):
        ids = (0, 1, 2)
        processes = {pid: GossipSyncProcess(pid, ids) for pid in ids}
        result = SynchronousRuntime(processes).run()
        assert result.traffic.messages_sent == 6

    def test_round_budget_enforced(self):
        processes = {0: SilentSyncProcess(0), 1: SilentSyncProcess(1)}
        with pytest.raises(TerminationError):
            SynchronousRuntime(processes, max_rounds=3).run()

    def test_honest_subset_only_needs_to_decide(self):
        # The silent third process never decides, but only (0, 1) are honest,
        # so the run completes as soon as they have gossiped with each other.
        processes = {
            0: GossipSyncProcess(0, (0, 1)),
            1: GossipSyncProcess(1, (0, 1)),
            2: SilentSyncProcess(2),
        }
        result = SynchronousRuntime(processes, honest_ids=(0, 1)).run()
        assert set(result.decisions) == {0, 1}

    def test_mismatched_process_id_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronousRuntime({0: GossipSyncProcess(1, (0, 1)), 1: GossipSyncProcess(1, (0, 1))})

    def test_unknown_honest_id_rejected(self):
        ids = (0, 1)
        processes = {pid: GossipSyncProcess(pid, ids) for pid in ids}
        with pytest.raises(ConfigurationError):
            SynchronousRuntime(processes, honest_ids=(0, 5))

    def test_needs_at_least_two_processes(self):
        with pytest.raises(ConfigurationError):
            SynchronousRuntime({0: SilentSyncProcess(0)})

    def test_undeliverable_messages_counted_as_dropped(self):
        class MisaddressingProcess(GossipSyncProcess):
            """Gossips normally but also sends to itself and to a ghost id."""

            def outgoing(self, round_index: int) -> list[Message]:
                messages = super().outgoing(round_index)
                for bad_recipient in (self.process_id, 99):
                    messages.append(Message(
                        sender=self.process_id, recipient=bad_recipient,
                        protocol="gossip", kind="KNOWN",
                        payload=frozenset(self.known), round_index=round_index,
                    ))
                return messages

        ids = (0, 1, 2)
        processes = {pid: MisaddressingProcess(pid, ids) for pid in ids}
        result = SynchronousRuntime(processes).run()
        # One round: 6 real messages delivered, 6 undeliverable ones dropped.
        assert result.rounds_executed == 1
        assert result.traffic.messages_sent == 6
        assert result.traffic.messages_dropped == 6
        assert all(decision == frozenset(ids) for decision in result.decisions.values())

    def test_clean_run_reports_zero_dropped(self):
        ids = (0, 1, 2)
        processes = {pid: GossipSyncProcess(pid, ids) for pid in ids}
        result = SynchronousRuntime(processes).run()
        assert result.traffic.messages_dropped == 0


class TestAsynchronousRuntime:
    def test_ping_pong_terminates(self):
        ids = (0, 1, 2)
        processes = {pid: PingPongAsyncProcess(pid, ids) for pid in ids}
        result = AsynchronousRuntime(processes, scheduler=RoundRobinScheduler()).run()
        assert result.deliveries > 0
        assert all(count >= 2 for count in result.decisions.values())

    def test_quiescence_with_undecided_process_raises(self):
        processes = {0: NeverDecidesAsyncProcess(0), 1: NeverDecidesAsyncProcess(1)}
        with pytest.raises(TerminationError):
            AsynchronousRuntime(processes).run()

    def test_delivery_budget_enforced(self):
        class Chatter(AsyncProcess):
            def on_start(self):
                self.send(Message(sender=self.process_id, recipient=1 - self.process_id,
                                  protocol="chat", kind="X", payload=None))

            def on_message(self, message):
                self.send(Message(sender=self.process_id, recipient=message.sender,
                                  protocol="chat", kind="X", payload=None))

            def has_decided(self):
                return False

            def decision(self):
                return None

        processes = {0: Chatter(0), 1: Chatter(1)}
        with pytest.raises(TerminationError):
            AsynchronousRuntime(processes, max_deliveries=50).run()

    def test_honest_subset_only(self):
        ids = (0, 1, 2)
        processes = {
            0: PingPongAsyncProcess(0, ids),
            1: PingPongAsyncProcess(1, ids),
            2: NeverDecidesAsyncProcess(2),
        }
        result = AsynchronousRuntime(processes, honest_ids=(0, 1), scheduler=RoundRobinScheduler()).run()
        assert set(result.decisions) == {0, 1}

    def test_mismatched_process_id_rejected(self):
        with pytest.raises(ConfigurationError):
            AsynchronousRuntime({0: NeverDecidesAsyncProcess(3), 1: NeverDecidesAsyncProcess(1)})

    def test_undeliverable_messages_counted_as_dropped(self):
        class MisaddressingAsyncProcess(PingPongAsyncProcess):
            """Ping-pongs normally but also misaddresses one message on start."""

            def on_start(self) -> None:
                super().on_start()
                self.send(Message(sender=self.process_id, recipient=99,
                                  protocol="pingpong", kind="PING", payload=0))
                self.send(Message(sender=self.process_id, recipient=self.process_id,
                                  protocol="pingpong", kind="PING", payload=0))

        ids = (0, 1, 2)
        processes = {pid: MisaddressingAsyncProcess(pid, ids) for pid in ids}
        result = AsynchronousRuntime(processes, scheduler=RoundRobinScheduler()).run()
        # Two misaddressed messages per process were refused by the runtime.
        assert result.traffic.messages_dropped == 2 * len(ids)
        assert all(count >= 2 for count in result.decisions.values())


class TestRuntimeTelemetry:
    """Both runtimes add their traffic to the process registry once per run()."""

    @staticmethod
    def _moved(run) -> dict[tuple[str, tuple[str, ...]], float]:
        """What ``run()`` added to the runtime families, by (family, label values)."""
        before = get_registry().snapshot(collect=False)
        run()
        delta = snapshot_delta(get_registry().snapshot(collect=False), before)
        return {
            (name, labels): value
            for name, entry in delta.items()
            if name.startswith("repro_runtime_")
            for labels, value in entry["samples"].items()
        }

    def test_async_run_publishes_deliveries_sent_and_dropped(self):
        class Misaddressing(PingPongAsyncProcess):
            def on_start(self) -> None:
                super().on_start()
                self.send(Message(self.process_id, 99, "pingpong", "PING", 0))

        ids = (0, 1, 2)
        runtime = AsynchronousRuntime(
            {pid: Misaddressing(pid, ids) for pid in ids}, scheduler=RoundRobinScheduler()
        )
        results = []
        moved = self._moved(lambda: results.append(runtime.run()))
        (result,) = results
        assert moved == {
            ("repro_runtime_deliveries_total", ("asynchronous",)): result.deliveries,
            ("repro_runtime_messages_total", ("asynchronous", "sent")):
                result.traffic.messages_sent,
            ("repro_runtime_messages_total", ("asynchronous", "dropped")): 3,
        }
        # A second run() of the same runtime starts decided: nothing new to add.
        assert self._moved(runtime.run) == {}

    def test_sync_run_publishes_under_its_own_model(self):
        ids = (0, 1, 2)
        processes = {pid: GossipSyncProcess(pid, ids) for pid in ids}
        moved = self._moved(SynchronousRuntime(processes).run)
        assert moved == {
            ("repro_runtime_deliveries_total", ("synchronous",)): 6,
            ("repro_runtime_messages_total", ("synchronous", "sent")): 6,
        }

    def test_a_run_that_fails_still_publishes(self):
        class Chatter(NeverDecidesAsyncProcess):
            def on_start(self):
                self.send(Message(self.process_id, 1 - self.process_id, "chat", "X", None))

            def on_message(self, message):
                self.send(Message(self.process_id, message.sender, "chat", "X", None))

        runtime = AsynchronousRuntime({0: Chatter(0), 1: Chatter(1)}, max_deliveries=50)

        def run():
            with pytest.raises(TerminationError):
                runtime.run()

        # The message-heavy runs are exactly the ones that exhaust a budget.
        assert self._moved(run) == {
            ("repro_runtime_deliveries_total", ("asynchronous",)): 50,
            ("repro_runtime_messages_total", ("asynchronous", "sent")): 52,
        }
