"""Unit tests for repro.network.network."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SchedulerError
from repro.network.async_runtime import AsynchronousRuntime
from repro.network.message import Message
from repro.network.network import CompleteGraphNetwork
from repro.network.runtime_core import RuntimeCore
from repro.network.scheduler import RandomScheduler
from repro.processes.process import AsyncProcess


def make_message(sender, recipient, payload="x"):
    return Message(sender=sender, recipient=recipient, protocol="test", kind="DATA", payload=payload)


class Quiet(AsyncProcess):
    def on_start(self):
        pass

    def on_message(self, message):
        pass

    def has_decided(self):
        return True

    def decision(self):
        return None


def make_core(ids):
    """A runtime core: ``route`` is the network's one way in."""
    return RuntimeCore({pid: Quiet(pid) for pid in ids})


class TestConstruction:
    def test_needs_two_processes(self):
        with pytest.raises(ConfigurationError):
            CompleteGraphNetwork([0])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            CompleteGraphNetwork([0, 0, 1])

    def test_channel_per_ordered_pair(self):
        network = CompleteGraphNetwork([0, 1, 2])
        assert network.channel(0, 1) is not network.channel(1, 0)
        with pytest.raises(SchedulerError):
            network.channel(0, 0)


class TestTraffic:
    def test_self_message_rejected(self):
        core = make_core([0, 1])
        assert core.route(make_message(0, 0)) is False
        assert (core.messages_dropped, core.network.in_flight_count()) == (1, 0)
        with pytest.raises(SchedulerError):
            core.route(make_message(5, 1))  # an unregistered sender

    def test_busy_channels(self):
        core = make_core([0, 1, 2])
        assert core.route(make_message(0, 1)) is True
        assert core.network.busy_index().busy == [(0, 1)]

    def test_runtime_delivers_a_channel_in_fifo_order(self):
        # The asynchronous runtime pops the chosen channel itself.
        class Sender(AsyncProcess):
            def on_start(self):
                for payload in ("first", "second", "third"):
                    self.send(make_message(0, 1, payload))

            def on_message(self, message):
                raise AssertionError("process 0 hears nothing")

            def has_decided(self):
                return True

            def decision(self):
                return None

        class Receiver(Sender):
            def __init__(self, process_id):
                super().__init__(process_id)
                self.heard = []

            def on_start(self):
                pass

            def on_message(self, message):
                self.heard.append(message.payload)

            def has_decided(self):
                return len(self.heard) == 3

        receiver = Receiver(1)
        runtime = AsynchronousRuntime({0: Sender(0), 1: receiver}, scheduler=RandomScheduler(3))
        assert runtime.run().deliveries == 3
        assert receiver.heard == ["first", "second", "third"]
        assert runtime.network.channel(0, 1).delivered_count == 3
        assert runtime.network.busy_index().busy == []

    def test_drain_all_groups_by_recipient(self):
        core = make_core([0, 1, 2])
        for sender, recipient in ((0, 1), (2, 1), (1, 0)):
            core.route(make_message(sender, recipient))
        delivered = core.network.drain_all()
        assert len(delivered[1]) == 2
        assert len(delivered[0]) == 1
        assert len(delivered[2]) == 0

    def test_stats_counts(self):
        core = make_core([0, 1])
        core.route(make_message(0, 1))
        core.route(make_message(1, 0))
        network = core.network
        network.drain_all()
        core.route(make_message(0, 1))
        stats = network.stats()
        assert stats.messages_sent == 3
        assert stats.messages_delivered == 2
        assert stats.messages_in_flight == 1

    def test_broadcast_sends_all(self):
        core = make_core([0, 1, 2])
        process = core.processes[0]
        process.bind_transport(core.route)
        process.send_to_all([0, 1, 2], lambda recipient: make_message(0, recipient))
        assert core.network.messages_sent == 2
        assert core.network.busy_index().busy == [(0, 1), (0, 2)]
