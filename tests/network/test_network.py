"""Unit tests for repro.network.network."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SchedulerError
from repro.network.message import Message
from repro.network.network import CompleteGraphNetwork


def make_message(sender, recipient, payload="x"):
    return Message(sender=sender, recipient=recipient, protocol="test", kind="DATA", payload=payload)


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
        network = CompleteGraphNetwork([0, 1])
        with pytest.raises(SchedulerError):
            network.send(make_message(0, 0))

    def test_busy_channels(self):
        network = CompleteGraphNetwork([0, 1, 2])
        network.send(make_message(0, 1))
        assert network.busy_channels() == [(0, 1)]

    def test_deliver_from_respects_fifo(self):
        network = CompleteGraphNetwork([0, 1])
        network.send(make_message(0, 1, "first"))
        network.send(make_message(0, 1, "second"))
        assert network.deliver_from(0, 1).payload == "first"
        assert network.deliver_from(0, 1).payload == "second"

    def test_drain_all_groups_by_recipient(self):
        network = CompleteGraphNetwork([0, 1, 2])
        network.send(make_message(0, 1))
        network.send(make_message(2, 1))
        network.send(make_message(1, 0))
        delivered = network.drain_all()
        assert len(delivered[1]) == 2
        assert len(delivered[0]) == 1
        assert len(delivered[2]) == 0

    def test_stats_counts(self):
        network = CompleteGraphNetwork([0, 1])
        network.send(make_message(0, 1))
        network.send(make_message(1, 0))
        network.deliver_from(0, 1)
        stats = network.stats()
        assert stats.messages_sent == 2
        assert stats.messages_delivered == 1
        assert stats.messages_in_flight == 1

    def test_broadcast_sends_all(self):
        network = CompleteGraphNetwork([0, 1, 2])
        network.broadcast([make_message(0, 1), make_message(0, 2)])
        assert network.messages_sent == 2
