"""Unit tests for repro.network.channel and repro.network.message."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulerError
from repro.network.channel import FifoChannel
from repro.network.message import Message


def make_message(sender=0, recipient=1, payload="x", round_index=None):
    return Message(
        sender=sender,
        recipient=recipient,
        protocol="test",
        kind="DATA",
        payload=payload,
        round_index=round_index,
    )


class TestMessage:
    def test_sequence_numbers_increase(self):
        first = make_message()
        second = make_message()
        assert second.sequence > first.sequence

    def test_describe_includes_route_and_round(self):
        message = make_message(round_index=3)
        text = message.describe()
        assert "0 -> 1" in text
        assert "r3" in text

    def test_messages_are_immutable(self):
        message = make_message()
        with pytest.raises(AttributeError):
            message.payload = "other"


class TestFifoChannel:
    def test_drain_returns_all_in_order(self):
        channel = FifoChannel(0, 1)
        for index in range(5):
            channel.send(make_message(payload=index))
        drained = channel.drain()
        assert [message.payload for message in drained] == [0, 1, 2, 3, 4]
        assert channel.drain() == []

    def test_wrong_route_rejected(self):
        channel = FifoChannel(0, 1)
        with pytest.raises(SchedulerError):
            channel.send(make_message(sender=2, recipient=1))

    def test_delivered_count(self):
        channel = FifoChannel(0, 1)
        channel.send(make_message())
        channel.send(make_message())
        channel.drain()
        assert channel.delivered_count == 2
