"""Unit tests for repro.network.channel and repro.network.message."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulerError
from repro.network.message import Message
from repro.network.runtime_core import RuntimeCore
from repro.processes.process import AsyncProcess


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


class Quiet(AsyncProcess):
    def on_start(self):
        pass

    def on_message(self, message):
        pass

    def has_decided(self):
        return True

    def decision(self):
        return None


def make_core(ids=(0, 1, 2)):
    """A runtime core: its ``route`` is the only way into a channel."""
    return RuntimeCore({pid: Quiet(pid) for pid in ids})


class TestFifoChannel:
    def test_drain_returns_all_in_order(self):
        core = make_core()
        for index in range(5):
            assert core.route(make_message(payload=index)) is True
        drained = core.network.drain_all()
        assert [message.payload for message in drained[1]] == [0, 1, 2, 3, 4]
        assert core.network.drain_all() == {0: [], 1: [], 2: []}

    def test_wrong_route_rejected(self):
        core = make_core()
        assert core.route(make_message(sender=0, recipient=9)) is False  # no such recipient
        assert core.network.in_flight_count() == 0
        with pytest.raises(SchedulerError):
            core.route(make_message(sender=9, recipient=1))  # no such sender

    def test_delivered_count(self):
        core = make_core()
        core.route(make_message())
        core.route(make_message())
        channel = core.network.channel(0, 1)
        assert channel.delivered_count == 0
        core.network.drain_all()
        assert channel.delivered_count == 2
        assert core.network.channel(1, 0).delivered_count == 0
