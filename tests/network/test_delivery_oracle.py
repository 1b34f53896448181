"""The asynchronous delivery loop against its brute-force oracle.

``AsynchronousRuntime.run`` reads the network's incrementally kept index of
non-empty channels and re-reads ``has_decided()`` only for the process that
just took a step.  The loop it replaced — scan every channel, poll every
honest process, once per delivery — lives on here as :func:`reference_run`,
and the two must be indistinguishable: same delivery sequence, same traffic
counters, same decisions, same observer tap, same error text.

Also here: the index as a property of arbitrary operation sequences
(:class:`TestBusyIndexMatchesScan`) and the cost of a delivery as a *count* of
Python calls that must not grow with ``n``
(:func:`test_calls_per_delivery_do_not_grow_with_the_network`).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.byzantine.adversary import ByzantineAsyncProcess, MessageMutator
from repro.exceptions import SchedulerError, TerminationError
from repro.network.async_runtime import AsynchronousRuntime, AsyncRunResult
from repro.network.message import Message
from repro.network.network import CompleteGraphNetwork
from repro.network.runtime_core import RuntimeCore
from repro.network.scheduler import LaggingScheduler, RandomScheduler, RoundRobinScheduler
from repro.processes.process import AsyncProcess


# ---------------------------------------------------------------------------
# The oracle: the delivery loop as it was before the index
# ---------------------------------------------------------------------------

def scan_busy_channels(network: CompleteGraphNetwork) -> list[tuple[int, int]]:
    """Every non-empty channel, found by looking at all of them."""
    return [key for key, channel in network._channels.items() if not channel.is_empty()]


def reference_run(processes, honest_ids, scheduler, max_deliveries, observer) -> AsyncRunResult:
    """``AsynchronousRuntime.run`` with a full scan and a full poll per delivery."""
    core = RuntimeCore(processes, honest_ids=honest_ids, kind="asynchronous", observer=observer)
    for process in core.processes.values():
        process.bind_transport(core.route)
    for process in core.processes.values():
        process.on_start()
    deliveries = 0
    while not all(core.processes[pid].has_decided() for pid in core.honest_ids):
        busy = scan_busy_channels(core.network)
        if not busy:
            raise TerminationError(
                "asynchronous run went quiescent with undecided honest processes "
                f"{core.undecided_honest()}"
            )
        if deliveries >= max_deliveries:
            raise TerminationError(
                f"asynchronous run exceeded the {max_deliveries}-delivery budget"
            )
        sender, recipient = scheduler.choose(busy)
        message = core.network.deliver_from(sender, recipient)
        deliveries += 1
        core.processes[recipient].on_message(message)
    return AsyncRunResult(
        deliveries=deliveries,
        decisions=core.collect_decisions(),
        traffic=core.traffic(),
        undelivered=sum(len(channel._queue) for channel in core.network._channels.values()),
    )


# ---------------------------------------------------------------------------
# A small round-based protocol and mutators that misbehave in every way the
# runtime has to account for
# ---------------------------------------------------------------------------

class GossipProcess(AsyncProcess):
    """Each round: PING everyone, ACK every PING, advance on ``need`` ACKs."""

    PROTOCOL = "gossip"

    def __init__(self, process_id, all_ids, need, rounds, log):
        super().__init__(process_id)
        self.all_ids = all_ids
        self.need = need
        self.rounds = rounds
        self.log = log
        self.round = 0
        self.acks: dict[int, set[int]] = {}

    def _ping(self):
        self.round += 1
        for other in self.all_ids:
            if other != self.process_id:
                self.send(Message(self.process_id, other, self.PROTOCOL, "PING", None, self.round))

    def on_start(self):
        self._ping()

    def on_message(self, message):
        self.log.append((message.sender, self.process_id, message.kind, message.round_index))
        if message.kind == "PING":
            self.send(Message(self.process_id, message.sender, self.PROTOCOL, "ACK", None,
                              message.round_index))
        elif message.kind == "ACK" and not self.has_decided():
            heard = self.acks.setdefault(message.round_index, set())
            heard.add(message.sender)
            if message.round_index == self.round and len(heard) >= self.need:
                if self.round < self.rounds:
                    self._ping()
                else:
                    self.round += 1  # past the last round: decided

    def has_decided(self):
        return self.round > self.rounds

    def decision(self):
        return tuple(sorted((r, tuple(sorted(s))) for r, s in self.acks.items()))


class PatternMutator(MessageMutator):
    """Cycle through ``pattern``, one action per outgoing message."""

    def __init__(self, pattern, all_ids):
        self.pattern = pattern
        self.all_ids = all_ids
        self.count = 0

    def mutate(self, message):
        action = self.pattern[self.count % len(self.pattern)]
        self.count += 1
        if action == "pass":
            return [message]
        if action == "drop":
            return []
        if action == "duplicate":
            return [message, message]
        if action == "unknown":
            return [message._replace(recipient=max(self.all_ids) + 7)]
        if action == "self":
            return [message._replace(recipient=message.sender)]
        assert action == "inject"
        other = self.all_ids[(self.all_ids.index(message.recipient) + 1) % len(self.all_ids)]
        noise = Message(message.sender, other, "gossip", "NOISE", None, message.round_index)
        return [message, noise]


ACTIONS = ("pass", "drop", "duplicate", "unknown", "self", "inject")


def build_cast(all_ids, faulty, patterns, need, rounds):
    log: list[tuple] = []
    processes = {}
    for pid in all_ids:
        inner = GossipProcess(pid, all_ids, need, rounds, log)
        processes[pid] = (
            ByzantineAsyncProcess(inner, PatternMutator(patterns[pid], all_ids))
            if pid in faulty
            else inner
        )
    return processes, log


def build_scheduler(kind, seed, slow):
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "lagging":
        return LaggingScheduler(slow_processes=slow, seed=seed)
    return RoundRobinScheduler()


def outcome_of(run):
    try:
        return run()
    except (TerminationError, SchedulerError) as error:
        return type(error), str(error)


@st.composite
def scenarios(draw):
    count = draw(st.integers(4, 8))
    all_ids = tuple(range(count))
    faulty = draw(st.sets(st.sampled_from(all_ids), max_size=2))
    patterns = {
        pid: draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=5)) for pid in faulty
    }
    honest = tuple(pid for pid in all_ids if pid not in faulty)
    # Wait on a subset of the honest ids, or (sometimes) on a faulty one too:
    # a ByzantineAsyncProcess always reports that it has decided.
    waited = draw(st.sets(st.sampled_from(all_ids), min_size=1))
    return {
        "all_ids": all_ids,
        "faulty": faulty,
        "patterns": patterns,
        "honest_ids": tuple(sorted(waited)) if draw(st.booleans()) else honest,
        "need": draw(st.integers(1, count - 1)),
        "rounds": draw(st.integers(1, 3)),
        "scheduler": draw(st.sampled_from(("random", "round_robin", "lagging"))),
        "seed": draw(st.integers(0, 2**16)),
        "slow": sorted(draw(st.sets(st.sampled_from(all_ids), max_size=2))),
        "max_deliveries": draw(st.sampled_from((5, 40, 10_000))),
    }


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_runtime_matches_the_reference_loop(scenario):
    def side(run_with):
        processes, log = build_cast(
            scenario["all_ids"], scenario["faulty"], scenario["patterns"],
            scenario["need"], scenario["rounds"],
        )
        tapped: list[tuple] = []
        scheduler = build_scheduler(scenario["scheduler"], scenario["seed"], scenario["slow"])

        def observer(message):
            tapped.append((message.sender, message.recipient, message.kind, message.round_index))

        outcome = outcome_of(lambda: run_with(processes, scheduler, observer))
        return outcome, log, tapped

    expected = side(lambda processes, scheduler, observer: reference_run(
        processes, scenario["honest_ids"], scheduler, scenario["max_deliveries"], observer
    ))
    actual = side(lambda processes, scheduler, observer: AsynchronousRuntime(
        processes, honest_ids=scenario["honest_ids"], scheduler=scheduler,
        max_deliveries=scenario["max_deliveries"], traffic_observer=observer,
    ).run())
    assert actual[1] == expected[1], "delivery sequences differ"
    assert actual[2] == expected[2], "observer taps differ"
    assert actual[0] == expected[0]


def test_scenarios_reach_every_ending():
    """The property above only bites if runs end in all three ways."""

    def ending(pattern, need, budget):
        processes, _ = build_cast((0, 1, 2, 3), {3}, {3: pattern}, need, 2)
        runtime = AsynchronousRuntime(
            processes, honest_ids=(0, 1, 2), scheduler=RandomScheduler(1), max_deliveries=budget
        )
        return outcome_of(runtime.run)

    assert isinstance(ending(["pass"], 2, 10_000), AsyncRunResult)
    assert ending(["drop"], 3, 10_000) == (
        TerminationError,
        "asynchronous run went quiescent with undecided honest processes [0, 1, 2]",
    )
    assert ending(["pass"], 2, 5) == (
        TerminationError, "asynchronous run exceeded the 5-delivery budget"
    )


# ---------------------------------------------------------------------------
# The index as a property of operation sequences
# ---------------------------------------------------------------------------

def check_index(network, model):
    scanned = scan_busy_channels(network)
    assert list(network.busy_channels()) == scanned
    assert scanned == [key for key in network._channels if model[key]]
    assert network.in_flight_count() == sum(len(queue) for queue in model.values())
    assert network.stats().messages_in_flight == network.in_flight_count()


@st.composite
def operation_sequences(draw):
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True))  # unsorted
    position = st.integers(0, len(ids) - 1)
    operation = st.one_of(
        st.tuples(st.sampled_from(("send", "channel_send")), position, position),
        st.tuples(st.sampled_from(("deliver_from", "channel_drain")), position, position),
        st.tuples(st.just("drain_all")),
    )
    return ids, draw(st.lists(operation, max_size=60))


class TestBusyIndexMatchesScan:
    @settings(max_examples=200, deadline=None)
    @given(operation_sequences())
    def test_after_every_operation(self, sequence):
        ids, operations = sequence
        network = CompleteGraphNetwork(ids)
        model = {key: [] for key in network._channels}
        assert list(model) == [(s, r) for s in ids for r in ids if s != r]
        live = network.busy_channels()
        sent = delivered = 0
        for serial, (name, *where) in enumerate(operations):
            places = [ids[index] for index in where]
            if name in ("send", "channel_send"):
                sender, recipient = places
                message = Message(sender, recipient, "p", "K", serial)
                if sender == recipient:
                    with pytest.raises(SchedulerError):
                        network.send(message)
                    continue
                if name == "send":
                    network.send(message)
                else:
                    network.channel(sender, recipient).send(message)
                model[(sender, recipient)].append(serial)
                sent += 1
            elif name == "deliver_from":
                sender, recipient = places
                if sender == recipient or not model[(sender, recipient)]:
                    with pytest.raises(SchedulerError):
                        network.deliver_from(sender, recipient)
                else:
                    message = network.deliver_from(sender, recipient)
                    assert message.payload == model[(sender, recipient)].pop(0)
                    delivered += 1
            elif name == "channel_drain":
                sender, recipient = places
                if sender == recipient:
                    continue
                drained = network.channel(sender, recipient).drain()
                assert [message.payload for message in drained] == model[(sender, recipient)]
                delivered += len(drained)
                model[(sender, recipient)].clear()
            else:
                inboxes = network.drain_all()
                assert list(inboxes) == ids
                for recipient, inbox in inboxes.items():
                    expected = [s for sender in ids if sender != recipient
                                for s in model[(sender, recipient)]]
                    assert [message.payload for message in inbox] == expected
                    delivered += len(inbox)
                for queue in model.values():
                    queue.clear()
            check_index(network, model)
            assert network.busy_channels() is live
            assert (network.messages_sent, network.messages_delivered) == (sent, delivered)

    def test_channel_rejects_a_message_for_another_route(self):
        network = CompleteGraphNetwork([0, 1, 2])
        with pytest.raises(SchedulerError):
            network.channel(0, 1).send(Message(0, 2, "p", "K", None))
        assert network.in_flight_count() == 0


# ---------------------------------------------------------------------------
# The cost of a delivery, as a count
# ---------------------------------------------------------------------------

class BroadcastAndAck(AsyncProcess):
    """PING everyone once; ACK every PING; decide on an ACK from everyone."""

    def __init__(self, process_id, all_ids):
        super().__init__(process_id)
        self.all_ids = all_ids
        self.acks = 0

    def on_start(self):
        for other in self.all_ids:
            if other != self.process_id:
                self.send(Message(self.process_id, other, "ack", "PING", None))

    def on_message(self, message):
        if message.kind == "PING":
            self.send(Message(self.process_id, message.sender, "ack", "ACK", None))
        else:
            self.acks += 1

    def has_decided(self):
        return self.acks == len(self.all_ids) - 1

    def decision(self):
        return self.acks


def python_calls_per_delivery(count: int) -> float:
    ids = tuple(range(count))
    runtime = AsynchronousRuntime(
        {pid: BroadcastAndAck(pid, ids) for pid in ids}, scheduler=RandomScheduler(4)
    )
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = runtime.run()
    finally:
        sys.setprofile(None)
    assert result.deliveries == 2 * count * (count - 1)
    return calls / result.deliveries


def test_calls_per_delivery_do_not_grow_with_the_network():
    # No timing: Python-level calls per delivery.  A per-delivery scan of the
    # channel table made this 12 calls at n=4 and 552 at n=24 for is_empty alone.
    small = python_calls_per_delivery(4)
    large = python_calls_per_delivery(24)
    assert large <= 1.25 * small, (small, large)
