"""The asynchronous delivery loop against its brute-force oracle.

``AsynchronousRuntime.run`` reads the network's incrementally kept index of
non-empty channels and re-reads ``has_decided()`` only for the process that
just took a step.  The loop it replaced — scan every channel, poll every
honest process, once per delivery — lives on here as :func:`reference_run`,
and the two must be indistinguishable: same delivery sequence, same traffic
counters, same decisions, same observer tap, same error text.

The runtime pops the chosen channel and unmarks it itself;
:class:`IndexCheckedScheduler` compares its index with a scan before every
choice.  Also here: the index as a property of arbitrary operation sequences
(:class:`TestBusyIndexMatchesScan`) and the cost of a delivery as a *count* of
Python calls: one that must not grow with ``n``
(:func:`test_calls_per_delivery_do_not_grow_with_the_network`) and one
bounded on a fixed ``approx`` grid
(:func:`test_python_calls_per_approx_delivery`).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.byzantine.adversary import ByzantineAsyncProcess, MessageMutator
from repro.engine.campaign import Campaign
from repro.engine.factories import STRATEGY_NAMES
from repro.engine.trial import run_trial
from repro.exceptions import SchedulerError, TerminationError
from repro.network.async_runtime import AsynchronousRuntime, AsyncRunResult
from repro.network.message import Message
from repro.network.network import CompleteGraphNetwork
from repro.network.runtime_core import RuntimeCore
from repro.network.scheduler import (
    DeliveryScheduler,
    LaggingScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.processes.process import AsyncProcess


# ---------------------------------------------------------------------------
# The oracle: the delivery loop as it was before the index
# ---------------------------------------------------------------------------

def scan_busy_channels(network: CompleteGraphNetwork) -> list[tuple[int, int]]:
    """Every non-empty channel, found by looking at all of them."""
    return [key for key, channel in network._channels.items() if channel._queue]


def pop_oldest(network: CompleteGraphNetwork, sender: int, recipient: int) -> Message:
    """One delivery the way the oracle makes it: pop the channel, then fix the index.

    ``route`` inserts into the same index, so the oracle keeps it too: by
    value, not by the runtime's bisection.
    """
    channel = network.channel(sender, recipient)
    if not channel._queue:
        raise SchedulerError(f"channel {sender} -> {recipient} has no message in flight")
    message = channel._queue.popleft()
    if not channel._queue:
        network.busy_index().busy.remove((sender, recipient))
    channel.delivered_count += 1
    network.messages_delivered += 1
    return message


class IndexCheckedScheduler(DeliveryScheduler):
    """A scheduler that first checks the live index against a scan of the channels."""

    def __init__(self, inner: DeliveryScheduler) -> None:
        self.inner = inner
        self.network: CompleteGraphNetwork | None = None

    def choose(self, busy_channels):
        assert list(busy_channels) == scan_busy_channels(self.network)
        return self.inner.choose(busy_channels)


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
        message = pop_oldest(core.network, sender, recipient)
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
    def checked_run(processes, scheduler, observer):
        # The runtime pops and unmarks channels itself: check its index
        # against a scan before every choice.
        checked = IndexCheckedScheduler(scheduler)
        runtime = AsynchronousRuntime(
            processes, honest_ids=scenario["honest_ids"], scheduler=checked,
            max_deliveries=scenario["max_deliveries"], traffic_observer=observer,
        )
        checked.network = runtime.network
        return runtime.run()

    actual = side(checked_run)
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


def test_a_choice_without_a_message_is_refused():
    class Idle(AsyncProcess):
        def on_start(self):
            pass

        def on_message(self, message):
            pass

        def has_decided(self):
            return False

        def decision(self):
            return None

    class Pinger(Idle):
        def on_start(self):
            self.send(Message(0, 1, "p", "PING", None))

    class WrongChannel(DeliveryScheduler):
        def __init__(self, key):
            self.key = key

        def choose(self, busy_channels):
            return self.key

    def refusal(key):
        runtime = AsynchronousRuntime({0: Pinger(0), 1: Idle(1)}, scheduler=WrongChannel(key))
        return outcome_of(runtime.run)

    assert refusal((1, 0)) == (SchedulerError, "channel 1 -> 0 has no message in flight")
    assert refusal((0, 9)) == (SchedulerError, "no channel 0 -> 9 in this network")


# ---------------------------------------------------------------------------
# The index as a property of operation sequences
# ---------------------------------------------------------------------------

def check_index(network, model):
    scanned = scan_busy_channels(network)
    assert list(network.busy_index().busy) == scanned
    assert scanned == [key for key in network._channels if model[key]]
    assert network.in_flight_count() == sum(len(queue) for queue in model.values())
    assert network.stats().messages_in_flight == network.in_flight_count()


class Listener(AsyncProcess):
    """Never decides; keeps every message it is handed."""

    def __init__(self, process_id):
        super().__init__(process_id)
        self.heard = []

    def on_start(self):
        pass

    def on_message(self, message):
        self.heard.append(message.payload)

    def has_decided(self):
        return False

    def decision(self):
        return None


class ScriptedChoice(DeliveryScheduler):
    """Choose whatever channel the test names, busy or not."""

    key = None

    def choose(self, busy_channels):
        return self.key


@st.composite
def operation_sequences(draw):
    # A runtime builds its network over the sorted ids.
    ids = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True)))
    position = st.integers(0, len(ids) - 1)
    operation = st.one_of(
        st.tuples(st.sampled_from(("route", "channel_send")), position, position),
        st.tuples(st.sampled_from(("pop_at", "channel_drain")), position, position),
        st.tuples(st.just("pop"), st.integers(0, 40)),  # a loaded channel, if any
        st.tuples(st.just("drain_all")),
    )
    return ids, draw(st.lists(operation, max_size=60))


class TestBusyIndexMatchesScan:
    """The product's enqueue (``RuntimeCore.route``) and pop (the runtime's loop,
    one delivery per ``run()`` at ``max_deliveries=1``) against a model."""

    @settings(max_examples=200, deadline=None)
    @given(operation_sequences())
    def test_after_every_operation(self, sequence):
        ids, operations = sequence
        processes = {pid: Listener(pid) for pid in ids}
        scheduler = ScriptedChoice()
        runtime = AsynchronousRuntime(processes, scheduler=scheduler, max_deliveries=1)
        quiescent = "asynchronous run went quiescent with undecided honest processes"
        # The first run binds every process to route and finds nothing to deliver.
        assert outcome_of(runtime.run)[0] is TerminationError
        network = runtime.network
        model = {key: [] for key in network._channels}
        assert list(model) == [(s, r) for s in ids for r in ids if s != r]
        live = network.busy_index().busy
        sent = delivered = dropped = 0
        for serial, (name, *where) in enumerate(operations):
            if name == "pop":
                loaded = [key for key, queue in model.items() if queue] or [(ids[0], ids[1])]
                places = loaded[where[0] % len(loaded)]
            else:
                places = [ids[index] for index in where]
            if name == "route":
                sender, recipient = places
                processes[sender].send(Message(sender, recipient, "p", "K", serial))
                if sender == recipient:
                    dropped += 1
                else:
                    model[(sender, recipient)].append(serial)
                    sent += 1
            elif name == "channel_send":
                # A network's channel takes a message only through route.
                sender, recipient = places
                with pytest.raises(SchedulerError):
                    network.channel(sender, recipient).send(
                        Message(sender, recipient, "p", "K", serial)
                    )
            elif name in ("pop", "pop_at"):
                sender, recipient = scheduler.key = tuple(places)
                kind, text = outcome_of(runtime.run)
                if not any(model.values()):
                    assert (kind, text.startswith(quiescent)) == (TerminationError, True)
                elif sender == recipient:
                    assert (kind, text) == (
                        SchedulerError, f"no channel {sender} -> {sender} in this network"
                    )
                elif not model[(sender, recipient)]:
                    assert (kind, text) == (
                        SchedulerError, f"channel {sender} -> {recipient} has no message in flight"
                    )
                else:
                    # One delivery, then the budget (or quiescence) stops the run.
                    assert kind is TerminationError
                    assert processes[recipient].heard[-1] == model[(sender, recipient)].pop(0)
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
            assert network.busy_index().busy is live
            assert (network.messages_sent, network.messages_delivered) == (sent, delivered)
            assert runtime._core.messages_dropped == dropped

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


def python_calls_per_approx_delivery() -> float:
    """Python calls per delivery over a fixed ``approx`` grid, whole trials included.

    The grid is the ``async_object`` ledger block's shape: the random
    scheduler, d in {1, 2} and the four independent adversaries (33 108
    deliveries at ``base_seed=11``).
    """
    campaign = Campaign.from_grid(
        "calls",
        protocols=("approx",),
        adversaries=STRATEGY_NAMES,
        schedulers=("random",),
        dimensions=(1, 2),
        base_seed=11,
    )
    calls = deliveries = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for spec in campaign:
        sys.setprofile(profiler)
        try:
            result = run_trial(spec)
        finally:
            sys.setprofile(None)
        assert result.status == "ok", result.error
        deliveries += result.deliveries
    assert deliveries == 33_108  # same traffic, so the ratio compares like with like
    return calls / deliveries


def test_python_calls_per_approx_delivery():
    # No timing: one fan-out send per relay, one routing frame per message,
    # an inlined pop and one broadcast-handling frame per delivery.  The
    # per-recipient send, three-frame route and separate pop read 23.3.
    assert python_calls_per_approx_delivery() <= 14
