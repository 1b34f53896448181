"""Unit tests for Bracha reliable broadcast.

The engine is exercised both in-memory (directly wiring sends between
engines, with full control over delivery order) and through adversarial
scenarios: an equivocating broadcaster, a silent broadcaster, and Byzantine
echo traffic.  The properties checked are consistency (no two honest
processes deliver different values), validity (an honest broadcaster's value
is delivered by everyone), and totality (if one honest process delivers,
all do).

The engine's finished-instance exit and the witness exchange's
completed-round exits are checked against literal references kept here
(:class:`LiteralBracha`, :class:`LiteralExchange`): under random delivery
orders and an equivocating process, both must send the same messages and
return the same deliveries and round results.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import reliable_broadcast
from repro.broadcast.reliable_broadcast import ReliableBroadcastEngine, _value_key
from repro.broadcast.witness import WitnessExchange
from repro.exceptions import ConfigurationError


class RecordingEngine(ReliableBroadcastEngine):
    """The engine, recording every delivery its calls return."""

    def __init__(self, delivered: dict, **kwargs):
        super().__init__(**kwargs)
        self.delivered = delivered

    def broadcast(self, tag, value):
        return self._record(super().broadcast(tag, value))

    def handle(self, sender, kind, payload):
        return self._record(super().handle(sender, kind, payload))

    def _record(self, delivery):
        if delivery is not None:
            broadcast_id, value = delivery
            assert broadcast_id not in self.delivered, "duplicate delivery"
            self.delivered[broadcast_id] = value
        return delivery


class BroadcastHarness:
    """Wire several engines together with an explicit FIFO message queue."""

    def __init__(self, process_count: int, fault_bound: int, byzantine: set[int] | None = None):
        self.process_ids = tuple(range(process_count))
        self.byzantine = byzantine or set()
        self.queue: deque[tuple[int, int, str, dict]] = deque()
        self.delivered: dict[int, dict] = {pid: {} for pid in self.process_ids}
        self.engines = {}
        for pid in self.process_ids:
            self.engines[pid] = RecordingEngine(
                self.delivered[pid],
                owner_id=pid,
                process_ids=self.process_ids,
                fault_bound=fault_bound,
                send_all=self._make_send_all(pid),
            )

    def _make_send_all(self, sender: int):
        def send_all(kind: str, payload: dict) -> None:
            for recipient in self.process_ids:
                if recipient != sender:
                    self.queue.append((sender, recipient, kind, dict(payload)))
        return send_all

    def run(self, drop_from: set[int] | None = None) -> None:
        """Deliver all queued messages (FIFO), optionally dropping a sender's traffic."""
        drop_from = drop_from or set()
        while self.queue:
            sender, recipient, kind, payload = self.queue.popleft()
            if sender in drop_from:
                continue
            self.engines[recipient].handle(sender, kind, payload)

    def honest_deliveries(self, broadcast_id):
        return {
            pid: self.delivered[pid].get(broadcast_id)
            for pid in self.process_ids
            if pid not in self.byzantine
        }


class TestConstruction:
    def test_requires_n_greater_than_3f(self):
        with pytest.raises(ConfigurationError):
            ReliableBroadcastEngine(0, (0, 1, 2), 1, lambda *a: None)

    def test_owner_must_be_member(self):
        with pytest.raises(ConfigurationError):
            ReliableBroadcastEngine(9, (0, 1, 2, 3), 1, lambda *a: None)


class TestHonestBroadcast:
    def test_everyone_delivers_the_value(self):
        harness = BroadcastHarness(4, 1)
        harness.engines[0].broadcast("tag", (1.0, 2.0))
        harness.run()
        deliveries = harness.honest_deliveries((0, "tag"))
        assert all(value == (1.0, 2.0) for value in deliveries.values())

    def test_multiple_concurrent_broadcasts(self):
        harness = BroadcastHarness(4, 1)
        for pid in range(4):
            harness.engines[pid].broadcast("round1", (float(pid),))
        harness.run()
        for broadcaster in range(4):
            deliveries = harness.honest_deliveries((broadcaster, "round1"))
            assert all(value == (float(broadcaster),) for value in deliveries.values())

    def test_distinct_tags_are_independent(self):
        harness = BroadcastHarness(4, 1)
        harness.engines[1].broadcast("a", (1.0,))
        harness.engines[1].broadcast("b", (2.0,))
        harness.run()
        assert all(v == (1.0,) for v in harness.honest_deliveries((1, "a")).values())
        assert all(v == (2.0,) for v in harness.honest_deliveries((1, "b")).values())

    def test_no_delivery_without_broadcast(self):
        harness = BroadcastHarness(4, 1)
        harness.run()
        assert all(not delivered for delivered in harness.delivered.values())


class TestByzantineBroadcaster:
    def test_equivocation_never_yields_conflicting_deliveries(self):
        harness = BroadcastHarness(4, 1, byzantine={0})
        # Byzantine process 0 sends INIT with different values to different peers.
        for recipient, value in [(1, (1.0,)), (2, (2.0,)), (3, (1.0,))]:
            harness.queue.append((0, recipient, ReliableBroadcastEngine.KIND_INIT,
                                  {"broadcaster": 0, "tag": "t", "value": value}))
        harness.run()
        delivered_values = {
            value for value in harness.honest_deliveries((0, "t")).values() if value is not None
        }
        # Consistency: at most one distinct value may ever be delivered.
        assert len(delivered_values) <= 1

    def test_totality_when_one_honest_process_delivers(self):
        harness = BroadcastHarness(4, 1, byzantine={0})
        # A consistent-looking broadcast from the Byzantine process: everyone
        # who hears it echoes, so if anyone delivers, all must.
        for recipient in (1, 2, 3):
            harness.queue.append((0, recipient, ReliableBroadcastEngine.KIND_INIT,
                                  {"broadcaster": 0, "tag": "t", "value": (9.0,)}))
        harness.run()
        deliveries = harness.honest_deliveries((0, "t"))
        delivered_count = sum(1 for value in deliveries.values() if value is not None)
        assert delivered_count in (0, len(deliveries))
        assert delivered_count == len(deliveries)

    def test_forged_init_from_non_broadcaster_is_ignored(self):
        harness = BroadcastHarness(4, 1, byzantine={3})
        # Process 3 forges an INIT claiming to originate from process 1.
        harness.queue.append((3, 2, ReliableBroadcastEngine.KIND_INIT,
                              {"broadcaster": 1, "tag": "t", "value": (7.0,)}))
        harness.run()
        assert harness.honest_deliveries((1, "t")) == {0: None, 1: None, 2: None}

    def test_byzantine_echo_minority_cannot_force_delivery(self):
        harness = BroadcastHarness(4, 1, byzantine={3})
        # Only Byzantine ECHO/READY traffic for a value nobody broadcast.
        for kind in (ReliableBroadcastEngine.KIND_ECHO, ReliableBroadcastEngine.KIND_READY):
            for recipient in (0, 1, 2):
                harness.queue.append((3, recipient, kind,
                                      {"broadcaster": 3, "tag": "t", "value": (5.0,)}))
        harness.run()
        assert all(value is None for value in harness.honest_deliveries((3, "t")).values())

    def test_malformed_payloads_ignored(self):
        harness = BroadcastHarness(4, 1)
        harness.engines[0].handle(1, ReliableBroadcastEngine.KIND_ECHO, "not-a-dict")
        harness.engines[0].handle(1, ReliableBroadcastEngine.KIND_ECHO, {"broadcaster": 99, "tag": "t", "value": 1})
        harness.engines[0].handle(1, ReliableBroadcastEngine.KIND_ECHO, {"broadcaster": 1, "tag": ["unhashable"], "value": 1})
        assert harness.delivered[0] == {}

    @pytest.mark.parametrize("kind", ReliableBroadcastEngine.KINDS)
    @pytest.mark.parametrize("junk", [["list"], {"a": "dict"}, {1, 2}, np.zeros(2)])
    def test_unhashable_broadcaster_or_tag_is_ignored_not_raised(self, kind, junk):
        harness = BroadcastHarness(4, 1, byzantine={1})
        engine = harness.engines[0]
        engine.handle(1, kind, {"broadcaster": junk, "tag": "t", "value": (1.0,)})
        engine.handle(1, kind, {"broadcaster": 1, "tag": junk, "value": (1.0,)})
        engine.handle(1, kind, {"broadcaster": junk, "tag": junk, "value": junk})
        assert not engine._instances and not harness.queue and harness.delivered[0] == {}


class TestInstanceState:
    def test_one_state_object_per_broadcast(self, monkeypatch):
        built = []

        class CountedState(reliable_broadcast._InstanceState):
            def __init__(self, broadcast_id):
                built.append(broadcast_id)
                super().__init__(broadcast_id)

        monkeypatch.setattr(reliable_broadcast, "_InstanceState", CountedState)
        harness = BroadcastHarness(4, 1)
        for tag in ("a", "b"):
            for pid in harness.process_ids:
                harness.engines[pid].broadcast(tag, (float(pid),))
        harness.run()
        # 8 broadcasts, each known to all 4 engines; every one delivered everywhere.
        assert len(built) == 8 * 4 and len(set(built)) == 8
        assert all(len(engine._instances) == 8 for engine in harness.engines.values())
        assert all(len(delivered) == 8 for delivered in harness.delivered.values())


def _walked_value_key(value):
    """The key as it was computed before: always by walking the value."""
    if isinstance(value, (list, tuple)):
        return tuple(_walked_value_key(item) for item in value)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


_leaves = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, None, "x", float("nan")]),
    st.integers(-3, 3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),  # unhashable leaf
    st.sets(st.integers(0, 3), max_size=2),
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4).flatmap(
        lambda items: st.sampled_from([items, tuple(items)])
    ),
    max_leaves=12,
)


class TestValueKey:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_same_key_as_the_full_walk(self, value):
        key, walked = _value_key(value), _walked_value_key(value)
        # Same leaf objects in the same places: equal even where a leaf is
        # NaN (wrapped, so a bare NaN value is compared by identity as well),
        # and interchangeable as a dict key.
        assert (key,) == (walked,)
        assert hash(key) == hash(walked)
        assert {walked: "tally"}[key] == "tally"

    def test_vector_forms_share_a_key(self):
        assert _value_key([1.0, -0.0]) == _value_key((1.0, 0.0)) == (1.0, 0.0)
        assert _value_key(((1.0, [2.0]), 3)) == ((1.0, (2.0,)), 3)

    def test_a_hashable_tuple_is_its_own_key(self):
        vector = (0.25, float("nan"))
        assert _value_key(vector) is vector


# ---------------------------------------------------------------------------
# The engine against a literal Bracha
# ---------------------------------------------------------------------------

INIT, ECHO, READY = ReliableBroadcastEngine.KINDS


class LiteralBracha:
    """Bracha's echo/ready protocol as the module docstring states it.

    The oracle for :class:`ReliableBroadcastEngine`: no finished-instance
    exit and no inlining; every ECHO and READY is tallied, under the value
    key computed by walking (:func:`_walked_value_key`).
    """

    def __init__(self, owner_id, process_ids, fault_bound, send_all):
        self.owner_id = owner_id
        self.process_ids = tuple(process_ids)
        self.fault_bound = fault_bound
        self.send_all = send_all
        self.echoed, self.readied, self.delivered = set(), set(), set()
        self.echoes: dict = {}  # (broadcast id, value key) -> senders
        self.readies: dict = {}
        self.first_value: dict = {}  # (broadcast id, value key) -> first object seen

    def broadcast(self, tag, value):
        self.send_all(INIT, {"broadcaster": self.owner_id, "tag": tag, "value": value})
        return self._init((self.owner_id, tag), value)

    def handle(self, sender, kind, payload):
        if kind not in ReliableBroadcastEngine.KINDS or not isinstance(payload, dict):
            return None
        broadcast_id = (payload.get("broadcaster"), payload.get("tag"))
        try:
            hash(broadcast_id)
        except TypeError:
            return None
        if broadcast_id[0] not in self.process_ids:
            return None
        value = payload.get("value")
        if kind == INIT:
            return self._init(broadcast_id, value) if sender == broadcast_id[0] else None
        key = (broadcast_id, _walked_value_key(value))
        if kind == ECHO:
            return self._echo(broadcast_id, key, sender, value)
        return self._ready(broadcast_id, key, sender, value)

    def _relay(self, broadcast_id, kind, value):
        broadcaster, tag = broadcast_id
        self.send_all(kind, {"broadcaster": broadcaster, "tag": tag, "value": value})

    def _init(self, broadcast_id, value):
        if broadcast_id in self.echoed:
            return None
        self.echoed.add(broadcast_id)
        self._relay(broadcast_id, ECHO, value)
        key = (broadcast_id, _walked_value_key(value))
        return self._echo(broadcast_id, key, self.owner_id, value)

    def _echo(self, broadcast_id, key, sender, value):
        self.first_value.setdefault(key, value)
        senders = self.echoes.setdefault(key, set())
        if sender in senders:
            return None
        senders.add(sender)
        n, f = len(self.process_ids), self.fault_bound
        if broadcast_id not in self.readied and len(senders) > (n + f) / 2:
            self.readied.add(broadcast_id)
            self._relay(broadcast_id, READY, value)
            return self._ready(broadcast_id, key, self.owner_id, value)
        return None

    def _ready(self, broadcast_id, key, sender, value):
        self.first_value.setdefault(key, value)
        senders = self.readies.setdefault(key, set())
        if sender in senders:
            return None
        senders.add(sender)
        f = self.fault_bound
        if broadcast_id not in self.readied and len(senders) >= f + 1:
            self.readied.add(broadcast_id)
            self._relay(broadcast_id, READY, value)
            delivery = self._ready(broadcast_id, key, self.owner_id, value)
            if delivery is not None:
                return delivery
        if broadcast_id not in self.delivered and len(senders) >= 2 * f + 1:
            self.delivered.add(broadcast_id)
            return broadcast_id, self.first_value[key]
        return None


#: Values an equivocating broadcaster picks from: two forms of one vector
#: (one key, different objects) and a second vector.
EQUIVOCATION_POOL = ([1.0, 2.0], (1.0, 2.0), (3.0, 4.0))


def run_broadcasts(engine_class, count, byzantine_messages, order_seed):
    """Every honest process broadcasts; process 0 equivocates; deliver in a seeded random order.

    Returns the send log, every call's return value, and (for the product
    engine) how many messages reached a finished instance.
    """
    ids = tuple(range(count))
    fault_bound = (count - 1) // 3
    sent: list[tuple] = []
    pending: list[tuple] = []
    returned: list[tuple] = []

    def sender_of(pid):
        def send_all(kind, payload):
            sent.append((pid, kind, repr(payload)))
            pending.extend((pid, recipient, kind, payload) for recipient in ids if recipient != pid)
        return send_all

    engines = {pid: engine_class(pid, ids, fault_bound, sender_of(pid)) for pid in ids[1:]}
    for pid, engine in engines.items():
        returned.append((pid, repr(engine.broadcast("t", (float(pid), 0.0)))))
    for recipient, kind, choice in byzantine_messages:
        value = EQUIVOCATION_POOL[choice]
        pending.append((0, recipient, kind, {"broadcaster": 0, "tag": "t", "value": value}))
    late = 0
    order = random.Random(order_seed)
    while pending:
        sender, recipient, kind, payload = pending.pop(order.randrange(len(pending)))
        if recipient == 0:
            continue  # the Byzantine process runs no engine
        engine = engines[recipient]
        state = getattr(engine, "_instances", {}).get((payload["broadcaster"], payload["tag"]))
        late += state is not None and state.delivered and state.echoed
        returned.append((recipient, repr(engine.handle(sender, kind, payload))))
    return sent, returned, late


@st.composite
def equivocation_scenarios(draw):
    count = draw(st.integers(4, 7))
    honest = st.integers(1, count - 1)
    byzantine_messages = draw(st.lists(
        st.tuples(honest, st.sampled_from(ReliableBroadcastEngine.KINDS), st.integers(0, 2)),
        max_size=3 * count,
    ))
    return count, byzantine_messages, draw(st.integers(0, 2**32))


class TestAgainstLiteralBracha:
    @settings(max_examples=120, deadline=None)
    @given(equivocation_scenarios())
    def test_same_sends_and_deliveries(self, scenario):
        expected_sent, expected_returned, _ = run_broadcasts(LiteralBracha, *scenario)
        sent, returned, _ = run_broadcasts(ReliableBroadcastEngine, *scenario)
        assert sent == expected_sent
        assert returned == expected_returned

    def test_finished_instances_are_reached(self):
        # The property above only tests the finished-instance exit if
        # messages reach finished instances, which they do in any order.
        byzantine = [(recipient, INIT, recipient % 3) for recipient in (1, 2, 3, 4)]
        _, returned, late = run_broadcasts(ReliableBroadcastEngine, 5, byzantine, 7)
        assert late > 0
        assert sum(value != "None" for _, value in returned) == 4 * 4  # 4 honest broadcasts each


# ---------------------------------------------------------------------------
# The completed-round exits against a literal exchange
# ---------------------------------------------------------------------------


class LiteralExchange:
    """The witness exchange with no completed-round exit, over a literal Bracha.

    Every delivered tuple and every report is recorded, whether or not its
    round has already completed; one ``handle`` takes every message.
    """

    def __init__(self, owner_id, process_ids, fault_bound, dimension, send_all):
        self.owner_id = owner_id
        self.process_ids = tuple(process_ids)
        self.quorum = len(self.process_ids) - fault_bound
        self.dimension = dimension
        self.send_all = send_all
        self.rounds: dict[int, dict] = {}
        self.awaited = None
        self.broadcast = LiteralBracha(owner_id, self.process_ids, fault_bound, send_all)

    def _round(self, round_index):
        return self.rounds.setdefault(round_index, {
            "delivered": {}, "order": [], "reports": {}, "witnesses": set(),
            "report_sent": False, "completed": False,
        })

    def start_round(self, round_index, state_vector):
        self.awaited = round_index
        value = tuple(float(coordinate) for coordinate in state_vector)
        completed = self._on_delivery(self.broadcast.broadcast(("state", round_index), value))
        advanced = self._advance(round_index)
        return completed if completed is not None else advanced

    def handle(self, sender, kind, payload):
        if kind == WitnessExchange.KIND_REPORT:
            return self._on_report(sender, payload)
        return self._on_delivery(self.broadcast.handle(sender, kind, payload))

    def _on_delivery(self, delivery):
        if delivery is None:
            return None
        (broadcaster, tag), value = delivery
        if not isinstance(tag, tuple) or len(tag) != 2 or tag[0] != "state":
            return None
        if not isinstance(tag[1], int):
            return None
        state = self._round(tag[1])
        if broadcaster in state["delivered"]:
            return None
        try:
            vector = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            return None
        if vector.shape != (self.dimension,) or not np.all(np.isfinite(vector)):
            return None
        state["delivered"][broadcaster] = vector
        state["order"].append(broadcaster)
        return self._advance(tag[1])

    def _advance(self, round_index):
        state = self._round(round_index)
        completed = None
        if not state["report_sent"] and len(state["delivered"]) >= self.quorum:
            state["report_sent"] = True
            members = tuple(state["order"][: self.quorum])
            self.send_all(WitnessExchange.KIND_REPORT, {"round": round_index, "members": list(members)})
            state["reports"][self.owner_id] = members
            self._witnesses(state)
            completed = self._complete(round_index)
        self._witnesses(state)
        return completed if completed is not None else self._complete(round_index)

    def _on_report(self, sender, payload):
        if not isinstance(payload, dict):
            return None
        round_index, members = payload.get("round"), payload.get("members")
        if not isinstance(round_index, int) or not isinstance(members, (list, tuple)):
            return None
        if any(not isinstance(m, (int, np.integer)) or int(m) not in self.process_ids for m in members):
            return None
        member_ids = [int(m) for m in members]
        if len(member_ids) != self.quorum or len(set(member_ids)) != len(member_ids):
            return None
        state = self._round(round_index)
        if sender in state["reports"]:
            return None
        state["reports"][sender] = tuple(member_ids)
        self._witnesses(state)
        return self._complete(round_index)

    def _witnesses(self, state):
        for reporter, members in state["reports"].items():
            if all(member in state["delivered"] for member in members):
                state["witnesses"].add(reporter)

    def _complete(self, round_index):
        state = self._round(round_index)
        if self.awaited != round_index or state["completed"]:
            return None
        if len(state["witnesses"]) < self.quorum or len(state["delivered"]) < self.quorum:
            return None
        state["completed"] = True
        self.awaited = None
        return (round_index, {pid: v.tolist() for pid, v in state["delivered"].items()},
                tuple(state["order"]),
                {r: m for r, m in state["reports"].items() if r in state["witnesses"]})


def _summary(result):
    if result is None or isinstance(result, tuple):
        return repr(result)
    return repr((result.round_index, {pid: v.tolist() for pid, v in result.tuples.items()},
                 result.arrival_order, result.witness_reports))


def run_rounds(literal, count, rounds, byzantine_messages, order_seed):
    """Honest processes run ``rounds`` rounds; the last process is Byzantine.

    A process starts round ``r + 1`` with the mean of its round-``r`` tuples
    as soon as round ``r`` completes.  Returns the send log, every call's
    return value, and (for the product exchange) how many tuples and reports
    reached an already completed round.
    """
    ids = tuple(range(count))
    byzantine = count - 1
    sent: list[tuple] = []
    pending: list[tuple] = []
    returned: list[tuple] = []

    def sender_of(pid):
        def send_all(kind, payload):
            sent.append((pid, kind, repr(payload)))
            pending.extend((pid, recipient, kind, payload) for recipient in ids if recipient != pid)
        return send_all

    exchanges = {
        pid: (LiteralExchange if literal else WitnessExchange)(pid, ids, 1, 2, sender_of(pid))
        for pid in ids[:-1]
    }

    def finish(pid, result):
        returned.append((pid, _summary(result)))
        while result is not None:
            round_index, tuples = (result[0], result[1]) if literal else (
                result.round_index, {p: v.tolist() for p, v in result.tuples.items()})
            if round_index >= rounds:
                return
            mean = np.mean(np.asarray(list(tuples.values())), axis=0)
            result = exchanges[pid].start_round(round_index + 1, mean)
            returned.append((pid, _summary(result)))

    for pid in exchanges:
        finish(pid, exchanges[pid].start_round(1, np.asarray([float(pid), -float(pid)])))
    for round_index, recipient, kind, choice in byzantine_messages:
        if kind == WitnessExchange.KIND_REPORT:
            payload = {"round": round_index, "members": list(EQUIVOCATED_MEMBERS[choice])}
        else:
            payload = {"broadcaster": byzantine, "tag": ("state", round_index),
                       "value": EQUIVOCATED_VALUES[choice]}
        pending.append((byzantine, recipient, kind, payload))
    late = 0
    order = random.Random(order_seed)
    while pending:
        sender, recipient, kind, payload = pending.pop(order.randrange(len(pending)))
        if recipient == byzantine:
            continue
        exchange = exchanges[recipient]
        if literal:
            result = exchange.handle(sender, kind, payload)
        elif kind == WitnessExchange.KIND_REPORT:
            state = exchange._rounds.get(payload["round"])
            late += state is not None and state.completed
            result = exchange.on_report(sender, payload)
        else:
            delivery = exchange.reliable_broadcast.handle(sender, kind, payload)
            if delivery is not None:
                state = exchange._rounds.get(delivery[0][1][1])
                late += state is not None and state.completed
            result = exchange.on_delivery(delivery)
        finish(recipient, result)
    return sent, returned, late


EQUIVOCATED_VALUES = ((9.0, 9.0), (8.0, 8.0), (1.0, float("nan")), (7.0,))
EQUIVOCATED_MEMBERS = ((0, 1, 2, 3), (4, 0, 1, 2), (1, 2, 3, 0), (0, 0, 1, 2))


@st.composite
def exchange_scenarios(draw):
    count = draw(st.integers(5, 7))
    rounds = draw(st.integers(1, 3))
    byzantine_messages = draw(st.lists(
        st.tuples(
            st.integers(1, rounds),
            st.integers(0, count - 2),
            st.sampled_from(WitnessExchange.KINDS),
            st.integers(0, 3),
        ),
        max_size=3 * count,
    ))
    return count, rounds, byzantine_messages, draw(st.integers(0, 2**32))


class TestAgainstLiteralExchange:
    @settings(max_examples=80, deadline=None)
    @given(exchange_scenarios())
    def test_same_sends_and_results(self, scenario):
        expected_sent, expected_returned, _ = run_rounds(True, *scenario)
        sent, returned, _ = run_rounds(False, *scenario)
        assert sent == expected_sent
        assert returned == expected_returned

    def test_completed_rounds_are_reached(self):
        # With a fifth (Byzantine but consistent) tuple per round and a
        # shuffled order, tuples and reports arrive after the round they
        # belong to has completed: the exits above are exercised.
        consistent = [(r, k, WitnessExchange.KINDS[0], 0) for r in (1, 2) for k in range(4)]
        _, returned, late = run_rounds(False, 5, 2, consistent, 7)
        assert late > 0
        assert sum(value != "None" for _, value in returned) == 4 * 2
