"""Unit tests for Bracha reliable broadcast.

The engine is exercised both in-memory (directly wiring sends between
engines, with full control over delivery order) and through adversarial
scenarios: an equivocating broadcaster, a silent broadcaster, and Byzantine
echo traffic.  The properties checked are consistency (no two honest
processes deliver different values), validity (an honest broadcaster's value
is delivered by everyone), and totality (if one honest process delivers,
all do).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import reliable_broadcast
from repro.broadcast.reliable_broadcast import ReliableBroadcastEngine, _value_key
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
                send=self._make_send(pid),
            )

    def _make_send(self, sender: int):
        def send(recipient: int, kind: str, payload: dict) -> None:
            self.queue.append((sender, recipient, kind, dict(payload)))
        return send

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
