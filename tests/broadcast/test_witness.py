"""Unit tests for the AAD witness exchange (Properties 1-3 of B_i[t])."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.broadcast.witness import WitnessExchange


class RecordingExchange(WitnessExchange):
    """The exchange, recording every round result its calls return."""

    def __init__(self, completed: dict, **kwargs):
        super().__init__(**kwargs)
        self.completed = completed

    def start_round(self, round_index, state_vector):
        return self._record(super().start_round(round_index, state_vector))

    def handle(self, sender, kind, payload):
        """Dispatch one message as ``ApproxBVCProcess.on_message`` does."""
        if kind == self.KIND_REPORT:
            return self._record(self.on_report(sender, payload))
        return self._record(self.on_delivery(self.reliable_broadcast.handle(sender, kind, payload)))

    def _record(self, result):
        if result is not None:
            assert result.round_index not in self.completed, "round completed twice"
            self.completed[result.round_index] = result
        return result


class ExchangeHarness:
    """Wire witness exchanges together with an explicit FIFO queue per channel pair."""

    def __init__(self, process_count: int, fault_bound: int, byzantine: set[int] | None = None):
        self.process_ids = tuple(range(process_count))
        self.fault_bound = fault_bound
        self.byzantine = byzantine or set()
        self.queue: deque[tuple[int, int, str, dict]] = deque()
        self.completed: dict[int, dict[int, object]] = {pid: {} for pid in self.process_ids}
        self.exchanges = {}
        for pid in self.process_ids:
            self.exchanges[pid] = RecordingExchange(
                self.completed[pid],
                owner_id=pid,
                process_ids=self.process_ids,
                fault_bound=fault_bound,
                dimension=2,
                send_all=self._make_send_all(pid),
            )

    def _make_send_all(self, sender: int):
        def send_all(kind: str, payload: dict) -> None:
            for recipient in self.process_ids:
                if recipient != sender:
                    self.queue.append((sender, recipient, kind, dict(payload)))
        return send_all

    def start_round(self, round_index: int, states: dict[int, np.ndarray], skip: set[int] | None = None):
        skip = skip or set()
        for pid in self.process_ids:
            if pid in skip:
                continue
            self.exchanges[pid].start_round(round_index, states[pid])

    def run(self, drop_from: set[int] | None = None) -> None:
        drop_from = drop_from or set()
        while self.queue:
            sender, recipient, kind, payload = self.queue.popleft()
            if sender in drop_from:
                continue
            self.exchanges[recipient].handle(sender, kind, payload)

    def honest_results(self, round_index: int):
        return {
            pid: self.completed[pid].get(round_index)
            for pid in self.process_ids
            if pid not in self.byzantine
        }


STATES = {pid: np.asarray([float(pid), float(pid) * 2]) for pid in range(5)}


class TestFaultFreeExchange:
    def test_all_processes_complete_with_quorum(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        results = harness.honest_results(1)
        assert all(result is not None for result in results.values())
        for result in results.values():
            assert len(result.tuples) >= 4  # n - f

    def test_property2_at_most_one_tuple_per_process(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        for result in harness.honest_results(1).values():
            assert len(result.tuples) == len(set(result.tuples))
            assert len(result.arrival_order) == len(set(result.arrival_order))

    def test_property3_honest_tuples_carry_true_state(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        for result in harness.honest_results(1).values():
            for pid, vector in result.tuples.items():
                assert np.allclose(vector, STATES[pid])

    def test_property1_pairwise_overlap_at_least_quorum(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        results = list(harness.honest_results(1).values())
        quorum = 4
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                common = set(results[i].tuples) & set(results[j].tuples)
                assert len(common) >= quorum

    def test_witness_reports_have_quorum_size(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        for result in harness.honest_results(1).values():
            assert len(result.witness_reports) >= 4
            for members in result.witness_reports.values():
                assert len(members) == 4

    def test_multiple_rounds_are_independent(self):
        harness = ExchangeHarness(5, 1)
        harness.start_round(1, STATES)
        harness.run()
        new_states = {pid: STATES[pid] + 10.0 for pid in STATES}
        harness.start_round(2, new_states)
        harness.run()
        for result in harness.honest_results(2).values():
            for pid, vector in result.tuples.items():
                assert np.allclose(vector, new_states[pid])


class TestFaultyExchange:
    def test_crashed_process_does_not_block_completion(self):
        harness = ExchangeHarness(5, 1, byzantine={4})
        harness.start_round(1, STATES, skip={4})
        harness.run(drop_from={4})
        results = harness.honest_results(1)
        assert all(result is not None for result in results.values())
        for result in results.values():
            assert 4 not in result.tuples

    def test_bogus_report_from_byzantine_is_not_counted_until_verifiable(self):
        harness = ExchangeHarness(5, 1, byzantine={4})
        harness.start_round(1, STATES, skip={4})
        # The Byzantine process claims a report listing itself (whose broadcast
        # nobody will ever deliver) — it must never become a witness.
        for recipient in range(4):
            harness.queue.append((4, recipient, WitnessExchange.KIND_REPORT,
                                  {"round": 1, "members": [4, 0, 1, 2]}))
        harness.run(drop_from=set())
        results = harness.honest_results(1)
        for result in results.values():
            assert result is not None
            assert 4 not in result.witness_reports

    def test_malformed_reports_ignored(self):
        harness = ExchangeHarness(5, 1)
        exchange = harness.exchanges[0]
        exchange.handle(1, WitnessExchange.KIND_REPORT, {"round": "x", "members": [0, 1, 2, 3]})
        exchange.handle(1, WitnessExchange.KIND_REPORT, {"round": 1, "members": [0, 0, 1, 2]})
        exchange.handle(1, WitnessExchange.KIND_REPORT, {"round": 1, "members": [0, 1]})
        exchange.handle(1, WitnessExchange.KIND_REPORT, {"round": 1, "members": [0, 1, 2, 99]})
        exchange.handle(1, WitnessExchange.KIND_REPORT, "garbage")
        # None of these should have registered a report, or opened a round.
        assert harness.completed[0] == {}
        assert not exchange._rounds

    def test_property1_with_byzantine_equivocation_in_broadcast(self):
        harness = ExchangeHarness(5, 1, byzantine={4})
        harness.start_round(1, STATES, skip={4})
        # The Byzantine process reliably-broadcasts two different INITs for the
        # same round to different peers; Bracha consistency means at most one
        # version can ever appear in any honest B set.
        from repro.broadcast.reliable_broadcast import ReliableBroadcastEngine
        for recipient, value in [(0, (9.0, 9.0)), (1, (8.0, 8.0)), (2, (9.0, 9.0)), (3, (9.0, 9.0))]:
            harness.queue.append((4, recipient, ReliableBroadcastEngine.KIND_INIT,
                                  {"broadcaster": 4, "tag": ("state", 1), "value": value}))
        harness.run()
        observed_versions = set()
        for result in harness.honest_results(1).values():
            assert result is not None
            if 4 in result.tuples:
                observed_versions.add(tuple(result.tuples[4]))
        assert len(observed_versions) <= 1

    def test_quorum_property(self):
        harness = ExchangeHarness(5, 1)
        assert harness.exchanges[0].quorum == 4

    def test_one_round_state_per_round(self, monkeypatch):
        from repro.broadcast import witness

        built = []

        class CountedRound(witness._RoundState):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(witness, "_RoundState", CountedRound)
        harness = ExchangeHarness(5, 1)
        for round_index in (1, 2):
            harness.start_round(round_index, STATES)
            harness.run()
        assert all(result is not None for result in harness.honest_results(2).values())
        assert len(built) == 2 * 5
        assert all(sorted(exchange._rounds) == [1, 2] for exchange in harness.exchanges.values())

    @pytest.mark.parametrize(
        "value", [(9.0,), (9.0, 9.0, 9.0), ((9.0, 9.0),), (9.0, float("nan")), "xy"]
    )
    def test_wrong_shape_value_is_a_missing_tuple(self, value):
        from repro.broadcast.reliable_broadcast import ReliableBroadcastEngine

        harness = ExchangeHarness(5, 1, byzantine={4})
        harness.start_round(1, STATES, skip={4})
        for recipient in range(4):
            harness.queue.append((4, recipient, ReliableBroadcastEngine.KIND_INIT,
                                  {"broadcaster": 4, "tag": ("state", 1), "value": value}))
        harness.run()
        for result in harness.honest_results(1).values():
            assert result is not None
            assert set(result.tuples) == {0, 1, 2, 3}
            assert all(4 not in members for members in result.witness_reports.values())

    def test_unhashable_broadcast_id_reaches_no_one(self):
        harness = ExchangeHarness(5, 1, byzantine={4})
        exchange = harness.exchanges[0]
        for kind in WitnessExchange.KINDS:
            exchange.handle(4, kind, {"broadcaster": [4], "tag": ("state", 1), "value": (1.0, 1.0)})
            exchange.handle(4, kind, {"broadcaster": 4, "tag": ["state", 1], "value": (1.0, 1.0)})
        assert not harness.queue and not exchange._rounds
