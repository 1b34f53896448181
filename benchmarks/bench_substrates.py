"""Substrate micro-benchmarks (ablation support).

Not tied to a single figure of the paper; these time the primitives whose
costs dominate the algorithm-level experiments, so regressions in the
geometry or broadcast layers are visible independently of the end-to-end
numbers:

* convex-hull membership and distance LPs,
* the ``Gamma`` LP at increasing ``n``,
* one EIG Byzantine broadcast (``f = 1`` and ``f = 2``),
* one Bracha reliable-broadcast wave,
* one witness-exchange round.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.broadcast.reliable_broadcast import ReliableBroadcastEngine
from repro.broadcast.witness import WitnessExchange
from repro.consensus.eig import EigBroadcastProcess
from repro.core.safe_area import safe_area_point
from repro.geometry.convex_hull import contains_point, distance_to_hull
from repro.geometry.multisets import PointMultiset
from repro.network.sync_runtime import SynchronousRuntime

RNG = np.random.default_rng(123)
CLOUD_2D = RNG.uniform(-1.0, 1.0, size=(12, 2))
CLOUD_5D = RNG.uniform(-1.0, 1.0, size=(12, 5))


def test_hull_membership_2d(benchmark):
    target = CLOUD_2D.mean(axis=0)
    assert benchmark(lambda: contains_point(CLOUD_2D, target))


def test_hull_membership_5d(benchmark):
    target = CLOUD_5D.mean(axis=0)
    assert benchmark(lambda: contains_point(CLOUD_5D, target))


def test_hull_distance_2d(benchmark):
    target = CLOUD_2D.max(axis=0) + 1.0
    distance = benchmark(lambda: distance_to_hull(CLOUD_2D, target))
    assert distance > 0.5


def test_gamma_lp_n5_f1(benchmark):
    cloud = PointMultiset(RNG.uniform(0.0, 1.0, size=(5, 2)))
    assert benchmark(lambda: safe_area_point(cloud, 1)) is not None


def test_gamma_lp_n9_f2(benchmark):
    cloud = PointMultiset(RNG.uniform(0.0, 1.0, size=(9, 2)))
    result = benchmark.pedantic(lambda: safe_area_point(cloud, 2), rounds=3, iterations=1)
    assert result is not None


def _run_eig(process_count: int, fault_bound: int) -> None:
    process_ids = tuple(range(process_count))
    processes = {
        pid: EigBroadcastProcess(
            process_id=pid, sender_id=0, process_ids=process_ids,
            fault_bound=fault_bound, value=1.25 if pid == 0 else None,
        )
        for pid in process_ids
    }
    result = SynchronousRuntime(processes).run()
    assert set(result.decisions.values()) == {1.25}


def test_eig_broadcast_n4_f1(benchmark):
    benchmark(lambda: _run_eig(4, 1))


def test_eig_broadcast_n7_f2(benchmark):
    benchmark.pedantic(lambda: _run_eig(7, 2), rounds=3, iterations=1)


def _run_reliable_broadcast_wave(process_count: int, fault_bound: int) -> None:
    queue: deque = deque()
    delivered = {pid: {} for pid in range(process_count)}
    engines = {}
    for pid in range(process_count):
        engines[pid] = ReliableBroadcastEngine(
            owner_id=pid,
            process_ids=tuple(range(process_count)),
            fault_bound=fault_bound,
            send=lambda recipient, kind, payload, _pid=pid: queue.append((_pid, recipient, kind, payload)),
            deliver=lambda broadcast_id, value, _pid=pid: delivered[_pid].__setitem__(broadcast_id, value),
        )
    for pid in range(process_count):
        engines[pid].broadcast("wave", (float(pid),))
    while queue:
        sender, recipient, kind, payload = queue.popleft()
        engines[recipient].handle(sender, kind, payload)
    assert all(len(deliveries) == process_count for deliveries in delivered.values())


def test_reliable_broadcast_wave_n4(benchmark):
    benchmark(lambda: _run_reliable_broadcast_wave(4, 1))


def test_reliable_broadcast_wave_n7(benchmark):
    benchmark(lambda: _run_reliable_broadcast_wave(7, 2))


def _run_witness_round(process_count: int, fault_bound: int) -> None:
    queue: deque = deque()
    completed = {}
    exchanges = {}
    for pid in range(process_count):
        exchanges[pid] = WitnessExchange(
            owner_id=pid,
            process_ids=tuple(range(process_count)),
            fault_bound=fault_bound,
            dimension=2,
            send=lambda recipient, kind, payload, _pid=pid: queue.append((_pid, recipient, kind, payload)),
            on_round_complete=lambda result, _pid=pid: completed.__setitem__(_pid, result),
        )
    states = {pid: np.asarray([float(pid), 1.0]) for pid in range(process_count)}
    for pid in range(process_count):
        exchanges[pid].start_round(1, states[pid])
    while queue:
        sender, recipient, kind, payload = queue.popleft()
        exchanges[recipient].handle(sender, kind, payload)
    assert len(completed) == process_count


def test_witness_exchange_round_n5(benchmark):
    benchmark(lambda: _run_witness_round(5, 1))


def test_witness_exchange_round_n7(benchmark):
    benchmark(lambda: _run_witness_round(7, 2))
