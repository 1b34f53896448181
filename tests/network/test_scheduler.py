"""Unit tests for repro.network.scheduler.

``TestDrawContract`` pins the seeded schedulers' draws to the installed
numpy: one bounded draw per ``choose``, equal to
``np.random.default_rng(seed).integers(0, k)``.  Beyond the choose-level unit
tests, the ``TestSchedulersDriveRuntime`` section
checks the properties the asynchronous model relies on against a real
:class:`~repro.network.async_runtime.AsynchronousRuntime`: eventual delivery
under the starving :class:`LaggingScheduler`, cross-run determinism of
:class:`RoundRobinScheduler`, and seed-stability of :class:`RandomScheduler`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import SchedulerError
from repro.network.async_runtime import AsynchronousRuntime
from repro.network.message import Message
from repro.network.scheduler import (
    DeliveryScheduler,
    LaggingScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    UniformDraws,
)
from repro.processes.process import AsyncProcess

CHANNELS = [(0, 1), (1, 2), (2, 0), (3, 1)]

#: Busy-list sizes: 1 (consumes nothing), small, and n(n-1) for n = 4..17.
CHANNEL_COUNTS = (1, 2, 3, 5, 7) + tuple(n * (n - 1) for n in range(4, 18))
#: Bounds near 2**32.  Lemire's method rejects a candidate whose low half is
#: below 2**32 mod k: about half of them at 2**31 + 1, a quarter at 3 * 2**30.
WIDE_BOUNDS = (2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32 - 1, 2**32)


def _interleaved_bounds(count: int, seed: int, wide: bool) -> list[int]:
    pool = CHANNEL_COUNTS + (WIDE_BOUNDS if wide else ())
    return random.Random(seed).choices(pool, k=count)


class TestDrawContract:
    @pytest.mark.parametrize("seed", [0, 12, 2**40 + 3])
    def test_random_scheduler_draws_equal_numpy(self, seed):
        # ``range(k)`` is a sequence whose element i is i: choose() returns the draw.
        reference = np.random.default_rng(seed)
        scheduler = RandomScheduler(seed)
        bounds = _interleaved_bounds(100_000, seed, wide=True)
        drawn = [scheduler.choose(range(bound)) for bound in bounds]
        expected = [int(reference.integers(0, bound)) for bound in bounds]
        assert drawn == expected

    def test_lagging_scheduler_draws_equal_numpy(self):
        # Channels (i, i + 1) with process 0 slow: only channel (0, 1) is
        # starved, so k of the k + 1 busy channels are candidates; alone, it
        # is the one candidate.
        seed = 12
        reference = np.random.default_rng(seed)
        scheduler = LaggingScheduler(slow_processes=[0], seed=seed)
        busy_of = {
            bound: [(i, i + 1) for i in range(bound + 1 if bound > 1 else 1)]
            for bound in CHANNEL_COUNTS
        }
        drawn, expected = [], []
        for bound in _interleaved_bounds(100_000, seed, wide=False):
            busy = busy_of[bound]
            drawn.append(scheduler.choose(busy))
            candidates = busy[1:] or busy
            expected.append(candidates[int(reference.integers(0, len(candidates)))])
        assert drawn == expected

    def test_helper_draws_equal_numpy_near_two_to_the_32(self):
        reference = np.random.default_rng(5)
        draws = UniformDraws(5)
        bounds = random.Random(5).choices(WIDE_BOUNDS + (1, 2, 42), k=100_000)
        assert [draws.below(bound) for bound in bounds] == [
            int(reference.integers(0, bound)) for bound in bounds
        ]

    @pytest.mark.parametrize("bound", [0, -1, 2**32 + 1, 2**64])
    def test_helper_refuses_an_uncovered_bound(self, bound):
        with pytest.raises(ValueError, match="outside 1..2\\*\\*32"):
            UniformDraws(0).below(bound)

    @pytest.mark.parametrize(
        "build", [RandomScheduler, lambda seed: LaggingScheduler([0], seed=seed)]
    )
    def test_seed_must_be_an_int(self, build):
        # Draws are buffered ahead, so a shared Generator would be advanced
        # by more than the draws taken from it.
        with pytest.raises(TypeError):
            build(np.random.default_rng(0))


class TestRandomScheduler:
    def test_picks_only_busy_channels(self):
        scheduler = RandomScheduler(0)
        for _ in range(50):
            assert scheduler.choose(CHANNELS) in CHANNELS

    def test_deterministic_for_fixed_seed(self):
        first = [RandomScheduler(7).choose(CHANNELS) for _ in range(10)]
        second = [RandomScheduler(7).choose(CHANNELS) for _ in range(10)]
        assert first == second

    def test_empty_raises(self):
        with pytest.raises(SchedulerError):
            RandomScheduler(0).choose([])


class TestLaggingScheduler:
    def test_starves_slow_process(self):
        scheduler = LaggingScheduler(slow_processes=[3], seed=0)
        for _ in range(50):
            choice = scheduler.choose(CHANNELS)
            assert 3 not in choice

    def test_slow_channel_served_when_only_option(self):
        scheduler = LaggingScheduler(slow_processes=[3], seed=0)
        assert scheduler.choose([(3, 1)]) == (3, 1)

    def test_slow_recipient_also_starved(self):
        scheduler = LaggingScheduler(slow_processes=[1], seed=0)
        for _ in range(50):
            choice = scheduler.choose([(0, 1), (2, 0)])
            assert choice == (2, 0)

    def test_empty_raises(self):
        with pytest.raises(SchedulerError):
            LaggingScheduler([0]).choose([])


class TestRoundRobinScheduler:
    def test_cycles_deterministically(self):
        scheduler = RoundRobinScheduler()
        choices = [scheduler.choose(CHANNELS) for _ in range(len(CHANNELS) * 2)]
        assert choices[: len(CHANNELS)] == sorted(CHANNELS)
        assert choices[len(CHANNELS):] == sorted(CHANNELS)

    def test_empty_raises(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler().choose([])


# ---------------------------------------------------------------------------
# Scheduler properties against a real asynchronous runtime
# ---------------------------------------------------------------------------

class RecordingScheduler(DeliveryScheduler):
    """Delegate to an inner scheduler, recording every delivery choice."""

    def __init__(self, inner: DeliveryScheduler) -> None:
        self.inner = inner
        self.choices: list[tuple[int, int]] = []

    def choose(self, busy_channels):
        choice = self.inner.choose(busy_channels)
        self.choices.append(choice)
        return choice


class BroadcastOnceProcess(AsyncProcess):
    """Broadcast one message on start; decide after hearing from everyone else."""

    def __init__(self, process_id: int, all_ids: tuple[int, ...]):
        super().__init__(process_id)
        self.all_ids = all_ids
        self.heard_from: list[int] = []

    def on_start(self) -> None:
        for other in self.all_ids:
            if other != self.process_id:
                self.send(Message(sender=self.process_id, recipient=other,
                                  protocol="bcast", kind="HELLO", payload=None))

    def on_message(self, message: Message) -> None:
        self.heard_from.append(message.sender)

    def has_decided(self) -> bool:
        return len(set(self.heard_from)) == len(self.all_ids) - 1

    def decision(self):
        return tuple(self.heard_from)


def _run_broadcast(scheduler: DeliveryScheduler, ids=(0, 1, 2, 3)):
    processes = {pid: BroadcastOnceProcess(pid, ids) for pid in ids}
    result = AsynchronousRuntime(processes, scheduler=scheduler).run()
    return result


class TestSchedulersDriveRuntime:
    def test_lagging_scheduler_still_delivers_eventually(self):
        # Every process must hear from every other one, including the starved
        # process 3: the run can only terminate if the lagging scheduler
        # eventually serves the slow channels too (eventual delivery).
        recorder = RecordingScheduler(LaggingScheduler(slow_processes=[3], seed=0))
        result = _run_broadcast(recorder)
        assert set(result.decisions) == {0, 1, 2, 3}
        assert result.traffic.messages_in_flight == 0

    def test_lagging_scheduler_serves_slow_channels_last(self):
        recorder = RecordingScheduler(LaggingScheduler(slow_processes=[3], seed=0))
        _run_broadcast(recorder)
        touches_slow = [3 in choice for choice in recorder.choices]
        # All fast-only deliveries strictly precede the first slow delivery.
        first_slow = touches_slow.index(True)
        assert all(touches_slow[first_slow:])

    def test_round_robin_is_deterministic_across_runs(self):
        first = RecordingScheduler(RoundRobinScheduler())
        second = RecordingScheduler(RoundRobinScheduler())
        result_one = _run_broadcast(first)
        result_two = _run_broadcast(second)
        assert first.choices == second.choices
        assert result_one.decisions == result_two.decisions
        assert result_one.deliveries == result_two.deliveries

    def test_random_scheduler_is_seed_stable_across_runs(self):
        first = RecordingScheduler(RandomScheduler(42))
        second = RecordingScheduler(RandomScheduler(42))
        result_one = _run_broadcast(first)
        result_two = _run_broadcast(second)
        assert first.choices == second.choices
        assert result_one.decisions == result_two.decisions

    def test_random_scheduler_seed_changes_the_schedule(self):
        draws_a = [RandomScheduler(1).choose(CHANNELS) for _ in range(20)]
        draws_b = [RandomScheduler(2).choose(CHANNELS) for _ in range(20)]
        assert draws_a != draws_b
