"""Tests for the persistent worker pool (:mod:`repro.engine.pool`).

The pool inherits the engine's central guarantee — every trial is a pure
function of its spec — and must preserve it across its own machinery: the
compact wire form, the delta-column transport, cost-model unit
cuts, demand-driven dispatch, and crash recovery all have to be invisible in
the emitted rows.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import (
    Campaign,
    CampaignSession,
    TrialSpec,
    get_pool,
    iter_jsonl,
    run_campaign,
    sample_specs,
    shutdown_pools,
    strip_timing,
)
from repro.engine import pool as pool_module
from repro.engine.pool import (
    MAX_UNIT_TRIALS,
    PROBE_TRIALS,
    CostModel,
    ExecutionUnit,
    _cut_tasks,
    decode_unit,
    encode_unit,
    execute_plan,
)
from repro.obs.registry import get_registry, snapshot_delta


def _pool_counter(family: str) -> float:
    """Current total of an unlabelled pool counter (0 before its first event)."""
    samples = get_registry().snapshot(collect=False)[family]["samples"]
    return samples.get((), 0.0)


def _mixed_specs(count: int = 12) -> list[TrialSpec]:
    """Specs that exercise int/float/None/params/bool wire-field variation."""
    return [
        TrialSpec(
            protocol="restricted_sync",
            workload="uniform_box",
            process_count=5,
            dimension=1,
            fault_bound=1,
            epsilon=0.2 + 0.01 * (index % 3),
            seed=index,
            workload_seed=index * 7 if index % 2 else None,
            max_rounds_override=2 if index % 3 == 0 else None,
            workload_params=(("low", -1.0), ("high", 1.0)) if index % 2 else (),
            record_history=index % 5 == 0,
            trial_index=index,
        )
        for index in range(count)
    ]


def _worker_pids(pool) -> list[int]:
    """PIDs of the pool's current worker seats."""
    return [slot.process.pid for slot in pool._slots if slot.process.pid is not None]


class TestWireForm:
    def test_round_trips_every_sampled_spec(self):
        for spec in sample_specs(20, seed=3):
            assert TrialSpec.from_wire(spec.to_wire()) == spec

    def test_wire_fields_cover_the_dataclass(self):
        spec = TrialSpec(protocol="exact", workload="uniform_box")
        assert set(TrialSpec.WIRE_FIELDS) == set(spec.to_dict())


class TestUnitCodec:
    @pytest.mark.parametrize("trials", [1, 16, MAX_UNIT_TRIALS])
    def test_round_trips_mixed_field_variation(self, trials):
        # int (seed), float (epsilon), None (workload_seed, max_rounds_override)
        # and "other" (workload_params, record_history) columns all vary.
        specs = _mixed_specs(trials)
        header = encode_unit("object", specs)
        assert header["trials"] == trials
        if trials > 1:
            assert header["int_fields"] and header["float_fields"] and header["others"]
        assert decode_unit(header) == specs

    def test_constant_fields_travel_once(self):
        specs = [
            TrialSpec(protocol="exact", workload="uniform_box", seed=index)
            for index in range(4)
        ]
        header = encode_unit("object", specs)
        # Only the varying field (seed) leaves the base tuple.
        assert header["int_fields"] == ["seed"]
        assert header["float_fields"] == []
        assert header["others"] == {}
        assert decode_unit(header) == specs


class TestCostModel:
    KEY = ("object", "exact", 5, 2, 1, "none")

    def test_unseen_shape_gets_probe_unit(self):
        model = CostModel()
        assert model.unit_trials(self.KEY, remaining=100, workers=2) == PROBE_TRIALS

    def test_observation_sizes_units_toward_target_seconds(self):
        from repro.engine.pool import TARGET_UNIT_SECONDS

        model = CostModel()
        model.observe(self.KEY, trials=10, seconds=0.1)  # 10 ms/trial
        size = model.unit_trials(self.KEY, remaining=10_000, workers=1)
        assert size == round(TARGET_UNIT_SECONDS / 0.01)

    def test_kind_default_covers_unseen_shapes_of_same_kind(self):
        model = CostModel()
        model.observe(self.KEY, trials=10, seconds=0.1)
        other = ("object", "approx", 7, 1, 2, "crash")
        assert model.per_trial_seconds(other) == pytest.approx(0.01)

    def test_the_hard_cap_is_read_when_a_unit_is_cut(self, monkeypatch):
        model = CostModel()
        model.observe(self.KEY, trials=1000, seconds=0.001)  # model would say thousands
        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 7)
        assert model.unit_trials(self.KEY, remaining=50, workers=1) == 7
        # ... and the remaining work still caps it.
        assert model.unit_trials(self.KEY, remaining=3, workers=1) == 3

    def test_tail_splits_across_workers(self):
        model = CostModel()
        model.observe(self.KEY, trials=1000, seconds=0.001)  # ~everything fits
        # 8 trials left on 4 workers: no unit may swallow more than the even split.
        assert model.unit_trials(self.KEY, remaining=8, workers=4) == 2

    def test_size_never_exceeds_hard_cap(self):
        model = CostModel()
        model.observe(self.KEY, trials=10**9, seconds=0.001)
        assert model.unit_trials(self.KEY, remaining=10**9, workers=1) == MAX_UNIT_TRIALS


class TestExecutePlan:
    SPECS = [
        TrialSpec(protocol="exact", workload="uniform_box", process_count=5,
                  dimension=1, fault_bound=1, seed=index, trial_index=index)
        for index in range(10)
    ]

    def test_a_lowered_cap_bounds_every_task(self, monkeypatch):
        units = [ExecutionUnit("object", tuple(range(len(self.SPECS))))]
        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 3)
        tasks = [positions for positions, _ in execute_plan(self.SPECS, units, workers=2)]
        assert max(len(positions) for positions in tasks) <= 3
        assert sorted(position for positions in tasks for position in positions) == list(
            range(len(self.SPECS))
        )

    @pytest.mark.parametrize(
        ("trials", "workers", "per_trial_seconds", "sizes"),
        [
            # An unseen shape: probe-sized units until an observation lands.
            (7, 2, None, [2, 2, 2, 1]),
            # ~15 ms exact trials on two workers (the pooled_exact_store shape).
            (200, 2, 0.015, [17] * 10 + [15, 8, 4, 2, 1]),
            # Cheap trials: the even split across workers caps every unit.
            (5000, 2, 0.0001, [2500, 1250, 625, 313, 156, 78, 39, 20, 10, 5, 2, 1, 1]),
            (100, 4, 0.01, [25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1]),
        ],
    )
    def test_product_task_sizes_are_pinned(self, trials, workers, per_trial_seconds, sizes):
        # No caller sets a unit size: these cuts are what every pooled
        # campaign ships, so a change here shows up in the pool's latency.
        specs = [
            TrialSpec(protocol="exact", workload="uniform_box", seed=index, trial_index=index)
            for index in range(trials)
        ]
        model = CostModel()
        if per_trial_seconds is not None:
            key = CostModel.shape_key("object", specs[0])
            model.observe(key, trials=10, seconds=10 * per_trial_seconds)
        units = [ExecutionUnit("object", tuple(range(trials)))]
        tasks = _cut_tasks(specs, units, model, workers)
        assert [len(task.positions) for task in tasks] == sizes


class TestPersistentPoolLifecycle:
    GRID = dict(
        protocols=("exact",),
        adversaries=("crash", "outside_hull", "random_noise"),
        dimensions=(1, 2),
        repeats=2,
        base_seed=31,
    )

    def test_byte_identical_rows_across_worker_counts(self, tmp_path):
        campaign = Campaign.from_grid("pool-invariance", **self.GRID)
        canonical = {}
        for workers in (1, 2, 4):
            path = tmp_path / f"w{workers}.jsonl"
            summary, _ = run_campaign(campaign, workers=workers, jsonl_path=path)
            assert summary.trials == len(campaign)
            canonical[workers] = strip_timing(iter_jsonl(path))
        assert canonical[1] == canonical[2] == canonical[4]

    def test_pool_is_reused_across_sessions(self):
        specs = TestExecutePlan.SPECS
        list(CampaignSession(specs, workers=2).rows())
        first_pids = set(_worker_pids(get_pool(2)))
        list(CampaignSession(specs, workers=2).rows())
        assert set(_worker_pids(get_pool(2))) == first_pids

    def test_worker_crash_mid_campaign_recovers(self, monkeypatch):
        specs = [
            TrialSpec(protocol="exact", workload="uniform_box", process_count=5,
                      dimension=2, fault_bound=1, seed=index, trial_index=index)
            for index in range(24)
        ]
        expected = strip_timing(
            result.to_row() for result in CampaignSession(specs, workers=1).rows()
        )
        # Two-trial units force many dispatches, so the killed seat is
        # certain to be involved again after the kill.
        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 2)
        stream = CampaignSession(specs, workers=2).rows()
        results = [next(stream)]
        recoveries_before = _pool_counter("repro_pool_crash_recoveries_total")
        os.kill(_worker_pids(get_pool(2))[0], signal.SIGKILL)
        results.extend(stream)
        assert strip_timing(result.to_row() for result in results) == expected
        assert _pool_counter("repro_pool_crash_recoveries_total") > recoveries_before

    def test_interrupted_run_leaves_pool_reusable(self, monkeypatch):
        specs = TestExecutePlan.SPECS
        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 2)
        stream = CampaignSession(specs, workers=2).rows()
        next(stream)
        stream.close()  # abandon mid-campaign (in-flight units are drained)
        monkeypatch.undo()
        results = list(CampaignSession(specs, workers=2).rows())
        assert len(results) == len(specs)
        assert [result.spec.trial_index for result in results] == list(range(len(specs)))

    def test_two_sessions_sharing_one_pool_take_turns(self, tmp_path, monkeypatch):
        # The server runs two sessions at once, and both workers=2 sessions
        # ride one pool: each must get its own replies, and neither may hang.
        grids = {
            name: Campaign.from_grid(
                name, protocols=("exact",), adversaries=("crash", "outside_hull"),
                dimensions=(1, 2), repeats=3, base_seed=seed,
            )
            for name, seed in (("left", 41), ("right", 43))
        }
        expected = {}
        for name, campaign in grids.items():
            run_campaign(campaign, workers=1, jsonl_path=tmp_path / f"{name}-1.jsonl")
            expected[name] = strip_timing(iter_jsonl(tmp_path / f"{name}-1.jsonl"))
        errors: list[BaseException] = []

        def run(name: str) -> None:
            try:
                run_campaign(
                    grids[name], workers=2, engine="object",
                    jsonl_path=tmp_path / f"{name}-2.jsonl",
                )
            except BaseException as error:  # noqa: BLE001 — surface in the main thread
                errors.append(error)

        monkeypatch.setattr(pool_module, "MAX_UNIT_TRIALS", 1)  # many turns each
        shutdown_pools()  # both sessions also race to create the pool
        threads = [threading.Thread(target=run, args=(name,), daemon=True) for name in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a session hung"
        assert not errors, errors
        for name in grids:
            assert strip_timing(iter_jsonl(tmp_path / f"{name}-2.jsonl")) == expected[name]

    def test_pooled_cli_campaign_exits_with_a_silent_stderr(self):
        # Units of >= 16 trials used to ship through shared-memory segments
        # that worker-side resource trackers reported as leaked at shutdown.
        repository = Path(__file__).resolve().parents[2]
        finished = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "--protocols", "exact",
             "--adversaries", "none", "crash", "--repeats", "600", "--workers", "2",
             "--engine", "object", "--seed", "4"],
            env={**os.environ, "PYTHONPATH": str(repository / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert finished.returncode == 0
        assert finished.stderr == ""


class TestPoolTelemetry:
    def test_worker_registry_deltas_merge_into_the_parent(self):
        campaign = Campaign.from_grid(
            "pool-telemetry",
            protocols=("exact",),
            adversaries=("crash",),
            dimensions=(1, 2),
            repeats=2,
            base_seed=13,
        )
        registry = get_registry()
        before = registry.snapshot()
        summary, _ = run_campaign(campaign, workers=2, engine="object")
        assert summary.errors == 0
        delta = snapshot_delta(registry.snapshot(), before)

        trials = sum(delta["repro_pool_trials_total"]["samples"].values())
        assert trials == summary.trials == len(campaign)
        units = sum(delta["repro_pool_units_total"]["samples"].values())
        seconds = delta["repro_pool_unit_seconds"]["samples"]
        assert sum(sample["count"] for sample in seconds.values()) == units

        # The exact protocol's LP solves only ever run inside the fork
        # workers for a workers=2 object-engine campaign, so kernel counters
        # moving in *this* process proves the piped worker deltas merged.
        kernel = delta.get("repro_kernel_events_total", {"samples": {}})
        assert sum(kernel["samples"].values()) > 0

    def test_probe_counts_survive_the_pool_shutting_down(self, monkeypatch):
        # A pool shut down before anything collects the registry must still
        # have published every probe it cut.
        probes = []
        estimate = CostModel.per_trial_seconds

        def counting(model, key):
            per = estimate(model, key)
            probes.append(per is None)
            return per

        monkeypatch.setattr(CostModel, "per_trial_seconds", counting)
        shutdown_pools()  # a fresh pool: a cost model that has seen nothing
        before = _pool_counter("repro_pool_cost_model_probes_total")
        campaign = Campaign.from_grid(
            "pool-probes", protocols=("exact",), adversaries=("crash",),
            dimensions=(1, 2), repeats=2, base_seed=17,
        )
        run_campaign(campaign, workers=2)
        shutdown_pools()
        assert sum(probes) > 0
        assert _pool_counter("repro_pool_cost_model_probes_total") - before == sum(probes)


class TestColumnarFanout:
    def test_single_columnar_group_splits_across_workers(self):
        # One same-shape restricted_sync group used to ship as one unit —
        # the whole campaign on one worker.  The pool must cut it.
        specs = [
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      adversary="random_noise", process_count=5, dimension=1,
                      fault_bound=1, epsilon=0.25, seed=index, trial_index=index)
            for index in range(8)
        ]
        from repro.engine import plan_specs

        units = plan_specs(specs, "auto")
        assert [unit.kind for unit in units] == ["columnar"]
        tasks = list(execute_plan(specs, units, workers=2))
        # Cut into sub-groups, none larger than the even split across workers.
        assert len(tasks) > 1
        assert max(len(positions) for positions, _ in tasks) <= len(specs) // 2
        rows = {}
        for positions, results in tasks:
            for position, result in zip(positions, results):
                rows[position] = result
        expected = strip_timing(
            result.to_row() for result in CampaignSession(specs, workers=1).rows()
        )
        assert strip_timing(rows[index].to_row() for index in range(8)) == expected
