"""Engine equivalence: the columnar substrate vs the object runtime.

The vectorized engine's contract is strict: for every spec it accepts it must
emit a :class:`~repro.engine.spec.TrialResult` row that is byte-identical
(after :func:`~repro.engine.spec.strip_timing`) to the object runtime's —
decisions, verdicts, round counts, message counters, and error rows alike —
in the same order, at any worker count.  These tests assert that contract on
a deterministic grid, on a randomized sample of eligible fuzz specs, and on
the failure paths, plus the planner mechanics around it.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    COORDINATED_STRATEGY_NAMES,
    Campaign,
    CampaignSession,
    FallbackReason,
    TrialSpec,
    minimum_processes_for,
    plan_specs,
    run_campaign,
    run_specs_vectorized,
    run_trial,
    sample_specs,
    spec_is_vectorizable,
    strip_timing,
    vectorization_fallback,
    vectorized_group_key,
)
from repro.exceptions import ConfigurationError, GeometryError
from repro.geometry.kernel import GammaKernel, default_kernel


def _rows(results) -> list[str]:
    return strip_timing([result.to_row() for result in results])


def _assert_engines_agree(specs) -> None:
    object_rows = _rows(CampaignSession(specs, engine="object").rows())
    vectorized_rows = _rows(CampaignSession(specs, engine="vectorized").rows())
    assert object_rows == vectorized_rows
    for row_text in object_rows:
        assert json.loads(row_text)  # every row is valid JSON


class TestEligibility:
    def test_sync_protocols_eligible(self):
        assert spec_is_vectorizable(TrialSpec(protocol="exact", workload="uniform_box"))
        assert spec_is_vectorizable(
            TrialSpec(protocol="restricted_sync", workload="uniform_box", adversary="crash")
        )

    def test_approx_protocol_falls_back(self):
        spec = TrialSpec(protocol="approx", workload="uniform_box")
        assert not spec_is_vectorizable(spec)
        assert vectorization_fallback(spec) is FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR

    def test_broadcast_protocols_require_fault_free(self):
        for protocol in ("exact", "coordinatewise"):
            spec = TrialSpec(protocol=protocol, workload="uniform_box", adversary="crash")
            assert not spec_is_vectorizable(spec)
            assert vectorization_fallback(spec) is FallbackReason.ADVERSARY_NOT_COLUMNAR

    def test_coordinated_adversaries_are_eligible(self):
        for adversary in COORDINATED_STRATEGY_NAMES:
            spec = TrialSpec(
                protocol="restricted_sync", workload="uniform_box", adversary=adversary
            )
            assert spec_is_vectorizable(spec)
            assert vectorization_fallback(spec) is None

    @pytest.mark.parametrize(
        "scheduler, adversary",
        [
            ("random", "none"),
            ("round_robin", "none"),
            ("lagging", "none"),
            ("round_robin", "crash"),
        ],
    )
    def test_restricted_async_falls_back(self, scheduler, adversary):
        # Every asynchronous spec runs on the object runtime, whatever its
        # scheduler or adversary.
        spec = TrialSpec(
            protocol="restricted_async",
            workload="uniform_box",
            scheduler=scheduler,
            adversary=adversary,
        )
        assert not spec_is_vectorizable(spec)
        assert vectorization_fallback(spec) is FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR


class TestPlanner:
    def _specs(self):
        return [
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      process_count=5, dimension=2, fault_bound=1, seed=1, trial_index=0),
            TrialSpec(protocol="approx", workload="uniform_box",
                      process_count=4, dimension=1, fault_bound=1, seed=2, trial_index=1),
            TrialSpec(protocol="restricted_sync", workload="gradient",
                      process_count=5, dimension=2, fault_bound=1, seed=3, trial_index=2),
            TrialSpec(protocol="exact", workload="uniform_box",
                      process_count=5, dimension=2, fault_bound=1, seed=4, trial_index=3),
        ]

    def test_object_engine_plans_one_unit(self):
        units = plan_specs(self._specs(), engine="object")
        assert [unit.kind for unit in units] == ["object"]
        assert units[0].positions == (0, 1, 2, 3)

    def test_vectorized_engine_groups_by_shape(self):
        units = plan_specs(self._specs(), engine="vectorized")
        covered = sorted(position for unit in units for position in unit.positions)
        assert covered == [0, 1, 2, 3]  # every spec exactly once
        columnar = [unit for unit in units if unit.kind == "columnar"]
        assert {unit.positions for unit in columnar} == {(0, 2), (3,)}

    def test_auto_keeps_singleton_groups_on_object_engine(self):
        units = plan_specs(self._specs(), engine="auto")
        columnar = [unit for unit in units if unit.kind == "columnar"]
        assert {unit.positions for unit in columnar} == {(0, 2)}
        fallback = [unit for unit in units if unit.kind == "object"]
        assert {position for unit in fallback for position in unit.positions} == {1, 3}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_specs(self._specs(), engine="warp")
        with pytest.raises(ConfigurationError):
            list(CampaignSession(self._specs(), engine="warp").rows())

    def test_batch_runner_rejects_mixed_groups(self):
        specs = self._specs()
        with pytest.raises(ConfigurationError):
            run_specs_vectorized([specs[0], specs[3]])  # different shape groups
        with pytest.raises(ConfigurationError):
            run_specs_vectorized([specs[1]])  # not vectorizable at all

    def test_fallback_reasons_counted_per_engine(self):
        specs = self._specs()

        forced: dict[str, int] = {}
        plan_specs(specs, engine="object", fallback_reasons=forced)
        assert forced == {FallbackReason.FORCED_OBJECT.value: len(specs)}

        vectorized: dict[str, int] = {}
        plan_specs(specs, engine="vectorized", fallback_reasons=vectorized)
        assert vectorized == {FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR.value: 1}

        auto: dict[str, int] = {}
        plan_specs(specs, engine="auto", fallback_reasons=auto)
        assert auto == {
            FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR.value: 1,
            FallbackReason.SINGLETON_GROUP.value: 1,
        }

    def test_mixed_grid_plans_async_specs_as_fallbacks(self):
        # Every restricted-sync adversary, independent and coordinated, plans
        # columnar; the restricted-async specs, under either deterministic
        # scheduler, fall back to the object runtime.
        specs = []
        for adversary in ("none", "crash", "equivocate", "outside_hull",
                          "random_noise", "coordinate_attack",
                          *COORDINATED_STRATEGY_NAMES):
            for repeat in range(2):
                specs.append(TrialSpec(
                    protocol="restricted_sync", workload="uniform_box",
                    adversary=adversary, process_count=7, dimension=2,
                    fault_bound=1, seed=len(specs), trial_index=len(specs),
                ))
        sync_positions = set(range(len(specs)))
        for scheduler in ("round_robin", "lagging"):
            for repeat in range(2):
                specs.append(TrialSpec(
                    protocol="restricted_async", workload="uniform_box",
                    scheduler=scheduler, process_count=6, dimension=1,
                    fault_bound=1, seed=len(specs), trial_index=len(specs),
                ))
        reasons: dict[str, int] = {}
        units = plan_specs(specs, engine="auto", fallback_reasons=reasons)
        assert reasons == {FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR.value: 4}
        columnar = {
            position
            for unit in units
            if unit.kind == "columnar"
            for position in unit.positions
        }
        assert columnar == sync_positions


class TestEquivalenceGrid:
    """Deterministic grid across every eligible protocol/adversary combination."""

    def test_restricted_sync_all_independent_adversaries(self):
        campaign = Campaign.from_grid(
            "equiv-restricted",
            protocols=("restricted_sync",),
            adversaries=("none", "crash", "equivocate", "outside_hull",
                         "random_noise", "coordinate_attack"),
            dimensions=(1, 2),
            fault_bounds=(1,),
            repeats=1,
            base_seed=17,
            max_rounds_override=3,
        )
        _assert_engines_agree(campaign.specs)

    def test_broadcast_protocols_fault_free(self):
        campaign = Campaign.from_grid(
            "equiv-broadcast",
            protocols=("exact", "coordinatewise"),
            adversaries=("none",),
            dimensions=(1, 2, 3),
            fault_bounds=(1, 2),
            repeats=2,
            base_seed=23,
        )
        _assert_engines_agree(campaign.specs)

    def test_worker_count_invariance_on_vectorized_engine(self, tmp_path):
        campaign = Campaign.from_grid(
            "equiv-workers",
            protocols=("restricted_sync", "exact"),
            adversaries=("none", "crash"),
            dimensions=(2,),
            fault_bounds=(1,),
            repeats=2,
            base_seed=29,
            max_rounds_override=3,
        )
        inline = _rows(CampaignSession(campaign.specs, engine="vectorized", workers=1).rows())
        pooled = _rows(CampaignSession(campaign.specs, engine="vectorized", workers=2).rows())
        auto = _rows(CampaignSession(campaign.specs, engine="auto", workers=2).rows())
        assert inline == pooled == auto

    def test_results_arrive_in_spec_order(self):
        campaign = Campaign.from_grid(
            "equiv-order",
            protocols=("restricted_sync", "exact"),
            adversaries=("none", "crash"),
            dimensions=(1,),
            fault_bounds=(1,),
            repeats=2,
            base_seed=3,
            max_rounds_override=2,
        )
        results = list(CampaignSession(campaign.specs, engine="vectorized", workers=2).rows())
        assert [result.spec.trial_index for result in results] == list(range(len(campaign)))


class TestCoordinatedPropertySuite:
    """Seeded coordinated-adversary compositions × engine × worker count.

    The hypothesis-driven counterpart of the deterministic grid: every
    sampled composition of coordinated strategies must produce row-for-row
    byte-identical output on both engines at one and at four workers.
    """

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_sampled_coordinated_specs_agree(self, seed):
        sampled = sample_specs(
            8,
            seed=seed,
            protocols=("restricted_sync",),
            adversaries=COORDINATED_STRATEGY_NAMES,
        )
        assert all(spec_is_vectorizable(spec) for spec in sampled)
        capped = [
            dataclasses.replace(spec, max_rounds_override=3) for spec in sampled
        ]
        reference = _rows(CampaignSession(capped, engine="object", workers=1).rows())
        for engine, workers in (("object", 4), ("vectorized", 1), ("vectorized", 4)):
            rows = _rows(CampaignSession(capped, engine=engine, workers=workers).rows())
            assert rows == reference, (engine, workers)


class TestEquivalenceSampled:
    """Seeded property suite over the fuzz sampler's eligible shape class."""

    def test_sampled_eligible_specs_agree(self):
        sampled = sample_specs(60, seed=2024)
        eligible = [spec for spec in sampled if spec_is_vectorizable(spec)]
        assert len(eligible) >= 10  # the sample must actually exercise the engine
        # Cap the restricted-round static rule so the object oracle stays fast;
        # both engines receive the identical capped spec.
        capped = [
            dataclasses.replace(spec, max_rounds_override=3)
            if spec.protocol == "restricted_sync"
            else spec
            for spec in eligible
        ]
        object_results = list(CampaignSession(capped, engine="object").rows())
        vectorized_results = list(CampaignSession(capped, engine="vectorized").rows())
        assert _rows(object_results) == _rows(vectorized_results)
        for object_result, vectorized_result in zip(object_results, vectorized_results):
            assert object_result.decision == vectorized_result.decision
            assert object_result.agreement is vectorized_result.agreement
            assert object_result.validity is vectorized_result.validity
            assert object_result.rounds == vectorized_result.rounds


class TestFallbackSurfacing:
    """Campaign summaries expose why trials left the columnar path."""

    def test_campaign_summary_reports_fallback_reasons(self):
        approx_n = minimum_processes_for("approx", 1, 1)
        specs = [
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      process_count=5, dimension=2, fault_bound=1,
                      max_rounds_override=2, seed=1, trial_index=0),
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      process_count=5, dimension=2, fault_bound=1,
                      max_rounds_override=2, seed=2, trial_index=1),
            TrialSpec(protocol="approx", workload="uniform_box",
                      process_count=approx_n, dimension=1, fault_bound=1,
                      max_rounds_override=2, seed=3, trial_index=2),
        ]
        campaign = Campaign.from_specs("fallback-surfacing", specs)
        summary, _ = run_campaign(campaign, engine="auto")
        assert summary.fallback_reasons == {
            FallbackReason.ASYNC_PROTOCOL_NOT_COLUMNAR.value: 1
        }
        assert summary.to_row()["fallbacks"] == 1

    def test_clean_columnar_campaign_reports_zero_fallbacks(self):
        campaign = Campaign.from_grid(
            "fallback-clean",
            protocols=("restricted_sync",),
            adversaries=("crash", "split_world"),
            dimensions=(2,),
            fault_bounds=(1,),
            repeats=2,
            base_seed=31,
            max_rounds_override=2,
        )
        summary, _ = run_campaign(campaign, engine="auto")
        assert summary.fallback_reasons == {}
        assert summary.to_row()["fallbacks"] == 0


class TestFailurePaths:
    def test_error_rows_are_byte_identical(self):
        specs = [
            # Below the resilience bound.
            TrialSpec(protocol="exact", workload="uniform_box",
                      process_count=3, dimension=2, fault_bound=1, seed=1, trial_index=0),
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      process_count=4, dimension=2, fault_bound=1, seed=2, trial_index=1),
            # Round budget too small for the protocol.
            TrialSpec(protocol="coordinatewise", workload="uniform_box",
                      process_count=4, dimension=2, fault_bound=1,
                      max_rounds_override=1, seed=3, trial_index=2),
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      process_count=5, dimension=2, fault_bound=1,
                      max_rounds_override=0, seed=4, trial_index=3),
            # Invalid adversary parameterisation.
            TrialSpec(protocol="restricted_sync", workload="uniform_box",
                      adversary="coordinate_attack", process_count=5, dimension=2,
                      fault_bound=1, max_rounds_override=2, seed=5,
                      adversary_params={"coordinate": 9, "target": 1.0}, trial_index=4),
            # Fixed-instance workload vs mismatched declared shape.
            TrialSpec(protocol="exact", workload="intro_counterexample",
                      process_count=4, dimension=2, fault_bound=1, seed=6, trial_index=5),
        ]
        object_rows = _rows(CampaignSession(specs, engine="object").rows())
        vectorized_rows = _rows(CampaignSession(specs, engine="vectorized").rows())
        assert object_rows == vectorized_rows
        statuses = [json.loads(row)["status"] for row in object_rows]
        assert statuses == ["error"] * len(specs)


class TestRepeatedClouds:
    """Repeats the columnar engine leaves to the kernel: its own cloud table
    lives for one round, so rows must not depend on anything it remembered."""

    # Fault-free views coincide, so from round 2 on every state is the same
    # point and every later round asks the round-2 question again.
    SPECS = [
        TrialSpec(protocol="restricted_sync", workload="uniform_box", process_count=5,
                  dimension=2, fault_bound=1, max_rounds_override=4, seed=seed,
                  trial_index=seed)
        for seed in range(3)
    ]

    @pytest.fixture(autouse=True)
    def fresh_kernel(self):
        """No answer left over from another test's identical cloud."""
        default_kernel.clear_cache()
        yield
        default_kernel.clear_cache()

    def test_cloud_seen_in_two_rounds_is_the_kernels_repeat(self, kernel_events):
        object_rows = _rows(run_trial(spec) for spec in self.SPECS)
        default_kernel.clear_cache()
        events = kernel_events()
        assert _rows(run_specs_vectorized(self.SPECS)) == object_rows
        # One round's clouds reach the kernel deduplicated, so a hit can only
        # be a cloud from an earlier round.
        assert events.memo_hits > 0

    def test_cloud_whose_solve_fails_twice_gives_the_object_engines_rows(self, monkeypatch):
        closed_forms = GammaKernel._closed_forms
        refused: list[bytes] = []

        def refuse_collapsed_clouds(self, clouds, fault_bound, objective_head):
            collapsed = [cloud.tobytes() for cloud in clouds if not np.ptp(cloud, axis=0).any()]
            if collapsed:
                refused.extend(collapsed)
                raise GeometryError("injected solver failure")
            return closed_forms(self, clouds, fault_bound, objective_head)

        monkeypatch.setattr(GammaKernel, "_closed_forms", refuse_collapsed_clouds)
        object_rows = _rows(run_trial(spec) for spec in self.SPECS)
        assert all("injected solver failure" in row for row in object_rows)
        refused.clear()
        # The round's batch fails, then each cloud is re-solved for attribution;
        # a second run meets the same clouds and fails on them afresh.
        assert _rows(run_specs_vectorized(self.SPECS)) == object_rows
        first_run = list(refused)
        assert any(first_run.count(cloud) >= 2 for cloud in first_run)
        assert _rows(run_specs_vectorized(self.SPECS)) == object_rows
        assert refused == first_run * 2


class TestStateHistories:
    def test_restricted_histories_match_object_runtime(self):
        spec = TrialSpec(
            protocol="restricted_sync", workload="uniform_box", adversary="equivocate",
            process_count=5, dimension=2, fault_bound=1, max_rounds_override=4,
            seed=11, record_history=True,
        )
        object_result = run_trial(spec)
        (vectorized_result,) = run_specs_vectorized([spec])
        assert object_result.ok and vectorized_result.ok
        assert object_result.state_histories.keys() == vectorized_result.state_histories.keys()
        for process_id, object_history in object_result.state_histories.items():
            vectorized_history = vectorized_result.state_histories[process_id]
            assert len(object_history) == len(vectorized_history) == 5
            for object_state, vectorized_state in zip(object_history, vectorized_history):
                assert np.array_equal(object_state, vectorized_state)


class TestGroupKey:
    def test_key_ignores_per_trial_data_axes(self):
        base = TrialSpec(protocol="restricted_sync", workload="uniform_box",
                         process_count=5, dimension=2, fault_bound=1, seed=1)
        other = dataclasses.replace(base, workload="gradient", seed=99, epsilon=0.4)
        assert vectorized_group_key(base) == vectorized_group_key(other)

    def test_key_separates_shapes(self):
        base = TrialSpec(protocol="restricted_sync", workload="uniform_box",
                         process_count=5, dimension=2, fault_bound=1)
        assert vectorized_group_key(base) != vectorized_group_key(
            dataclasses.replace(base, process_count=9)
        )
        assert vectorized_group_key(base) != vectorized_group_key(
            dataclasses.replace(base, adversary="crash")
        )


class TestBroadcastSlices:
    """Fault-free ``exact`` / ``coordinatewise`` groups run in slices: one
    registry pass, one Gamma pass and one report per trial each.  No row may
    depend on the slicing or on a slice-mate's failure."""

    WORKLOADS = ("uniform_box", "probability_vector", "robot_position", "gradient")

    @pytest.fixture(autouse=True)
    def fresh_kernel(self):
        default_kernel.clear_cache()
        yield
        default_kernel.clear_cache()

    @staticmethod
    def _specs() -> list[TrialSpec]:
        specs = list(
            Campaign.from_grid(
                "broadcast-slices",
                protocols=("exact", "coordinatewise"),
                workloads=TestBroadcastSlices.WORKLOADS,
                dimensions=(1, 2, 3),
                repeats=3,
                base_seed=61,
            ).specs
        )
        # Error rows: n below the bound (exact needs max(3f+1, (d+1)f+1)),
        # and a round budget below the f + 1 rounds EIG takes.
        for protocol in ("exact", "coordinatewise"):
            for dimension in (1, 2, 3):
                for workload in TestBroadcastSlices.WORKLOADS:
                    specs.append(TrialSpec(
                        protocol=protocol, workload=workload, process_count=3,
                        dimension=dimension, fault_bound=1, seed=len(specs),
                    ))
                    specs.append(TrialSpec(
                        protocol=protocol, workload=workload,
                        process_count=minimum_processes_for(protocol, dimension, 2),
                        dimension=dimension, fault_bound=2, max_rounds_override=2,
                        seed=len(specs),
                    ))
        specs.append(TrialSpec(protocol="exact", workload="intro_counterexample",
                               process_count=4, dimension=3, fault_bound=1, seed=5))
        specs.append(TrialSpec(protocol="exact", workload="intro_counterexample",
                               process_count=5, dimension=3, fault_bound=1, seed=6,
                               workload_params={"extended": True}))
        return [spec.with_index(index) for index, spec in enumerate(specs)]

    @pytest.mark.parametrize("slice_trials", [1, 3, 64])
    def test_rows_match_the_object_engine_at_any_slice_size(self, slice_trials, monkeypatch):
        from repro.engine import vectorized

        specs = self._specs()
        object_rows = _rows(CampaignSession(specs, engine="object").rows())
        statuses = [json.loads(row)["status"] for row in object_rows]
        # exact below its bound (12), a 2-round budget at f = 2 (24) and the
        # literal intro instance (n = 4 < 5 at d = 3); the coordinatewise
        # baseline checks no bound, so its n = 3 trials run.
        assert statuses.count("error") == 12 + 24 + 1
        monkeypatch.setattr(vectorized, "_BROADCAST_SLICE", slice_trials)
        default_kernel.clear_cache()
        assert _rows(CampaignSession(specs, engine="vectorized").rows()) == object_rows

    def test_a_failed_or_empty_query_is_its_own_trials_error_row(self, monkeypatch):
        from repro.engine.factories import build_registry

        specs = [
            TrialSpec(protocol="exact", workload="uniform_box", process_count=4,
                      dimension=2, fault_bound=1, seed=seed, trial_index=seed)
            for seed in range(6)
        ]

        def cloud_of(spec):
            registry = build_registry(spec)
            return np.vstack([registry.input_of(pid) for pid in registry.process_ids]).tobytes()

        raising, empty = cloud_of(specs[1]), cloud_of(specs[4])
        closed_forms = GammaKernel._closed_forms

        def sabotaged(self, clouds, fault_bound, objective_head):
            if any(cloud.tobytes() == raising for cloud in clouds):
                raise GeometryError("injected solver failure")
            answers = closed_forms(self, clouds, fault_bound, objective_head)
            return [
                None if cloud.tobytes() == empty else answer
                for cloud, answer in zip(clouds, answers)
            ]

        monkeypatch.setattr(GammaKernel, "_closed_forms", sabotaged)
        object_rows = _rows(run_trial(spec) for spec in specs)
        errors = [json.loads(row)["error"] for row in object_rows]
        assert errors[1] == "GeometryError: injected solver failure"
        assert errors[4] == "EmptyIntersectionError: Gamma is empty for |Y|=4, f=1, d=2"
        assert [error is None for error in errors] == [True, False, True, True, False, True]
        default_kernel.clear_cache()
        assert _rows(run_specs_vectorized(specs)) == object_rows
