"""Unit tests for repro.engine.spec: TrialSpec and TrialResult."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from repro.engine import TrialResult, TrialSpec, run_trial, sample_specs
from repro.engine.spec import _derived_seeds
from repro.exceptions import ConfigurationError


class TestTrialSpec:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            TrialSpec(protocol="does_not_exist", workload="uniform_box")

    def test_model_flag(self):
        assert TrialSpec(protocol="exact", workload="uniform_box").model == "sync"
        assert TrialSpec(protocol="approx", workload="uniform_box").model == "async"

    def test_params_are_frozen_and_sorted(self):
        spec = TrialSpec(
            protocol="exact",
            workload="uniform_box",
            workload_params={"upper": 2.0, "lower": -1.0},
        )
        assert spec.workload_params == (("lower", -1.0), ("upper", 2.0))
        assert spec.params("workload") == {"lower": -1.0, "upper": 2.0}

    def test_dict_roundtrip(self):
        spec = TrialSpec(
            protocol="approx",
            workload="robot_position",
            adversary="outside_hull",
            scheduler="lagging",
            process_count=6,
            dimension=3,
            fault_bound=1,
            epsilon=0.1,
            seed=99,
            adversary_params={"offset": 10.0},
            max_rounds_override=7,
        )
        record = spec.to_dict()
        assert json.loads(json.dumps(record)) == record  # JSON-serialisable
        assert TrialSpec.from_dict(record) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            TrialSpec.from_dict({"protocol": "exact", "workload": "uniform_box", "bogus": 1})

    def test_resolved_seeds_deterministic_and_independent(self):
        spec = TrialSpec(protocol="exact", workload="uniform_box", seed=123)
        first = spec.resolved_seeds()
        second = spec.resolved_seeds()
        assert first == second
        # Three distinct derived streams, none equal to the root seed.
        assert len(set(first)) == 3
        assert 123 not in first

    def test_explicit_seed_overrides_derivation(self):
        spec = TrialSpec(
            protocol="exact", workload="uniform_box", seed=123, workload_seed=7, adversary_seed=8
        )
        workload_seed, adversary_seed, scheduler_seed = spec.resolved_seeds()
        assert (workload_seed, adversary_seed) == (7, 8)
        assert scheduler_seed not in (7, 8, 123)

    def test_different_root_seeds_derive_different_streams(self):
        seeds_a = TrialSpec(protocol="exact", workload="uniform_box", seed=1).resolved_seeds()
        seeds_b = TrialSpec(protocol="exact", workload="uniform_box", seed=2).resolved_seeds()
        assert seeds_a != seeds_b

    def test_derived_seeds_are_the_spawned_childrens(self):
        # The derivation builds child i as SeedSequence(seed, spawn_key=(i,));
        # it must give what SeedSequence(seed).spawn(3) gives, wide seeds too.
        sampler = random.Random(20)
        seeds = (
            list(range(8))
            + [sampler.randrange(2**32) for _ in range(200)]
            + [sampler.randrange(2**32, 2**64) for _ in range(100)]
            + [sampler.randrange(2**64, 2**200) for _ in range(100)]
            + [2**32 - 1, 2**32, 2**64 - 1, 2**64]
        )
        for seed in seeds:
            spawned = tuple(
                int(child.generate_state(1, dtype=np.uint32)[0])
                for child in np.random.SeedSequence(seed).spawn(3)
            )
            assert _derived_seeds(seed) == spawned, seed


class TestTrialResult:
    def test_row_is_flat_json_and_excludes_histories(self):
        spec = TrialSpec(protocol="exact", workload="uniform_box", seed=5)
        result = TrialResult(
            spec=spec,
            status="ok",
            agreement=True,
            validity=True,
            rounds=2,
            messages_sent=40,
            messages_dropped=0,
            decision=(0.25, 0.75),
            state_histories={0: []},
            elapsed_ms=1.5,
        )
        row = result.to_row()
        assert row["spec_protocol"] == "exact"
        assert row["spec_seed"] == 5
        assert row["agreement"] is True
        assert row["decision"] == [0.25, 0.75]
        assert "state_histories" not in row
        # The serialised line is valid JSON with sorted keys.
        line = result.to_json()
        assert json.loads(line) == row
        assert list(json.loads(line)) == sorted(row)

    def test_timing_fields_named(self):
        assert TrialResult.TIMING_FIELDS == ("elapsed_ms",)


# Synthetic-but-valid TrialResult strategy: spec fields and outcome fields are
# drawn independently, which is exactly what from_row must not care about —
# it inverts the serialisation, not the protocol semantics.
_spec_strategy = st.builds(
    TrialSpec,
    protocol=st.sampled_from(("exact", "coordinatewise", "approx", "restricted_sync")),
    workload=st.sampled_from(("uniform_box", "gradient")),
    adversary=st.sampled_from(("none", "crash", "split_world")),
    scheduler=st.sampled_from(("random", "round_robin")),
    process_count=st.integers(min_value=1, max_value=50),
    dimension=st.integers(min_value=1, max_value=8),
    fault_bound=st.integers(min_value=0, max_value=5),
    epsilon=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    workload_seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
    max_rounds_override=st.none() | st.integers(min_value=1, max_value=20),
    workload_params=st.dictionaries(
        st.sampled_from(("lower", "upper", "scale")),
        st.floats(min_value=-5, max_value=5, allow_nan=False) | st.integers(-5, 5),
        max_size=2,
    ),
    trial_index=st.integers(min_value=0, max_value=10_000),
)

_result_strategy = st.one_of(
    # ok rows
    st.builds(
        TrialResult,
        spec=_spec_strategy,
        status=st.just("ok"),
        agreement=st.booleans(),
        validity=st.booleans(),
        max_disagreement=st.none() | st.floats(min_value=0, max_value=10, allow_nan=False),
        max_hull_distance=st.none() | st.floats(min_value=0, max_value=10, allow_nan=False),
        rounds=st.none() | st.integers(min_value=0, max_value=100),
        deliveries=st.none() | st.integers(min_value=0, max_value=10_000),
        messages_sent=st.none() | st.integers(min_value=0, max_value=10_000),
        messages_dropped=st.none() | st.integers(min_value=0, max_value=100),
        decision=st.none()
        | st.tuples(st.floats(min_value=-5, max_value=5, allow_nan=False)),
        elapsed_ms=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    ),
    # error rows
    st.builds(
        TrialResult,
        spec=_spec_strategy,
        status=st.just("error"),
        error=st.text(min_size=1, max_size=60),
        elapsed_ms=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    ),
)


class TestFromRowRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(result=_result_strategy)
    def test_from_row_is_the_exact_inverse_of_to_row(self, result):
        row = result.to_row()
        rebuilt = TrialResult.from_row(row)
        assert rebuilt.to_row() == row
        assert rebuilt.to_json() == result.to_json()
        # Field-level equality too (histories are never serialised).
        assert rebuilt.spec == result.spec
        assert rebuilt.status == result.status
        assert rebuilt.decision == result.decision
        assert rebuilt.state_histories is None

    def test_round_trips_executed_results_from_seeded_samples(self):
        # Real rows from the fuzz sampler (sync protocols keep this fast),
        # plus a genuine error row from an under-provisioned spec.
        specs = sample_specs(6, seed=11, protocols=("exact", "restricted_sync"))
        specs.append(
            TrialSpec(protocol="exact", workload="uniform_box",
                      process_count=3, dimension=2, fault_bound=1, seed=3)
        )
        statuses = set()
        for spec in specs:
            result = run_trial(spec)
            statuses.add(result.status)
            row = json.loads(result.to_json())  # through the serialised form
            rebuilt = TrialResult.from_row(row)
            assert rebuilt.to_json() == result.to_json()
            assert rebuilt.spec == spec
        assert "error" in statuses  # the error path was exercised

    def test_rejects_unknown_and_missing_fields(self):
        result = run_trial(
            TrialSpec(protocol="exact", workload="uniform_box",
                      process_count=3, dimension=2, fault_bound=1, seed=1)
        )
        row = result.to_row()
        with pytest.raises(ConfigurationError, match="unknown TrialResult row field"):
            TrialResult.from_row(row | {"bogus": 1})
        with pytest.raises(ConfigurationError, match="status"):
            TrialResult.from_row({key: value for key, value in row.items() if key != "status"})
        with pytest.raises(ConfigurationError, match="unknown TrialSpec fields"):
            TrialResult.from_row(row | {"spec_bogus": 1})

    def test_state_histories_are_the_documented_loss(self):
        spec = TrialSpec(protocol="approx", workload="uniform_box", process_count=4,
                         dimension=1, fault_bound=1, epsilon=0.3,
                         max_rounds_override=3, seed=5, record_history=True)
        result = run_trial(spec)
        assert result.state_histories
        rebuilt = TrialResult.from_row(result.to_row())
        assert rebuilt.state_histories is None
        assert rebuilt.to_row() == result.to_row()
