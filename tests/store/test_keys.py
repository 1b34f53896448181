"""Unit tests for repro.store.keys: canonical content addresses."""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TrialSpec
from repro.engine.spec import PROTOCOLS, _jsonify
from repro.exceptions import ConfigurationError
from repro.store import ENGINE_VERSION, VOLATILE_SPEC_FIELDS, trial_key


def _spec(**overrides) -> TrialSpec:
    base = dict(protocol="exact", workload="uniform_box", adversary="crash",
                process_count=5, dimension=2, fault_bound=1, seed=7)
    base.update(overrides)
    return TrialSpec(**base)


# Every stored row is addressed by these bytes: a digest that changes makes
# every existing store unreachable, which only a deliberate ENGINE_VERSION
# bump may do.  The literals come from the per-call ``json.dumps`` derivation
# salted with `1.1.0/rows3` (the bump that answers a round's Gamma queries at
# d <= 2 in one batched program); change them only together with a bump.
GOLDEN_KEYS = {
    "default": (
        TrialSpec(protocol="exact", workload="uniform_box"),
        "f2cab2935e6ed0e42e7a26bc58caa9e7583f6566203c0fe863e8183724805a1b",
    ),
    "base": (_spec(), "130704b12885a7daf5b546db30b58d4739bfa6a6422320fa134e180419cca56f"),
    "sub_seeds": (
        _spec(workload_seed=11, adversary_seed=None, scheduler_seed=13),
        "f0e00ced2917d6f14bd834d6123940566233e09f506c38698676d18f74241062",
    ),
    "max_rounds_override": (
        _spec(protocol="approx", epsilon=0.05, max_rounds_override=6),
        "70d972b8d81a97615fd90c646fa2316f35d6cf50c474ebf9fb25d443f9f268a3",
    ),
    "numpy_scalars": (
        _spec(adversary_params={"scale": np.float64(2.5), "count": np.int64(3),
                                "flag": np.bool_(True)}),
        "5a47d3afbffe5faeb747e107e12582c44da433f3fb672370eade1c8c2d26e940",
    ),
    "tuple_and_nested_dict": (
        _spec(workload_params={"box": (0.0, 1.0),
                               "nested": {"b": {"c": (1, 2.5)}, "a": [True, None]}}),
        "56795b1eb8bf01de938f8520342f8c72dcf74b0044501e39759af5a9d9cb67b2",
    ),
}


def _reference_jsonify(value: Any) -> Any:
    """The row coercion as it was when the golden keys were written (the oracle)."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_reference_jsonify(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_reference_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _reference_jsonify(item) for key, item in value.items()}
    return value


def _reference_payload(spec: TrialSpec) -> str:
    """The canonical payload derived the plain way (the oracle ``trial_key`` must equal).

    The spec's ``to_dict()`` minus the volatile fields, coerced by
    ``_jsonify``, written as sorted-key compact JSON.
    """
    payload = spec.to_dict()
    for name in VOLATILE_SPEC_FIELDS:
        payload.pop(name, None)
    return json.dumps(_jsonify(payload), sort_keys=True, separators=(",", ":"))


def _reference_key(spec: TrialSpec) -> str:
    salted = f"{ENGINE_VERSION}\n{_reference_payload(spec)}"
    return hashlib.sha256(salted.encode("utf-8")).hexdigest()


def _same_graph(left: Any, right: Any) -> bool:
    """Equal values of equal types all the way down (``True == 1`` does not count)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            _same_graph(left[key], right[key]) for key in left
        )
    if isinstance(left, list):
        return len(left) == len(right) and all(map(_same_graph, left, right))
    return left == right or (left != left and right != right)  # NaN equals itself here


_numpy_scalars = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32),
)
_numpy_arrays = st.one_of(
    st.lists(st.booleans(), max_size=4).map(lambda items: np.array(items, dtype=bool)),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda items: np.array(items, dtype=np.int64)),
    st.lists(st.floats(width=64), max_size=4).map(lambda items: np.array(items, dtype=float)),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    _numpy_scalars, _numpy_arrays,
)
_keys = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.booleans())
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
        st.dictionaries(_keys, children, max_size=3).map(OrderedDict),
        st.dictionaries(_keys, children, max_size=3).map(MappingProxyType),
    ),
    max_leaves=12,
)


# Spec fields as campaigns, fuzzers and hand-built specs spell them: plain
# and numpy-typed scalars, bools where ints go, non-finite epsilons, names
# that need escaping, and parameter mappings of every shape ``_values`` has.
_names = st.one_of(st.sampled_from(["uniform_box", "crash", "random"]), st.text(max_size=6),
                   st.sampled_from(['q"uote', "back\\slash", "ümlaut", "\u2603\n", "\ud800"]))
_ints = st.one_of(st.integers(), st.booleans(), st.integers(-(2**63), 2**63 - 1).map(np.int64))
_optional_ints = st.one_of(st.none(), _ints)
_epsilons = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.floats(width=64).map(np.float64), st.floats(width=32).map(np.float32), st.integers(),
)
_params = st.dictionaries(st.text(max_size=3), _values, max_size=3)
_specs = st.builds(
    TrialSpec,
    protocol=st.sampled_from(sorted(PROTOCOLS)), workload=_names, adversary=_names,
    scheduler=_names, process_count=_ints, dimension=_ints, fault_bound=_ints,
    epsilon=_epsilons, seed=_ints, workload_seed=_optional_ints,
    adversary_seed=_optional_ints, scheduler_seed=_optional_ints,
    max_rounds_override=_optional_ints, workload_params=_params,
    adversary_params=_params, scheduler_params=_params,
    record_history=st.booleans(), trial_index=st.integers(0, 10**6),
)
# A value JSON cannot encode, at any depth of a parameter value.
_opaque = st.recursive(
    st.builds(object),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=2),
        st.dictionaries(st.text(max_size=2), children, min_size=1, max_size=2),
    ),
    max_leaves=3,
)


class TestCanonicalEncoding:
    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_golden_digest(self, name):
        spec, digest = GOLDEN_KEYS[name]
        assert ENGINE_VERSION == "1.1.0/rows3"
        assert trial_key(spec) == _reference_key(spec) == digest

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_jsonify_matches_the_reference_coercion(self, value):
        assert _same_graph(_jsonify(value), _reference_jsonify(value))

    @settings(max_examples=400, deadline=None)
    @given(_specs)
    def test_trial_key_matches_the_reference_derivation(self, spec):
        assert trial_key(spec) == _reference_key(spec)

    @settings(max_examples=100, deadline=None)
    @given(_specs, st.sampled_from(["workload_params", "adversary_params", "scheduler_params"]),
           st.text(max_size=3), _opaque)
    def test_a_non_json_parameter_is_never_addressed(self, spec, field_name, key, value):
        spec = replace(spec, **{field_name: {**spec.params(field_name[: -len("_params")]),
                                             key: value}})
        with pytest.raises(TypeError):
            _reference_payload(spec)
        with pytest.raises(ConfigurationError, match="content-addressable"):
            trial_key(spec)


class TestTrialKey:
    def test_deterministic_and_hex(self):
        assert trial_key(_spec()) == trial_key(_spec())
        assert len(trial_key(_spec())) == 64
        int(trial_key(_spec()), 16)  # valid hex digest

    def test_every_outcome_relevant_field_changes_the_key(self):
        base = trial_key(_spec())
        assert trial_key(_spec(seed=8)) != base
        assert trial_key(_spec(adversary="outside_hull")) != base
        assert trial_key(_spec(process_count=6)) != base
        assert trial_key(_spec(epsilon=0.3)) != base
        assert trial_key(_spec(adversary_params={"x": 1})) != base
        assert trial_key(_spec(workload_seed=3)) != base

    def test_volatile_fields_do_not_change_the_key(self):
        # trial_index is campaign bookkeeping and record_history only affects
        # in-memory state retention — the serialised row is identical, so the
        # same physical trial must resolve to the same address across runs.
        assert VOLATILE_SPEC_FIELDS == ("trial_index", "record_history")
        base = trial_key(_spec())
        assert trial_key(replace(_spec(), trial_index=42)) == base
        assert trial_key(replace(_spec(), record_history=True)) == base

    def test_param_spelling_is_canonicalised(self):
        # dict vs pre-sorted tuple-of-pairs, and tuple vs list values, are the
        # same logical spec and must share an address.
        as_dict = _spec(adversary_params={"b": 2, "a": 1})
        as_pairs = _spec(adversary_params=(("a", 1), ("b", 2)))
        assert trial_key(as_dict) == trial_key(as_pairs)
        tuple_value = _spec(workload_params={"box": (0.0, 1.0)})
        list_value = _spec(workload_params={"box": [0.0, 1.0]})
        assert trial_key(tuple_value) == trial_key(list_value)

    def test_engine_version_salts_the_key(self):
        spec = _spec()
        assert trial_key(spec) == trial_key(spec, engine_version=ENGINE_VERSION)
        assert trial_key(spec, engine_version="0.9.9/rows0") != trial_key(spec)

    def test_payload_excludes_volatile_fields_only(self):
        spec = replace(_spec(), trial_index=3, record_history=True)
        payload = json.loads(_reference_payload(spec))
        assert sorted(payload) == sorted(set(TrialSpec.WIRE_FIELDS) - set(VOLATILE_SPEC_FIELDS))
        assert payload["protocol"] == "exact"
        assert payload["seed"] == 7
        assert trial_key(spec) == _reference_key(spec)

    def test_non_json_parameter_value_is_rejected(self):
        spec = _spec(workload_params={"callback": object()})
        with pytest.raises(ConfigurationError, match="content-addressable"):
            trial_key(spec)
