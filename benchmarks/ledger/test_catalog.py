"""``BENCHMARK.json`` and the runner's registries must name the same things.

Cheap (no workload runs): collected by the tier-1 suite so a renamed metric or
workload cannot land on one side only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, READ_ROUTES, WORKLOADS  # noqa: E402
from checks import Verifier  # noqa: E402
from compare import compare_metric  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def benchmark_file() -> dict:
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_workloads_match(benchmark_file):
    listed = {entry["name"]: entry["why"] for entry in benchmark_file["workloads"]}
    assert listed == WORKLOADS
    assert 2 <= len(listed) <= 8
    for name, why in listed.items():
        assert NAME.match(name), name
        assert 0 < len(why) <= 200 and "\n" not in why, name


def test_end_to_end_metrics_match(benchmark_file):
    listed = {entry["name"]: entry for entry in benchmark_file["end_to_end"]}
    assert list(listed) == [metric.name for metric in END_TO_END]
    assert 1 <= len(listed) <= 16
    for metric in END_TO_END:
        entry = listed[metric.name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit) and entry["unit"] == metric.unit, metric.name
        assert metric.better in ("lower", "higher") and entry["better"] == metric.better
        assert metric.bound is not None and 0 < metric.bound <= 0.25, metric.name
        assert entry["bound"] == metric.bound, metric.name
    setup = listed["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in listed.values())


def test_per_layer_metrics_match(benchmark_file):
    listed = {entry["name"]: entry for entry in benchmark_file["per_layer"]}
    assert list(listed) == [metric.name for metric in PER_LAYER]
    assert 1 <= len(listed) <= 128
    for metric in PER_LAYER:
        entry = listed[metric.name]
        assert set(entry) == {"name", "unit", "better"}
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit) and entry["unit"] == metric.unit, metric.name
        assert metric.better in ("lower", "higher") and entry["better"] == metric.better
    for route in READ_ROUTES:
        assert f"server.route_ms_p99.{route}" in listed


def test_names_are_used_once(benchmark_file):
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_file[section]
    ]
    assert len(names) == len(set(names))


def test_command_stays_inside_its_paths(benchmark_file):
    assert benchmark_file["paths"] == ["benchmarks/ledger"]
    assert benchmark_file["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= benchmark_file["run_seconds"] <= 60


def test_verifier_fails_a_row_with_validity_false():
    """The command exits non-zero on any failed check; this is the check."""
    verifier = Verifier()
    good = {"status": "ok", "agreement": True, "validity": True}
    assert verifier.check_row(good, "test")
    assert (verifier.attempted, verifier.failed) == (1, 0)
    assert not verifier.check_row(dict(good, validity=False), "test")
    assert not verifier.check_row(dict(good, status="error", error="boom"), "test")
    assert (verifier.attempted, verifier.failed) == (3, 2)
    assert "validity=False" in verifier.problems[0]


def test_compare_applies_bound_and_direction():
    lower = next(metric for metric in END_TO_END if metric.name == "result_p50_ms")
    higher = next(metric for metric in END_TO_END if metric.name == "trials_per_s")
    assert compare_metric(lower, [10.0], [10.0 * (1 + lower.bound / 2)])["verdict"] == "same"
    assert compare_metric(lower, [10.0], [10.0 * (1 + lower.bound * 2)])["verdict"] == "worse"
    assert compare_metric(lower, [10.0], [5.0])["verdict"] == "better"
    assert compare_metric(higher, [10.0], [10.0 * (1 - higher.bound * 2)])["verdict"] == "worse"
    assert compare_metric(higher, [10.0], [20.0])["verdict"] == "better"
    # spread wider than the bound, sides overlapping: nothing can be said
    noisy = compare_metric(higher, [6.0, 10.0, 14.0], [7.0, 9.0, 15.0])
    assert noisy["verdict"] == "unresolved"
