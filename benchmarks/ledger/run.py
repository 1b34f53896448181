"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py --seed S [--workload W] [--seconds T]
                                     [--trace 0|1] [--out FILE]

runs each workload in fresh subprocesses, prints every metric by name with
its unit, verifies the program's outputs, and ends standard output with one
JSON object per workload (``correct``, ``attempted``, ``failed``,
``metrics``) — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--out`` also writes one JSON record of the
whole run.  The exit code is non-zero when any output check failed.

End-to-end numbers always come from an untraced process.  ``--trace 1``
runs the workload untraced and then again with the wrappers of ``spans.py``
installed; the difference between the two is ``trace.overhead_share``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# set-up time includes the imports below
_PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
from typing import Any

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

REPOSITORY = HERE.parents[1]
SOURCE = REPOSITORY / "src"
#: Scratch stores live here: inside the checkout (the driver allows no writes
#: outside it), ignored by git, removed when the run ends.
SCRATCH_PARENT = REPOSITORY / ".ledger_tmp"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A traced campaign record is refused below this share of attributed wall.
MIN_COVERAGE = 0.90
CAMPAIGN_WORKLOADS = ("columnar_sync", "pooled_exact_store", "async_object")


# ---------------------------------------------------------------------------
# Child: one workload in this process
# ---------------------------------------------------------------------------


def child_main(arguments: argparse.Namespace) -> int:
    """Run one workload here and print its result as the last stdout line."""
    sys.path.insert(0, str(SOURCE))
    from multiprocessing import resource_tracker

    import numpy
    import scipy

    from repro.obs.registry import get_registry, snapshot_delta
    from repro.store.keys import ENGINE_VERSION

    from checks import Verifier
    from layers import layer_seconds, per_layer_metrics
    from serve import ServeMixed
    from spans import Tracer
    from workloads import AsyncObject, ColumnarSync, Context, PooledExactStore
    from yardstick import at_reference_pace

    # Start the resource tracker before any pool forks.  Workers forked earlier
    # have no tracker to inherit, start their own on the first shared-memory
    # unit (>= 16 trials) they attach, and that tracker reports the parent's
    # already-unlinked segment as leaked when the worker exits.
    resource_tracker.ensure_running()
    classes = {cls.name: cls for cls in (ColumnarSync, PooledExactStore, AsyncObject, ServeMixed)}
    name = arguments.workload
    traced = arguments.child == "traced"
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()  # before any pool forks, so workers inherit the wrappers
    context = Context(
        workload_index=list(WORKLOADS).index(name),
        seed=arguments.seed,
        seconds=arguments.seconds,
        scratch=Path(arguments.scratch),
        inputs=Path(arguments.inputs),
        verifier=Verifier(),
        tracer=tracer,
    )
    workload = classes[name](context)
    import_s = time.perf_counter() - _PROCESS_START
    result: dict[str, Any] = {"workload": name, "mode": arguments.child}
    try:
        workload.build_inputs()
        with context.pace.around() as bracket:
            setup_start = time.perf_counter()
            workload.setup()
            result["setup_wall_s"] = import_s + time.perf_counter() - setup_start
        result["setup_lap_s"] = bracket.lap_s
        result["setup_s"] = at_reference_pace(result["setup_wall_s"], result["setup_lap_s"])
        if arguments.child == "setup":
            return _emit(result)

        registry = get_registry()
        if tracer is not None:
            tracer.reset()
            worker_baseline = tracer.worker_totals()
        registry_baseline = registry.snapshot()
        main, contrast = workload.measure()
        registry_delta = snapshot_delta(registry.snapshot(), registry_baseline)
        if tracer is not None:
            parent_totals = {key: list(value) for key, value in tracer.totals.items()}
            worker_totals = tracer.worker_totals(worker_baseline)
            span_count = len(tracer.spans)
            if arguments.spans_out and tracer.spans:
                Path(arguments.spans_out).write_text(json.dumps(tracer.spans))
        workload.verify()

        result["end_to_end"] = {
            "trials_per_s": main.rate,
            "contrast_per_s": contrast.rate,
            "result_p50_ms": main.latency_ms(50),
            "contrast_p50_ms": contrast.latency_ms(50),
        }
        result["timed_wall_s"] = main.wall_s + contrast.wall_s
        result["paced_wall_s"] = main.paced_wall_s + contrast.paced_wall_s
        result["phases"] = {"main": main.to_record(), "contrast": contrast.to_record()}
        if tracer is not None:
            extras = workload.layer_extras()
            for label, phase in (("main", main), ("contrast", contrast)):
                extras[f"geometry.lp_solves_per_trial.{label}"] = phase.lp_solves / sum(phase.block_ops)
            result["per_layer"] = per_layer_metrics(
                parent_totals, worker_totals, registry_delta, context.row_counters,
                pool_wall_s=main.wall_s, workers=workload.workers, extras=extras,
            )
            result["layer_seconds"] = layer_seconds(parent_totals, worker_totals)
            result["span_totals"] = {
                span: {"calls": calls, "total_s": total, "self_s": own}
                for span, (calls, total, own) in sorted(parent_totals.items())
            }
            result["worker_span_totals"] = {
                span: {"calls": calls, "self_s": own}
                for span, (calls, own) in sorted(worker_totals.items())
            }
            result["spans_recorded"] = span_count
    finally:
        workload.close()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["end_to_end"]["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux
    result["sizes"] = workload.sizes()
    result["seeds"] = context.seeds
    result["attempted"] = context.verifier.attempted
    result["failed"] = context.verifier.failed
    result["problems"] = context.verifier.problems
    result["versions"] = {
        "numpy": numpy.__version__, "scipy": scipy.__version__, "engine": ENGINE_VERSION,
    }
    return _emit(result)


def _emit(result: dict[str, Any]) -> int:
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent: fresh subprocesses, set-up medians, the record
# ---------------------------------------------------------------------------


def run_child(
    mode: str, workload: str, arguments: argparse.Namespace, scratch: Path, spans_out: str = ""
) -> dict[str, Any]:
    """Run ``run.py --child <mode>`` in a fresh interpreter; return its result."""
    scratch.mkdir(parents=True)
    inputs = scratch.parent / "inputs"
    inputs.mkdir(exist_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", workload,
        "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
        "--scratch", str(scratch), "--inputs", str(inputs),
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} ({mode}) exited with code {completed.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, arguments: argparse.Namespace, scratch: Path) -> dict[str, Any]:
    """All the processes of one workload; returns its part of the record."""
    untraced = run_child("full", workload, arguments, scratch / "full")
    entry: dict[str, Any] = {
        key: untraced[key]
        for key in ("seeds", "sizes", "phases", "timed_wall_s", "paced_wall_s", "versions")
    }
    attempted, failed = untraced["attempted"], untraced["failed"]
    problems = list(untraced["problems"])
    setups = [untraced]
    if arguments.trace:
        spans_out = f"{arguments.out}.{workload}.spans.json" if arguments.out else ""
        traced = run_child("traced", workload, arguments, scratch / "traced", spans_out)
        setups.append(traced)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        per_layer = traced["per_layer"]
        # both walls at the reference pace: the two processes ran minutes apart
        per_layer["trace.overhead_share"] = traced["paced_wall_s"] / untraced["paced_wall_s"] - 1.0
        entry["per_layer"] = _with_units(per_layer, PER_LAYER)
        for key in ("layer_seconds", "span_totals", "worker_span_totals", "spans_recorded"):
            entry[key] = traced[key]
        entry["traced_wall_s"] = traced["timed_wall_s"]
    else:
        for repeat in range(1, SETUP_REPEATS):
            setups.append(run_child("setup", workload, arguments, scratch / f"setup{repeat}"))
    for key in ("setup_s", "setup_wall_s", "setup_lap_s"):
        entry[f"{key}_samples"] = [child[key] for child in setups]
    setup_s = statistics.median(entry["setup_s_samples"])
    entry["end_to_end"] = _with_units(dict(untraced["end_to_end"], setup_s=setup_s), END_TO_END)
    entry["attempted"], entry["failed"] = attempted, failed
    entry["failed_share"] = failed / attempted
    entry["problems"] = problems
    return entry


def _with_units(values: dict[str, float], catalogue: tuple[Any, ...]) -> dict[str, Any]:
    return {metric.name: {"value": values[metric.name], "unit": metric.unit} for metric in catalogue}


def environment() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPOSITORY, capture_output=True, text=True, check=False
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "load_average": list(os.getloadavg()),
    }


def report(workload: str, entry: dict[str, Any], trace: bool) -> dict[str, Any]:
    """Print the workload's metrics by name; return the driver's result object."""
    shown = entry["per_layer"] if trace else entry["end_to_end"]
    print(f"== {workload}  ({'per-layer, traced run' if trace else 'end-to-end, untraced run'})")
    for name, cell in shown.items():
        print(f"{workload:<20} {name:<36} {cell['value']:>14.6g} {cell['unit']}")
    print(f"{workload:<20} {'failed_share':<36} {entry['failed_share']:>14.6g} "
          f"({entry['failed']} of {entry['attempted']} checked operations)")
    for problem in entry["problems"]:
        print(f"  FAILED {problem}")
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": shown,
    }


def coverage_complaint(workload: str, entry: dict[str, Any]) -> str | None:
    """Why a traced campaign record must not be written, or ``None``."""
    if workload not in CAMPAIGN_WORKLOADS or "per_layer" not in entry:
        return None
    coverage = entry["per_layer"]["trace.coverage_share"]["value"]
    if coverage >= MIN_COVERAGE:
        return None
    loose = entry["layer_seconds"].get("harness (unattributed)", {}).get("blocking_s", 0.0)
    return (
        f"{workload}: layer spans cover {coverage:.1%} of the timed wall (< {MIN_COVERAGE:.0%}); "
        f"{loose:.2f} s sit between run_campaign and the first layer span "
        "(executor glue, row callbacks) and belong to no layer"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="default: all four, in turn")
    parser.add_argument("--seed", type=int, required=True, help="every input derives from it")
    parser.add_argument("--seconds", type=float, default=20.0, help="nominal timed length of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: also run traced and print the per-layer metrics")
    parser.add_argument("--out", help="write the run's JSON record here")
    parser.add_argument("--child", choices=("full", "traced", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default="", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"ledger: no program to measure — {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    if arguments.child:
        return child_main(arguments)

    record: dict[str, Any] = {
        "ledger": 1,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "traced": bool(arguments.trace),
        "environment": environment(),
        "workloads": {},
    }
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    results = []
    if arguments.out:  # fail now, not after minutes of measuring
        Path(arguments.out).parent.mkdir(parents=True, exist_ok=True)
    SCRATCH_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH_PARENT) as scratch:
            for name in names:
                entry = run_workload(name, arguments, Path(scratch) / name)
                record["workloads"][name] = entry
                record["environment"].update(entry.pop("versions"))
                results.append(report(name, entry, bool(arguments.trace)))
    finally:
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run is using it
    complaints = [
        complaint for name in names
        if (complaint := coverage_complaint(name, record["workloads"][name])) is not None
    ]
    for complaint in complaints:
        print(f"ledger: {complaint}", file=sys.stderr)
    if arguments.out and not complaints:
        Path(arguments.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    elif arguments.out:
        print(f"ledger: record not written to {arguments.out}", file=sys.stderr)
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) and not complaints else 1


if __name__ == "__main__":
    sys.exit(main())
