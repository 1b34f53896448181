"""Command-line interface: run the paper's experiments without writing code.

Usage (after ``pip install -e .``)::

    python -m repro.cli list                      # list experiment ids and descriptions
    python -m repro.cli run E2                    # run one experiment, print its table
    python -m repro.cli run E1 E2 E3 E4 E6 E10    # several: the benchmarks/reference/ tables
    python -m repro.cli run all                   # run every experiment
    python -m repro.cli run E8 --output out.txt   # also write the table to a file
    python -m repro.cli bounds --dimension 3 --faults 2   # query the resilience bounds
    python -m repro.cli campaign --workers 4 --jsonl out.jsonl   # parallel trial sweep
    python -m repro.cli campaign --store sweep.db --resume       # resumable, cached sweep
    python -m repro.cli fuzz --count 200 --workers 4      # random-scenario invariant fuzz
    python -m repro.cli store stats --store sweep.db      # inspect a results store
    python -m repro.cli serve --store sweep.db            # HTTP API over store + executor
    python -m repro.cli --help                    # usage examples + documentation map

The experiment ids match ``DESIGN.md`` §4 and ``EXPERIMENTS.md``; E16 is the
independent-vs-coordinated adversary comparison.  No experiment reports a
duration: timing is the ledger's job (``benchmarks/ledger/run.py``).
The ``campaign`` command is the scale path: it expands a (protocol, workload,
adversary, scheduler, n/d/f, epsilon, repeat) grid — from flags or a JSON
file — into deterministic trials and fans them out over a worker pool,
streaming one JSON line per trial.  The ``fuzz`` command samples random
scenario compositions (including the coordinated adversaries) at or above
the resilience bounds and asserts agreement + validity on every run.  Both
accept ``--store PATH`` to record every trial in a content-addressed results
store and ``--resume`` to serve already-stored trials without re-executing
them; the ``store`` command group (``stats`` / ``query`` / ``export`` /
``gc`` / ``import``) inspects and manages such stores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import experiments
from repro.analysis.report import render_table
from repro.core.conditions import resilience_table
from repro.engine import (
    ADVERSARY_NAMES,
    ENGINE_CHOICES,
    FUZZ_ADVERSARIES,
    FUZZ_PROTOCOLS,
    FUZZ_WORKLOADS,
    PROTOCOLS,
    SCHEDULER_NAMES,
    STRATEGY_NAMES,
    WORKLOAD_NAMES,
    Campaign,
    run_campaign,
    run_fuzz,
)
from repro.obs.trace import (
    TraceRecorder,
    format_trace_summary,
    load_trace,
    summarize_trace,
)
from repro.store import (
    ENGINE_VERSION,
    TrialFilter,
    aggregate_store,
    open_store,
    query_store,
)

__all__ = ["EXPERIMENT_REGISTRY", "build_parser", "main"]

# Experiment id -> (description, zero-argument callable returning table rows).
EXPERIMENT_REGISTRY: dict[str, tuple[str, Callable[[], list[dict[str, object]]]]] = {
    "E1": (
        "Intro counterexample: coordinate-wise scalar consensus vs Exact BVC",
        experiments.experiment_baseline_validity,
    ),
    "E2": (
        "Theorem 1 necessity: Gamma emptiness below vs at the bound (f=1)",
        experiments.experiment_sync_impossibility,
    ),
    "E3": (
        "Lemma 1: Gamma non-empty at (d+1)f+1 points",
        experiments.experiment_safe_area_existence,
    ),
    "E4": (
        "Figure 1: Tverberg partition of the regular heptagon",
        experiments.experiment_figure1_tverberg,
    ),
    "E5": (
        "Theorem 3: Exact BVC at the bound under attack",
        experiments.experiment_exact_bvc,
    ),
    "E6": (
        "Section 2.2 LP: subset count and feasibility",
        experiments.experiment_safe_area_cost,
    ),
    "E7": (
        "Theorem 4 necessity: forced decision gap at n = d+2 (f=1)",
        experiments.experiment_async_impossibility,
    ),
    "E8": (
        "Theorem 5: Approximate async BVC at the bound under attack",
        experiments.experiment_approx_bvc,
    ),
    "E9": (
        "Equation (12): measured vs bound per-round contraction",
        experiments.experiment_contraction_rate,
    ),
    "E10": (
        "Appendix F: subsets explored, full vs witness-based",
        experiments.experiment_appendix_f,
    ),
    "E11": (
        "Theorem 6: restricted-round algorithms at their bounds (also covers E12)",
        experiments.experiment_restricted_rounds,
    ),
    "E13": (
        "Resilience landscape: minimum n per setting",
        experiments.experiment_resilience_landscape,
    ),
    "E14": (
        "Application workloads (probability vectors, robots, gradients)",
        experiments.experiment_applications,
    ),
    "E16": (
        "Adversary coordination: independent vs coordinated attacks at the bound",
        experiments.experiment_adversary_coordination,
    ),
}


def _experiment_order(experiment_id: str) -> tuple[int, str]:
    """Sort key putting ids in numeric order (E2 before E11, not after)."""
    digits = "".join(ch for ch in experiment_id if ch.isdigit())
    return (int(digits) if digits else 0, experiment_id)


def _ordered_experiment_ids() -> list[str]:
    return sorted(EXPERIMENT_REGISTRY, key=_experiment_order)


_EPILOG = """\
examples:
  python -m repro.cli list                    show every experiment id with a description
  python -m repro.cli run E3                  Lemma 1: Gamma non-empty at (d+1)f+1 points
  python -m repro.cli run E1 E2 E3 E4 E6 E10  the seeded tables in benchmarks/reference/
  python -m repro.cli run all --output out.txt
  python -m repro.cli bounds --dimension 3 --faults 2
  python -m repro.cli campaign --repeats 25 --workers 4 --jsonl sweep.jsonl
                                              100-trial Exact-BVC sweep on 4 workers
  python -m repro.cli campaign --protocols exact approx \\
      --adversaries crash outside_hull random_noise \\
      --dimensions 1 2 3 --repeats 5 --seed 7 --workers 4 --jsonl sweep.jsonl
  python -m repro.cli campaign --grid-file campaign.json --workers 8
  python -m repro.cli campaign --adversaries split_world hull_collapse \\
      --repeats 10 --workers 4
                                              coordinated-adversary sweep
  python -m repro.cli campaign --protocols restricted_sync --adversaries none crash \\
      --process-counts 13 --max-rounds 3 --repeats 10 --engine vectorized
                                              columnar batch execution
  python -m repro.cli fuzz --count 200 --seed 0 --workers 4 --jsonl fuzz.jsonl
                                              random scenarios, invariants asserted
  python -m repro.cli campaign --store sweep.db --jsonl sweep.jsonl
                                              record every trial in a results store
  python -m repro.cli campaign --store sweep.db --resume --jsonl sweep.jsonl
                                              resume: serve stored trials, run only misses
  python -m repro.cli store stats --store sweep.db
  python -m repro.cli store claims --store sweep.db
                                              outstanding cross-process claims
  python -m repro.cli store query --store sweep.db --protocol exact --status error
  python -m repro.cli store export --store sweep.db --output rows.jsonl
  python -m repro.cli store gc --store sweep.db   drop rows from older engine versions
  python -m repro.cli campaign --repeats 2 --summary-json -
                                              machine-readable summary line on stdout
  python -m repro.cli serve --store sweep.db --port 8321
                                              HTTP API: query/export the store,
                                              submit campaigns, stream rows
  python -m repro.cli campaign --repeats 5 --trace trace.json
                                              record a Chrome trace-event timeline
  python -m repro.cli trace summary trace.json
                                              top time sinks per phase (Perfetto
                                              or chrome://tracing renders the file)

campaigns and fuzz runs are deterministic: the same --seed produces
byte-identical JSONL rows (modulo the elapsed_ms timing field) for any
--workers value and any --engine choice (eligible synchronous trials run as
columnar array batches; everything else falls back to the object runtime).
that purity is what makes the results store safe: trials are keyed by a
content address of their spec, so an interrupted --store run resumed with
--resume executes only the missing trials and exports identical rows.

documentation:
  README.md                  install, quickstart, paper-section -> module map
  docs/ARCHITECTURE.md       layer stack: geometry kernel, runtimes, engine/campaigns
  docs/PERFORMANCE.md        measured numbers, read off the ledger (benchmarks/ledger/)
  docs/OBSERVABILITY.md      metric catalog, /metrics scraping, trace timelines

verify the installation with the tier-1 test suite:
  PYTHONPATH=src python -m pytest -x -q
"""


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Byzantine Vector Consensus in Complete Graphs' (PODC 2013)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser(
        "run",
        help="run experiments by id (or 'all')",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # Derive the advertised id range from the registry so the help text
    # cannot rot as experiments are added.
    ordered_ids = _ordered_experiment_ids()
    run_parser.add_argument(
        "experiment",
        nargs="+",
        help=f"experiment ids ({ordered_ids[0]}..{ordered_ids[-1]}) or 'all'",
    )
    run_parser.add_argument(
        "--output", type=Path, default=None, help="also write the rendered table(s) to this file"
    )
    run_parser.add_argument(
        "--store", type=Path, default=None,
        help="serve campaign-backed experiment trials from this results store "
             "(missing trials run and are recorded)",
    )

    bounds_parser = subparsers.add_parser("bounds", help="print the resilience bounds for (d, f)")
    bounds_parser.add_argument("--dimension", type=int, default=2, help="vector dimension d")
    bounds_parser.add_argument("--faults", type=int, default=1, help="fault bound f")

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="expand a trial grid and run it on a worker pool",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    campaign_parser.add_argument(
        "--grid-file",
        type=Path,
        default=None,
        help="JSON campaign file ({'grid': {...}} or {'trials': [...]}); overrides the grid flags",
    )
    campaign_parser.add_argument(
        "--name", default="cli-campaign", help="campaign name (used in the summary row)"
    )
    campaign_parser.add_argument(
        "--protocols", nargs="+", default=["exact"], choices=sorted(PROTOCOLS),
        help="protocols to sweep",
    )
    campaign_parser.add_argument(
        "--workloads", nargs="+", default=["uniform_box"], choices=WORKLOAD_NAMES,
        help="input workload generators",
    )
    campaign_parser.add_argument(
        "--adversaries", nargs="+",
        default=list(STRATEGY_NAMES),
        choices=ADVERSARY_NAMES,
        help="adversary strategies (independent and coordinated)",
    )
    campaign_parser.add_argument(
        "--schedulers", nargs="+", default=["random"], choices=SCHEDULER_NAMES,
        help="delivery schedulers (asynchronous protocols)",
    )
    campaign_parser.add_argument(
        "--dimensions", nargs="+", type=int, default=[2], help="vector dimensions d"
    )
    campaign_parser.add_argument(
        "--faults", nargs="+", type=int, default=[1], help="fault bounds f"
    )
    campaign_parser.add_argument(
        "--process-counts", nargs="+", type=int, default=None,
        help="process counts n (default: each protocol's minimum at its (d, f))",
    )
    campaign_parser.add_argument(
        "--epsilons", nargs="+", type=float, default=[0.2],
        help="epsilon-agreement parameters (approximate protocols)",
    )
    campaign_parser.add_argument(
        "--max-rounds", type=int, default=None,
        help="cap approximate protocols at this many rounds instead of the static rule",
    )
    campaign_parser.add_argument(
        "--repeats", type=int, default=25,
        help="repeat the grid this many times with fresh derived seeds",
    )
    campaign_parser.add_argument("--seed", type=int, default=0, help="campaign base seed")
    campaign_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = run inline)"
    )
    campaign_parser.add_argument(
        "--jsonl", type=Path, default=None, help="stream one JSON line per trial to this file"
    )
    campaign_parser.add_argument(
        "--engine", choices=ENGINE_CHOICES, default="auto",
        help="execution substrate: 'vectorized' runs eligible synchronous trials "
             "as columnar batches, 'object' forces the per-process runtime, "
             "'auto' (default) picks per shape group; rows are byte-identical "
             "(modulo elapsed_ms) for every choice",
    )
    _add_store_run_flags(campaign_parser)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="run random scenario compositions and assert the paper's invariants",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=200, help="number of scenario compositions to sample"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="fuzz sample seed")
    fuzz_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = run inline)"
    )
    fuzz_parser.add_argument(
        "--jsonl", type=Path, default=None, help="stream one JSON line per trial to this file"
    )
    fuzz_parser.add_argument(
        "--protocols", nargs="+", default=list(FUZZ_PROTOCOLS), choices=FUZZ_PROTOCOLS,
        help="protocols to sample from (only those whose invariants fuzzing may assert)",
    )
    fuzz_parser.add_argument(
        "--workloads", nargs="+", default=list(FUZZ_WORKLOADS), choices=FUZZ_WORKLOADS,
        help="input workloads to sample from (fixed-instance workloads excluded)",
    )
    fuzz_parser.add_argument(
        "--adversaries", nargs="+", default=list(FUZZ_ADVERSARIES), choices=ADVERSARY_NAMES,
        help="adversary strategies to sample from (independent and coordinated)",
    )
    fuzz_parser.add_argument(
        "--schedulers", nargs="+", default=list(SCHEDULER_NAMES), choices=SCHEDULER_NAMES,
        help="delivery schedulers to sample from (asynchronous protocols)",
    )
    fuzz_parser.add_argument(
        "--engine", choices=ENGINE_CHOICES, default="auto",
        help="execution substrate (see 'campaign --engine')",
    )
    _add_store_run_flags(fuzz_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the results store and campaign submission over HTTP",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve_parser.add_argument(
        "--store", type=Path, required=True,
        help="results store to serve (created if missing); submitted "
             "campaigns read cached trials from it and commit misses to it",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="default worker processes per submitted campaign "
             "(submissions may override with a 'workers' field)",
    )
    serve_parser.add_argument(
        "--max-active", type=int, default=2,
        help="campaign sessions executing concurrently",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=8,
        help="submissions allowed to queue behind the active sessions "
             "(beyond this, POST /campaigns answers 429)",
    )
    serve_parser.add_argument(
        "--idle-timeout", type=float, default=30.0,
        help="seconds a keep-alive connection may sit idle between requests "
             "before the server closes it",
    )
    serve_parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="record a Chrome trace-event timeline per submitted run to "
             "DIR/<run_id>.json (written when the run retires)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect Chrome trace-event timelines recorded with --trace",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summary_parser = trace_sub.add_parser(
        "summary", help="print the top time sinks per phase from a trace file"
    )
    trace_summary_parser.add_argument("path", type=Path, help="trace JSON file")
    trace_summary_parser.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and manage a content-addressed results store",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    def _store_common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--store", type=Path, required=True, help="results-store path"
        )

    def _store_filters(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--protocol", default=None, help="filter: protocol name")
        sub_parser.add_argument("--workload", default=None, help="filter: workload name")
        sub_parser.add_argument("--adversary", default=None, help="filter: adversary strategy")
        sub_parser.add_argument("--scheduler", default=None, help="filter: delivery scheduler")
        sub_parser.add_argument("--status", default=None, choices=("ok", "error"),
                                help="filter: trial status")
        sub_parser.add_argument("--dimension", type=int, default=None, help="filter: d")
        sub_parser.add_argument("--fault-bound", type=int, default=None, help="filter: f")
        sub_parser.add_argument("--process-count", type=int, default=None, help="filter: n")

    stats_parser = store_sub.add_parser(
        "stats", help="row counts by status and engine version, plus claim counters"
    )
    _store_common(stats_parser)

    claims_parser = store_sub.add_parser(
        "claims", help="list outstanding cross-process claims (owner, age)"
    )
    _store_common(claims_parser)

    query_parser = store_sub.add_parser(
        "query", help="list stored trials matching shape filters"
    )
    _store_common(query_parser)
    _store_filters(query_parser)
    query_parser.add_argument(
        "--limit", type=int, default=50, help="maximum rows to print (0 = no limit)"
    )
    query_parser.add_argument(
        "--aggregate", nargs="+", default=None, metavar="COLUMN",
        help="instead of listing trials, aggregate outcome counters grouped "
             "by these spec columns (e.g. --aggregate protocol adversary)",
    )

    export_parser = store_sub.add_parser(
        "export", help="write stored trial rows as JSONL (campaign-row schema)"
    )
    _store_common(export_parser)
    _store_filters(export_parser)
    export_parser.add_argument(
        "--output", type=Path, default=None,
        help="JSONL destination (default: stdout)",
    )
    export_parser.add_argument(
        "--engine-version", default=ENGINE_VERSION,
        help="export only rows recorded under this engine revision (default: "
             "the current one), keeping exports version-homogeneous — a "
             "re-import under one declared --engine-version stays truthful",
    )

    gc_parser = store_sub.add_parser(
        "gc", help="delete rows recorded under older engine versions (unreachable by lookup)"
    )
    _store_common(gc_parser)
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="only report how many rows would be deleted"
    )

    import_parser = store_sub.add_parser(
        "import", help="ingest a campaign/fuzz JSONL export into the store"
    )
    _store_common(import_parser)
    import_parser.add_argument(
        "--jsonl", type=Path, required=True, help="campaign/fuzz JSONL file to ingest"
    )
    import_parser.add_argument(
        "--engine-version", default=ENGINE_VERSION,
        help="engine revision that produced the rows (JSONL carries no stamp; "
             "importing an old export under its true version keeps its rows "
             "unreachable by current lookups instead of serving stale results; "
             f"default: {ENGINE_VERSION})",
    )

    return parser


def _add_store_run_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Attach the --store/--resume pair shared by `campaign` and `fuzz`."""
    sub_parser.add_argument(
        "--store", type=Path, default=None,
        help="record every trial row in this content-addressed results store "
             "(transactional per execution unit, so interrupted runs keep "
             "their completed work)",
    )
    sub_parser.add_argument(
        "--resume", action="store_true",
        help="serve trials already present in --store instead of re-executing "
             "them; only the missing trials run (requires --store)",
    )
    sub_parser.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="emit the summary row (plus run_id and per-reason fallback "
             "counts) as one machine-readable JSON line to PATH ('-' = stdout)",
    )
    sub_parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="record a Chrome trace-event timeline of the run to PATH "
             "(open in Perfetto / chrome://tracing, or summarise with "
             "'repro trace summary PATH')",
    )


def _emit_summary_json(destination: str, row: dict[str, object]) -> None:
    """Write the --summary-json line ('-' = stdout), always exactly one line."""
    line = json.dumps(row, sort_keys=True)
    if destination == "-":
        print(line)
    else:
        Path(destination).write_text(line + "\n", encoding="utf-8")


def _run_experiments(ids: Sequence[str]) -> str:
    sections: list[str] = []
    for experiment_id in ids:
        description, runner = EXPERIMENT_REGISTRY[experiment_id]
        rows = runner()
        sections.append(render_table(rows, title=f"{experiment_id} — {description}"))
    return "\n\n".join(sections)


def _build_campaign(arguments: argparse.Namespace) -> Campaign:
    if arguments.grid_file is not None:
        return Campaign.from_file(arguments.grid_file)
    return Campaign.from_grid(
        arguments.name,
        protocols=arguments.protocols,
        workloads=arguments.workloads,
        adversaries=arguments.adversaries,
        schedulers=arguments.schedulers,
        dimensions=arguments.dimensions,
        fault_bounds=arguments.faults,
        process_counts=arguments.process_counts,
        epsilons=arguments.epsilons,
        repeats=arguments.repeats,
        base_seed=arguments.seed,
        max_rounds_override=arguments.max_rounds,
    )


def _open_run_store(arguments: argparse.Namespace):
    """Resolve the --store/--resume pair for campaign/fuzz.

    Returns ``(store, reuse_cached)``; the caller owns closing the store.
    """
    if arguments.resume and arguments.store is None:
        raise SystemExit("--resume requires --store (nothing to resume from)")
    if arguments.store is None:
        return None, False
    return open_store(arguments.store), arguments.resume


def _print_store_outcome(arguments: argparse.Namespace, cache_hits: int, trials: int) -> None:
    executed = trials - cache_hits
    mode = "resume" if arguments.resume else "record"
    print(f"store {arguments.store} ({mode}): {cache_hits} served from cache, {executed} executed")


def _run_campaign_command(arguments: argparse.Namespace) -> int:
    campaign = _build_campaign(arguments)
    shape = campaign.describe()
    print(
        f"campaign '{shape['name']}': {shape['trials']} trials "
        f"(protocols={','.join(shape['protocols'])} adversaries={','.join(shape['adversaries'])}) "
        f"on {arguments.workers} worker(s)"
    )
    store, reuse_cached = _open_run_store(arguments)
    trace = TraceRecorder() if arguments.trace is not None else None
    try:
        summary, _ = run_campaign(
            campaign,
            workers=arguments.workers,
            jsonl_path=arguments.jsonl,
            engine=arguments.engine,
            store=store,
            reuse_cached=reuse_cached,
            trace=trace,
        )
    finally:
        if store is not None:
            store.close()
        # Written even on failure: a partial timeline is exactly what you
        # want when diagnosing the run that died.
        if trace is not None:
            trace.write(arguments.trace)
            print(f"wrote trace to {arguments.trace}")
    print(render_table([summary.to_row()], title="Campaign summary"))
    if store is not None:
        _print_store_outcome(arguments, summary.cache_hits, summary.trials)
    if arguments.jsonl is not None:
        print(f"wrote {summary.trials} rows to {arguments.jsonl}")
    if arguments.summary_json is not None:
        _emit_summary_json(
            arguments.summary_json,
            {
                **summary.to_row(),
                "run_id": summary.run_id,
                "fallback_reasons": dict(summary.fallback_reasons),
            },
        )
    return 0 if summary.errors == 0 else 1


def _run_fuzz_command(arguments: argparse.Namespace) -> int:
    print(
        f"fuzz: {arguments.count} scenario compositions (seed {arguments.seed}) "
        f"on {arguments.workers} worker(s)"
    )
    store, reuse_cached = _open_run_store(arguments)
    trace = TraceRecorder() if arguments.trace is not None else None
    try:
        report = run_fuzz(
            count=arguments.count,
            seed=arguments.seed,
            workers=arguments.workers,
            jsonl_path=arguments.jsonl,
            protocols=arguments.protocols,
            workloads=arguments.workloads,
            adversaries=arguments.adversaries,
            schedulers=arguments.schedulers,
            engine=arguments.engine,
            store=store,
            reuse_cached=reuse_cached,
            trace=trace,
        )
    finally:
        if store is not None:
            store.close()
        if trace is not None:
            trace.write(arguments.trace)
            print(f"wrote trace to {arguments.trace}")
    if store is not None:
        _print_store_outcome(arguments, report.cache_hits, report.runs)
    print(render_table([report.to_row()], title="Fuzz summary"))
    if arguments.jsonl is not None:
        print(f"wrote {report.runs} rows to {arguments.jsonl}")
    if arguments.summary_json is not None:
        _emit_summary_json(
            arguments.summary_json,
            {
                **report.to_row(),
                "run_id": report.run_id,
                "fallback_reasons": dict(report.fallback_reasons),
            },
        )
    if not report.clean:
        print(
            render_table(
                [violation.to_row() for violation in report.violations],
                title="Invariant violations",
            )
        )
        return 1
    print("all scenarios upheld agreement and validity")
    return 0


def _run_serve_command(arguments: argparse.Namespace) -> int:
    # Imported here so the CLI stays import-light for non-serving commands.
    from repro.server import run_server

    def _ready(host: str, port: int) -> None:
        # Flushed readiness line — smoke scripts wait for it before connecting.
        print(f"serving {arguments.store} on http://{host}:{port}", flush=True)

    run_server(
        str(arguments.store),
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        max_active=arguments.max_active,
        max_pending=arguments.max_pending,
        ready=_ready,
        idle_timeout=arguments.idle_timeout,
        trace_dir=str(arguments.trace_dir) if arguments.trace_dir is not None else None,
    )
    return 0


def _run_trace_command(arguments: argparse.Namespace) -> int:
    if not arguments.path.exists():
        raise SystemExit(f"no trace file at {arguments.path}")
    events = load_trace(arguments.path)
    summary = summarize_trace(events)
    print(format_trace_summary(summary, limit=arguments.limit))
    return 0


def _store_filter(arguments: argparse.Namespace) -> TrialFilter:
    return TrialFilter(
        protocol=arguments.protocol,
        workload=arguments.workload,
        adversary=arguments.adversary,
        scheduler=arguments.scheduler,
        status=arguments.status,
        dimension=arguments.dimension,
        fault_bound=arguments.fault_bound,
        process_count=arguments.process_count,
    )


def _run_store_command(arguments: argparse.Namespace) -> int:
    # Only `import` creates a store; reading a mistyped path must not leave
    # an empty database behind and report it as a store with no rows.
    if arguments.store_command != "import" and not arguments.store.exists():
        raise SystemExit(f"no result store at {arguments.store}")
    with open_store(arguments.store) as store:
        if arguments.store_command == "stats":
            stats = store.stats()
            print(render_table([{
                "backend": stats["backend"],
                "trials": stats["trials"],
                "stale": stats["stale_trials"],
                "claims_live": stats["claims_live"],
                "claims_expired": stats["claims_expired"],
                "engine_version": stats["current_engine_version"],
            }], title=f"Store {stats['path']}"))
            for title, counts in (("By status", stats["statuses"]),
                                  ("By engine version", stats["engine_versions"])):
                if counts:
                    rows = [{"value": value, "trials": count} for value, count in counts.items()]
                    print(render_table(rows, title=title))
            return 0
        if arguments.store_command == "claims":
            claims = store.list_claims()
            if not claims:
                print("no outstanding claims")
                return 0
            print(render_table(
                [
                    {
                        "key": claim["key"][:16],
                        "owner": claim["owner"],
                        "age_s": round(claim["age_seconds"], 1),
                        "state": "expired" if claim["expired"] else "live",
                    }
                    for claim in claims
                ],
                title=f"Outstanding claims ({len(claims)})",
            ))
            return 0
        if arguments.store_command == "query":
            trial_filter = _store_filter(arguments)
            if arguments.aggregate:
                rows = aggregate_store(
                    store, group_by=tuple(arguments.aggregate), trial_filter=trial_filter
                )
                print(render_table(rows, title="Store aggregate") if rows else "no matching trials")
                return 0
            if arguments.limit < 0:
                raise SystemExit("--limit must be >= 0 (0 means no limit)")
            limit = arguments.limit if arguments.limit > 0 else None
            hits = query_store(store, trial_filter, limit=limit)
            if not hits:
                print("no matching trials")
                return 0
            print(render_table([hit.to_row() for hit in hits], title="Store query"))
            return 0
        if arguments.store_command == "export":
            # Stream straight off iter_entries (key order, constant memory) —
            # query_store would buffer the whole result set as typed rows.
            # The stored row *is* the serialised form, so re-dumping it with
            # sorted keys reproduces TrialResult.to_json() byte-for-byte
            # without materialising results (and without tripping over rows
            # whose schema predates the current code).
            where = _store_filter(arguments).to_where()
            where["engine_version"] = arguments.engine_version
            lines = (
                json.dumps(entry.row, sort_keys=True)
                for entry in store.iter_entries(where=where)
            )
            if arguments.output is not None:
                with arguments.output.open("w", encoding="utf-8") as handle:
                    count = 0
                    for line in lines:
                        handle.write(line + "\n")
                        count += 1
                print(f"exported {count} rows to {arguments.output}")
            else:
                for line in lines:
                    print(line)
            return 0
        if arguments.store_command == "gc":
            stale = store.gc(dry_run=arguments.dry_run)
            verb = "would delete" if arguments.dry_run else "deleted"
            print(f"{verb} {stale} rows from engine versions other than {ENGINE_VERSION}")
            return 0
        # store_command == "import"
        ingested = store.import_jsonl(arguments.jsonl, engine_version=arguments.engine_version)
        print(f"imported {ingested} rows from {arguments.jsonl}")
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.command == "list":
        rows = [
            {"id": experiment_id, "description": EXPERIMENT_REGISTRY[experiment_id][0]}
            for experiment_id in _ordered_experiment_ids()
        ]
        print(render_table(rows, title="Available experiments"))
        return 0

    if arguments.command == "bounds":
        rows = resilience_table([arguments.dimension], [arguments.faults])
        print(render_table(rows, title="Minimum number of processes"))
        return 0

    if arguments.command == "campaign":
        return _run_campaign_command(arguments)

    if arguments.command == "fuzz":
        return _run_fuzz_command(arguments)

    if arguments.command == "serve":
        return _run_serve_command(arguments)

    if arguments.command == "trace":
        return _run_trace_command(arguments)

    if arguments.command == "store":
        return _run_store_command(arguments)

    # command == "run"
    requested = [name.upper() for name in arguments.experiment]
    for given, name in zip(arguments.experiment, requested):
        if name != "ALL" and name not in EXPERIMENT_REGISTRY:
            known = ", ".join(_ordered_experiment_ids())
            print(f"unknown experiment '{given}'; known ids: {known}, or 'all'", file=sys.stderr)
            return 2
    ids = _ordered_experiment_ids() if "ALL" in requested else requested

    store = open_store(arguments.store) if arguments.store is not None else None
    previous = experiments.set_result_store(store) if store is not None else None
    try:
        text = _run_experiments(ids)
    finally:
        if store is not None:
            experiments.set_result_store(previous)
            store.close()
    print(text)
    if arguments.output is not None:
        arguments.output.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
