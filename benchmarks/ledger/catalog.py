"""Names the ledger fixes: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root repeats these names for the driver;
``test_catalog.py`` fails when the two sides drift.  Every later issue cites a
number by ``(workload, metric)`` from this file, so a rename here is a
breaking change to the ledger.

Every workload has a *main* phase, whose mechanism an optimisation is
expected to move, and a *contrast* phase that runs the same code where that
mechanism cannot help.  The end-to-end metrics are defined per phase so that
each of them exists on every workload (the driver requires each run to print
all of them):

=================== ================== ======================= ==============
workload            main phase         contrast phase          latency sample
=================== ================== ======================= ==============
columnar_sync       shared views       divergent views         submit -> row
pooled_exact_store  cold (compute +    warm (replay from the   submit -> row
                    commit)            store)
async_object        approx BVC         restricted_async,       submit -> row
                                       2-round cap
serve_mixed         busy (campaigns    quiet (reads only)      busy: POST -> row
                    streamed beside                            quiet: HTTP read
                    reads)
=================== ================== ======================= ==============
"""

from __future__ import annotations

from dataclasses import dataclass

#: Module names of the layers the per-layer metrics are grouped by.
LAYERS = (
    "geometry",
    "runtime",
    "engine.vectorized",
    "engine.trial",
    "engine.session",
    "engine.pool",
    "store",
    "service",
    "server",
)

#: Workload name -> why it exists (one line each, copied into BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "columnar_sync": (
        "in-process restricted_sync campaigns: geometry is ~95% of wall and columnar "
        "dedup decides how many LPs run; the divergent phase gives dedup nothing to share"
    ),
    "pooled_exact_store": (
        "thousands of ~15 ms exact trials on 2 pool workers into a fresh SQLite store: "
        "pool transport, commit-before-emit and put_rows show; the warm phase replays from the store"
    ),
    "async_object": (
        "the paper's asynchronous algorithm; every trial falls back to the object engine "
        "(AsynchronousRuntime, reliable broadcast, witness exchange, fused kernel batches)"
    ),
    "serve_mixed": (
        "repro serve as a subprocess: one closed-loop keep-alive reader alone (quiet), then beside "
        "a submitter streaming campaigns (busy); framing, service caches and store reads dominate"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One named metric: unit, direction, and (end-to-end only) its bound."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen before a
    #: change counts as a regression; ``None`` for per-layer metrics.
    bound: float | None = None
    help: str = ""


#: Every timing is stated at the reference pace of ``yardstick.py``: raw wall
#: clocks on the 2-core virtual machine this was written on move by up to 39%
#: between one quarter of an hour and the next.  Paced, ten runs of one commit
#: on ten seeds spread by 3-24% (interquartile range over median) while the host
#: is calm, and past 0.25 on the two-process phases inside a long steal spell
#: (README "How steady the numbers are").  The timing bounds are the widest the
#: driver admits.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "imports, pool spawn + cost-model warm-up, store creation, server readiness "
           "(median of several fresh-process set-ups, at the reference pace)"),
    Metric("trials_per_s", "1/s", "higher", 0.25,
           "trials computed per second in the main phase (median over blocks, at the reference pace)"),
    Metric("contrast_per_s", "1/s", "higher", 0.25,
           "trials, replayed rows or HTTP reads per second in the contrast phase"),
    Metric("result_p50_ms", "ms", "lower", 0.25,
           "main phase: median latency from asking for a result to holding it"),
    Metric("contrast_p50_ms", "ms", "lower", 0.25,
           "contrast phase: median result latency"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "largest resident set among the workload process and its children"),
)

#: The four read routes the serve_mixed reader cycles through.
READ_ROUTES = ("query", "aggregate", "stats", "revalidate")


def _per_layer() -> tuple[Metric, ...]:
    metrics = [
        # geometry: kernel.py, linprog.py, convex_hull.py
        Metric("geometry.solve_s", "s", "lower", help="time inside GammaKernel.point/points_batch/points_multi"),
        Metric("geometry.lp_solves", "count", "lower", help="LPs the kernel solved (all processes)"),
        Metric("geometry.ms_per_solve", "ms", "lower", help="geometry.solve_s / geometry.lp_solves"),
        Metric("geometry.lp_solves_per_trial.main", "count", "lower",
               help="kernel LPs per trial of the main phase: what dedup and memo leave to solve"),
        Metric("geometry.lp_solves_per_trial.contrast", "count", "lower",
               help="the same in the contrast phase"),
        Metric("geometry.family_prune_s", "s", "lower", help="time inside pruned_subset_family"),
        Metric("geometry.dedup_hit_ratio", "ratio", "higher", help="points_multi queries answered by a bitwise-identical cloud"),
        Metric("geometry.template_hit_ratio", "ratio", "higher", help="constraint-template cache hits / lookups"),
        Metric("geometry.dense_solve_share", "ratio", "higher", help="LPs taken by the dense n<=9 path"),
        Metric("geometry.relaxed_solves", "count", "lower", help="minimum-slack fallback solves"),
        Metric("geometry.fused_batch_share", "ratio", "higher", help="kernel queries that arrived through points_batch"),
        Metric("geometry.hull_check_s", "s", "lower", help="contains_point/distance_to_hull validity LPs outside the kernel"),
        # engines
        Metric("engine.vectorized.self_s", "s", "lower", help="run_specs_vectorized minus geometry"),
        Metric("engine.vectorized.memo_hit_ratio", "ratio", "higher", help="point+decision memo hits / lookups"),
        Metric("engine.vectorized.trials", "count", "higher", help="trials the columnar engine executed"),
        Metric("engine.trial.self_s", "s", "lower", help="run_trial minus runtime and geometry"),
        Metric("engine.trial.trials", "count", "higher", help="trials the object engine executed"),
        Metric("engine.session.fallbacks", "count", "lower", help="specs the planner routed to the object engine"),
        Metric("runtime.self_s", "s", "lower", help="protocol drivers (network/, broadcast/, core/) minus geometry"),
        Metric("runtime.messages_per_trial", "count", "lower", help="messages_sent per row"),
        Metric("runtime.deliveries_per_trial", "count", "lower", help="deliveries per asynchronous row"),
        # session
        Metric("engine.session.plan_s", "s", "lower", help="plan_specs"),
        Metric("engine.session.key_s", "s", "lower", help="trial_key derivation"),
        Metric("engine.session.self_s", "s", "lower", help="CampaignSession.events minus its children"),
        Metric("engine.session.claim_wait_s", "s", "lower", help="repro_store_claim_wait_seconds sum"),
        # pool
        Metric("engine.pool.units", "count", "lower", help="units dispatched"),
        Metric("engine.pool.unit_s", "s", "lower", help="worker-measured unit seconds, summed"),
        Metric("engine.pool.transport_s", "s", "lower", help="parent round-trip seconds minus unit seconds"),
        Metric("engine.pool.idle_share", "ratio", "lower", help="1 - unit_s / (workers x phase wall)"),
        Metric("engine.pool.probe_units", "count", "lower", help="cost-model calibration probes"),
        Metric("engine.pool.crash_recoveries", "count", "lower", help="workers respawned"),
        Metric("engine.pool.columnar_w2_speedup", "ratio", "higher",
               help="coordinated n=17 trials: workers=2 throughput over workers=1 (traced run only)"),
        # store
        Metric("store.put_rows_s", "s", "lower"),
        Metric("store.put_rows_calls", "count", "lower"),
        Metric("store.rows_written", "count", "higher"),
        Metric("store.commit_ms_per_row", "ms", "lower", help="store.put_rows_s / store.rows_written"),
        Metric("store.generation_bumps", "count", "lower"),
        Metric("store.claim_s", "s", "lower", help="claim_keys + release_claims"),
        Metric("store.get_rows_s", "s", "lower"),
        Metric("store.contains_keys_s", "s", "lower"),
        Metric("store.iter_entries_s", "s", "lower"),
        Metric("store.no_store_trials_per_s", "1/s", "higher",
               help="pooled_exact_store's shape at workers=2 without a store (traced run only)"),
    ]
    for stat, unit, source in (
        ("route_ms_p50", "ms", "client-side median"),
        ("route_ms_p99", "ms", "client-side p99"),
        ("handler_s", "s", "repro_http_request_seconds sum"),
    ):
        for route in READ_ROUTES:
            metrics.append(Metric(f"server.{stat}.{route}", unit, "lower", help=f"{source}, {route} route"))
    metrics += [
        Metric("server.quiet_read_ms_p99", "ms", "lower", help="quiet phase, all routes pooled"),
        Metric("server.busy_read_ms_p50", "ms", "lower", help="reads beside submitted compute, all routes pooled"),
        Metric("server.busy_read_ms_p99", "ms", "lower",
               help="same; the full /store/aggregate recompute after each commit lands here"),
        Metric("server.busy_reads", "count", "higher", help="reads completed during the busy phase"),
        Metric("server.framing_ms", "ms", "lower", help="mean client latency minus mean handler latency"),
        Metric("server.keepalive_reuse_ratio", "ratio", "higher", help="requests served on an already-used connection"),
        Metric("server.not_modified_share", "ratio", "higher", help="revalidations answered 304"),
        # service: direct CampaignService calls on a store copy, no HTTP
        Metric("service.query_rows_s", "s", "lower", help="mean seconds per uncached query_rows call"),
        Metric("service.aggregate_s", "s", "lower", help="mean seconds per uncached aggregate call"),
        Metric("service.etag_s", "s", "lower", help="mean seconds per uncached etag_for call"),
        Metric("service.cache_hit_ratio", "ratio", "higher", help="reads served without recomputing"),
        # validity of the table itself
        Metric("trace.coverage_share", "ratio", "higher", help="sum of layer self times / timed wall"),
        Metric("trace.overhead_share", "ratio", "lower", help="traced wall / untraced wall - 1, both at the reference pace"),
    ]
    return tuple(metrics)


PER_LAYER: tuple[Metric, ...] = _per_layer()
