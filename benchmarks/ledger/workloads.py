"""The three campaign workloads: seed -> specs, timed blocks, output checks.

Every input is generated here from the run's ``--seed``; the program under
test receives only the generated specs.  A phase is a sequence of *blocks* —
campaigns of one fixed shape whose seeds differ — and the phase's throughput
is the median of the per-block rates, which a stall in one block cannot move.
The number of blocks scales with ``--seconds`` through constants timed on the
parent commit, so the same ``--seed`` and ``--seconds`` always run the same
work, however fast the machine is.

No timed phase executes a spec twice in one process: ``engine/vectorized.py``
memoises Gamma points per process, and a repeated grid would measure the memo
(1.08 s -> 0.043 s in prototyping), not the engine.  Warm-up campaigns use
their own seeds.  The one deliberate replay is ``pooled_exact_store``'s warm
phase, whose point is the store read path.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.engine import Campaign, run_campaign, shutdown_pools, strip_timing
from repro.engine.spec import TrialResult
from repro.obs.registry import get_registry

from checks import Verifier
from spans import ROOT, Tracer
from yardstick import Pace, at_reference_pace

INDEPENDENT_ADVERSARIES = ("crash", "equivocate", "outside_hull", "random_noise")

#: Round-capped restricted trials run with this epsilon.  The static
#: termination rule needs hundreds of rounds at these sizes (uncapped
#: ``restricted_async`` at d=2 measured 33 s per trial), and under a 2-3 round
#: cap the paper guarantees contraction, not 0.2-agreement: equivocation left
#: 0.43 after three rounds in prototyping.  With inputs in the unit box every
#: capped row therefore passes agreement by construction; validity and the
#: object-engine cross-check are the checks with teeth on these phases.
CAPPED_EPSILON = 1.0


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must not be empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def derive_seed(*path: int) -> int:
    """One 32-bit seed from a path of integers, via ``SeedSequence``."""
    return int(np.random.SeedSequence(list(path)).generate_state(1, dtype=np.uint32)[0])


@dataclass
class Phase:
    """Timings of one phase, block by block.

    Every block's wall clock and latencies are stated at the reference pace
    (``yardstick``) and summarised per block; the phase's number is the median
    over its blocks, so neither the machine's speed nor a stall in one block
    moves it.
    """

    label: str
    unit: str  # what ``ops`` counts: "trials", "rows" or "reads"
    block_ops: list[int] = field(default_factory=list)
    block_wall_s: list[float] = field(default_factory=list)
    block_latencies_ms: list[list[float]] = field(default_factory=list)
    #: Seconds per yardstick lap around each block (mean of before and after).
    block_lap_s: list[float] = field(default_factory=list)
    #: Kernel LPs solved inside the phase's blocks (counted in traced runs only).
    lp_solves: float = 0.0

    def add_block(self, ops: int, wall_s: float, latencies_ms: list[float], lap_s: float) -> None:
        self.block_ops.append(ops)
        self.block_wall_s.append(wall_s)
        self.block_latencies_ms.append(latencies_ms)
        self.block_lap_s.append(lap_s)

    @property
    def rate(self) -> float:
        """Median over the blocks of operations per second at the reference pace."""
        return statistics.median(
            ops / at_reference_pace(wall_s, lap_s)
            for ops, wall_s, lap_s in zip(self.block_ops, self.block_wall_s, self.block_lap_s)
        )

    def latency_ms(self, percent: float) -> float:
        """Median over the blocks of the block's ``percent``-th percentile latency."""
        return statistics.median(
            at_reference_pace(percentile(latencies_ms, percent), lap_s)
            for latencies_ms, lap_s in zip(self.block_latencies_ms, self.block_lap_s)
        )

    @property
    def wall_s(self) -> float:
        return sum(self.block_wall_s)

    @property
    def paced_wall_s(self) -> float:
        """Wall clock the phase's operations take at :attr:`rate`."""
        return sum(self.block_ops) / self.rate

    def to_record(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "unit": self.unit,
            "blocks": len(self.block_ops),
            "block_ops": self.block_ops,
            "block_wall_s": [round(wall, 6) for wall in self.block_wall_s],
            "block_lap_s": [round(lap, 6) for lap in self.block_lap_s],
            "block_p50_ms": [round(percentile(block, 50), 4) for block in self.block_latencies_ms],
            "latency_samples": sum(len(latencies) for latencies in self.block_latencies_ms),
        }


@dataclass
class Context:
    """What the runner hands a workload."""

    workload_index: int
    seed: int
    seconds: float
    #: This process's own scratch directory.
    scratch: Path
    #: Generated inputs shared by the processes of one run (built once).
    inputs: Path
    verifier: Verifier
    tracer: Tracer | None = None
    pace: Pace = field(default_factory=Pace)
    #: Every seed derived so far, by name (written into the record).
    seeds: dict[str, int] = field(default_factory=dict)
    #: Protocol counters summed over timed rows (per-layer ``runtime.*`` metrics).
    row_counters: dict[str, int] = field(
        default_factory=lambda: {"rows": 0, "messages": 0, "async_rows": 0, "deliveries": 0}
    )

    def seed_for(self, name: str, index: int = 0) -> int:
        """The seed named ``name`` (and ``index``), derived from ``--seed``."""
        key = name if index == 0 else f"{name}[{index}]"
        if key not in self.seeds:
            label = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
            self.seeds[key] = derive_seed(self.seed, self.workload_index, label, index)
        return self.seeds[key]

    def blocks(self, per_second: float) -> int:
        """Block count for a phase: ``--seconds`` times a calibrated constant."""
        return max(2, round(self.seconds * per_second))

    def root_span(self) -> Any:
        return self.tracer.span(ROOT) if self.tracer is not None else contextlib.nullcontext()

    def lp_solves(self) -> float:
        """Kernel LPs solved so far in every process (0 when not tracing)."""
        if self.tracer is None:
            return 0.0
        events = get_registry().snapshot()["repro_kernel_events_total"]["samples"]
        return events.get(("lp_solves",), 0.0)


def run_block(
    context: Context, phase: Phase, campaigns: Sequence[Campaign], where: str, **run_options: Any
) -> list[tuple[list[TrialResult], Any]]:
    """Run ``campaigns`` back to back as one timed block of ``phase``; check the rows after.

    A row's latency runs from the ``run_campaign`` call to the ``on_result``
    callback that hands the row over — what a consumer streaming the campaign
    waits for that result.  Returns each campaign's rows and summary.
    """
    outcomes: list[tuple[list[TrialResult], Any]] = []
    latencies_ms: list[float] = []
    wall = 0.0
    solved_before = context.lp_solves()
    with context.pace.around() as bracket, context.root_span():
        for campaign in campaigns:
            arrivals: list[float] = []
            results: list[TrialResult] = []

            def on_result(result: TrialResult) -> None:
                arrivals.append(time.perf_counter())
                results.append(result)

            start = time.perf_counter()
            summary, _ = run_campaign(campaign, on_result=on_result, **run_options)
            wall += time.perf_counter() - start
            latencies_ms += [(arrival - start) * 1e3 for arrival in arrivals]
            outcomes.append((results, summary))
    phase.add_block(sum(map(len, campaigns)), wall, latencies_ms, bracket.lap_s)
    phase.lp_solves += context.lp_solves() - solved_before
    counters = context.row_counters
    for campaign, (results, _) in zip(campaigns, outcomes):
        context.verifier.check(
            len(results) == len(campaign), f"{where}: {len(results)} rows for {len(campaign)} specs"
        )
        context.verifier.check_results(results, where)
        for result in results:
            counters["rows"] += 1
            counters["messages"] += result.messages_sent or 0
            if result.deliveries is not None:
                counters["async_rows"] += 1
                counters["deliveries"] += result.deliveries
    return outcomes


def extra_rate(context: Context, campaign: Campaign, where: str, **run_options: Any) -> float:
    """Trials per second of one campaign outside the phases, at the reference pace."""
    with context.pace.around() as bracket:
        start = time.perf_counter()
        _, results = run_campaign(campaign, collect=True, **run_options)
        wall = time.perf_counter() - start
    context.verifier.check_results(results, where)
    return len(campaign) / at_reference_pace(wall, bracket.lap_s)


def restricted_sync_grid(
    name: str, process_count: int, adversaries: Sequence[str], repeats: int, base_seed: int
) -> Campaign:
    return Campaign.from_grid(
        name,
        protocols=("restricted_sync",),
        adversaries=adversaries,
        dimensions=(2,),
        fault_bounds=(1,),
        process_counts=(process_count,),
        epsilons=(CAPPED_EPSILON,),
        repeats=repeats,
        base_seed=base_seed,
        max_rounds_override=3,
    )


class Workload:
    """Base class: the runner calls the methods below in this order."""

    name = ""
    #: How many workers' worth of CPU the timed phases can use.
    workers = 1

    def __init__(self, context: Context) -> None:
        self.context = context

    def build_inputs(self) -> None:
        """Generate inputs that are data, not program set-up (not in ``setup_s``)."""

    def setup(self) -> None:
        """Everything a user waits for before the first timed operation."""

    def measure(self) -> tuple[Phase, Phase]:
        """Run the main and the contrast phase."""
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that run outside every timed window."""

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics that need runs of their own (traced run only)."""
        return {}

    def sizes(self) -> dict[str, Any]:
        """The shapes and counts this run used (written into the record)."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started."""
        shutdown_pools()


class ColumnarSync(Workload):
    """In-process ``run_campaign(engine="auto", workers=1)``, no store.

    *shared* (main): restricted_sync d=2 f=1, 3 rounds — n=13 under
    {none, crash, outside_hull, coordinate_attack} and n=17 under
    {split_world, hull_collapse, adaptive_extreme}.  Honest processes hold
    the same receive matrix, so the columnar engine's view dedup leaves one
    family of Gamma LPs per trial and round.

    *divergent* (contrast): n=13 under equivocate — the same kernel, but
    every recipient sees its own view, so there is nothing to dedup (the
    ROADMAP's 1.4x row).  A dedup or memo gain bought with raw solve speed
    shows here as a loss.
    """

    name = "columnar_sync"
    SHARED_N13 = ("none", "crash", "outside_hull", "coordinate_attack")
    SHARED_N17 = ("split_world", "hull_collapse", "adaptive_extreme")
    DIVERGENT = ("equivocate",)
    #: Share of timed specs re-run on the object engine as the oracle.
    ORACLE_SHARE = 0.05

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        # shared block: 8 + 6 trials, ~2.4 s; divergent block: 2 trials, ~3 s.
        self.shared_blocks = context.blocks(0.15)
        self.divergent_blocks = context.blocks(0.15)
        self._timed: list[TrialResult] = []

    def sizes(self) -> dict[str, Any]:
        return {
            "shared": {"blocks": self.shared_blocks, "n13": [list(self.SHARED_N13), 2],
                       "n17": [list(self.SHARED_N17), 2], "rounds": 3},
            "divergent": {"blocks": self.divergent_blocks, "n13": [list(self.DIVERGENT), 2],
                          "rounds": 3},
        }

    def shared_block(self, index: int) -> Campaign:
        context = self.context
        small = restricted_sync_grid("n13", 13, self.SHARED_N13, 2, context.seed_for("shared-n13", index))
        large = restricted_sync_grid("n17", 17, self.SHARED_N17, 2, context.seed_for("shared-n17", index))
        return Campaign.from_specs(f"shared-{index}", small.specs + large.specs)

    def divergent_block(self, index: int) -> Campaign:
        return restricted_sync_grid(
            f"divergent-{index}", 13, self.DIVERGENT, 2, self.context.seed_for("divergent", index)
        )

    def setup(self) -> None:
        context = self.context
        warmup = Campaign.from_specs(
            "warmup",
            restricted_sync_grid("w13", 13, ("none", "crash"), 2, context.seed_for("warmup-n13")).specs
            + restricted_sync_grid("w17", 17, ("split_world",), 2, context.seed_for("warmup-n17")).specs,
        )
        run_campaign(warmup, workers=1)

    def measure(self) -> tuple[Phase, Phase]:
        shared = Phase("shared", "trials")
        divergent = Phase("divergent", "trials")
        # Alternate the phases' blocks, so both sample the whole run's span of
        # machine conditions instead of one half each.
        for index in range(max(self.shared_blocks, self.divergent_blocks)):
            if index < self.shared_blocks:
                self._timed += run_block(
                    self.context, shared, [self.shared_block(index)], "shared", workers=1
                )[0][0]
            if index < self.divergent_blocks:
                self._timed += run_block(
                    self.context, divergent, [self.divergent_block(index)], "divergent", workers=1
                )[0][0]
        return shared, divergent

    def verify(self) -> None:
        """Re-run a seeded sample on the object engine: rows must match exactly."""
        context = self.context
        count = max(1, round(self.ORACLE_SHARE * len(self._timed)))
        rng = np.random.default_rng(context.seed_for("oracle-sample"))
        chosen = sorted(rng.choice(len(self._timed), size=count, replace=False).tolist())
        specs = [self._timed[position].spec for position in chosen]
        tracer = context.tracer
        if tracer is not None:
            tracer.enabled = False  # the oracle is not part of any timed layer
        try:
            _, oracle = run_campaign(specs_campaign("oracle", specs), engine="object", collect=True)
        finally:
            if tracer is not None:
                tracer.enabled = True
        expected = strip_timing(result.to_row() for result in oracle)
        actual = strip_timing(self._timed[position].to_row() for position in chosen)
        for position, want, got in zip(chosen, expected, actual):
            context.verifier.check(
                want == got, f"oracle: columnar row {position} differs from the object engine"
            )

    def layer_extras(self) -> dict[str, float]:
        """Coordinated n=17 trials at workers=2 over workers=1 (ROADMAP's E19 row).

        Each side gets its own seeds: fork workers inherit the parent's memo
        caches, so replaying the workers=1 specs would measure the memo.
        """
        context = self.context
        rates = {}
        for workers in (1, 2):
            campaign = restricted_sync_grid(
                f"w{workers}", 17, self.SHARED_N17, 4, context.seed_for("w2-speedup", workers)
            )
            if workers > 1:
                # calibrate the pool's cost model on this shape outside the timing
                run_campaign(
                    restricted_sync_grid("w2-warmup", 17, self.SHARED_N17, 2,
                                         context.seed_for("w2-speedup-warmup")),
                    workers=workers,
                )
            rates[workers] = extra_rate(
                context, campaign, f"w2-speedup workers={workers}", workers=workers
            )
        return {"engine.pool.columnar_w2_speedup": rates[2] / rates[1]}


def specs_campaign(name: str, specs: Sequence[Any]) -> Campaign:
    """A campaign over ``specs`` verbatim (``from_specs`` would renumber them)."""
    return Campaign(name=name, specs=tuple(specs))


class PooledExactStore(Workload):
    """``run_campaign(workers=2, pool="persistent", store=<fresh SQLite>)``.

    *cold* (main): ``exact`` at the paper's bound, d in {1,2,3}, f=1, under
    the four independent adversaries — thousands of ~15 ms object-engine
    trials, so pool transport and unit cutting, commit-before-emit and
    ``put_rows`` are visible next to geometry (about half the wall here).

    *warm* (contrast): the identical campaigns again, served from the store —
    the read side (``contains_keys`` + ``get_rows``) of what cold wrote.  One
    warm block replays half of the cold campaigns :attr:`WARM_PASSES` times.
    """

    name = "pooled_exact_store"
    workers = 2
    REPEATS = 5  # 3 dimensions x 4 adversaries x 5 = 60 trials per block, ~0.7 s cold
    WARM_PASSES = 4  # a pass over half the cold blocks takes ~0.05 s

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        self.cold_blocks = 2 * context.blocks(0.4)
        self.replays = 2 * context.blocks(0.4)
        self.store_path = context.scratch / "pooled.db"

    def sizes(self) -> dict[str, Any]:
        return {
            "cold": {"blocks": self.cold_blocks, "dimensions": [1, 2, 3],
                     "adversaries": list(INDEPENDENT_ADVERSARIES), "repeats": self.REPEATS},
            "warm": {"blocks": self.replays, "passes_per_block": self.WARM_PASSES},
        }

    def block(self, index: int, repeats: int | None = None, name: str = "cold") -> Campaign:
        return Campaign.from_grid(
            f"{name}-{index}",
            protocols=("exact",),
            adversaries=INDEPENDENT_ADVERSARIES,
            dimensions=(1, 2, 3),
            fault_bounds=(1,),
            repeats=self.REPEATS if repeats is None else repeats,
            base_seed=self.context.seed_for(name, index),
        )

    def setup(self) -> None:
        # Spawns the pool, probes every shape into its cost model, and takes
        # SQLite through schema creation and a first commit.
        run_campaign(
            self.block(0, repeats=4, name="warmup"),
            workers=self.workers,
            store=self.context.scratch / "pooled-warmup.db",
        )

    def measure(self) -> tuple[Phase, Phase]:
        context = self.context
        cold = Phase("cold", "trials")
        warm = Phase("warm", "rows")
        run_options = {"workers": self.workers, "store": self.store_path}
        # Two halves — cold blocks, then replays of exactly those blocks — so
        # each phase samples two stretches of the run, not one.
        for half in range(2):
            campaigns = [self.block(index) for index in range(half, self.cold_blocks, 2)]
            cold_digests = [
                _digest(run_block(context, cold, [campaign], "cold", **run_options)[0][0])
                for campaign in campaigns
            ]
            for replay in range(half, self.replays, 2):
                where = f"warm replay {replay}"
                outcomes = run_block(
                    context, warm, campaigns * self.WARM_PASSES, where, **run_options
                )
                for campaign, cold_digest, (results, summary) in zip(
                    campaigns * self.WARM_PASSES, cold_digests * self.WARM_PASSES, outcomes
                ):
                    context.verifier.check(
                        summary.cache_hits == len(campaign),
                        f"{where}: {summary.cache_hits} cache hits for {len(campaign)} trials",
                    )
                    context.verifier.check(
                        _digest(results) == cold_digest, f"{where}: rows differ from the cold pass"
                    )
        return cold, warm

    def layer_extras(self) -> dict[str, float]:
        """The same shape without a store: what the store and commit path cost."""
        rates = [
            extra_rate(
                self.context, self.block(index, name="no-store"), "no-store", workers=self.workers
            )
            for index in range(2)
        ]
        return {"store.no_store_trials_per_s": statistics.median(rates)}


def _digest(results: Sequence[TrialResult]) -> str:
    """SHA-256 of the exported JSONL lines (timing field included)."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


class AsyncObject(Workload):
    """``run_campaign(workers=1)`` over the asynchronous protocols.

    *approx* (main): the paper's asynchronous approximate BVC at
    n=(d+2)f+1, d in {1,2}, f=1, random scheduler, four adversaries.  Every
    trial falls back to the object engine: ``AsynchronousRuntime``, reliable
    broadcast, witness exchange (~40% of wall) and fused ``points_batch``
    calls (~58%).  The fuzz row of the ROADMAP, made repeatable.

    *restricted_async* (contrast): d=2, n=7 under {crash, equivocate}, capped
    at two rounds — the same runtime and kernel without the witness exchange.
    """

    name = "async_object"
    RESTRICTED_ADVERSARIES = ("crash", "equivocate")

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        # approx block: 8 trials, ~3.8 s; restricted block: 4 trials, ~2 s.
        self.approx_blocks = context.blocks(0.15)
        self.restricted_blocks = context.blocks(0.20)

    def sizes(self) -> dict[str, Any]:
        return {
            "approx": {"blocks": self.approx_blocks, "dimensions": [1, 2],
                       "adversaries": list(INDEPENDENT_ADVERSARIES), "repeats": 1},
            "restricted_async": {"blocks": self.restricted_blocks, "n": 7, "rounds": 2,
                                 "adversaries": list(self.RESTRICTED_ADVERSARIES), "repeats": 2},
        }

    def approx_block(self, name: str, index: int, adversaries: Sequence[str]) -> Campaign:
        return Campaign.from_grid(
            f"{name}-{index}",
            protocols=("approx",),
            adversaries=adversaries,
            schedulers=("random",),
            dimensions=(1, 2),
            fault_bounds=(1,),
            repeats=1,
            base_seed=self.context.seed_for(name, index),
        )

    def restricted_block(self, name: str, index: int, repeats: int) -> Campaign:
        return Campaign.from_grid(
            f"{name}-{index}",
            protocols=("restricted_async",),
            adversaries=self.RESTRICTED_ADVERSARIES,
            schedulers=("random",),
            dimensions=(2,),
            fault_bounds=(1,),
            process_counts=(7,),
            epsilons=(CAPPED_EPSILON,),
            repeats=repeats,
            base_seed=self.context.seed_for(name, index),
            max_rounds_override=2,
        )

    def setup(self) -> None:
        warmup = self.approx_block("warmup-approx", 0, ("crash",))
        run_campaign(specs_campaign("warmup-approx", warmup.specs[:1]), workers=1)  # d=1 only
        warmup = self.restricted_block("warmup-restricted", 0, 1)
        run_campaign(specs_campaign("warmup-restricted", warmup.specs[:1]), workers=1)

    def measure(self) -> tuple[Phase, Phase]:
        approx = Phase("approx", "trials")
        restricted = Phase("restricted_async", "trials")
        # Alternate the phases' blocks (see ColumnarSync.measure).
        for index in range(max(self.approx_blocks, self.restricted_blocks)):
            if index < self.approx_blocks:
                run_block(
                    self.context, approx,
                    [self.approx_block("approx", index, INDEPENDENT_ADVERSARIES)], "approx", workers=1,
                )
            if index < self.restricted_blocks:
                run_block(
                    self.context, restricted,
                    [self.restricted_block("restricted", index, 2)], "restricted_async", workers=1,
                )
        return approx, restricted
