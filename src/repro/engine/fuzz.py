"""Scenario fuzzing: random workload × adversary × scheduler compositions.

The ROADMAP's "as many scenarios as you can imagine" axis, made executable:
:func:`sample_specs` draws random — but seed-deterministic — compositions of
protocol, workload generator, adversary strategy (independent *and*
coordinated), delivery scheduler, ``(n, d, f)`` configuration and epsilon,
always at or above the paper's resilience bound for the protocol, and
:func:`run_fuzz` executes them through
:func:`~repro.engine.session.run_campaign` while asserting the paper's two
safety invariants on every completed trial:

* **agreement** (exact or epsilon, per protocol), and
* **validity** (every honest decision inside the honest-input hull).

Above the resilience bounds the theorems promise both invariants against
*every* adversary, so any violation — or any trial that errors out — is a
bug in the implementation (or a genuinely new attack) and is reported as a
violation row.  Because the harness runs as a
:class:`~repro.engine.session.CampaignSession`, fuzz runs inherit the
engine's guarantees: the same seed produces the same compositions and
byte-identical JSONL rows (modulo ``elapsed_ms``) for any worker count.

Protocol coverage notes baked into the defaults:

* ``coordinatewise`` is excluded — it is the *counterexample baseline* whose
  vector-validity violations are the expected behaviour (experiment E1), not
  an invariant to assert.
* ``restricted_async`` is excluded — its static round threshold
  (``gamma = 1/(n·C(n-f, n-3f))``) asks for hundreds of rounds, and any round
  cap forfeits the epsilon-agreement guarantee the harness asserts.  Uncapped
  runs are slow, not unbounded: on a 2-core VM one object-runtime trial took
  0.2–0.9 s at f = 1, d = 2 (149–291 rounds), 2–5 s at f = 1, d = 3 and
  6–30 s at f = 2, d = 1, each reaching agreement and validity.
* Approximate protocols fuzz at ``f = 1`` and small ``d`` so the static
  termination rule stays within seconds per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.engine.campaign import Campaign
from repro.engine.session import run_campaign
from repro.engine.factories import (
    ADVERSARY_NAMES,
    SCHEDULER_NAMES,
    minimum_processes_for,
)
from repro.engine.spec import PROTOCOLS, TrialResult, TrialSpec
from repro.obs.trace import TraceRecorder
from repro.exceptions import ConfigurationError

__all__ = [
    "FUZZ_PROTOCOLS",
    "FUZZ_WORKLOADS",
    "FUZZ_ADVERSARIES",
    "FuzzViolation",
    "FuzzReport",
    "sample_specs",
    "run_fuzz",
]

FUZZ_PROTOCOLS = ("exact", "approx", "restricted_sync")

FUZZ_WORKLOADS = ("uniform_box", "probability_vector", "robot_position", "gradient")

FUZZ_ADVERSARIES = ADVERSARY_NAMES

FUZZ_EPSILONS = (0.2, 0.3, 0.5)


def _pick(rng: np.random.Generator, options: Sequence[Any]) -> Any:
    return options[int(rng.integers(0, len(options)))]


def sample_specs(
    count: int,
    seed: int = 0,
    protocols: Sequence[str] = FUZZ_PROTOCOLS,
    workloads: Sequence[str] = FUZZ_WORKLOADS,
    adversaries: Sequence[str] = FUZZ_ADVERSARIES,
    schedulers: Sequence[str] = SCHEDULER_NAMES,
) -> list[TrialSpec]:
    """Draw ``count`` random scenario compositions, deterministically from ``seed``.

    Every sampled configuration sits at or up to one process above the
    protocol's resilience bound for its ``(d, f)`` — the regime where the
    paper guarantees both invariants against any adversary.  Trial root seeds
    are spawned from the same sequence, so the whole sample is a pure
    function of ``(count, seed, axes)``.
    """
    if count < 1:
        raise ConfigurationError("fuzz sample count must be at least 1")
    # Every axis must be a non-empty subset of its samplable set: an invalid
    # or empty axis here would otherwise surface downstream as trial errors
    # dressed up as invariant violations — the one thing a violation row must
    # never mean.  Only the fuzz-safe protocols are allowed (coordinatewise
    # violates validity by design, restricted_async cannot run unconstrained)
    # and fixed-instance workloads (intro_counterexample) ignore the sampled
    # (n, d, f).
    axes = (
        ("protocols", protocols, FUZZ_PROTOCOLS),
        ("workloads", workloads, FUZZ_WORKLOADS),
        ("adversaries", adversaries, ADVERSARY_NAMES),
        ("schedulers", schedulers, SCHEDULER_NAMES),
    )
    for axis_name, values, allowed in axes:
        if not values:
            raise ConfigurationError(f"fuzz axis {axis_name!r} must not be empty")
        unknown = set(values) - set(allowed)
        if unknown:
            raise ConfigurationError(
                f"{axis_name} not fuzzable: {sorted(unknown)}; "
                f"the samplable set is {', '.join(allowed)}"
            )
    # Child 0 drives the axis sampling; successive spawn calls continue the
    # child numbering, so the second spawn yields children 1..count — one
    # independent root seed per trial.
    root = np.random.SeedSequence(seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    trial_seeds = [
        int(child.generate_state(1, dtype=np.uint32)[0]) for child in root.spawn(count)
    ]
    specs: list[TrialSpec] = []
    for index in range(count):
        protocol = _pick(rng, protocols)
        synchronous = PROTOCOLS[protocol][0] == "sync"
        approximate = PROTOCOLS[protocol][1]
        # Approximate protocols keep (d, f) small so the static round rule
        # (conservative in gamma) stays within seconds per trial.
        dimension = int(_pick(rng, (1, 2, 3) if protocol == "exact" else (1, 2)))
        fault_bound = int(_pick(rng, (1, 2) if protocol == "exact" else (1,)))
        process_count = minimum_processes_for(protocol, dimension, fault_bound) + int(
            rng.integers(0, 2)
        )
        workload = _pick(rng, workloads)
        adversary = _pick(rng, adversaries)
        scheduler = _pick(rng, schedulers) if not synchronous else "random"
        epsilon = float(_pick(rng, FUZZ_EPSILONS)) if approximate else 0.2
        adversary_params: dict[str, Any] = {}
        if adversary == "coordinate_attack":
            adversary_params = {
                "coordinate": int(rng.integers(0, dimension)),
                "target": round(float(rng.uniform(-2.0, 2.0)), 3),
            }
        elif adversary == "theorem4_scenario":
            adversary_params = {"crash_round": int(rng.integers(1, 3))}
        specs.append(
            TrialSpec(
                protocol=protocol,
                workload=workload,
                adversary=adversary,
                scheduler=scheduler,
                process_count=process_count,
                dimension=dimension,
                fault_bound=fault_bound,
                epsilon=epsilon,
                seed=trial_seeds[index],
                adversary_params=adversary_params,
                trial_index=index,
            )
        )
    return specs


@dataclass(frozen=True)
class FuzzViolation:
    """One trial that broke an invariant (or crashed)."""

    trial_index: int
    reason: str  # "error" | "agreement" | "validity"
    detail: str
    spec: TrialSpec

    def to_row(self) -> dict[str, Any]:
        return {
            "trial": self.trial_index,
            "reason": self.reason,
            "protocol": self.spec.protocol,
            "workload": self.spec.workload,
            "adversary": self.spec.adversary,
            "scheduler": self.spec.scheduler,
            "n": self.spec.process_count,
            "d": self.spec.dimension,
            "f": self.spec.fault_bound,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run: counters plus every invariant violation."""

    name: str
    runs: int
    ok: int
    errors: int
    agreement_failures: int
    validity_failures: int
    elapsed_seconds: float
    workers: int
    violations: tuple[FuzzViolation, ...] = field(default=())
    #: Scenarios served straight from the results store (0 without a store).
    cache_hits: int = 0
    #: Executed scenarios demoted to the object engine, per fallback reason.
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: Identifier of the session that ran the sample ("" for hand-built reports).
    run_id: str = ""

    @property
    def clean(self) -> bool:
        """True when every sampled scenario upheld both invariants."""
        return not self.violations

    def to_row(self) -> dict[str, Any]:
        return {
            "fuzz": self.name,
            "runs": self.runs,
            "ok": self.ok,
            "errors": self.errors,
            "agreement_failures": self.agreement_failures,
            "validity_failures": self.validity_failures,
            "violations": len(self.violations),
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "seconds": round(self.elapsed_seconds, 3),
        }


def _violation_of(result: TrialResult) -> FuzzViolation | None:
    spec = result.spec
    if not result.ok:
        return FuzzViolation(spec.trial_index, "error", result.error or "unknown error", spec)
    if result.agreement is False:
        return FuzzViolation(
            spec.trial_index,
            "agreement",
            f"max_disagreement={result.max_disagreement:.3e} (epsilon={spec.epsilon})",
            spec,
        )
    if result.validity is False:
        return FuzzViolation(
            spec.trial_index,
            "validity",
            f"max_hull_distance={result.max_hull_distance:.3e}",
            spec,
        )
    return None


def run_fuzz(
    count: int = 200,
    seed: int = 0,
    workers: int = 1,
    jsonl_path: str | Path | None = None,
    protocols: Sequence[str] = FUZZ_PROTOCOLS,
    workloads: Sequence[str] = FUZZ_WORKLOADS,
    adversaries: Sequence[str] = FUZZ_ADVERSARIES,
    schedulers: Sequence[str] = SCHEDULER_NAMES,
    engine: str = "auto",
    store: Any = None,
    reuse_cached: bool = True,
    trace: TraceRecorder | None = None,
) -> FuzzReport:
    """Sample ``count`` scenarios and execute them, checking both invariants.

    Runs as a :class:`~repro.engine.session.CampaignSession`, so rows stream
    to the optional JSONL sink in trial order and the output is
    worker-count-invariant.  ``store`` (a
    :class:`~repro.store.backend.ResultStore` or path) enables the engine's
    write-through cache — invariants are still asserted on served rows, so a
    resumed fuzz run re-checks everything while recomputing nothing.  The
    report collects one :class:`FuzzViolation` per trial that errored,
    disagreed, or decided outside the honest hull; a clean report means
    every composition upheld the paper's guarantees.
    """
    specs = sample_specs(
        count,
        seed=seed,
        protocols=protocols,
        workloads=workloads,
        adversaries=adversaries,
        schedulers=schedulers,
    )
    campaign = Campaign.from_specs(f"fuzz-seed{seed}", specs)
    violations: list[FuzzViolation] = []

    def _check(result: TrialResult) -> None:
        violation = _violation_of(result)
        if violation is not None:
            violations.append(violation)

    summary, _ = run_campaign(
        campaign,
        workers=workers,
        jsonl_path=jsonl_path,
        on_result=_check,
        engine=engine,
        store=store,
        reuse_cached=reuse_cached,
        trace=trace,
    )
    return FuzzReport(
        name=campaign.name,
        runs=summary.trials,
        ok=summary.ok,
        errors=summary.errors,
        agreement_failures=summary.agreement_failures,
        validity_failures=summary.validity_failures,
        elapsed_seconds=summary.elapsed_seconds,
        workers=workers,
        violations=tuple(violations),
        cache_hits=summary.cache_hits,
        fallback_reasons=summary.fallback_reasons,
        run_id=summary.run_id,
    )
