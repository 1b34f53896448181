"""Unified simulation engine: declarative trials, campaigns, parallel sweeps.

The engine turns "run this protocol once" into "run thousands of (protocol,
workload, adversary, scheduler, seed) configurations fast and reproducibly":

* :class:`~repro.engine.spec.TrialSpec` — one execution as plain data;
* :func:`~repro.engine.trial.run_trial` — spec in, flat
  :class:`~repro.engine.spec.TrialResult` out (a pure function of the spec);
* :class:`~repro.engine.campaign.Campaign` — grid declarations expanded into
  deterministic trial lists with ``SeedSequence.spawn`` seed derivation;
* :class:`~repro.engine.session.CampaignSession` — one observable campaign
  execution: typed progress events, spec-order row streaming, cooperative
  cancellation, status snapshots;
* :func:`~repro.engine.session.run_campaign` — the blocking form of a
  session: rows stream into a JSONL sink, a callback and/or a list.

The experiment runners in :mod:`repro.analysis.experiments` and the
``python -m repro.cli campaign`` command are thin layers over this module.
"""

from repro.engine.campaign import Campaign, parameter_grid
from repro.engine.session import (
    ENGINE_CHOICES,
    SESSION_STATES,
    CampaignSession,
    CampaignStatus,
    ClaimedEvent,
    FallbackEvent,
    FinishedEvent,
    PlannedEvent,
    RowEvent,
    SessionEvent,
    UnitCommittedEvent,
    plan_specs,
    run_campaign,
)
from repro.engine.pool import (
    CostModel,
    ExecutionUnit,
    UnitObservation,
    WorkerPool,
    execute_plan,
    get_pool,
    shutdown_pools,
)
from repro.engine.factories import (
    ADVERSARY_NAMES,
    COORDINATED_STRATEGY_NAMES,
    SCHEDULER_NAMES,
    STRATEGY_NAMES,
    WORKLOAD_NAMES,
    AdversaryBundle,
    build_mutators,
    build_registry,
    build_scheduler,
    derive_faulty_seeds,
    make_adversaries,
    make_strategy,
    minimum_processes_for,
)
from repro.engine.fuzz import (
    FUZZ_ADVERSARIES,
    FUZZ_PROTOCOLS,
    FUZZ_WORKLOADS,
    FuzzReport,
    FuzzViolation,
    run_fuzz,
    sample_specs,
)
from repro.engine.spec import (
    PROTOCOLS,
    JsonlSink,
    TrialResult,
    TrialSpec,
    iter_jsonl,
    read_jsonl,
    strip_timing,
)
from repro.engine.trial import run_trial
from repro.engine.vectorized import (
    VECTORIZED_ASYNC_SCHEDULERS,
    VECTORIZED_RESTRICTED_ADVERSARIES,
    FallbackReason,
    run_specs_vectorized,
    spec_is_vectorizable,
    vectorization_fallback,
    vectorized_group_key,
)

__all__ = [
    "ADVERSARY_NAMES",
    "COORDINATED_STRATEGY_NAMES",
    "ENGINE_CHOICES",
    "FUZZ_ADVERSARIES",
    "FUZZ_PROTOCOLS",
    "FUZZ_WORKLOADS",
    "PROTOCOLS",
    "SCHEDULER_NAMES",
    "STRATEGY_NAMES",
    "VECTORIZED_ASYNC_SCHEDULERS",
    "VECTORIZED_RESTRICTED_ADVERSARIES",
    "WORKLOAD_NAMES",
    "SESSION_STATES",
    "AdversaryBundle",
    "FallbackReason",
    "Campaign",
    "CampaignSession",
    "CampaignStatus",
    "ClaimedEvent",
    "CostModel",
    "ExecutionUnit",
    "FallbackEvent",
    "FinishedEvent",
    "FuzzReport",
    "FuzzViolation",
    "JsonlSink",
    "PlannedEvent",
    "RowEvent",
    "SessionEvent",
    "UnitCommittedEvent",
    "UnitObservation",
    "TrialResult",
    "TrialSpec",
    "WorkerPool",
    "build_mutators",
    "build_registry",
    "build_scheduler",
    "derive_faulty_seeds",
    "execute_plan",
    "get_pool",
    "iter_jsonl",
    "make_adversaries",
    "make_strategy",
    "minimum_processes_for",
    "parameter_grid",
    "plan_specs",
    "read_jsonl",
    "run_campaign",
    "run_fuzz",
    "run_specs_vectorized",
    "run_trial",
    "sample_specs",
    "shutdown_pools",
    "spec_is_vectorizable",
    "strip_timing",
    "vectorization_fallback",
    "vectorized_group_key",
]
