"""The paper's contribution: Byzantine vector consensus algorithms and bounds."""

from repro.core.conditions import (
    Setting,
    SystemConfiguration,
    check_approx_async,
    check_exact_sync,
    check_restricted_async,
    check_restricted_sync,
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
    minimum_processes_restricted_async,
    minimum_processes_restricted_sync,
    minimum_processes_scalar,
    resilience_table,
)
from repro.core.safe_area import (
    SafeAreaCalculator,
    safe_area_contains,
    safe_area_is_empty,
    safe_area_point,
    safe_area_point_via_tverberg,
    safe_area_subset_count,
)
from repro.core.driver import ProtocolOutcome, run_protocol
from repro.core.exact_bvc import ExactBVCProcess, run_exact_bvc
from repro.core.approx_bvc import (
    ApproxBVCProcess,
    contraction_factor,
    round_threshold,
    run_approx_bvc,
)
from repro.core.restricted_sync import RestrictedSyncProcess, run_restricted_sync_bvc
from repro.core.restricted_async import (
    RestrictedAsyncProcess,
    restricted_async_contraction_factor,
    run_restricted_async_bvc,
)
from repro.core.validity import ValidityReport, check_approximate_outcome, check_exact_outcome
from repro.core.baselines import (
    CoordinateWiseConsensusProcess,
    coordinatewise_median,
    run_coordinatewise_consensus,
)
from repro.core.impossibility import (
    AsyncImpossibilityWitness,
    SyncImpossibilityWitness,
    analyze_async_necessity,
    analyze_sync_necessity,
    theorem1_construction,
    theorem4_construction,
)

__all__ = [
    "Setting",
    "SystemConfiguration",
    "check_approx_async",
    "check_exact_sync",
    "check_restricted_async",
    "check_restricted_sync",
    "minimum_processes_approx_async",
    "minimum_processes_exact_sync",
    "minimum_processes_restricted_async",
    "minimum_processes_restricted_sync",
    "minimum_processes_scalar",
    "resilience_table",
    "SafeAreaCalculator",
    "safe_area_contains",
    "safe_area_is_empty",
    "safe_area_point",
    "safe_area_point_via_tverberg",
    "safe_area_subset_count",
    "ProtocolOutcome",
    "run_protocol",
    "ExactBVCProcess",
    "run_exact_bvc",
    "ApproxBVCProcess",
    "contraction_factor",
    "round_threshold",
    "run_approx_bvc",
    "RestrictedSyncProcess",
    "run_restricted_sync_bvc",
    "RestrictedAsyncProcess",
    "restricted_async_contraction_factor",
    "run_restricted_async_bvc",
    "ValidityReport",
    "check_approximate_outcome",
    "check_exact_outcome",
    "CoordinateWiseConsensusProcess",
    "coordinatewise_median",
    "run_coordinatewise_consensus",
    "AsyncImpossibilityWitness",
    "SyncImpossibilityWitness",
    "analyze_async_necessity",
    "analyze_sync_necessity",
    "theorem1_construction",
    "theorem4_construction",
]
