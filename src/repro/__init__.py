"""repro — a reproduction of "Byzantine Vector Consensus in Complete Graphs".

Vaidya & Garg (PODC 2013) study consensus where every process proposes a
``d``-dimensional vector and the decision must lie in the convex hull of the
non-faulty processes' inputs, despite up to ``f`` Byzantine processes.  This
package implements the paper's algorithms and bounds end-to-end on simulated
synchronous and asynchronous message-passing systems:

* :mod:`repro.core` — the Exact BVC algorithm, the asynchronous Approximate
  BVC algorithm, the restricted-round variants, the safe area ``Gamma``, the
  resilience bounds, and the impossibility constructions;
* :mod:`repro.geometry` — the convex-geometry substrate (hulls, Tverberg
  partitions, the ``Gamma`` kernel and its halfspace-depth oracle), mostly
  phrased as linear programs;
* :mod:`repro.network`, :mod:`repro.processes` — complete-graph FIFO
  networks with synchronous and asynchronous runtimes;
* :mod:`repro.consensus`, :mod:`repro.broadcast` — the broadcast substrates
  (EIG Byzantine broadcast, Bracha reliable broadcast, the AAD witness
  exchange);
* :mod:`repro.byzantine` — adversary strategies;
* :mod:`repro.engine` — the unified simulation engine: declarative trial
  specs, campaign grids with deterministic seed derivation, and a
  worker-pool executor streaming JSONL results;
* :mod:`repro.workloads`, :mod:`repro.analysis` — input generators,
  experiment runners and reporting.

Quick start::

    from repro import run_exact_bvc, check_exact_outcome
    from repro.workloads import probability_vector_registry

    registry = probability_vector_registry(process_count=5, dimension=3, fault_bound=1)
    outcome = run_exact_bvc(registry)
    report = check_exact_outcome(registry, outcome.decisions)
    assert report.agreement_ok and report.validity_ok
"""

from repro.core import (
    ApproxBVCProcess,
    ExactBVCProcess,
    ProtocolOutcome,
    SafeAreaCalculator,
    Setting,
    SystemConfiguration,
    ValidityReport,
    check_approximate_outcome,
    check_exact_outcome,
    contraction_factor,
    witness_contraction_factor,
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
    minimum_processes_restricted_async,
    minimum_processes_restricted_sync,
    round_threshold,
    run_approx_bvc,
    run_coordinatewise_consensus,
    run_exact_bvc,
    run_restricted_async_bvc,
    run_restricted_sync_bvc,
    safe_area_point,
)
from repro.engine import Campaign, TrialResult, TrialSpec, run_campaign, run_trial
from repro.processes import ProcessRegistry
from repro.store.keys import PACKAGE_VERSION as __version__

__all__ = [
    "ApproxBVCProcess",
    "ExactBVCProcess",
    "ProtocolOutcome",
    "SafeAreaCalculator",
    "Setting",
    "SystemConfiguration",
    "ValidityReport",
    "check_approximate_outcome",
    "check_exact_outcome",
    "contraction_factor",
    "witness_contraction_factor",
    "minimum_processes_approx_async",
    "minimum_processes_exact_sync",
    "minimum_processes_restricted_async",
    "minimum_processes_restricted_sync",
    "round_threshold",
    "run_approx_bvc",
    "run_coordinatewise_consensus",
    "run_exact_bvc",
    "run_restricted_async_bvc",
    "run_restricted_sync_bvc",
    "safe_area_point",
    "Campaign",
    "TrialResult",
    "TrialSpec",
    "run_campaign",
    "run_trial",
    "ProcessRegistry",
    "__version__",
]
