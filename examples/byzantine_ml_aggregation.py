"""Byzantine-robust gradient aggregation (restricted-round synchronous BVC).

A parameter server is replaced by a decentralised ring of workers that must
agree on an aggregate gradient each step.  Honest workers hold noisy copies of
the true gradient; Byzantine workers send arbitrary poison vectors.  Simple
averaging is destroyed by a single attacker, and coordinate-wise medians can
leave the convex hull of the honest gradients; BVC aggregation guarantees the
agreed update is a convex combination of honest gradients, so a descent
direction for the honest objective is preserved.

The example compares three aggregation rules on the same inputs and attack:

* plain mean (non-robust baseline),
* coordinate-wise median (robust per coordinate, but can exit the hull),
* restricted-round synchronous BVC (this paper).

Run with:  python examples/byzantine_ml_aggregation.py
"""

from __future__ import annotations

import numpy as np

from repro import check_approximate_outcome, run_restricted_sync_bvc
from repro.analysis.report import render_table
from repro.byzantine import RandomNoiseStrategy
from repro.core.baselines import coordinatewise_median
from repro.geometry.convex_hull import distance_to_hull
from repro.workloads import gradient_registry

EPSILON = 0.05


def main() -> None:
    # 5 workers, 2-dimensional gradients (easy to eyeball), 1 Byzantine worker:
    # exactly the restricted synchronous bound n = (d+2)f + 1 = 5.
    registry = gradient_registry(
        process_count=5, dimension=2, fault_bound=1, gradient_scale=1.0, noise_scale=0.05, seed=13
    )
    honest_cloud = registry.honest_input_multiset()
    honest_centroid = honest_cloud.mean(axis=0)

    # The Byzantine worker sends large random junk, different in every message.
    attack = {
        pid: RandomNoiseStrategy(low=-50.0, high=50.0, seed=17) for pid in registry.faulty_ids
    }
    poison = np.asarray([50.0, -50.0])

    # Baseline 1: plain mean over what a naive aggregator would collect
    # (honest gradients + one poison vector).
    naive_inputs = np.vstack([honest_cloud, poison[None, :]])
    naive_mean = naive_inputs.mean(axis=0)

    # Baseline 2: coordinate-wise median over the same collection.
    median_aggregate = coordinatewise_median(naive_inputs)

    # This paper: restricted-round synchronous BVC among the workers themselves.
    outcome = run_restricted_sync_bvc(
        registry,
        epsilon=EPSILON,
        adversary_mutators=attack,
        value_bounds=(-2.0, 2.0),
        max_rounds_override=12,
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=EPSILON)
    bvc_aggregate = outcome.decisions[registry.honest_ids[0]]

    rows = [
        {
            "aggregation rule": "plain mean (poisoned)",
            "aggregate": np.round(naive_mean, 3).tolist(),
            "distance to honest centroid": float(np.linalg.norm(naive_mean - honest_centroid)),
            "distance outside honest hull": distance_to_hull(honest_cloud, naive_mean),
        },
        {
            "aggregation rule": "coordinate-wise median",
            "aggregate": np.round(median_aggregate, 3).tolist(),
            "distance to honest centroid": float(np.linalg.norm(median_aggregate - honest_centroid)),
            "distance outside honest hull": distance_to_hull(honest_cloud, median_aggregate),
        },
        {
            "aggregation rule": "BVC (restricted sync rounds)",
            "aggregate": np.round(bvc_aggregate, 3).tolist(),
            "distance to honest centroid": float(np.linalg.norm(bvc_aggregate - honest_centroid)),
            "distance outside honest hull": distance_to_hull(honest_cloud, bvc_aggregate),
        },
    ]

    print(f"true gradient direction (honest centroid): {np.round(honest_centroid, 3).tolist()}")
    print(f"Byzantine workers: {sorted(registry.faulty_ids)}")
    print()
    print(render_table(rows))
    print()
    print(f"BVC epsilon-agreement across workers: {report.agreement_ok} "
          f"(max disagreement {report.max_disagreement:.4f}, eps={EPSILON})")
    print(f"BVC validity (inside honest-gradient hull): {report.validity_ok}")
    print(f"rounds: {outcome.rounds_executed}   messages: {outcome.messages_sent}")


if __name__ == "__main__":
    main()
