"""Multi-robot rendezvous with Byzantine robots (asynchronous approximate BVC).

A team of robots in a 3-D arena must agree on a meeting point.  Each robot
proposes its own position; up to ``f`` robots are compromised and report
positions outside the arena (or different positions to different peers), and
the wireless network delivers messages with arbitrary delays.  Running the
asynchronous Approximate BVC algorithm, the honest robots converge to meeting
points that are (i) within ``epsilon`` of each other on every axis and
(ii) inside the convex hull of the honest robots' true positions — so the
rendezvous point is always physically reachable and sensible.

Run with:  python examples/robot_rendezvous.py
"""

from __future__ import annotations

import numpy as np

from repro import check_approximate_outcome, run_approx_bvc
from repro.analysis.convergence import max_range_per_round
from repro.analysis.report import render_series, render_table
from repro.byzantine import EquivocationStrategy
from repro.network.scheduler import LaggingScheduler
from repro.workloads import robot_position_registry

ARENA_SIZE = 10.0
EPSILON = 0.25


def main() -> None:
    # 6 robots in a 10x10x10 arena, one compromised: exactly the asynchronous
    # bound n = (d+2)f + 1 = 6 for d = 3, f = 1.
    registry = robot_position_registry(
        process_count=6, fault_bound=1, dimension=3, arena_size=ARENA_SIZE, seed=7
    )

    # The compromised robot equivocates: it reports a different honest robot's
    # position to every peer, trying to split the team.
    honest_positions = [registry.input_of(pid) for pid in registry.honest_ids]
    attack = {pid: EquivocationStrategy(value_pool=honest_positions) for pid in registry.faulty_ids}

    # The network is asynchronous; additionally one honest robot has a flaky,
    # slow link (its messages are delivered last), which the algorithm must
    # tolerate without waiting for it.
    slow_robot = registry.honest_ids[-1]
    scheduler = LaggingScheduler(slow_processes=[slow_robot], seed=11)

    # The static termination rule of the paper is very conservative (it uses
    # the worst-case contraction gamma = 1/n^2 and the full arena as the value
    # range); we print that bound but run a shorter, fixed number of rounds and
    # verify epsilon-agreement on the measured decisions instead.
    from repro.core.approx_bvc import round_threshold, witness_contraction_factor

    gamma = witness_contraction_factor(registry.configuration.process_count, 1)
    static_rounds = round_threshold(ARENA_SIZE, EPSILON, gamma)
    outcome = run_approx_bvc(
        registry,
        epsilon=EPSILON,
        adversary_mutators=attack,
        scheduler=scheduler,
        value_bounds=(0.0, ARENA_SIZE),
        max_rounds_override=15,
    )
    report = check_approximate_outcome(registry, outcome.decisions, epsilon=EPSILON)

    print("honest robot positions:")
    rows = [
        {"robot": pid, "position": np.round(registry.input_of(pid), 3).tolist()}
        for pid in registry.honest_ids
    ]
    print(render_table(rows))
    print()
    print(f"compromised robots: {sorted(registry.faulty_ids)} (equivocating)")
    print(f"slow honest robot:  {slow_robot} (messages maximally delayed)")
    print()

    print("rendezvous points decided by each honest robot:")
    rows = [
        {"robot": pid, "rendezvous": np.round(vector, 3).tolist()}
        for pid, vector in sorted(outcome.decisions.items())
    ]
    print(render_table(rows))
    print()
    ranges = max_range_per_round(outcome.state_histories)
    print(render_series(ranges[:12], "max state spread, first rounds"))
    print()
    print(f"epsilon-agreement (eps={EPSILON}): {report.agreement_ok} "
          f"(max disagreement {report.max_disagreement:.4f})")
    print(f"validity (inside honest hull):     {report.validity_ok}")
    print(f"rounds run: {outcome.rounds_executed} "
          f"(paper's worst-case static threshold would be {static_rounds})   "
          f"deliveries: {outcome.deliveries}")


if __name__ == "__main__":
    main()
