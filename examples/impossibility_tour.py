"""A tour of the paper's lower bounds, computed rather than proved.

For each dimension ``d`` this example evaluates the constructions behind the
necessity halves of Theorems 1 and 4 with the library's LP machinery:

* Theorem 1 (synchronous, exact, f = 1): with ``n = d + 1`` processes holding
  the standard basis vectors plus the origin, the intersection of all
  leave-one-out hulls is empty — no decision can be valid no matter the
  algorithm.  With one more process the obstruction vanishes.
* Theorem 4 (asynchronous, approximate, f = 1): with ``n = d + 2`` processes,
  validity alone forces each process's decision to equal its own input, and
  those inputs are ``4 * epsilon`` apart — epsilon-agreement is unreachable.

It also prints the resilience landscape (minimum ``n`` for every setting),
which is the content of the paper's summary table of bounds.  The three
tables are the fixed E2, E7 and E13 tables of ``python -m repro.cli run``.

Run with:  python examples/impossibility_tour.py
"""

from __future__ import annotations

from repro.analysis.experiments import (
    experiment_async_impossibility,
    experiment_resilience_landscape,
    experiment_sync_impossibility,
)
from repro.analysis.report import render_table


def main() -> None:
    print(render_table(
        experiment_sync_impossibility(),
        title="Theorem 1 necessity: Gamma emptiness below vs at the bound (f = 1)",
    ))
    print()
    print(render_table(
        experiment_async_impossibility(),
        title="Theorem 4 necessity: forced decision gap at n = d + 2 (f = 1)",
    ))
    print()
    print(render_table(
        experiment_resilience_landscape(),
        title="Resilience landscape: minimum n per setting",
    ))


if __name__ == "__main__":
    main()
