"""Compare ledger records: ``compare.py A.json B.json``.

Each side may be several records of the same commit
(``compare.py A1.json A2.json A3.json --vs B1.json B2.json B3.json``); a side
is summarised by its median and quartiles.  One row is printed per
(workload, end-to-end metric) with the verdict

* ``worse`` — the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two sides overlap, so the records cannot tell;
* ``better`` — every run of the change beats every run of the base, and the
  medians differ by more than both sides' spread;
* ``same`` — otherwise.

``better`` is a label, not a claim: a gain is claimed from at least ten
alternating pairs of runs (see the choosing-metrics guide).  Every ratio is
printed with its base.  The exit code is non-zero on any ``worse`` row and on
a ``failed_share`` higher than the base's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))
from catalog import END_TO_END, Metric  # noqa: E402


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a single record)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def compare_metric(metric: Metric, base: Sequence[float], change: Sequence[float]) -> dict[str, Any]:
    """Verdict for one (workload, metric) pair; see the module docstring."""
    base_median, change_median = statistics.median(base), statistics.median(change)
    sign = 1.0 if metric.better == "lower" else -1.0
    #: positive = the change is worse, as a share of the base's median
    worsening = sign * (change_median - base_median) / abs(base_median)
    spread = max(_spread(base), _spread(change))
    if metric.better == "lower":
        all_better, all_worse = max(change) < min(base), min(change) > max(base)
    else:
        all_better, all_worse = min(change) > max(base), max(change) < min(base)
    if spread > metric.bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif worsening > metric.bound:
        verdict = "worse"
    elif all_better and -worsening > spread:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "verdict": verdict,
        "base_median": base_median,
        "change_median": change_median,
        "ratio": change_median / base_median,
        "spread": spread,
    }


def load(paths: Sequence[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(path).read_text()) for path in paths]


def compare(base: list[dict[str, Any]], change: list[dict[str, Any]]) -> int:
    """Print the table; return the number of rows that fail the comparison."""
    failures = 0
    on_both_sides = set().union(*(record["workloads"] for record in change))
    workloads = list(dict.fromkeys(
        name for record in base for name in record["workloads"] if name in on_both_sides
    ))
    print(f"{'workload':<20} {'metric':<18} {'verdict':<11} {'ratio':>8}  "
          f"{'base median':>13} {'change median':>13}  {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric in END_TO_END:
            def values(records: list[dict[str, Any]]) -> list[float]:
                return [
                    record["workloads"][workload]["end_to_end"][metric.name]["value"]
                    for record in records if workload in record["workloads"]
                ]
            row = compare_metric(metric, values(base), values(change))
            failures += row["verdict"] == "worse"
            print(f"{workload:<20} {metric.name:<18} {row['verdict']:<11} {row['ratio']:>8.3f}  "
                  f"{row['base_median']:>13.5g} {row['change_median']:>13.5g}  "
                  f"{row['spread']:>7.3f} {metric.bound:>6.2f}  {metric.unit}, {metric.better} is better")

        def failed_share(records: list[dict[str, Any]]) -> float:
            return max(record["workloads"][workload]["failed_share"]
                       for record in records if workload in record["workloads"])
        before, after = failed_share(base), failed_share(change)
        verdict = "worse" if after > before else "same"
        failures += verdict == "worse"
        print(f"{workload:<20} {'failed_share':<18} {verdict:<11} {'':>8}  {before:>13.5g} {after:>13.5g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", help="base records (or exactly: BASE CHANGE)")
    parser.add_argument("--vs", nargs="+", default=None, help="records of the change")
    arguments = parser.parse_args(argv)
    if arguments.vs is None:
        if len(arguments.records) != 2:
            parser.error("give BASE CHANGE, or BASE... --vs CHANGE...")
        base, change = [arguments.records[0]], [arguments.records[1]]
    else:
        base, change = arguments.records, arguments.vs
    return 1 if compare(load(base), load(change)) else 0


if __name__ == "__main__":
    sys.exit(main())
