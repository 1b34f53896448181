"""Turn one traced run into the catalogue's per-layer metrics.

Seconds come from harness span self times (this process's spans plus what
the pool workers observed); counts come from the program's own public
counters, read as the movement of the ``obs`` registry over the timed phases —
which already folds in every worker's ``KernelStats`` and memo tallies.
"""

from __future__ import annotations

from typing import Any, Mapping

from catalog import PER_LAYER
from spans import ROOT, layer_of


def _counter(delta: Mapping[str, Any], family: str, **labels: str) -> float:
    """Movement of one counter sample (all samples summed when no label given)."""
    entry = delta.get(family)
    if entry is None:
        return 0.0
    if not labels:
        return float(sum(entry["samples"].values()))
    key = tuple(labels[name] for name in entry["labelnames"])
    return float(entry["samples"].get(key, 0.0))


def _histogram_sum(delta: Mapping[str, Any], family: str) -> float:
    entry = delta.get(family)
    return float(sum(sample["sum"] for sample in entry["samples"].values())) if entry else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_seconds(
    parent_totals: Mapping[str, Any], worker_totals: Mapping[str, Any]
) -> tuple[dict[str, float], dict[str, float]]:
    """name -> self seconds and name -> calls, this process and workers together."""
    seconds: dict[str, float] = {}
    calls: dict[str, float] = {}
    for name, (count, _total, own) in parent_totals.items():
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0.0) + count
    for name, (count, own) in worker_totals.items():
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0.0) + count
    return seconds, calls


def per_layer_metrics(
    parent_totals: Mapping[str, Any],
    worker_totals: Mapping[str, Any],
    registry_delta: Mapping[str, Any],
    row_counters: Mapping[str, int],
    pool_wall_s: float,
    workers: int,
    extras: Mapping[str, float],
) -> dict[str, float]:
    """Every catalogue per-layer metric (0.0 where the workload has no such work)."""
    seconds, calls = span_seconds(parent_totals, worker_totals)

    def under(prefix: str) -> float:
        return sum(value for name, value in seconds.items() if name.startswith(prefix))

    def kernel(kind: str) -> float:
        return _counter(registry_delta, "repro_kernel_events_total", kind=kind)

    def memo(kind: str) -> float:
        return _counter(registry_delta, "repro_vectorized_events_total", kind=kind)

    values = {metric.name: 0.0 for metric in PER_LAYER}

    solve_s = under("geometry.kernel.")
    values["geometry.solve_s"] = solve_s
    values["geometry.lp_solves"] = kernel("lp_solves")
    values["geometry.ms_per_solve"] = _ratio(solve_s * 1e3, kernel("lp_solves"))
    values["geometry.family_prune_s"] = under("geometry.family_prune")
    values["geometry.dedup_hit_ratio"] = _ratio(kernel("multi_dedup_hits"), kernel("multi_queries"))
    values["geometry.template_hit_ratio"] = _ratio(
        kernel("template_hits"), kernel("template_hits") + kernel("template_misses")
    )
    values["geometry.dense_solve_share"] = _ratio(kernel("dense_solves"), kernel("lp_solves"))
    values["geometry.relaxed_solves"] = kernel("relaxed_solves")
    values["geometry.fused_batch_share"] = _ratio(
        kernel("batch_queries"),
        kernel("single_queries") + kernel("batch_queries") + kernel("multi_queries"),
    )
    values["geometry.hull_check_s"] = under("geometry.hull_check")

    hits = memo("decision_memo_hits") + memo("point_memo_hits")
    values["engine.vectorized.self_s"] = seconds.get("engine.vectorized.run", 0.0)
    values["engine.vectorized.memo_hit_ratio"] = _ratio(
        hits, hits + memo("decision_memo_misses") + memo("point_memo_misses")
    )
    executed = _counter(registry_delta, "repro_session_rows_total", source="executed")
    fallbacks = _counter(registry_delta, "repro_plan_fallbacks_total")
    values["engine.session.fallbacks"] = fallbacks
    values["engine.trial.trials"] = calls.get("engine.trial.run", 0.0)
    values["engine.vectorized.trials"] = max(0.0, executed - fallbacks)
    values["engine.trial.self_s"] = seconds.get("engine.trial.run", 0.0)

    values["runtime.self_s"] = under("runtime.")
    values["runtime.messages_per_trial"] = _ratio(row_counters["messages"], row_counters["rows"])
    values["runtime.deliveries_per_trial"] = _ratio(
        row_counters["deliveries"], row_counters["async_rows"]
    )

    values["engine.session.plan_s"] = seconds.get("engine.session.plan", 0.0)
    values["engine.session.key_s"] = seconds.get("engine.session.key", 0.0)
    values["engine.session.self_s"] = seconds.get("engine.session.events", 0.0)
    values["engine.session.claim_wait_s"] = _histogram_sum(
        registry_delta, "repro_store_claim_wait_seconds"
    )

    unit_s = _histogram_sum(registry_delta, "repro_pool_unit_seconds")
    units = _counter(registry_delta, "repro_pool_units_total")
    values["engine.pool.units"] = units
    values["engine.pool.unit_s"] = unit_s
    values["engine.pool.transport_s"] = max(
        0.0, _histogram_sum(registry_delta, "repro_pool_unit_roundtrip_seconds") - unit_s
    )
    values["engine.pool.idle_share"] = (
        max(0.0, 1.0 - unit_s / (workers * pool_wall_s)) if units and pool_wall_s else 0.0
    )
    values["engine.pool.probe_units"] = _counter(
        registry_delta, "repro_pool_cost_model_probes_total"
    )
    values["engine.pool.crash_recoveries"] = _counter(
        registry_delta, "repro_pool_crash_recoveries_total"
    )

    rows_written = _counter(registry_delta, "repro_store_rows_written_total")
    values["store.put_rows_s"] = seconds.get("store.put_rows", 0.0)
    values["store.put_rows_calls"] = calls.get("store.put_rows", 0.0)
    values["store.rows_written"] = rows_written
    values["store.commit_ms_per_row"] = _ratio(values["store.put_rows_s"] * 1e3, rows_written)
    values["store.generation_bumps"] = _counter(registry_delta, "repro_store_generation_bumps_total")
    values["store.claim_s"] = seconds.get("store.claim_keys", 0.0) + seconds.get(
        "store.release_claims", 0.0
    )
    for method in ("get_rows", "contains_keys", "iter_entries"):
        values[f"store.{method}_s"] = seconds.get(f"store.{method}", 0.0)

    root_s = parent_totals.get(ROOT, (0, 0.0, 0.0))[1]
    attributed = sum(
        own for name, (_count, _total, own) in parent_totals.items() if layer_of(name) is not None
    )
    values["trace.coverage_share"] = _ratio(attributed, root_s)

    unknown = set(extras) - set(values)
    if unknown:
        raise KeyError(f"workload reported metrics missing from the catalogue: {sorted(unknown)}")
    values.update(extras)
    return values


def layer_seconds(
    parent_totals: Mapping[str, Any], worker_totals: Mapping[str, Any]
) -> dict[str, dict[str, float]]:
    """Self seconds per layer: on this process's blocking path, and inside workers."""
    table: dict[str, dict[str, float]] = {}
    for name, (_count, _total, own) in parent_totals.items():
        layer = layer_of(name) or ("harness (unattributed)" if name == ROOT else None)
        if layer is not None:
            table.setdefault(layer, {"blocking_s": 0.0, "worker_s": 0.0})["blocking_s"] += own
    for name, (_count, own) in worker_totals.items():
        layer = layer_of(name)
        if layer is not None:
            table.setdefault(layer, {"blocking_s": 0.0, "worker_s": 0.0})["worker_s"] += own
    return table
