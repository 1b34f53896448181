"""Experiment support: convergence bookkeeping, runners and reporting."""

from repro.analysis.convergence import (
    contraction_factor,
    coordinate_ranges_per_round,
    max_range_per_round,
    measured_contraction_factors,
    round_threshold,
)
from repro.analysis.report import format_value, render_series, render_table
from repro.analysis import experiments

__all__ = [
    "contraction_factor",
    "coordinate_ranges_per_round",
    "max_range_per_round",
    "measured_contraction_factors",
    "round_threshold",
    "format_value",
    "render_series",
    "render_table",
    "experiments",
]
