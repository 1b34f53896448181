"""Geometric substrate: point clouds, convex hulls, Tverberg partitions.

A multiset of points is a read-only ``(k, d)`` array made by
:func:`~repro.geometry.points.as_cloud`; its rows are the members.

Everything the BVC algorithms need from computational geometry lives here and
is phrased, wherever possible, as small linear programs so that degenerate
(lower-dimensional) hulls — which the paper's constructions rely on — are
handled exactly.
"""

from repro.geometry.points import as_point, as_cloud, centroid
from repro.geometry.linprog import LinearProgramResult, solve_linear_program
from repro.geometry.kernel import (
    GammaKernel,
    default_kernel,
    full_subset_family,
    halfspace_depth,
    pruned_subset_family,
    safe_area_interval_1d,
)
from repro.geometry.convex_hull import (
    contains_point,
    distance_to_hull,
    hulls_intersection_point,
)
from repro.geometry.tverberg import (
    TverbergPartition,
    figure1_instance,
    iter_index_partitions,
    find_tverberg_partition,
    radon_partition,
    verify_tverberg_partition,
)

__all__ = [
    "as_point",
    "as_cloud",
    "centroid",
    "iter_index_partitions",
    "LinearProgramResult",
    "solve_linear_program",
    "GammaKernel",
    "default_kernel",
    "full_subset_family",
    "halfspace_depth",
    "pruned_subset_family",
    "safe_area_interval_1d",
    "contains_point",
    "distance_to_hull",
    "hulls_intersection_point",
    "TverbergPartition",
    "figure1_instance",
    "find_tverberg_partition",
    "radon_partition",
    "verify_tverberg_partition",
]
