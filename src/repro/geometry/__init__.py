"""Geometric substrate: points, multisets, convex hulls, Tverberg partitions.

Everything the BVC algorithms need from computational geometry lives here and
is phrased, wherever possible, as small linear programs so that degenerate
(lower-dimensional) hulls — which the paper's constructions rely on — are
handled exactly.
"""

from repro.geometry.points import as_point, as_cloud, centroid
from repro.geometry.multisets import PointMultiset, iter_index_partitions, iter_index_subsets
from repro.geometry.linprog import LinearProgramResult, solve_linear_program, feasibility_program
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
    convex_combination_weights,
    distance_to_hull,
    hulls_intersection_point,
)
from repro.geometry.tverberg import (
    TverbergPartition,
    figure1_instance,
    find_tverberg_partition,
    radon_partition,
    tverberg_points_required,
    verify_tverberg_partition,
)

__all__ = [
    "as_point",
    "as_cloud",
    "centroid",
    "PointMultiset",
    "iter_index_partitions",
    "iter_index_subsets",
    "LinearProgramResult",
    "solve_linear_program",
    "feasibility_program",
    "GammaKernel",
    "default_kernel",
    "full_subset_family",
    "halfspace_depth",
    "pruned_subset_family",
    "safe_area_interval_1d",
    "contains_point",
    "convex_combination_weights",
    "distance_to_hull",
    "hulls_intersection_point",
    "TverbergPartition",
    "figure1_instance",
    "find_tverberg_partition",
    "radon_partition",
    "tverberg_points_required",
    "verify_tverberg_partition",
]
