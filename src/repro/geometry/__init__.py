"""Geometric substrate: points, multisets, convex hulls, Tverberg partitions.

Everything the BVC algorithms need from computational geometry lives here and
is phrased, wherever possible, as small linear programs so that degenerate
(lower-dimensional) hulls — which the paper's constructions rely on — are
handled exactly.
"""

from repro.geometry.points import (
    as_point,
    as_cloud,
    bounding_box,
    centroid,
    coordinate_range,
    pairwise_max_coordinate_gap,
    affine_rank,
    euclidean_distance,
    max_norm_distance,
)
from repro.geometry.multisets import PointMultiset, iter_index_partitions, iter_index_subsets
from repro.geometry.linprog import LinearProgramResult, solve_linear_program, feasibility_program
from repro.geometry.kernel import (
    GammaKernel,
    KernelStats,
    default_kernel,
    full_subset_family,
    pruned_subset_family,
    safe_area_interval_1d,
)
from repro.geometry.convex_hull import (
    ConvexHullRegion,
    contains_point,
    convex_combination_weights,
    distance_to_hull,
    hull_vertices,
    hulls_intersect,
    hulls_intersection_point,
)
from repro.geometry.halfspaces import Halfspace, HalfspaceRegion, separating_hyperplane
from repro.geometry.tverberg import (
    TverbergPartition,
    figure1_instance,
    find_tverberg_partition,
    radon_partition,
    tverberg_points_required,
    verify_tverberg_partition,
)
from repro.geometry.centerpoint import (
    find_centerpoint,
    halfspace_depth,
    is_centerpoint,
    required_center_depth,
)

__all__ = [
    "as_point",
    "as_cloud",
    "bounding_box",
    "centroid",
    "coordinate_range",
    "pairwise_max_coordinate_gap",
    "affine_rank",
    "euclidean_distance",
    "max_norm_distance",
    "PointMultiset",
    "iter_index_partitions",
    "iter_index_subsets",
    "LinearProgramResult",
    "solve_linear_program",
    "feasibility_program",
    "GammaKernel",
    "KernelStats",
    "default_kernel",
    "full_subset_family",
    "pruned_subset_family",
    "safe_area_interval_1d",
    "ConvexHullRegion",
    "contains_point",
    "convex_combination_weights",
    "distance_to_hull",
    "hull_vertices",
    "hulls_intersect",
    "hulls_intersection_point",
    "Halfspace",
    "HalfspaceRegion",
    "separating_hyperplane",
    "TverbergPartition",
    "figure1_instance",
    "find_tverberg_partition",
    "radon_partition",
    "tverberg_points_required",
    "verify_tverberg_partition",
    "find_centerpoint",
    "halfspace_depth",
    "is_centerpoint",
    "required_center_depth",
]
