"""The kernel's one assembly route answers bitwise what the literal program does.

:class:`~repro.geometry.kernel.GammaKernel` builds every Section 2.2 LP from
a cached sparse template.  Handed the same (pruned) subset family, the
literal dense program :func:`~repro.core.safe_area.safe_area_point` describes
the identical equality system row for row, so HiGHS must resolve both to the
same vertex — bit for bit, across the small-``n`` regime the paper's
experiments live in and on the coordinate patterns where a sparse assembly
could plausibly diverge from a dense one (stored exact zeros, ``1e-12``
entries, duplicate members).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.safe_area import safe_area_point
from repro.geometry.kernel import GammaKernel, pruned_subset_family

CLOUD_KINDS = ("uniform", "exact_zeros", "tiny", "integer_grid")


def _cloud(point_count: int, dimension: int, seed: int, kind: str = "uniform") -> np.ndarray:
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-2.0, 2.0, size=(point_count, dimension))
    if kind == "exact_zeros":
        cloud[rng.random(cloud.shape) < 0.4] = 0.0
    elif kind == "tiny":
        cloud[rng.random(cloud.shape) < 0.4] = 1e-12
    elif kind == "integer_grid":
        # Five grid values per axis: duplicates and collinear runs are certain.
        cloud = rng.integers(-2, 3, size=(point_count, dimension)).astype(float)
    return cloud


def _literal(cloud: np.ndarray, fault_bound: int, objective: np.ndarray | None):
    return safe_area_point(
        cloud,
        fault_bound,
        subset_indices=pruned_subset_family(cloud, fault_bound),
        objective=objective,
    )


def _assert_bitwise(kernel_point, literal_point) -> None:
    assert (kernel_point is None) == (literal_point is None)
    if kernel_point is not None:
        assert kernel_point.tobytes() == literal_point.tobytes()


class TestKernelMatchesLiteralProgram:
    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("point_count", range(4, 14))
    @pytest.mark.parametrize("dimension", (1, 2, 3))
    def test_single_query_is_bitwise_the_literal_program(self, point_count, dimension, kind):
        fault_bound = 1
        cloud = _cloud(point_count, dimension, 100 + point_count * 10 + dimension, kind)
        tie_break = np.zeros(dimension)
        tie_break[0] = 1.0
        kernel = GammaKernel()
        for objective in (None, tie_break):
            _assert_bitwise(
                kernel.point(cloud, fault_bound, objective=objective),
                _literal(cloud, fault_bound, objective),
            )
        # Every solve went through a template: there is no other route.
        assert kernel.stats.dense_solves == 0
        assert kernel.stats.template_hits + kernel.stats.template_misses == kernel.stats.lp_solves

    def test_round_pass_is_bitwise_the_literal_program(self):
        fault_bound = 2
        clouds = [_cloud(point_count, 2, seed=point_count) for point_count in range(7, 12)]
        points = GammaKernel().points_multi(clouds, fault_bound)
        assert len(points) == len(clouds)
        for cloud, point in zip(clouds, points):
            _assert_bitwise(point, _literal(cloud, fault_bound, None))
