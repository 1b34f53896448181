"""Point and point-cloud utilities.

Throughout the package a *point* is a 1-D :class:`numpy.ndarray` of floats of
length ``d`` (the paper uses "point" and "vector" interchangeably, and so do
we).  A *point cloud* is a read-only float64 array of shape ``(k, d)`` whose
rows are points, and it is the package's only multiset type: row ``i`` is
member ``i``, so the index structure the paper's Appendix B defines multisets
by (subsets and partitions are index selections, equal members stay
distinct) is the array's own.  :func:`as_cloud` is the one boundary that
makes a cloud: it checks shape, dimension and finiteness and returns a
read-only copy, so a cloud shared between holders cannot change under them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GeometryError

__all__ = ["as_point", "as_cloud", "centroid"]


def as_point(value: Sequence[float] | np.ndarray, dimension: int | None = None) -> np.ndarray:
    """Return ``value`` as a 1-D float array, optionally checking its length.

    Raises :class:`GeometryError` if the value is not one-dimensional or does
    not match the expected dimension.
    """
    point = np.asarray(value, dtype=float)
    if point.ndim != 1:
        raise GeometryError(f"a point must be one-dimensional, got shape {point.shape}")
    if point.size == 0:
        raise GeometryError("a point must have at least one coordinate")
    if dimension is not None and point.shape[0] != dimension:
        raise GeometryError(
            f"point has dimension {point.shape[0]}, expected {dimension}"
        )
    if not np.all(np.isfinite(point)):
        raise GeometryError(f"point contains non-finite coordinates: {point}")
    return point


def as_cloud(values: Iterable[Sequence[float]] | np.ndarray, dimension: int | None = None) -> np.ndarray:
    """Return ``values`` as a read-only 2-D ``(k, d)`` float array of points.

    Accepts any iterable of point-like rows; the result never shares memory
    with ``values``.  An empty iterable is an error unless ``dimension`` is
    given, in which case an empty ``(0, dimension)`` array is returned.
    """
    if isinstance(values, np.ndarray) and values.ndim == 2:
        cloud = values.astype(float, copy=True)
    else:
        rows = [as_point(row) for row in values]
        lengths = {row.shape[0] for row in rows}
        if len(lengths) > 1:
            raise GeometryError(f"points have inconsistent dimensions: {sorted(lengths)}")
        cloud = np.vstack(rows) if rows else np.empty((0, dimension or 0), dtype=float)
    if cloud.shape[0] == 0 and dimension is None:
        raise GeometryError("cannot infer dimension of an empty point cloud")
    if dimension is not None and cloud.shape[1] != dimension:
        raise GeometryError(
            f"point cloud has dimension {cloud.shape[1]}, expected {dimension}"
        )
    if not np.all(np.isfinite(cloud)):
        raise GeometryError("point cloud contains non-finite coordinates")
    cloud.setflags(write=False)
    return cloud


def centroid(cloud: np.ndarray) -> np.ndarray:
    """Return the arithmetic mean of the points."""
    cloud = as_cloud(cloud)
    if cloud.shape[0] == 0:
        raise GeometryError("centroid of an empty cloud is undefined")
    return cloud.mean(axis=0)
