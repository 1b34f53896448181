"""Tverberg partitions and Tverberg points.

Tverberg's theorem (Theorem 2 in the paper) states that any multiset of at
least ``(d+1)f + 1`` points in ``R^d`` can be partitioned into ``f + 1``
non-empty parts whose convex hulls share a common point.  The shared points
are *Tverberg points*; the paper's Lemma 1 uses their existence to show that
the safe area ``Gamma(Y)`` is non-empty.

As the paper notes, no polynomial-time algorithm is known for computing
Tverberg points in general dimension.  This module therefore provides:

* :func:`find_tverberg_partition` — exact search over multiset partitions,
  feasible for the small instances used in tests and for the paper's Figure 1;
* :func:`verify_tverberg_partition` — an LP check that a candidate partition's
  hulls really do intersect, returning a witness point;
* :func:`radon_partition` — the classical ``f = 1`` special case (Radon's
  theorem), solved directly from a null-space vector, which is both a useful
  primitive and a fast path for the partition search;
* :func:`figure1_instance` — the heptagon instance from the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.convex_hull import hulls_intersection_point
from repro.geometry.points import as_cloud, centroid

__all__ = [
    "TverbergPartition",
    "iter_index_partitions",
    "radon_partition",
    "find_tverberg_partition",
    "verify_tverberg_partition",
    "figure1_instance",
]


def iter_index_partitions(size: int, parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all partitions of ``{0..size-1}`` into exactly ``parts`` non-empty blocks.

    Partitions are yielded as tuples of index-tuples.  Blocks are unordered
    (each set partition appears once), and indices within a block are sorted.
    This is the restricted-growth-string enumeration of set partitions,
    filtered to the requested number of blocks.
    """
    if parts <= 0 or parts > size:
        return

    def generate(index: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if index == size:
            if len(blocks) == parts:
                yield tuple(tuple(block) for block in blocks)
            return
        remaining = size - index
        # Prune: we can never reach `parts` blocks if even putting every
        # remaining element in its own new block falls short.
        if len(blocks) + remaining < parts:
            return
        for block in blocks:
            block.append(index)
            yield from generate(index + 1, blocks)
            block.pop()
        if len(blocks) < parts:
            blocks.append([index])
            yield from generate(index + 1, blocks)
            blocks.pop()

    yield from generate(0, [])


@dataclass(frozen=True)
class TverbergPartition:
    """A verified Tverberg partition of a point multiset.

    Attributes:
        multiset: the partitioned points, a read-only ``(k, d)`` cloud.
        blocks: tuple of index-tuples, one per part (row indices into ``multiset``).
        witness: a point contained in the convex hull of every part.
    """

    multiset: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    witness: np.ndarray

    @property
    def parts(self) -> int:
        """Number of blocks in the partition."""
        return len(self.blocks)


def radon_partition(points: np.ndarray | Sequence[Sequence[float]]) -> TverbergPartition:
    """Return a Radon partition of ``d + 2`` (or more) points in ``R^d``.

    Radon's theorem is the ``parts = 2`` case of Tverberg's theorem: any
    ``d + 2`` points can be split into two sets whose hulls intersect.  The
    partition is obtained from a non-trivial affine dependence: the positive
    and negative coefficients define the two blocks and the normalised
    positive part gives the witness point directly — no LP needed.
    """
    cloud = as_cloud(points)
    count, dimension = cloud.shape
    if count < dimension + 2:
        raise GeometryError(
            f"Radon's theorem needs at least d + 2 = {dimension + 2} points, got {count}"
        )

    # Affine dependence: find non-zero c with sum(c) = 0 and cloud.T @ c = 0.
    system = np.vstack([cloud.T, np.ones((1, count))])
    _, _, vh = np.linalg.svd(system)
    coefficients = vh[-1]
    if np.allclose(coefficients, 0.0):
        raise GeometryError("failed to find an affine dependence among the points")

    positive = coefficients > 1e-12
    negative = coefficients < -1e-12
    if not positive.any() or not negative.any():
        # Degenerate numerical case (e.g. duplicated points); fall back to search.
        partition = find_tverberg_partition(cloud, parts=2)
        if partition is None:
            raise GeometryError("failed to find a Radon partition")
        return partition

    positive_weight = float(coefficients[positive].sum())
    witness = (coefficients[positive] @ cloud[positive]) / positive_weight

    block_positive = tuple(int(index) for index in np.nonzero(positive)[0])
    block_rest = tuple(int(index) for index in np.nonzero(~positive)[0])
    return TverbergPartition(
        multiset=cloud,
        blocks=(block_positive, block_rest),
        witness=np.asarray(witness, dtype=float),
    )


def verify_tverberg_partition(
    multiset: np.ndarray,
    blocks: Sequence[Sequence[int]],
) -> np.ndarray | None:
    """Return a witness point if the blocks' hulls intersect, else ``None``.

    Also validates that the blocks really form a partition of the cloud's
    row indices; a malformed partition (a repeated, missing or out-of-range
    index, or an empty block) raises :class:`GeometryError`.
    """
    flattened = sorted(index for block in blocks for index in block)
    if flattened != list(range(len(multiset))):
        raise GeometryError("blocks do not form a partition of the multiset indices")
    if any(len(block) == 0 for block in blocks):
        raise GeometryError("Tverberg partition blocks must be non-empty")
    return hulls_intersection_point([multiset[list(block)] for block in blocks])


def find_tverberg_partition(
    points: np.ndarray | Sequence[Sequence[float]],
    parts: int,
) -> TverbergPartition | None:
    """Search for a Tverberg partition of ``points`` into ``parts`` blocks.

    Exhaustive over set partitions (exponential), so intended for the small
    instances used in tests, in Figure 1, and for cross-validating the LP-based
    safe-area computation.  Returns ``None`` only when no partition of the
    requested size has intersecting hulls — which Tverberg's theorem rules out
    whenever ``len(points) >= (d + 1)(parts - 1) + 1``.
    """
    multiset = as_cloud(points)
    if parts < 1:
        raise GeometryError("a Tverberg partition needs at least one part")
    if parts == 1:
        witness = centroid(multiset)
        return TverbergPartition(multiset, (tuple(range(len(multiset))),), witness)
    if parts > len(multiset):
        return None

    if parts == 2 and len(multiset) >= multiset.shape[1] + 2:
        try:
            return radon_partition(multiset)
        except GeometryError:
            pass

    best: TverbergPartition | None = None
    for blocks in iter_index_partitions(len(multiset), parts):
        witness = verify_tverberg_partition(multiset, blocks)
        if witness is not None:
            best = TverbergPartition(multiset=multiset, blocks=blocks, witness=witness)
            break
    return best


def figure1_instance() -> tuple[np.ndarray, int]:
    """Return the paper's Figure 1 instance: a regular heptagon in the plane.

    Seven points (``n = 7``) in dimension ``d = 2`` with ``f = 2`` satisfy
    ``n = (d + 1) f + 1``, so Tverberg's theorem guarantees a partition into
    ``f + 1 = 3`` parts with intersecting hulls.  Returns the cloud and the
    number of parts (3).
    """
    angles = 2.0 * np.pi * np.arange(7) / 7.0
    cloud = np.column_stack([np.cos(angles), np.sin(angles)])
    return as_cloud(cloud), 3
