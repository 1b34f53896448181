"""Multisets of points, their subsets and partitions.

The paper (Appendix B) is careful to work with *multisets* rather than sets:
two processes may legitimately hold identical input vectors, and the
combinatorics of ``Gamma(Y)`` and of Tverberg partitions are defined over
indices, not over distinct values.  :class:`PointMultiset` keeps that index
structure explicit: every member has a position ``0..len-1`` and subsets /
partitions are defined by index selections, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.points import as_cloud

__all__ = ["PointMultiset", "iter_index_partitions"]


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
class PointMultiset:
    """An ordered multiset of points in ``R^d``.

    The underlying storage is a ``(k, d)`` array; element ``i`` of the multiset
    is row ``i``.  Instances are immutable: all operations return new
    multisets.
    """

    cloud: np.ndarray

    def __init__(self, points: Iterable[Sequence[float]] | np.ndarray, dimension: int | None = None) -> None:
        object.__setattr__(self, "cloud", as_cloud(points, dimension=dimension))
        self.cloud.setflags(write=False)

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self.cloud.shape[0])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.cloud)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.cloud[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointMultiset):
            return NotImplemented
        return self.cloud.shape == other.cloud.shape and bool(np.allclose(self.cloud, other.cloud))

    def __hash__(self) -> int:
        return hash((self.cloud.shape, self.cloud.tobytes()))

    def __repr__(self) -> str:
        return f"PointMultiset(size={len(self)}, dimension={self.dimension})"

    # -- properties ----------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """The coordinate dimension ``d``."""
        return int(self.cloud.shape[1])

    @property
    def points(self) -> np.ndarray:
        """A read-only view of the underlying ``(k, d)`` array."""
        return self.cloud

    def is_empty(self) -> bool:
        """Return True when the multiset has no members."""
        return len(self) == 0

    # -- subsets and partitions ------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "PointMultiset":
        """Return the sub-multiset made of the members at ``indices``."""
        indices = list(indices)
        if any(index < 0 or index >= len(self) for index in indices):
            raise GeometryError(f"subset indices {indices} out of range for size {len(self)}")
        if not indices:
            return PointMultiset(np.empty((0, self.dimension)), dimension=self.dimension)
        return PointMultiset(self.cloud[indices])

    # -- numeric summaries ------------------------------------------------------------

    def centroid(self) -> np.ndarray:
        """Return the arithmetic mean of all members."""
        if self.is_empty():
            raise GeometryError("centroid of an empty multiset is undefined")
        return self.cloud.mean(axis=0)
