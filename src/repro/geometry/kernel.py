"""Batched, cached geometry kernel for the safe area ``Gamma(Y)``.

Every protocol in this repository bottoms out in the same computation: pick a
point of the safe area ``Gamma(Y)`` of Equation (1), the intersection of the
convex hulls of all ``(|Y| - f)``-subsets of a multiset ``Y``.  The literal
Section 2.2 linear program enumerates all ``C(|Y|, |Y| - f)`` subsets and
assembles one dense constraint block per subset, which is both exponential in
``f`` and rebuilt from scratch on every call.  This module is the production
path around that bottleneck; :func:`repro.core.safe_area.safe_area_point`
remains the unoptimised oracle it is validated against.

Four independent optimisations, composed by :class:`GammaKernel`:

* **Subset pruning** (the Appendix F idea applied to the LP itself).
  ``Gamma`` is an intersection of hulls, and most hulls are redundant:

  - ``d = 1``: ``Gamma`` is exactly the order-statistic interval
    ``[y_(f+1), y_(|Y|-f)]``, so two subsets suffice — drop the ``f``
    largest members, and drop the ``f`` smallest.
  - ``d = 2``: a subset's hull constraint can only bind when the ``f``
    dropped members are *linearly separable* from the kept ones (if a point
    ``z`` falls outside some kept hull, a separating line exists, and the
    members on ``z``'s side — at most ``f`` of them — extend to the ``f``
    extreme members of some direction).  The distinct "``f`` most extreme in
    direction ``u``" sets are enumerated exactly by a rotating sweep whose
    event angles are perpendicular to member differences: ``O(|Y|^2)``
    subsets instead of ``C(|Y|, |Y|-f)``.
  - ``d >= 3``: subsets whose member *values* contain another subset's
    values have a larger hull and are dropped (duplicate members make this
    common once the iterative algorithms start collapsing states).

  All three prunings preserve ``Gamma`` exactly — they remove constraint
  blocks whose hull provably contains a remaining block's hull.

* **Constraint-template caching**.  The sparsity pattern of the Section 2.2
  LP depends only on the shape ``(block count, block size, dimension)`` — not
  on the coordinates.  The kernel assembles the CSC index structure once per
  shape, caches it, and on subsequent calls only scatters the fresh
  coordinates into the cached template's data vector.

* **Batched solving**.  :meth:`GammaKernel.points_batch` answers many
  safe-area queries (one per witness family, in the Approximate BVC round
  update) in a single numpy-assembled pass: the per-query programs are
  stitched into one block-diagonal sparse LP and solved together, falling
  back to per-query solves only if the fused program is infeasible (i.e.
  some individual ``Gamma`` is empty).

* **Answer memoisation**.  The paper's algorithms have every non-faulty
  process apply the same deterministic rule to the same multiset, so a
  literal per-process simulation asks bitwise-identical queries many times
  over.  A bounded memo keyed on the query's exact bytes returns the answer
  of the first solve instead of repeating it (contract on
  :class:`GammaKernel`).

The kernel mirrors the oracle's semantics bit-for-bit where the oracle is
well-behaved, including the relaxed minimum-slack re-solve used to
distinguish genuinely empty safe areas from floating-point infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import ClassVar, Sequence

import numpy as np
from scipy.sparse import csc_matrix

from repro.exceptions import GeometryError, LinearProgramError
from repro.geometry.points import as_cloud, as_point

__all__ = [
    "KernelStats",
    "GammaKernel",
    "default_kernel",
    "full_subset_family",
    "halfspace_depth",
    "pruned_subset_family",
    "safe_area_interval_1d",
]

#: Relative tolerance accepted by the minimum-slack fallback before declaring
#: the safe area genuinely empty (matches the oracle in ``core.safe_area``).
_SLACK_TOLERANCE = 1e-6

#: Bound on the answer memo, in entries (one per distinct ``point`` query or
#: whole ``points_batch`` call).  The repeats it serves sit inside one trial —
#: the census in ``docs/PERFORMANCE.md`` ("Repeated queries") found 77 % of
#: ``exact`` queries, 95 % of ``approx`` batches and 61 % of capped
#: ``restricted_async`` queries to repeat an earlier one of the same trial —
#: and the busiest trial shape asks a few hundred distinct queries, so 8192
#: holds many trials' worth (measured ~0.6 KB per entry at protocol sizes);
#: a full table is flushed whole rather than aged out.
_MEMO_LIMIT = 8192

#: Lookup sentinel: ``None`` is a memoised answer (an empty ``Gamma``).
_MISS = object()


def _private_copy(answer: np.ndarray | None) -> np.ndarray | None:
    """An answer nobody else holds: what the memo stores and what it hands out."""
    return None if answer is None else answer.copy()


# ---------------------------------------------------------------------------
# Cloud coercion
# ---------------------------------------------------------------------------

def _as_cloud_array(points: object) -> np.ndarray:
    """Coerce a PointMultiset / array / nested sequence to a ``(k, d)`` array."""
    cloud = getattr(points, "points", points)
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim == 1:
        cloud = cloud.reshape(-1, 1) if cloud.size else cloud.reshape(0, 1)
    if cloud.ndim != 2:
        raise GeometryError(f"point cloud must be 2-dimensional, got shape {cloud.shape}")
    return cloud


# ---------------------------------------------------------------------------
# Subset families (full enumeration + Appendix F-style pruning)
# ---------------------------------------------------------------------------

def full_subset_family(point_count: int, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """All index subsets of size ``point_count - fault_bound`` — the Eq. (1) family."""
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    subset_size = point_count - fault_bound
    if subset_size <= 0:
        return ()
    return tuple(combinations(range(point_count), subset_size))


def safe_area_interval_1d(
    values: np.ndarray | Sequence[float], fault_bound: int
) -> tuple[float, float] | None:
    """Closed form for ``Gamma`` in one dimension: the f-trimmed interval.

    For scalars the hull of a subset is ``[min, max]``, so the intersection
    over all ``(m - f)``-subsets is ``[v_(f+1), v_(m-f)]`` in sorted order
    (1-indexed): the lower end is achieved by dropping the ``f`` smallest
    members, the upper end by dropping the ``f`` largest.  Returns ``None``
    when the interval is empty (``m < 2f + 1``) or no members remain.
    """
    sorted_values = np.sort(np.asarray(values, dtype=float).ravel())
    member_count = sorted_values.shape[0]
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if member_count == 0 or member_count - fault_bound <= 0:
        return None
    if fault_bound == 0:
        return float(sorted_values[0]), float(sorted_values[-1])
    if member_count - 2 * fault_bound < 1:
        return None
    return (
        float(sorted_values[fault_bound]),
        float(sorted_values[member_count - fault_bound - 1]),
    )


def _family_1d(cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """The two binding subsets on the line: drop-f-smallest and drop-f-largest."""
    point_count = cloud.shape[0]
    order = np.lexsort((np.arange(point_count), cloud[:, 0]))
    keep_low = tuple(sorted(order[: point_count - fault_bound].tolist()))
    keep_high = tuple(sorted(order[fault_bound:].tolist()))
    return (keep_low,) if keep_low == keep_high else (keep_low, keep_high)


@lru_cache(maxsize=64)
def _upper_pairs(point_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(point_count, k=1)``, cached per count (read-only)."""
    return np.triu_indices(point_count, k=1)


def _family_2d(cloud: np.ndarray, fault_bound: int) -> tuple[tuple[int, ...], ...]:
    """Rotating-sweep enumeration of the binding subsets in the plane.

    The candidate drop sets are exactly the "``f`` most extreme members in
    direction ``u``" sets.  As ``u`` rotates, the projection order of two
    members ``i, j`` changes only at angles perpendicular to ``p_j - p_i``;
    between consecutive event angles the order — and hence the drop set — is
    constant, so one interior direction per arc enumerates every distinct set.
    Ties inside an arc can only come from coincident members, and dropping
    either copy yields the same hull, so a fixed index tie-break is exact.
    """
    point_count = cloud.shape[0]
    upper_i, upper_j = _upper_pairs(point_count)
    differences = cloud[upper_j] - cloud[upper_i]
    nonzero = np.any(differences != 0.0, axis=1)
    differences = differences[nonzero]
    if differences.shape[0] == 0:
        directions = np.asarray([[1.0, 0.0]])
    else:
        events = np.mod(np.arctan2(differences[:, 1], differences[:, 0]) + 0.5 * np.pi, np.pi)
        events = np.unique(np.concatenate([events, events + np.pi]))
        midpoints = np.empty_like(events)
        midpoints[:-1] = (events[:-1] + events[1:]) / 2.0
        midpoints[-1] = (events[-1] + events[0] + 2.0 * np.pi) / 2.0
        directions = np.column_stack([np.cos(midpoints), np.sin(midpoints)])
    projections = cloud @ directions.T
    # Per direction, the f members of largest projection, ties to the lowest
    # index.  Distinct drop sets (f members each) are far cheaper to tell
    # apart than the kept sets they determine.
    if fault_bound == 1:
        # argmax returns the first maximum: the stable sort's tie-break.
        drops = np.unique(np.argmax(projections, axis=0))[:, None]
    else:
        order = np.argsort(-projections, axis=0, kind="stable")
        drops = np.asarray(
            [tuple(drop) for drop in {frozenset(column) for column in order[:fault_bound].T.tolist()}]
        )
    kept = np.ones((drops.shape[0], point_count), dtype=bool)
    kept[np.arange(drops.shape[0])[:, None], drops] = False
    members = np.nonzero(kept)[1].reshape(drops.shape[0], point_count - fault_bound)
    return tuple(sorted(map(tuple, members.tolist())))


def _family_dedupe_dominated(
    cloud: np.ndarray, families: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Drop subsets whose member values contain another subset's values.

    ``conv(A) ⊆ conv(B)`` whenever the distinct values of ``A`` are a subset
    of the distinct values of ``B``, making ``B``'s constraint redundant in
    the intersection.  Only effective when the multiset has duplicate members
    (the general-position case is returned unchanged).
    """
    # Label members by value through one lexicographic row sort (what
    # ``np.unique(axis=0)`` computes, without its structured-dtype sort).
    order = np.lexsort(cloud.T[::-1])
    ranked = cloud[order]
    starts_new_value = np.any(ranked[1:] != ranked[:-1], axis=1)
    if starts_new_value.all():
        return tuple(families)
    value_ids = np.empty(cloud.shape[0], dtype=np.int64)
    value_ids[order] = np.concatenate(([0], np.cumsum(starts_new_value)))
    value_sets = [frozenset(row) for row in value_ids[np.asarray(families)].tolist()]
    # Smaller value sets first: a set can only be dominated by a strictly
    # smaller (or equal, earlier-kept) one.
    order = sorted(range(len(families)), key=lambda k: (len(value_sets[k]), families[k]))
    kept: list[int] = []
    kept_sets: list[frozenset[int]] = []
    for index in order:
        candidate = value_sets[index]
        if any(kept_set <= candidate for kept_set in kept_sets):
            continue
        kept.append(index)
        kept_sets.append(candidate)
    return tuple(families[index] for index in sorted(kept))


def pruned_subset_family(
    points: object, fault_bound: int
) -> tuple[tuple[int, ...], ...]:
    """Return an exact reduced subset family for ``Gamma(points)``.

    The intersection of the returned subsets' hulls equals ``Gamma`` — the
    pruning only removes provably redundant constraint blocks.  Dimension 1
    uses the order-statistic closed form (2 subsets), dimension 2 the
    rotating sweep (``O(|Y|^2)`` subsets), higher dimensions the duplicate /
    domination collapse of the full enumeration.
    """
    cloud = _as_cloud_array(points)
    point_count, dimension = cloud.shape
    if fault_bound < 0:
        raise GeometryError("fault bound must be non-negative")
    if fault_bound == 0 or point_count - fault_bound <= 0:
        return full_subset_family(point_count, fault_bound)
    if dimension == 1:
        return _family_1d(cloud, fault_bound)
    if dimension == 2:
        return _family_dedupe_dominated(cloud, _family_2d(cloud, fault_bound))
    return _family_dedupe_dominated(cloud, full_subset_family(point_count, fault_bound))


def halfspace_depth(cloud: np.ndarray | Sequence[Sequence[float]], candidate: Sequence[float]) -> int:
    """Return the Tukey depth of ``candidate`` with respect to ``cloud``.

    The depth is the minimum, over all closed halfspaces containing the
    candidate, of the number of cloud points in the halfspace.  The depth is
    evaluated by enumerating candidate normal directions: the coordinate axes,
    the directions determined by hyperplanes through the candidate and
    ``d - 1`` cloud points, and small perturbations of those directions (the
    perturbations matter because the minimising halfspace generically has *no*
    cloud point on its boundary other than possibly the candidate).  For the
    small, low-dimensional clouds this package uses, the enumeration is exact.

    ``Gamma(Y)`` for fault bound ``f`` is exactly the set of points of depth
    at least ``f + 1`` (a point leaves some ``(|Y| - f)``-subset's hull iff a
    closed halfspace through it holds at most ``f`` members), so this is the
    solver-independent check of a kernel answer.
    """
    cloud = as_cloud(cloud)
    candidate = as_point(candidate, dimension=cloud.shape[1])
    point_count, dimension = cloud.shape
    if point_count == 0:
        return 0

    def depth_along(normal: np.ndarray) -> int:
        norm = float(np.linalg.norm(normal))
        if norm <= 1e-12:
            return point_count
        normal = normal / norm
        offsets = cloud @ normal
        candidate_offset = float(candidate @ normal)
        # Halfspace { x : normal.x >= candidate_offset } contains the candidate on
        # its boundary; count the cloud points it contains.
        return int(np.sum(offsets >= candidate_offset - 1e-9))

    perturbation = 1e-6
    axes = [np.eye(dimension)[coordinate] for coordinate in range(dimension)]

    def with_perturbations(normal: np.ndarray) -> list[np.ndarray]:
        variants = [normal]
        for axis in axes:
            variants.append(normal + perturbation * axis)
            variants.append(normal - perturbation * axis)
        return variants

    best = point_count
    directions: list[np.ndarray] = []
    for axis in axes:
        directions.extend(with_perturbations(axis))
    # Directions of candidate-to-point vectors (useful in every dimension).
    for row in cloud:
        difference = row - candidate
        if np.linalg.norm(difference) > 1e-12:
            directions.extend(with_perturbations(difference))
    # Directions normal to hyperplanes through the candidate and d-1 cloud points.
    if dimension >= 2:
        for subset in combinations(range(point_count), dimension - 1):
            matrix = cloud[list(subset)] - candidate
            _, _, vh = np.linalg.svd(np.vstack([matrix, np.zeros((1, dimension))]))
            directions.extend(with_perturbations(vh[-1]))

    for direction in directions:
        best = min(best, depth_along(direction), depth_along(-direction))
        if best == 0:
            break
    return best


def _validate_explicit_families(
    families: Sequence[Sequence[int]], point_count: int, subset_size: int
) -> tuple[tuple[int, ...], ...]:
    if not families:
        raise GeometryError("explicit subset family must not be empty")
    validated: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for indices in families:
        family = tuple(sorted(int(index) for index in indices))
        if len(family) != subset_size:
            raise GeometryError(
                f"explicit subset {family} does not have size |Y| - f = {subset_size}"
            )
        if any(index < 0 or index >= point_count for index in family):
            raise GeometryError(f"explicit subset {family} has out-of-range indices")
        if family not in seen:
            seen.add(family)
            validated.append(family)
    return tuple(validated)


# ---------------------------------------------------------------------------
# Constraint templates (cached per LP shape)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ConstraintTemplate:
    """Pre-assembled CSC structure of the Section 2.2 LP for one shape.

    The LP's variables are ``z`` (``dimension`` free coordinates) followed by
    one non-negative convex-weight block of ``block_size`` entries per subset.
    Per subset the equality rows are ``z - Y_T^T alpha = 0`` (``dimension``
    rows) and ``sum(alpha) = 1`` (one row).  Everything below is coordinate
    independent; only the ``-Y_T`` entries change between calls, and their
    positions in COO order are recorded in ``cloud_slots``.
    """

    block_count: int
    block_size: int
    dimension: int
    shape: tuple[int, int]
    indices: np.ndarray  # CSC row indices
    indptr: np.ndarray  # CSC column pointers
    permutation: np.ndarray  # COO-order -> CSC-order data permutation
    static_data: np.ndarray  # COO-order data with zeros at cloud slots
    cloud_slots: np.ndarray  # COO-order positions of the -Y_T entries
    coo_rows: np.ndarray  # COO row coordinates (block-diagonal batch stitching)
    coo_cols: np.ndarray  # COO column coordinates
    rhs: np.ndarray
    col_lower: np.ndarray  # -inf for z, 0 for the convex weights
    col_upper: np.ndarray  # +inf throughout

    @property
    def variable_count(self) -> int:
        return self.shape[1]

    def matrix_for(self, cloud: np.ndarray, families_flat: np.ndarray) -> csc_matrix:
        """Scatter ``cloud`` into the cached structure and return ``A_eq``.

        ``families_flat`` is the ``(block_count, block_size)`` integer array of
        member indices; the COO data order per block is ``d`` coordinate rows
        of ``(1.0, -Y_T[:, c])`` followed by the ``sum(alpha) = 1`` row.
        """
        data = self.static_data.copy()
        # (B, s, d) gather -> (B, d, s) to match the per-coordinate row order.
        data[self.cloud_slots] = -cloud[families_flat].transpose(0, 2, 1).ravel()
        return csc_matrix(
            (data[self.permutation], self.indices, self.indptr), shape=self.shape
        )


def _variable_bounds(dimension: int, weight_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of the Section 2.2 LP: free ``z``, non-negative weights."""
    lower = np.zeros(dimension + weight_count)
    lower[:dimension] = -np.inf
    return lower, np.full(dimension + weight_count, np.inf)


def _build_template(block_count: int, block_size: int, dimension: int) -> _ConstraintTemplate:
    """Assemble the COO/CSC index structure for one ``(B, s, d)`` LP shape."""
    entries_per_block = dimension * (1 + block_size) + block_size
    total_entries = block_count * entries_per_block
    rows = np.empty(total_entries, dtype=np.int64)
    cols = np.empty(total_entries, dtype=np.int64)
    static = np.zeros(total_entries, dtype=float)
    cloud_slot_mask = np.zeros(total_entries, dtype=bool)

    block_slot = np.arange(block_size)
    cursor = 0
    # One COO segment layout per block, vectorised over blocks below.
    segment_rows = np.empty(entries_per_block, dtype=np.int64)
    segment_cols = np.empty(entries_per_block, dtype=np.int64)
    segment_static = np.zeros(entries_per_block, dtype=float)
    segment_cloud = np.zeros(entries_per_block, dtype=bool)
    position = 0
    for coordinate in range(dimension):
        segment_rows[position] = coordinate
        segment_cols[position] = coordinate  # z coefficient (column set per block: constant)
        segment_static[position] = 1.0
        position += 1
        segment_rows[position : position + block_size] = coordinate
        segment_cols[position : position + block_size] = block_slot  # offset added per block
        segment_cloud[position : position + block_size] = True
        position += block_size
    segment_rows[position : position + block_size] = dimension
    segment_cols[position : position + block_size] = block_slot
    segment_static[position : position + block_size] = 1.0
    position += block_size

    alpha_entry = segment_cloud | (segment_rows == dimension)
    for block in range(block_count):
        row_base = block * (dimension + 1)
        col_base = dimension + block * block_size
        view = slice(cursor, cursor + entries_per_block)
        rows[view] = segment_rows + row_base
        cols[view] = np.where(alpha_entry, segment_cols + col_base, segment_cols)
        static[view] = segment_static
        cloud_slot_mask[view] = segment_cloud
        cursor += entries_per_block

    row_count = block_count * (dimension + 1)
    variable_count = dimension + block_count * block_size
    shape = (row_count, variable_count)

    # Derive the COO -> CSC permutation once: convert index-valued data.
    tracker = csc_matrix((np.arange(total_entries, dtype=float), (rows, cols)), shape=shape)
    permutation = tracker.data.astype(np.int64)

    rhs = np.tile(np.concatenate([np.zeros(dimension), [1.0]]), block_count)
    col_lower, col_upper = _variable_bounds(dimension, block_count * block_size)
    return _ConstraintTemplate(
        block_count=block_count,
        block_size=block_size,
        dimension=dimension,
        shape=shape,
        indices=tracker.indices.copy(),
        indptr=tracker.indptr.copy(),
        permutation=permutation,
        static_data=static,
        cloud_slots=np.flatnonzero(cloud_slot_mask),
        coo_rows=rows,
        coo_cols=cols,
        rhs=rhs,
        col_lower=col_lower,
        col_upper=col_upper,
    )


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

@dataclass
class KernelStats:
    """Observability counters for one :class:`GammaKernel` instance."""

    single_queries: int = 0
    batch_queries: int = 0
    batch_calls: int = 0
    multi_queries: int = 0
    multi_calls: int = 0
    multi_dedup_hits: int = 0
    lp_solves: int = 0
    #: Always 0 (every solve goes through a template); readers of the
    #: exposition, the benchmark ledger among them, look the name up.
    dense_solves: int = 0
    relaxed_solves: int = 0
    template_hits: int = 0
    template_misses: int = 0
    blocks_assembled: int = 0
    blocks_pruned_away: int = 0
    #: Queries answered from the answer memo (a whole-batch hit counts every
    #: query of the batch), so ``memo_hits / (single_queries + batch_queries)``
    #: is the share of queries that repeated.
    memo_hits: int = 0
    #: Whole-table flushes of the answer memo at its bound.
    memo_evictions: int = 0

    #: Every counter field, in exposition order.  ``as_dict``/``snapshot``
    #: and the observability bridge iterate this instead of hard-coding names.
    FIELDS: ClassVar[tuple[str, ...]] = (
        "single_queries", "batch_queries", "batch_calls",
        "multi_queries", "multi_calls", "multi_dedup_hits", "lp_solves",
        "dense_solves", "relaxed_solves", "template_hits",
        "template_misses", "blocks_assembled", "blocks_pruned_away",
        "memo_hits", "memo_evictions",
    )

    def as_dict(self) -> dict[str, int]:
        return {name: int(getattr(self, name)) for name in self.FIELDS}

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of every counter (the documented read API).

        This is what the metrics registry consumes: cumulative totals, safe
        to diff across calls.  Alias of :meth:`as_dict`, kept separate so the
        observability contract survives future ``as_dict`` format changes.
        """
        return self.as_dict()


class GammaKernel:
    """Batched, cached solver for safe-area queries.

    A kernel instance owns a bounded template cache, a bounded answer memo
    and its own statistics; the module-level :data:`default_kernel` is shared
    by the protocol code.  All methods are deterministic: the same inputs
    produce the same outputs on every process, which the consensus algorithms
    require for agreement.

    **Answer memo.**  A query already solved by this kernel is returned, not
    re-solved, and the memo may only hand back what a cold solve of the same
    query returns:

    * :meth:`point` is keyed on ``(f, cloud shape, cloud bytes,
      objective bytes)`` — bitwise, so ``-0.0`` and ``0.0`` are different
      queries;
    * :meth:`points_batch` is keyed on the **whole batch** in order: a fused
      vertex depends on its batch-mates, so an entry is only ever the answer
      to that exact batch;
    * :meth:`points_multi` inherits both through the calls it makes;
    * queries with an explicit ``subset_indices`` family bypass the memo;
    * answers are stored and handed out as copies, an empty ``Gamma``
      (``None``) is an answer like any other, and a query that raises stores
      nothing — the next identical query raises again from a fresh solve;
    * the table holds at most :data:`_MEMO_LIMIT` entries, is flushed whole
      when full, and is emptied by :meth:`clear_cache`.

    The memo takes no lock: every step is a single atomic dict operation on
    values nobody mutates, so threads sharing one kernel (the server's
    campaign threads share :data:`default_kernel`) can at worst both solve a
    query neither had stored yet, or overshoot the bound by one entry per
    racing thread — whereas a lock could be inherited held by a pool worker
    forked mid-store.

    Args:
        max_cached_templates: bound on distinct LP shapes kept alive (the
            protocols only ever touch a handful; the bound guards pathological
            sweeps over many configurations).
    """

    def __init__(self, max_cached_templates: int = 64) -> None:
        if max_cached_templates < 1:
            raise GeometryError("the template cache must hold at least one shape")
        self._max_cached_templates = max_cached_templates
        self._templates: dict[tuple[int, int, int], _ConstraintTemplate] = {}
        self._memo: dict[tuple, np.ndarray | None | tuple[np.ndarray | None, ...]] = {}
        self.stats = KernelStats()

    # -- cache -------------------------------------------------------------------

    def stats_snapshot(self) -> dict[str, int]:
        """Cumulative counter totals for this kernel (see :meth:`KernelStats.snapshot`)."""
        return self.stats.snapshot()

    def reset_stats(self) -> KernelStats:
        """Zero the counters, returning the pre-reset :class:`KernelStats`.

        Snapshot-and-reset in one step: benchmarks and the metrics registry
        use the returned object (or :meth:`stats_snapshot` beforehand) instead
        of reaching into kernel internals.
        """
        previous = self.stats
        self.stats = KernelStats()
        return previous

    @property
    def template_cache_size(self) -> int:
        """Number of LP constraint templates currently cached."""
        return len(self._templates)

    @property
    def memo_size(self) -> int:
        """Number of answers currently held by the answer memo."""
        return len(self._memo)

    def clear_cache(self) -> None:
        self._templates.clear()
        self._memo.clear()

    def _memo_store(self, key: tuple, answer: object) -> None:
        """Remember ``answer`` (already a private copy) as the result of ``key``."""
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
            self.stats.memo_evictions += 1
        self._memo[key] = answer

    def _template(self, block_count: int, block_size: int, dimension: int) -> _ConstraintTemplate:
        key = (block_count, block_size, dimension)
        template = self._templates.get(key)
        if template is not None:
            self.stats.template_hits += 1
            # Move-to-end so eviction below is least-recently-used.
            self._templates[key] = self._templates.pop(key)
            return template
        self.stats.template_misses += 1
        template = _build_template(block_count, block_size, dimension)
        if len(self._templates) >= self._max_cached_templates:
            self._templates.pop(next(iter(self._templates)))
        self._templates[key] = template
        return template

    # -- family selection --------------------------------------------------------

    def _families_for(
        self,
        cloud: np.ndarray,
        fault_bound: int,
        subset_indices: Sequence[Sequence[int]] | None,
    ) -> tuple[tuple[int, ...], ...]:
        point_count = cloud.shape[0]
        subset_size = point_count - fault_bound
        if subset_indices is not None:
            return _validate_explicit_families(subset_indices, point_count, subset_size)
        families = pruned_subset_family(cloud, fault_bound)
        self.stats.blocks_pruned_away += comb(point_count, subset_size) - len(families)
        return families

    # -- single query ------------------------------------------------------------

    def point(
        self,
        points: object,
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
        subset_indices: Sequence[Sequence[int]] | None = None,
    ) -> np.ndarray | None:
        """Return a point of ``Gamma(points)`` or ``None`` when it is empty.

        Drop-in equivalent of the oracle
        :func:`repro.core.safe_area.safe_area_point`: same edge-case handling
        (``f = 0`` returns the centroid, infeasible-at-float-scale resolves
        through the minimum-slack program) but with pruned subset families,
        cached sparse constraint templates and an optional explicit family.
        """
        cloud = _as_cloud_array(points)
        point_count, dimension = cloud.shape
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        self.stats.single_queries += 1
        if point_count == 0:
            return None
        if fault_bound == 0:
            return cloud.mean(axis=0)
        if point_count - fault_bound <= 0:
            return None

        objective_head = self._objective_head(objective, dimension)
        key = None
        if subset_indices is None:
            key = (fault_bound, cloud.shape, cloud.tobytes(), objective_head.tobytes())
            cached = self._memo.get(key, _MISS)
            if cached is not _MISS:
                self.stats.memo_hits += 1
                return _private_copy(cached)
        families = self._families_for(cloud, fault_bound, subset_indices)
        answer = self._solve_single(cloud, families, objective_head)
        if key is not None:
            self._memo_store(key, _private_copy(answer))
        return answer

    def _objective_head(
        self, objective: np.ndarray | Sequence[float] | None, dimension: int
    ) -> np.ndarray:
        if objective is None:
            return np.zeros(dimension)
        head = np.asarray(objective, dtype=float)
        if head.shape != (dimension,):
            raise GeometryError(f"objective must have length d={dimension}")
        return head

    def _solve_single(
        self,
        cloud: np.ndarray,
        families: tuple[tuple[int, ...], ...],
        objective_head: np.ndarray,
    ) -> np.ndarray | None:
        from repro.geometry.linprog import solve_linear_program

        dimension = cloud.shape[1]
        block_size = len(families[0])
        families_flat = np.asarray(families, dtype=np.int64)
        template = self._template(len(families), block_size, dimension)
        matrix = template.matrix_for(cloud, families_flat)
        objective = np.zeros(template.variable_count)
        objective[:dimension] = objective_head

        self.stats.lp_solves += 1
        self.stats.blocks_assembled += len(families)
        try:
            result = solve_linear_program(
                objective,
                equality_matrix=matrix,
                equality_rhs=template.rhs,
                bounds=(template.col_lower, template.col_upper),
            )
        except LinearProgramError as error:
            # Clusters of near-coincident points (honest states late in a
            # contraction) can leave HiGHS unable to classify the strict
            # equality program at all.  The relaxed minimum-slack program is
            # feasible by construction, so it resolves exactly those
            # degenerate instances — and still reports genuine emptiness.
            # Only solver-status failures qualify (they carry a status code);
            # input-validation errors stay loud.
            if error.status is None:
                raise
            result = None
        if result is not None and result.feasible and result.solution is not None:
            return result.solution[:dimension]
        return self._relaxed_point(cloud, families_flat)

    # -- batched queries ---------------------------------------------------------

    def points_batch(
        self,
        clouds: Sequence[object],
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
        subset_indices: Sequence[Sequence[Sequence[int]]] | None = None,
    ) -> list[np.ndarray | None]:
        """Answer many safe-area queries in one numpy-assembled pass.

        All queries are stitched into one block-diagonal LP; whenever that
        fused program is infeasible they are re-solved one by one, so
        emptiness is always attributed to the right query.

        Args:
            clouds: the query multisets; all must share one ``(m, d)`` shape
                (the protocol use case: one query per witness family of equal
                quorum size).
            fault_bound: the shared ``f``.
            objective: optional shared objective over each query's ``z``.
            subset_indices: optional explicit subset family per query
                (default: :func:`pruned_subset_family` of each cloud).

        Returns one entry per query: the chosen point, or ``None`` for an
        empty safe area.
        """
        if not clouds:
            return []
        arrays = [_as_cloud_array(cloud) for cloud in clouds]
        first_shape = arrays[0].shape
        if any(array.shape != first_shape for array in arrays):
            raise GeometryError("all clouds in a batch must share one (m, d) shape")
        if subset_indices is not None and len(subset_indices) != len(arrays):
            raise GeometryError(
                f"subset_indices covers {len(subset_indices)} queries, "
                f"but {len(arrays)} were given"
            )
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        point_count, dimension = first_shape
        self.stats.batch_calls += 1
        self.stats.batch_queries += len(arrays)
        if point_count == 0:
            return [None] * len(arrays)
        if fault_bound == 0:
            return [array.mean(axis=0) for array in arrays]
        if point_count - fault_bound <= 0:
            return [None] * len(arrays)

        objective_head = self._objective_head(objective, dimension)
        key = None
        if subset_indices is None:
            key = (
                fault_bound,
                (len(arrays),) + first_shape,
                b"".join(array.tobytes() for array in arrays),
                objective_head.tobytes(),
            )
            cached = self._memo.get(key, _MISS)
            if cached is not _MISS:
                self.stats.memo_hits += len(arrays)
                return [_private_copy(point) for point in cached]
        per_query_families = [
            self._families_for(
                array,
                fault_bound,
                None if subset_indices is None else subset_indices[index],
            )
            for index, array in enumerate(arrays)
        ]
        answers = self._solve_fused(arrays, per_query_families, objective_head)
        if answers is None:
            # At least one query is (numerically) infeasible: resolve them
            # individually so each gets the relaxed-slack treatment.
            answers = [
                self._solve_single(array, families, objective_head)
                for array, families in zip(arrays, per_query_families)
            ]
        if key is not None:
            self._memo_store(key, tuple(_private_copy(point) for point in answers))
        return answers

    def points_multi(
        self,
        clouds: Sequence[object],
        fault_bound: int,
        *,
        objective: np.ndarray | Sequence[float] | None = None,
    ) -> list[np.ndarray | None]:
        """Answer a whole round's safe-area queries in one assembled pass.

        The multi-instance entry point of the columnar execution substrate:
        the caller hands over *every* ``Gamma`` query of a simulation round —
        across all processes of all trials in the batch — and the kernel
        dedupes bitwise-identical clouds (the common case once trials share
        receive views or states collapse), solving each distinct cloud once.

        Unlike :meth:`points_batch`, clouds may have heterogeneous shapes
        and each distinct cloud is solved through :meth:`point` — so results
        are bitwise identical to per-query single solves, which is what lets
        the columnar engine share one solve across many
        object-runtime-equivalent processes.  (A block-diagonal solve may
        return a different, equally valid vertex of a non-degenerate
        ``Gamma``, so it is never mixed in here.)

        Returns one entry per query, aligned with ``clouds``: the chosen
        point, or ``None`` for an empty safe area.
        """
        if fault_bound < 0:
            raise GeometryError("fault bound must be non-negative")
        arrays = [_as_cloud_array(cloud) for cloud in clouds]
        self.stats.multi_calls += 1
        self.stats.multi_queries += len(arrays)

        # Dedupe bitwise-identical queries; remember one representative each.
        order: list[tuple[tuple[int, int], bytes]] = []
        representatives: dict[tuple[tuple[int, int], bytes], int] = {}
        for index, array in enumerate(arrays):
            key = (array.shape, array.tobytes())
            if key in representatives:
                self.stats.multi_dedup_hits += 1
            else:
                representatives[key] = index
            order.append(key)

        solved = {
            key: self.point(arrays[index], fault_bound, objective=objective)
            for key, index in representatives.items()
        }
        return [solved[key] for key in order]

    def _solve_fused(
        self,
        arrays: Sequence[np.ndarray],
        per_query_families: Sequence[tuple[tuple[int, ...], ...]],
        objective_head: np.ndarray,
    ) -> list[np.ndarray] | None:
        """Solve all queries as one block-diagonal sparse LP.

        Returns ``None`` when the fused program is infeasible (some query's
        ``Gamma`` is empty or numerically borderline), letting the caller fall
        back to per-query solves.  The per-query programs share no variables
        or rows, so the fused optimum restricted to one query's variables is
        an optimum of that query's program.
        """
        from repro.geometry.linprog import solve_linear_program

        dimension = arrays[0].shape[1]
        block_size = len(per_query_families[0][0])

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        rhs_parts: list[np.ndarray] = []
        objective_parts: list[np.ndarray] = []
        lower_parts: list[np.ndarray] = []
        upper_parts: list[np.ndarray] = []
        query_offsets: list[int] = []
        row_base = 0
        col_base = 0
        for array, families in zip(arrays, per_query_families):
            template = self._template(len(families), block_size, dimension)
            families_flat = np.asarray(families, dtype=np.int64)
            data = template.static_data.copy()
            data[template.cloud_slots] = -array[families_flat].transpose(0, 2, 1).ravel()
            rows_parts.append(template.coo_rows + row_base)
            cols_parts.append(template.coo_cols + col_base)
            data_parts.append(data)
            rhs_parts.append(template.rhs)
            query_objective = np.zeros(template.variable_count)
            query_objective[:dimension] = objective_head
            objective_parts.append(query_objective)
            lower_parts.append(template.col_lower)
            upper_parts.append(template.col_upper)
            query_offsets.append(col_base)
            row_base += template.shape[0]
            col_base += template.variable_count
            self.stats.blocks_assembled += len(families)

        matrix = csc_matrix(
            (
                np.concatenate(data_parts),
                (np.concatenate(rows_parts), np.concatenate(cols_parts)),
            ),
            shape=(row_base, col_base),
        )
        self.stats.lp_solves += 1
        try:
            result = solve_linear_program(
                np.concatenate(objective_parts),
                equality_matrix=matrix,
                equality_rhs=np.concatenate(rhs_parts),
                bounds=(np.concatenate(lower_parts), np.concatenate(upper_parts)),
            )
        except LinearProgramError as error:
            # A numerically unclassifiable fused program gets the same
            # treatment as an infeasible one: per-query re-solves attribute
            # the degeneracy (or genuine emptiness) to the right query.
            # Input-validation errors (status None) stay loud.
            if error.status is None:
                raise
            return None
        if not result.feasible or result.solution is None:
            return None
        return [
            result.solution[offset : offset + dimension].copy()
            for offset in query_offsets
        ]

    # -- relaxed fallback --------------------------------------------------------

    def _relaxed_point(
        self, cloud: np.ndarray, families_flat: np.ndarray
    ) -> np.ndarray | None:
        """Minimum-slack re-solve distinguishing empty ``Gamma`` from round-off.

        Mirrors the oracle's ``_relaxed_safe_area_point``: minimise a shared
        non-negative slack ``t`` bounding ``|z - Y_T^T alpha|`` per coordinate
        and block, and accept the candidate when the optimal slack is at
        floating-point scale relative to the coordinates.
        """
        from repro.geometry.linprog import solve_linear_program

        block_count, block_size = families_flat.shape
        dimension = cloud.shape[1]
        variable_count = dimension + block_count * block_size + 1
        slack_column = variable_count - 1

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []

        # Inequality rows: for block b, coordinate c, sign s in {+1, -1}:
        #   s * (z_c - Y_T[:, c] @ alpha_b) - t <= 0
        gathered = cloud[families_flat].transpose(0, 2, 1)  # (B, d, s)
        row_index = 0
        for block in range(block_count):
            alpha_base = dimension + block * block_size
            for coordinate in range(dimension):
                for sign in (1.0, -1.0):
                    count = 2 + block_size
                    rows_parts.append(np.full(count, row_index, dtype=np.int64))
                    cols_parts.append(
                        np.concatenate(
                            [
                                [coordinate],
                                np.arange(alpha_base, alpha_base + block_size),
                                [slack_column],
                            ]
                        ).astype(np.int64)
                    )
                    data_parts.append(
                        np.concatenate(
                            [[sign], -sign * gathered[block, coordinate], [-1.0]]
                        )
                    )
                    row_index += 1
        inequality_matrix = csc_matrix(
            (
                np.concatenate(data_parts),
                (np.concatenate(rows_parts), np.concatenate(cols_parts)),
            ),
            shape=(row_index, variable_count),
        )
        inequality_rhs = np.zeros(row_index)

        equality_rows = np.repeat(np.arange(block_count, dtype=np.int64), block_size)
        equality_cols = (
            dimension
            + (np.arange(block_count, dtype=np.int64)[:, None] * block_size
               + np.arange(block_size, dtype=np.int64)[None, :]).ravel()
        )
        equality_matrix = csc_matrix(
            (np.ones(block_count * block_size), (equality_rows, equality_cols)),
            shape=(block_count, variable_count),
        )
        equality_rhs = np.ones(block_count)

        objective = np.zeros(variable_count)
        objective[slack_column] = 1.0
        # The slack is one more non-negative column after the weights.
        bounds = _variable_bounds(dimension, block_count * block_size + 1)
        self.stats.relaxed_solves += 1
        result = solve_linear_program(
            objective,
            inequality_matrix=inequality_matrix,
            inequality_rhs=inequality_rhs,
            equality_matrix=equality_matrix,
            equality_rhs=equality_rhs,
            bounds=bounds,
        )
        if not result.feasible or result.solution is None or result.objective is None:
            return None
        scale = max(1.0, float(np.max(np.abs(cloud))))
        if result.objective > _SLACK_TOLERANCE * scale:
            return None
        return result.solution[: cloud.shape[1]]


#: Shared kernel used by the protocol layer (``SafeAreaCalculator`` et al.).
default_kernel = GammaKernel()


def _register_kernel_metrics() -> None:
    """Bridge the shared kernel's stats into the process metrics registry.

    All protocol code solves through :data:`default_kernel`, so publishing its
    cumulative counters (by delta, at collection time) covers the kernel layer
    in both the parent process and every pool worker — worker registries ship
    the resulting counters back over the result pipes.
    """
    from repro.obs.registry import CounterSync, get_registry

    registry = get_registry()
    events = registry.counter(
        "repro_kernel_events_total",
        "Gamma kernel events (queries, solves, cache hits) by kind.",
        labelnames=("kind",),
    )
    registry.register_collector(CounterSync(events, default_kernel.stats_snapshot))
    templates = registry.gauge(
        "repro_kernel_template_cache_size",
        "LP constraint templates currently cached by the shared kernel.",
    )
    memo = registry.gauge(
        "repro_kernel_memo_size",
        "Answers currently held by the shared kernel's query memo.",
    )
    registry.register_collector(
        lambda: (
            templates.set(default_kernel.template_cache_size),
            memo.set(default_kernel.memo_size),
        )
    )


_register_kernel_metrics()
