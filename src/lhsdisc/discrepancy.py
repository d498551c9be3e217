"""Local and star discrepancy of point sets over anchored boxes [0, y).

The star discrepancy is the supremum over y in [0,1]^d of
|count([0,y))/N - volume([0,y))|.  The supremum is attained on the
critical grid whose per-axis values are the distinct point coordinates
plus 1: the deficiency side (volume minus count) is maximal at grid
points with open counting (x < y strictly), and the surplus side is the
limit from above of boxes shrinking onto a grid point, realized by closed
counting (x <= y).  Evaluating both sides on the grid therefore gives the
exact supremum with no epsilon perturbation anywhere; coordinates are
exact binary64 values and strict/non-strict comparisons are well defined.

The exact kernel values a corner with the same binary64 operations in
the same order as a direct evaluation (``box_volume``, ``count_closed``
and ``count_open``): volume ((1*a)*b)*c, then closed/N - volume,
volume - open/N and their maximum.  Only the scorer (``_CornerScorer``)
turns grid indices into counts and volumes.  The reported box is the
lexicographically smallest maximizer; it is closed-sided when its closed
surplus is at least its open deficiency.  The lower estimate scores its
corners through the search without opening the frontier, so the same rule
picks its box among the corners it examines, and that box is a grid corner.
Its ``budget`` corners come a block at a time: the first block random,
each later one opening with the pending line corners of up to
W = max(1, B // L) centers, L the sum of the grid sizes, so that W whole
climbs fit in a block.  A center's line corners hold its grid indices on
all axes but one and take every grid index on that one, axis by axis;
they resume where a block stopped them.  The centers are the pool: the W
best corners whose lines are not all scored, drawn up after each block
from the last pool and the block's corners, by value, ties to the
lexicographically smallest corner.  Besides a block of corners, the
estimate keeps O(W) candidates, the pool and a block's best, and one
record per center climbed, its lines scored.  A caller's box [0, y)
enters it as two grid corners, and needs no value of its own.  Its floor
corner f takes, per axis, the largest grid value at or below y_j, and its
ceiling corner c the smallest at or above it.  No coordinate lies in
(f_j, y_j] or [y_j, c_j), so f has y's closed count and c its open count,
while vol(f) <= vol(y) <= vol(c) in binary64: f's closed surplus is at
least y's, and c's open deficiency at least y's.  Where no grid value
lies at or below y_j, y's closed count is 0 and its surplus at most 0,
which no corner's value is below (the open share is at most the closed
one), so grid index 0 stands in.

In every dimension the kernel is a branch and bound over boxes of grid
indices (Thiemard, "An algorithm to compute bounds for the star
discrepancy", J. Complexity 2001).  A box is kept half-open as int32
ranges [lo, he) with he = hi + 1 per axis, so that lo is its open row and
he its closed row.  A corner of the box has at most the closed count C(hi)
of hi, at least the open count O(lo) of lo, and a volume between vol(lo)
and vol(hi), so its value is at most the box's bound
max(C(hi)/N - vol(lo), vol(hi) - O(lo)/N).  Division by N, products of
non-negative numbers and a - b (rising in a, falling in b) are monotone
under round-to-nearest, so the bound holds in binary64.  The floor is the
largest value known to be attained: the closed side at each bounded box's
hi, the open side at its lo, and the value of each single corner scored,
the points' own corners first.  A box whose bound is below the floor holds
no maximizer and is dropped; one whose bound equals it is kept, as a tie
may lie at a smaller corner.  From the whole grid, a box is split at
mid = (lo + he + 1) >> 1 on every axis into at most 2^d children, [lo, mid)
or [mid, he) per axis, each bounded with two exact counts from the
scorer's count tables (per-axis bitsets for d >= 3, plane counts for
d <= 2).  A single corner's bound is its value; of equal values the
lexicographically smallest corner (in grid indices, axis by axis) is
kept, so the result is the full scan's.

The frontier is a stack, searched depth first a chunk at a time: the last
``per`` = max(1, C / 2^d) boxes pushed that reach the floor are split and
their children bounded.  For bitsets C = max(B, 2^d), B the scorer's block
of corners, sized so that the words their counts read fill 64 KiB: 2048
at N = 128, so a chunk is 256 boxes at d = 3.  Plane counts read only
four words a row, so much of a chunk's cost is its fixed numpy calls,
about 40 and as many views, and their blocks are sized by memory instead:
B = 2048 (``_PLANE_BLOCK``) for the lower estimate and the points' own
corners, and C = 3072 (``_PLANE_FRONTIER``), a chunk of 768 boxes at
d = 2 and 1536 at d = 1, for the frontier, the largest multiple of 1024
that keeps the paper's call (d = 2, N = 3200) under 1 MiB (990 KiB).
There C = 2048 ran about 1.15 times slower, and 4096 took the call to
1.1 MiB (2-vCPU host).  The stack starts from the deepest
level of the whole grid's halving tree that has at most ``per`` boxes
(level l has prod(min(n_j, 2^l)) boxes, n_j the grid sizes), split
without bounds: their children are the first boxes bounded, and as those
children's lo and hi corners include every ancestor's, the floor collects
every attained side that bounding the ancestors would have given.  The
kept children of a chunk are pushed as one stack entry sorted ascending by
bound, ties in the order they were split.  A chunk takes the top entry's last boxes from
its first bound at or above the floor, one searchsorted, and then those of
the entries below it, until it holds ``per`` boxes or the stack is empty;
boxes below the floor are dropped, and once a chunk reaches them the rest
of the entry goes too, as the floor never falls.  Give the first entry its
level, and each later one the level after that of the lowest entry its
chunk took from: every box of an entry lies at its entry's level or
deeper, and the entries' levels rise strictly up the stack.  Only boxes
of more than one corner are pushed, and they lie above level L = ceil(log2)
of the longest grid, so the stack holds at most L entries of at most C
boxes, of 8 d + 8 bytes each (2 d int32 grid indices and a bound).

Every order on this path is the one a stable sort gives, from a cheaper
sort that provably returns the same permutation.  Distinct keys sort one
way only: the bounds are sorted by numpy's default sort and re-sorted
stably only when two neighbours of its result compare equal (-0.0 and 0.0
too), and ``Stream.permutation`` redraws its keys on any tie.  The d <= 2
set-up sorts are stable by grid index or block number, which have one
result whatever the algorithm; as uint16 or uint8 keys numpy runs them as
a radix sort, and int32 keys stay on an axis of 2^16 or more grid values.

A chunk works in one workspace, allocated for a block of B corners and,
once the frontier opens, for C children (the lower estimate never opens
it, so its workspace stays one block's, and it adds the grid indices of
a block of corners, 8 d bytes each, and the random draws that fill it);
``_CornerScorer`` and ``_BoxSearch`` list its arrays.  Every per-chunk
operation writes into views of it with ``out=``.  It takes 17 d + 51
bytes per child plus the count's scratch: at d = 2 that scratch is
24 bytes per child and holds the children too, 93 bytes per child
(279 KiB in all), and for d >= 3 it is 16 bytes per child and one chunk
of points' AND rows and popcounts (144 KiB when C = B).  The grids, shifted
by one, and the points' grid indices take about 12 d N bytes.  For d >= 3 the bitset
tables take about d * N * min(N, 4096) / 8 bytes and their rank maps
8 d (N + 2) bytes per 4096 points.  For d = 2
a chunk of s <= 4096 points keeps cum, (s + 1) x (s // 64 + 2) uint16
with the columns padded to a multiple of 4, and word, (s // 64 + 1) x 65
uint64, about 130 bytes per point, and two rank maps of 4 (N + 2) bytes
each; for d = 1 the count is one rank map of 8 (N + 2) bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .points import PointSet
from .rng import Stream, derive


class DimensionMismatch(ValueError):
    """Box dimension differs from the point set dimension."""


class BudgetExceeded(RuntimeError):
    """Exact enumeration would exceed the configured grid budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exact enumeration needs {required} grid evaluations, budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class AnchoredBox:
    """Upper corner y of the half-open box [0, y); 0 <= y_j <= 1."""

    upper: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.upper, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("box corner must be a 1-d vector")
        if arr.size == 0 or np.any(~((arr >= 0.0) & (arr <= 1.0))):
            raise ValueError(f"box corner components must lie in [0, 1], got {arr}")
        arr.flags.writeable = False
        object.__setattr__(self, "upper", arr)

    @property
    def dim(self) -> int:
        return self.upper.shape[0]


class MethodError(ValueError):
    """Unknown method name, or a budget given to a method that takes none."""


@dataclass(frozen=True)
class DiscrepancyCertificate:
    """Star discrepancy value, exact or a certified lower bound, and its box.

    closed_sided is True when the maximum is the limit of boxes shrinking
    onto the corner from above (closed counting), False when the corner
    box itself attains it (open counting), and None for a lower bound.
    """

    value: float
    argmax_box: AnchoredBox
    closed_sided: bool | None

    @property
    def kind(self) -> str:
        return "lower-bound" if self.closed_sided is None else "exact"


def box_volume(box: AnchoredBox) -> float:
    """Volume of [0, y): left-to-right product of the corner components."""
    v = 1.0
    for y in box.upper:
        v *= float(y)
    return v


def _require_same_dim(ps: PointSet, box: AnchoredBox) -> None:
    if ps.dim != box.dim:
        raise DimensionMismatch(f"point set has dim {ps.dim}, box has dim {box.dim}")


def count_open(ps: PointSet, box: AnchoredBox) -> int:
    """Number of points (with multiplicity) with x_j < y_j for all j."""
    _require_same_dim(ps, box)
    return int(np.all(ps.coords < box.upper, axis=1).sum())


def count_closed(ps: PointSet, box: AnchoredBox) -> int:
    """Number of points (with multiplicity) with x_j <= y_j for all j."""
    _require_same_dim(ps, box)
    return int(np.all(ps.coords <= box.upper, axis=1).sum())


def local_discrepancy(ps: PointSet, box: AnchoredBox) -> float:
    """| count([0,y))/N - volume([0,y)) |."""
    return abs(count_open(ps, box) / ps.n_points - box_volume(box))


def excess(ps: PointSet, box: AnchoredBox) -> float:
    """Signed surplus of points in [0, y): count - N * volume."""
    return count_open(ps, box) - ps.n_points * box_volume(box)


def _corner_values(closed: np.ndarray, opened: np.ndarray,
                   vols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner values from the closed and open shares (count / N) and the
    volumes: closed - vol into ``closed``, vol - open into ``opened``, and
    their maximum into ``vols``; returns the values, the closed surpluses
    and the open deficiencies."""
    np.subtract(closed, vols, out=closed)
    np.subtract(vols, opened, out=opened)
    return np.maximum(closed, opened, out=vols), closed, opened


def _grids(coords: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per axis, the grid of the distinct coordinates plus 1 (0 enters only
    as a coordinate) shifted by one, its first value repeated in front; and
    per point and axis, the grid index of its coordinate."""
    shifted = []
    ranks = np.empty(coords.shape, dtype=np.int32)
    for j, column in enumerate(coords.T):
        values, ranks[:, j] = np.unique(column, return_inverse=True)
        shifted.append(np.concatenate((values[:1], values, [1.0])))
    return shifted, ranks


def _exact(ps: PointSet, budget: int | None) -> DiscrepancyCertificate:
    """The exact kernel behind both public entry points; ``None`` is no budget."""
    shifted, ranks = _grids(ps.coords)
    required = 1
    for s in shifted:
        required *= len(s) - 1
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget)
    search = _BoxSearch(shifted, ranks)
    search.run()
    return DiscrepancyCertificate(search.value, search.scorer.box(search.corner),
                                  search.closed)


def star_discrepancy_exact(ps: PointSet, budget: int = 10**9) -> DiscrepancyCertificate:
    """Exact star discrepancy over the critical grid, by a branch and bound
    over boxes of grid indices (see the module).

    Ties go to the lexicographically smallest corner, and the side is
    closed when the closed surplus is at least the open deficiency there.
    Raises BudgetExceeded (reporting the required grid size) before doing
    any work if the grid has more than ``budget`` corners.
    """
    return _exact(ps, budget)


def star_discrepancy_exact_2d(ps: PointSet) -> DiscrepancyCertificate:
    """Exact star discrepancy in dimension 2 with no grid budget.

    The same kernel as star_discrepancy_exact, so results are bit-equal;
    the ``exact2d`` method of star_discrepancy.
    """
    if ps.dim != 2:
        raise DimensionMismatch(f"specialization requires dim 2, got {ps.dim}")
    return _exact(ps, None)


#: Points per chunk of the scorer's counts: 64 uint64 words of bitsets, or
#: 64 blocks of 64 points of a plane, whose counts fit uint16.
_CHUNK_POINTS = 4096

#: uint64 words of a block's rows for bitset counts (64 KiB): a block of
#: corners fills them with its open and closed rows of one chunk, and is at
#: least one corner.
_ESTIMATE_WORDS = 1 << 13

#: Corners per block of plane counts (d <= 2), sized by memory (see the
#: module).
_PLANE_BLOCK = 1 << 11

#: Children per chunk of the search's frontier with plane counts (d <= 2),
#: sized by memory (see the module).
_PLANE_FRONTIER = 3 << 10

#: Per count t of a chunk's points, the mask of the low t & 63 bits of a word.
_COUNT_MASKS = ((np.uint64(1) << (np.arange(_CHUNK_POINTS + 1, dtype=np.uint64) & np.uint64(63)))
                - np.uint64(1))


def _pairs(k: int, *buffers: np.ndarray) -> list[np.ndarray]:
    """The first 2 k elements of each buffer, as (2, k) arrays."""
    return [b[:2 * k].reshape(2, k) for b in buffers]


def _ascending(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(keys, kind="stable")`` of float keys, and the keys in
    that order.  Distinct keys sort one way only, so the default sort gives
    the stable order unless two neighbours of its result compare equal (as
    -0.0 and 0.0 do); only then does the stable sort run."""
    order = keys.argsort()
    ordered = keys.take(order)
    if (ordered[1:] == ordered[:-1]).any():
        order = keys.argsort(kind="stable")
        ordered = keys.take(order)
    return order, ordered


def _grid_order(ranks: np.ndarray, size: int) -> np.ndarray:
    """``np.argsort(ranks, kind="stable")`` of grid indices on an axis of
    ``size`` grid values.  A stable sort has one result; below 2**16 grid
    values it runs on uint16 keys, which numpy sorts by radix."""
    return np.argsort(ranks.astype(np.uint16) if size < 1 << 16 else ranks, kind="stable")


class _CornerScorer:
    """Counts, volumes and values of corners and boxes given by their grid
    indices: the one place that turns grid indices into numbers.

    ``values`` gives a block of corners' values, the exact kernel's from
    ``_corner_values``.  As open <= closed makes open/N - vol at most
    closed/N - vol in binary64, a value is the larger of closed/N - vol
    and |open/N - vol|, each a valid lower bound for the star discrepancy.
    ``volumes`` is the left-to-right product of a corner's grid values, so
    every value is the binary64 result a corner-by-corner evaluation gives
    (``box_volume``, ``count_closed``, ``count_open``).  For a box [lo, he)
    it gives vol(lo) and, from ``shifted``, each axis's grid with its first
    value repeated in front, vol(hi) read at he.  ``box`` turns a corner's
    grid indices into its box, and ``corners`` a box into the grid indices
    of the two grid corners that dominate it.

    The counts are exact integers.  On axis j the points a corner holds are
    those whose grid index on that axis is below a row t: row k for the
    open count at grid index k, row k + 1 for the closed one.  The points
    are split into chunks of at most 4096, each with a rank map per axis:
    the number of the chunk's points below each row, with one extra row,
    so that row top + 1 (top the grid index of 1.0) reads as row top.  A
    count is summed over the chunks.

    For d >= 3 the counts come from per-axis cumulative bitsets, one bit
    per point: per chunk and axis, row i of a uint64 table holds the
    chunk's first i points in grid index order, and the rank map turns
    every row into a table row.  A count is the popcount of the AND of one
    table row per axis.  The tables take about d * N * min(N, 4096) / 8
    bytes and the rank maps 8 * d * (N + 2) bytes per chunk.

    For d <= 2 they come from plane counts.  The points are sorted stably
    by their last-axis grid index before they are chunked, and a chunk of
    s points is cut into W = s // 64 + 1 blocks of 64 (the last one short
    or empty).  With umap and vmap the chunk's rank maps on the first and
    last axes, the t = vmap[b] points below the last-axis row b are the
    chunk's first t.  ``cum[i, w]`` (uint16, (s + 1) x (W + 1) padded to a
    multiple of 4 columns) counts the chunk's first i points in first-axis
    order that lie in blocks below w, and ``word[w, c]`` (uint64, W x 65)
    is the OR of the bits of block w's first c points in first-axis order.
    With i = umap[a] and q = t >> 6, the count below the rows (a, b) is
    cum[i, q] plus the popcount of word[q, cum[i, q + 1] - cum[i, q]]
    masked to its low t & 63 bits, read from ``_COUNT_MASKS`` at t.  The
    planes take about 130 bytes per point, and a row reads four words per
    chunk: two of ``cum``, one prefix word and its mask.  At d = 1 the
    count is vmap[b], with one chunk of all the points.

    The workspace holds a block of corners (B, ``block``) when the scorer
    is built, and C children once the search opens its frontier
    (``allocate``, see ``_BoxSearch``): ``rows``, the open and closed
    rows to count (int32, 2 x d x C), ``terms``, their shares and then
    vol(lo) and vol(hi), rows of k in one run of 4 k (float64, 4 x C),
    ``gaps``, the factors of a volume and then the search's two rows of a
    bound's sides (float64, 2 x C), and the count's own scratch.  Plane
    counts at d = 2 use two int32 and two uint16 arrays of 2 x C, and
    their masks and words take the rows of ``terms`` past the counts and
    ``gaps`` as uint64, which are free while counting; bitset counts one
    intp array of 2 x C
    and a chunk's AND rows and popcounts, two uint64 and two uint8 arrays
    of 2 x C x (words per table row), 2 x 64 KiB and 2 x 8 KiB for a
    block.  The rows counted lie in [0, top + 1] and every rank map has
    top + 2 rows (asserted as it is built), so every take is in range and
    names a mode only to write to ``out`` without numpy's buffer.
    """

    def __init__(self, shifted: list[np.ndarray], ranks: np.ndarray):
        self.n, d = ranks.shape
        #: Per axis, the grid shifted by one, so that vol(hi) reads it at he.
        self.shifted = shifted
        self.grids = [s[1:] for s in shifted]
        #: Per point and axis, the grid index of its coordinate.
        self.ranks = ranks
        self.top = np.array([len(g) - 1 for g in self.grids], dtype=np.int32)
        self.planes = d <= 2
        if d == 2:
            order = _grid_order(self.ranks[:, -1], len(self.grids[-1]))
            self.chunks = [self._plane(self.ranks[order[s:s + _CHUNK_POINTS]])
                           for s in range(0, self.n, _CHUNK_POINTS)]
        elif d == 1:
            # The count is the rank map, which needs no chunks of points.
            self.chunks = [self._plane(self.ranks)]
        else:
            self.chunks = [self._chunk(self.ranks[s:s + _CHUNK_POINTS])
                           for s in range(0, self.n, _CHUNK_POINTS)]
        #: Corners per block (see the module).
        self.block = (_PLANE_BLOCK if self.planes else
                      max(1, _ESTIMATE_WORDS // (2 * self.chunks[0][0][0].shape[1])))
        self.allocate(self.block)

    def allocate(self, size: int) -> None:
        """Sizes the workspace for ``size`` corners."""
        d = len(self.grids)
        pair = 2 * size
        self.rows = np.empty(d * pair, dtype=np.int32)
        self.terms = np.empty(2 * pair)
        self.gaps = np.empty(pair)
        if d == 2:
            self.ints = np.empty((2, pair), dtype=np.int32)
            self.halves = np.empty((2, pair), dtype=np.uint16)
        elif d > 2:
            self.index = np.empty(pair, dtype=np.intp)
            words = pair * self.chunks[0][0][0].shape[1]
            self.hits = np.empty((2, words), dtype=np.uint64)
            self.pops = np.empty((2, words), dtype=np.uint8)

    def _rank_maps(self, ranks: np.ndarray) -> list[np.ndarray]:
        """Per axis, the number of ``ranks``' points below each row, and the
        extra row."""
        size = np.array([ranks.shape[0]])
        maps = [np.concatenate(([0], np.bincount(rank, minlength=top).cumsum(), size))
                for rank, top in zip(ranks.T, self.top)]
        assert [len(m) for m in maps] == (self.top + 2).tolist()
        return maps

    def _chunk(self, ranks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis, the cumulative table of ``ranks``' points and its rank map."""
        size = ranks.shape[0]
        pos = np.arange(size)
        word = pos >> 6
        bit = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
        out = []
        for rank, rank_map in zip(ranks.T, self._rank_maps(ranks)):
            order = np.argsort(rank)
            table = np.zeros((size + 1, word[-1] + 1), dtype=np.uint64)
            table[pos + 1, word[order]] = bit[order]
            np.bitwise_or.accumulate(table, axis=0, out=table)
            out.append((table, rank_map))
        return out

    def _plane(self, ranks: np.ndarray) -> tuple[np.ndarray, ...]:
        """The plane counts of ``ranks``' points, in last-axis order (see
        the class): umap times the row length of ``cum``, vmap, and ``cum``
        and ``word`` flattened; at d = 1 only vmap, in float64 as it is the
        count."""
        maps = self._rank_maps(ranks)
        if len(maps) == 1:
            return maps[0].astype(np.float64),
        size = ranks.shape[0]
        blocks = (size >> 6) + 1
        stride = (blocks + 4) & -4  # the W + 1 columns, padded to whole uint64s
        order = _grid_order(ranks[:, 0], len(self.grids[0]))  # positions in first-axis order
        block = order >> 6
        # Row i of cum sums the steps of the first i points in first-axis
        # order, a step being one in the columns past the point's block.
        # Four uint16 columns add as one uint64, as no count reaches 2**16.
        step = (np.arange(stride) > np.arange(blocks)[:, None]).astype(np.uint16)
        cum = np.zeros((size + 1, stride), dtype=np.uint16)
        wide = cum.view(np.uint64)
        step.view(np.uint64).take(block, axis=0, out=wide[1:], mode="wrap")
        np.add.accumulate(wide, axis=0, out=wide)
        # Grouped by block, each block's points stay in first-axis order.
        order = order[np.argsort(block.astype(np.uint8), kind="stable")]  # block < 64
        pos = np.arange(size)
        word = np.zeros((blocks, 65), dtype=np.uint64)
        word[pos >> 6, (pos & 63) + 1] = np.left_shift(np.uint64(1),
                                                       (order & 63).astype(np.uint64))
        np.bitwise_or.accumulate(word, axis=1, out=word)
        return ((maps[0] * stride).astype(np.int32), maps[1].astype(np.int32), cum.ravel(),
                word.ravel())

    def block_rows(self, k: int) -> np.ndarray:
        """The workspace's open and closed rows of ``k`` corners, (2, d, k)."""
        return self.rows[:2 * len(self.grids) * k].reshape(2, -1, k)

    def shares(self, rows: np.ndarray) -> np.ndarray:
        """Per side of ``rows`` (2, d, k), the share of the points below its
        rows on every axis, count / N: the first 2 k elements of ``terms``,
        as (2, k)."""
        k = rows.shape[2]
        counts = self.terms[:2 * k].reshape(2, k)
        if self.planes:
            self._plane_count(rows, counts)
        else:
            self._bitset_count(rows, counts)
        return np.divide(counts, self.n, out=counts)

    def _bitset_count(self, rows: np.ndarray, counts: np.ndarray) -> None:
        """The counts from the bitset tables (d >= 3)."""
        k = rows.shape[2]
        index, = _pairs(k, self.index)
        for c, chunk in enumerate(self.chunks):
            words = chunk[0][0].shape[1]
            hit, axis_hit = (h[:2 * k * words].reshape(2 * k, words) for h in self.hits)
            for j, (table, rank_map) in enumerate(chunk):
                rank_map.take(rows[:, j], out=index, mode="wrap")
                table.take(index.ravel(), axis=0, out=axis_hit if j else hit, mode="wrap")
                if j:
                    np.bitwise_and(hit, axis_hit, out=hit)
            # Transposed, the sum runs along the block, not across a few words.
            pop, across = (p[:2 * k * words] for p in self.pops)
            np.bitwise_count(hit, out=pop.reshape(2 * k, words))
            across = across.reshape(words, 2 * k)
            np.copyto(across, pop.reshape(2 * k, words).T)
            if c:
                np.add.reduce(across, axis=0, out=index.ravel())
                counts += index
            else:
                np.add.reduce(across, axis=0, out=counts.ravel())

    def _plane_count(self, rows: np.ndarray, counts: np.ndarray) -> None:
        """The counts from the plane counts (d <= 2)."""
        if len(self.grids) == 1:
            self.chunks[0][0].take(rows[:, 0], out=counts, mode="wrap")
            return
        k = rows.shape[2]
        t, q = _pairs(k, *self.ints)
        below, above = _pairs(k, *self.halves)
        # Free while counting: terms past the counts, and gaps.
        mask, bits = _pairs(k, self.terms[2 * k:].view(np.uint64), self.gaps.view(np.uint64))
        for c, (umap, vmap, cum, word) in enumerate(self.chunks):
            vmap.take(rows[:, 1], out=t, mode="wrap")
            _COUNT_MASKS.take(t, out=mask, mode="wrap")
            np.right_shift(t, 6, out=q)
            at = t  # t is spent
            umap.take(rows[:, 0], out=at, mode="wrap")
            at += q  # the flat index of cum[i, q]
            cum.take(at, out=below, mode="wrap")
            cum[1:].take(at, out=above, mode="wrap")
            above -= below
            q *= 65
            q += above  # the flat index of word[q, above]
            word.take(q, out=bits, mode="wrap")
            bits &= mask
            np.bitwise_count(bits, out=above)
            if c:
                counts += below
                counts += above
            else:
                np.add(below, above, out=counts)

    def volumes(self, ends: np.ndarray) -> np.ndarray:
        """vol(lo) of the boxes [lo, he) of ``ends`` (e, d, k), and vol(hi)
        too when e = 2, as an (e, k) view of ``terms`` after the shares;
        ``gaps`` holds the factors."""
        e, _, k = ends.shape
        vols = self.terms[2 * k:(2 + e) * k].reshape(e, k)
        part = self.gaps[:k]
        for vol, end, grids in zip(vols, ends, (self.grids, self.shifted)):
            for j, grid in enumerate(grids):
                grid.take(end[j], out=part if j else vol, mode="wrap")
                if j:
                    vol *= part
        return vols

    def values(self, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values of ``corners`` (grid indices, d x k), their closed
        surpluses and their open deficiencies, as views of the workspace."""
        rows = self.block_rows(corners.shape[1])
        np.copyto(rows[0], corners)
        np.add(corners, 1, out=rows[1])
        opened, closed = self.shares(rows)
        return _corner_values(closed, opened, self.volumes(rows[:1])[0])

    def box(self, corner: Sequence[int]) -> AnchoredBox:
        """The box of a corner given by its grid indices."""
        return AnchoredBox(np.array([g[k] for g, k in zip(self.grids, corner)]))

    def corners(self, uppers: np.ndarray) -> np.ndarray:
        """The two grid corners (grid indices, d x 2 k) that dominate the
        boxes of ``uppers`` (k x d upper corners): per axis, the floor, the
        largest grid value at or below y_j (index 0 if there is none), and
        the ceiling, the smallest at or above it (see the module)."""
        return np.array([(np.maximum(g.searchsorted(y, "right") - 1, 0), g.searchsorted(y))
                         for g, y in zip(self.grids, uppers.T)]).reshape(len(self.grids), -1)


@functools.cache
def _child_rows(d: int) -> np.ndarray:
    """Per end, axis and child c of a box, the row of (lo, he, mid) stacked
    over the axes that holds the child's end: c takes the upper half
    [mid, he) on the axes of its set bits, and the lower half [lo, mid) on
    the others."""
    upper = np.arange(1 << d) >> np.arange(d)[:, None] & 1
    rows = (d * np.array((2 * upper, 2 - upper)) + np.arange(d)[:, None]).ravel()
    rows.flags.writeable = False
    return rows


class _BoxSearch:
    """The exact kernel: a branch and bound over boxes of grid indices (see
    the module).  ``seed`` scores given corners (grid indices) by
    ``_score``'s rule without opening the frontier; ``run`` is that seeding
    pass over the points' own corners, then the frontier from the whole
    grid.  The lower estimate only seeds a search.

    A chunk of boxes is an int32 array (end, axis, box): end 0 is lo and
    end 1 is he = hi + 1, so a box is [lo, he) on each axis and its open
    and closed rows are its two ends.  ``boxes_bounded`` counts the boxes
    bounded and ``corners_scored`` those that are single corners, whose
    bound is their value; neither counts the corners given to ``seed``.

    A chunk splits ``per`` = C >> d boxes into at most C children, where
    C (``size``) is ``_PLANE_FRONTIER`` for plane counts and the scorer's
    block for bitsets, or one box's 2^d children if more.  Once ``run``
    opens the frontier, the scorer's workspace holds C corners (see
    ``_CornerScorer``): a chunk's kept children are its rows to count,
    counted he rows first, so that its ``terms`` hold their closed and open
    shares, vol(lo) and vol(hi); its ``gaps`` hold the attained sides and
    then the bound's two sides, and the bound overwrites vol(hi).  The
    search's own arrays, allocated then too, are ``ends``,
    the boxes' lo, he and mid (int32, 3 x d x per), ``children``, all their
    children before the empty ones drop and then the kept ones' extents
    (int32, 2 x d x C; at d = 2 the count's int32 scratch, which is free
    whenever they are), and boolean masks.  A stack entry is a chunk's kept
    children, their bounds and a least extent: no box in it spans fewer
    grid indices on any axis.  Where a chunk's least extent is 2 or more
    no child is empty, and where it is 4 or more none is a single corner,
    so those steps are skipped.
    """

    def __init__(self, shifted: list[np.ndarray], ranks: np.ndarray):
        self.scorer = _CornerScorer(shifted, ranks)
        self.grids = self.scorer.grids
        d = len(shifted)
        #: C, the most children of a chunk (see the class).
        self.size = max(_PLANE_FRONTIER if self.scorer.planes else self.scorer.block, 1 << d)
        #: Boxes split per chunk.
        self.per = self.size >> d
        self.value = -np.inf
        self.floor = -np.inf
        self.corner: list[int] = []
        self.closed = False
        self.boxes_bounded = 0
        self.corners_scored = 0

    def seed(self, corners: np.ndarray, keep: int = 1,
             offer: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None
             ) -> None:
        """Scores ``corners`` (grid indices, d x k) a block at a time, and
        hands ``offer`` each block's corners, their values and the
        positions of the block's ``keep`` best (``_score``)."""
        block = self.scorer.block
        for s in range(0, corners.shape[1], block):
            part = corners[:, s:s + block]
            scored = self.scorer.values(part)
            best = self._score(part, *scored, min(keep, part.shape[1]))
            if offer:
                offer(part, scored[0], best)

    def run(self) -> None:
        """The seeding pass over the points' own corners, then the frontier."""
        self.seed(self.scorer.ranks.T)
        d = len(self.grids)
        size = self.size
        if size > self.scorer.block:
            self.scorer.allocate(size)
        self.ends = np.empty((3, d, self.per), dtype=np.int32)
        # At d = 2 the count's int32 scratch is free whenever the children are.
        self.children = (self.scorer.ints.ravel() if d == 2 else
                         np.empty(2 * d * size, dtype=np.int32))
        self.axis_masks = np.empty(d * size, dtype=bool)
        self.masks = np.empty((3, size), dtype=bool)
        stack = [self._start()]
        while stack:
            m, low = self._take(stack)
            if m:
                children = self._bound(self._split(m, low), low)
                if children is not None:
                    stack.append(children)

    def _start(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The stack's first entry: the boxes of the deepest level of the
        whole grid's halving tree that has at most ``per`` boxes, split
        without bounds and bounded by infinity, and their least extent.  A
        level of the tree has prod(min(n_j, 2^level)) boxes, n_j the grid
        sizes, and stops changing once 2^level reaches every n_j."""
        sizes = (self.scorer.top + 1).tolist()
        level = 0
        while (1 << level) < max(sizes) and math.prod(
                min(n, 2 << level) for n in sizes) <= self.per:
            level += 1
        boxes = np.zeros((2, len(sizes), 1), dtype=np.int32)
        boxes[1, :, 0] = sizes
        low = min(sizes)
        for _ in range(level):
            self.ends[:2, :, :boxes.shape[2]] = boxes
            boxes = self._split(boxes.shape[2], low).copy()
            low = max(1, low >> 1)
        return boxes, np.full(boxes.shape[2], np.inf), low

    def _take(self, stack: list[tuple[np.ndarray, np.ndarray, int]]) -> tuple[int, int]:
        """Moves the last ``per`` boxes at or above the floor from the top
        entries of the stack into ``ends``, the top entry's first; returns
        how many it moved and the least of their entries' extents."""
        m, low = 0, 1 << 31
        while stack and m < self.per:
            boxes, bound, extent = stack[-1]
            # The entry ascends by bound and the floor never falls: its boxes
            # below the floor are dropped, with the rest of the entry once
            # the chunk reaches them.
            start = bound.size - (self.per - m)
            cut = int(bound.searchsorted(self.floor))
            if start > cut:
                stack[-1] = boxes[..., :start], bound[:start], extent
            else:
                stack.pop()
                start = cut
            if start < bound.size:
                self.ends[:2, :, m:m + bound.size - start] = boxes[..., start:]
                m += bound.size - start
                low = min(low, extent)
        return m, low

    def _split(self, m: int, low: int) -> np.ndarray:
        """The children of the first ``m`` boxes of ``ends``, whose extents
        are at least ``low``: [lo, mid) or [mid, he) on each axis,
        mid = (lo + he + 1) >> 1, where an upper half is empty if
        he = lo + 1 and drops out; as the scorer's rows."""
        d = len(self.grids)
        ends = self.ends[..., :m]
        mid = ends[2]
        np.add(ends[0], ends[1], out=mid)
        mid += 1
        mid >>= 1
        if low > 1:  # no upper half is empty
            rows = self.scorer.block_rows(m << d)
            ends.reshape(3 * d, m).take(_child_rows(d), axis=0, out=rows.reshape(-1, m),
                                        mode="wrap")
            return rows
        children = self.children[:2 * d * m << d].reshape(-1, m)
        ends.reshape(3 * d, m).take(_child_rows(d), axis=0, out=children, mode="wrap")
        children = children.reshape(2, d, m << d)
        nonempty = self.axis_masks[:d * m << d].reshape(d, -1)
        np.less(children[0], children[1], out=nonempty)
        valid = self.masks[0, :m << d]
        np.logical_and.reduce(nonempty, axis=0, out=valid)
        i = valid.nonzero()[0]
        rows = self.scorer.block_rows(i.size)
        children.take(i, axis=2, out=rows, mode="wrap")
        return rows

    def _bound(self, boxes: np.ndarray, low: int
               ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Bounds the boxes, children of boxes whose extents are at least
        ``low``, and raises the floor; scores the single corners that reach
        it and returns the other boxes that do, sorted ascending by bound
        (see ``_ascending``), with a least extent."""
        d, k = boxes.shape[1:]
        self.scorer.shares(boxes[::-1])
        self.scorer.volumes(boxes)
        terms = self.scorer.terms[:4 * k].reshape(4, k)
        closed, opened, vol_lo = terms[:3]
        sides = self.scorer.gaps[:2 * k].reshape(2, k)
        # Attained: closed - vol(hi) at hi and vol(lo) - open at lo.
        np.subtract(terms[::2], terms[3::-2], out=sides)
        self.floor = max(self.floor, float(np.maximum.reduce(sides, axis=None)))
        # The bound, max(closed - vol(lo), vol(hi) - open), over vol(hi).
        np.subtract(terms[::3], terms[2:0:-1], out=sides)
        bound = np.maximum(sides[0], sides[1], out=terms[3])
        leaves = 0
        if low < 4:  # else every child spans two grid indices or more
            extent = self.children[:d * k].reshape(d, k)  # the children are in the rows
            np.subtract(boxes[1], boxes[0], out=extent)
            unit = self.axis_masks[:d * k].reshape(d, k)
            np.equal(extent, 1, out=unit)
            leaf = self.masks[1, :k]
            np.logical_and.reduce(unit, axis=0, out=leaf)
            leaves = int(np.add.reduce(leaf))
        self.boxes_bounded += k
        self.corners_scored += leaves
        reach = self.masks[2, :k]
        np.greater_equal(bound, self.floor, out=reach)
        inner = reach.nonzero()[0]
        if leaves and inner.size:
            single = leaf.take(inner)
            i = inner[single]
            inner = inner[~single]
            if i.size:
                self._score(boxes[0].take(i, axis=1),
                            *_corner_values(closed.take(i), opened.take(i), vol_lo.take(i)))
        if not inner.size:
            return None
        order, bound = _ascending(bound.take(inner))
        return boxes.take(inner.take(order), axis=2), bound, max(1, low >> 1)

    def _score(self, corners: np.ndarray, values: np.ndarray, closed: np.ndarray,
               opened: np.ndarray, keep: int = 1) -> np.ndarray:
        """Keeps the lexicographically smallest of the corners (grid indices
        per column) of the largest value, given their values, closed
        surpluses and open deficiencies; returns their ``keep`` best
        (``_best``)."""
        best = _best(corners, values, keep)
        i = best[0]
        top = float(values[i])
        self.floor = max(self.floor, top)
        corner = corners[:, i].tolist()
        if top > self.value or top == self.value and corner < self.corner:
            self.value, self.corner = top, corner
            self.closed = bool(closed[i] >= opened[i])
        return best


def _best(corners: np.ndarray, values: np.ndarray, keep: int) -> np.ndarray:
    """The positions of the corners (grid indices per column) whose values
    are at least the ``keep``-th largest of ``values``, best first: by
    value, ties to the lexicographically smallest corner."""
    k = values.size
    cut = np.maximum.reduce(values) if keep == 1 else np.partition(values, k - keep)[k - keep]
    at = (values >= cut).nonzero()[0]
    if at.size > 1:
        at = at.take(np.lexsort((*corners[::-1].take(at, axis=1), -values.take(at))))
    return at


def star_discrepancy_lower_estimate(
    ps: PointSet,
    budget: int,
    seed: int = 0,
    extra_boxes: Sequence[AnchoredBox] = (),
) -> tuple[float, AnchoredBox]:
    """Certified lower bound for the star discrepancy.

    Takes the best local discrepancy (open and closed-limit evaluations)
    over the boxes anchored at each point, the floor and ceiling grid
    corners of each caller-supplied box (``_CornerScorer.corners``), whose
    values are at least the box's own (see the module), and ``budget``
    further grid corners, B at a time (B the scorer's block).

    The first block is random corners: with M the largest grid size, one
    ``randbelow(M)`` per axis and corner in row-major order, mapped to
    index ``pick * len(g) // M`` of axis grid g (the pick itself when
    every axis has M values).  Each later block opens with the pending
    line corners of up to W = max(1, B // L) centers, L the sum of the
    grid sizes, and fills the rest with random corners.  A center's line
    corners are, for each axis j in turn, every grid index on j with the
    other axes held at the center's: L corners, which resume where the
    last block stopped them.  The centers are the pool, best first: the
    W best corners whose lines are not all scored, of the pool and the
    corners scored since it was last drawn up, by value, ties to the
    lexicographically smallest corner.  The pool is drawn up after the
    points' corners, the boxes' corners and each block; so where W = 1 the
    best corner climbs until a better one turns up or its lines are all
    scored, and the next pool's best follows.  Memory holds a block's
    corners, the pool and one record per center climbed (its lines
    scored): it does not grow with the grid, and with the budget only by
    a record per climb of L corners; the module gives the figures.

    Every corner is given by its grid indices and scored a block at a time
    by a box search that never opens its frontier (``_BoxSearch.seed``), so
    the exact kernel's rule picks the box: of equal values the
    lexicographically smallest corner examined, whatever the order of the
    points or of the boxes.  So the pool, and with it every block, does
    not depend on the order of the rows.  A block's corners depend only on
    the blocks before it, and for a fixed seed the random corners form a
    prefix stream: a larger budget scores a superset of the corners, so it
    never lowers the value, though a tie may move the box.  A budget of at
    most B scores random corners only.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    boxes = list(extra_boxes)
    for box in boxes:
        _require_same_dim(ps, box)
    search = _BoxSearch(*_grids(ps.coords))
    scorer = search.scorer
    sizes = scorer.top + 1
    ends = sizes.cumsum().tolist()  # line i lies on axis j where ends[j - 1] <= i < ends[j]
    firsts = [0] + ends[:-1]
    total = ends[-1]
    d = ps.dim
    width = max(1, scorer.block // total)
    pool: list[tuple[float, tuple[int, ...]]] = []  # (-value, corner), best first
    reached: dict[tuple[int, ...], int] = {}  # per center, its lines scored

    def offer(corners: np.ndarray, values: np.ndarray, best: np.ndarray) -> None:
        # The pool's W best of itself and the block's unclimbed corners,
        # which ``best`` holds once it holds W of them; else a wider cut.
        nonlocal pool
        while True:
            fresh, last = [], None
            for entry in zip((-values.take(best)).tolist(),
                             map(tuple, corners.take(best, axis=1).T.tolist())):
                if entry != last and reached.get(entry[1], 0) < total:
                    fresh.append(entry)
                    if len(fresh) == width:
                        break
                last = entry
            if len(fresh) == width or best.size == values.size:
                break
            best = _best(corners, values, min(4 * best.size, values.size))
        pool = sorted(set(pool).union(fresh))[:width]

    def climb(out: np.ndarray) -> int:
        # Writes the pending line corners of the pool's centers into the
        # columns of ``out`` and returns how many it wrote.  Centers with
        # the same lines pending (all of them, mostly) are written together.
        nonlocal pool
        runs: list[tuple[int, int, list[tuple[int, ...]]]] = []
        k = 0
        for _, corner in pool:
            start = reached.get(corner, 0)
            count = min(out.shape[1] - k, total - start)
            if count <= 0:
                break
            reached[corner] = start + count
            if runs and runs[-1][:2] == (start, count):
                runs[-1][2].append(corner)
            else:
                runs.append((start, count, [corner]))
            k += count
        pool = [entry for entry in pool if reached.get(entry[1], 0) < total]
        k = 0
        for start, count, centers in runs:
            part = out[:, k:k + len(centers) * count].reshape(d, len(centers), count)
            part[:] = np.array(centers).T[:, :, None]
            for j, (first, end) in enumerate(zip(firsts, ends)):  # the lines on axis j
                lo, hi = max(start, first), min(start + count, end)
                if lo < hi:
                    part[j, :, lo - start:hi - start] = np.arange(lo - first, hi - first)
            k += len(centers) * count
        return k

    # A block's W best unclimbed corners lie among its 8 W best, mostly: the
    # centers recur on their own lines, and the lines of two centers meet.
    keep = 8 * width
    search.seed(scorer.ranks.T, keep, offer)
    if boxes:
        search.seed(scorer.corners(np.array([box.upper for box in boxes])), keep, offer)
    largest = int(sizes.max())
    stream = Stream(derive(seed, "lower-estimate"))
    block = np.empty((d, min(scorer.block, budget)), dtype=np.int64)  # lines first
    for done in range(0, budget, scorer.block):
        rows = min(scorer.block, budget - done)
        k = climb(block[:, :rows]) if done else 0
        picks = stream.randbelow_block(largest, (rows - k) * d).reshape(-1, d)
        if sizes.min() < largest:  # else the map is the identity
            picks *= sizes
            picks //= largest
        block[:, k:rows] = picks.T
        search.seed(block[:, :rows], keep, offer)
    return search.value, scorer.box(search.corner)


METHODS = ("exact", "exact2d", "estimate")


def star_discrepancy(ps: PointSet, method: str = "exact", budget: int | None = None,
                     seed: int = 0, extra_boxes: Sequence[AnchoredBox] = ()
                     ) -> DiscrepancyCertificate:
    """Star discrepancy of ``ps`` by one of METHODS, as one certificate.

    exact: ``budget`` guards the grid size (default 10**9).  exact2d: d = 2,
    no budget.  estimate: a lower bound (``closed_sided`` None) on a grid
    corner, from the points' corners, the grid corners of ``extra_boxes``
    and ``budget`` more grid corners (default 1000): random ones drawn from
    ``seed``, and past the first block the grid lines through up to
    max(1, B // L) of the best corners (``star_discrepancy_lower_estimate``).
    Raises MethodError for an unknown method or a budget given to exact2d.
    Each kernel is looked up on this module at call time, so a wrapper set
    on it sees the calls made through here.
    """
    if method == "exact":
        return star_discrepancy_exact(ps, 10**9 if budget is None else budget)
    if method == "exact2d":
        if budget is not None:
            raise MethodError(f"method exact2d takes no budget, got {budget}")
        return star_discrepancy_exact_2d(ps)
    if method == "estimate":
        value, box = star_discrepancy_lower_estimate(
            ps, 1000 if budget is None else budget, seed, extra_boxes)
        return DiscrepancyCertificate(value, box, None)
    raise MethodError(f"method must be one of {METHODS}, got {method!r}")
