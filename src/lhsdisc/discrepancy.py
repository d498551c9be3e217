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
the same order as a direct evaluation: volume ((1*a)*b)*c, then
closed/N - volume, volume - open/N and their maximum, in the one function
that the lower estimate shares (``_corner_values``).  The reported box is
the lexicographically smallest maximizer; it is closed-sided when its
closed surplus is at least its open deficiency.

In every dimension the kernel is a branch and bound over boxes [lo, hi]
of grid indices (Thiemard, "An algorithm to compute bounds for the star
discrepancy", J. Complexity 2001).  A corner of the box has at most the
closed count C(hi) of hi, at least the open count O(lo) of lo, and a
volume between vol(lo) and vol(hi), so its value is at most the box's
bound max(C(hi)/N - vol(lo), vol(hi) - O(lo)/N).  Division by N, products
of non-negative numbers and a - b (rising in a, falling in b) are
monotone under round-to-nearest, so the bound holds in binary64.  The
floor is the largest value known to be attained: the closed side at each
bounded box's hi, the open side at its lo, and the value of each single
corner scored, the points' own corners first.  A box whose bound is below
the floor holds no maximizer and is dropped; one whose bound equals it is
kept, as a tie may lie at a smaller corner.  From the whole grid, a box is
split at the midpoint of every axis into at most 2^d children, each
bounded with two exact counts from the lower estimate's count tables
(``_CornerScorer``: per-axis bitsets for d >= 3, plane counts for
d <= 2).  A single corner's bound is its value; of equal values the
lexicographically smallest corner (in grid indices, axis by axis) is
kept, so the result is the full scan's.

The frontier is a stack, searched depth first a chunk at a time: the last
max(1, B / 2^d) boxes pushed are split and their children bounded, where
B is the scorer's block of corners, sized so that the words their counts
read fill 64 KiB: for bitsets 2048 at N = 128, so a chunk is 256 boxes at
d = 3, and for plane counts 1024, so a chunk is 256 boxes at d = 2.  The
kept children of a chunk are pushed sorted by bound, best last, and lie
one level below their parents, so the stack holds one chunk's children at
most per level: with C = max(B, 2^d) and L = ceil(log2) of the longest
grid, at most L * C boxes of 16 d + 8 bytes (2 d grid indices and a
bound).  The grids and the points' grid indices take 16 d (N + 1) bytes.
For d >= 3 the bitset tables take about d * N * min(N, 4096) / 8 bytes,
their rank maps 2 * d * (N + 1) bytes per 4096 points, and one chunk's
working arrays four 64 KiB arrays of bitset rows and about 100 d bytes
per child.  For d <= 2 a chunk of s <= 4096 points keeps cum, (s + 1) x
(s // 64 + 2) uint16, and word, (s // 64 + 1) x 65 uint64, about 130
bytes per point, and rank maps of at most 6 (N + 1) bytes; one chunk's
working arrays take about 100 d + 100 bytes per child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _corner_values(closed: np.ndarray, opened: np.ndarray, n: int, vols: np.ndarray,
                   d_plus: np.ndarray, d_minus: np.ndarray) -> np.ndarray:
    """Corner values: closed/N - vol into ``d_plus``, vol - open/N into
    ``d_minus`` (either may be its count array), their maximum into and
    returned as ``vols``."""
    np.divide(closed, n, out=d_plus)
    np.subtract(d_plus, vols, out=d_plus)
    np.divide(opened, n, out=d_minus)
    np.subtract(vols, d_minus, out=d_minus)
    return np.maximum(d_plus, d_minus, out=vols)


def _grids(coords: np.ndarray) -> list[np.ndarray]:
    # Distinct coordinates per axis plus 1; 0 enters only as a coordinate.
    out = []
    for j in range(coords.shape[1]):
        vals = np.unique(coords[:, j])
        out.append(np.append(vals, 1.0))
    return out


def _exact(ps: PointSet, budget: int | None) -> DiscrepancyCertificate:
    """The exact kernel behind both public entry points; ``None`` is no budget."""
    coords = ps.coords
    grids = _grids(coords)
    required = 1
    for g in grids:
        required *= len(g)
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget)
    search = _BoxSearch(coords, grids)
    search.run()
    return DiscrepancyCertificate(search.value, AnchoredBox(np.array(search.upper)),
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

#: uint64 words of a block's rows (64 KiB): a block of the lower estimate's
#: corners fills them with its open and closed rows of one chunk, and is at
#: least one corner; the exact search's chunks of boxes fill them with their
#: children's rows.
_ESTIMATE_WORDS = 1 << 13

#: Words a plane count reads per row and chunk: two of ``cum``, one prefix
#: word and its mask.
_PLANE_WORDS = 4

#: The masks of the low r bits of a word, r = 0, ..., 63.
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


class _CornerScorer:
    """Scores blocks of candidate corners and keeps the first strict maximum.

    A corner's value is the exact kernel's, from ``_corner_values``.  As
    open <= closed makes open/N - vol at most closed/N - vol in binary64,
    it is the larger of closed/N - vol and |open/N - vol|, each a valid
    lower bound for the star discrepancy.  The volume is the left-to-right
    product of the corner's components, so every value is the binary64
    result a corner-by-corner evaluation gives.

    The counts are exact integers.  On axis j the points a corner holds are
    those whose grid index on that axis is below a row t: row k for the
    open count at grid index k, row min(k + 1, distinct values) for the
    closed one.  The points are split into chunks of at most 4096, each
    with a rank map per axis: the number of the chunk's points below each
    row.  A count is summed over the chunks.

    For d >= 3 the counts come from per-axis cumulative bitsets, one bit
    per point: per chunk and axis, row i of a uint64 table holds the
    chunk's first i points in grid index order, and the rank map turns
    every row into a table row.  A count is the popcount of the AND of one
    table row per axis.  The tables take about d * N * min(N, 4096) / 8
    bytes and the rank maps 2 * d * (N + 1) bytes per chunk; a block's AND
    arrays take 64 KiB each.

    For d <= 2 they come from plane counts.  The points are sorted stably
    by their last-axis grid index before they are chunked, and a chunk of
    s points is cut into W = s // 64 + 1 blocks of 64 (the last one short
    or empty).  With umap and vmap the chunk's rank maps on the first and
    last axes, the t = vmap[b] points below the last-axis row b are the
    chunk's first t.  ``cum[i, w]`` (uint16, (s + 1) x (W + 1)) counts the
    chunk's first i points in first-axis order that lie in blocks below w,
    and ``word[w, c]`` (uint64, W x 65) is the OR of the bits of block w's
    first c points in first-axis order.  With i = umap[a] and q = t >> 6,
    the count below the rows (a, b) is cum[i, q] plus the popcount of
    word[q, cum[i, q + 1] - cum[i, q]] masked to its low t & 63 bits.  The
    planes take about 130 bytes per point and a row reads ``_PLANE_WORDS``
    words per chunk.  At d = 1 the count is vmap[b].
    """

    def __init__(self, coords: np.ndarray, grids: list[np.ndarray]):
        self.n = coords.shape[0]
        self.grids = grids
        #: Per point and axis, the grid index of its coordinate.
        self.ranks = np.column_stack([np.searchsorted(g, column)
                                      for g, column in zip(self.grids, coords.T)])
        self.top = np.array([len(g) - 1 for g in self.grids])
        self.planes = len(grids) <= 2
        if self.planes:
            order = np.argsort(self.ranks[:, -1], kind="stable")
            self.chunks = [self._plane(self.ranks[order[s:s + _CHUNK_POINTS]])
                           for s in range(0, self.n, _CHUNK_POINTS)]
            words = _PLANE_WORDS
        else:
            self.chunks = [self._chunk(self.ranks[s:s + _CHUNK_POINTS])
                           for s in range(0, self.n, _CHUNK_POINTS)]
            words = self.chunks[0][0][0].shape[1]
        #: Corners per block: their open and closed rows of a chunk fill
        #: ``_ESTIMATE_WORDS``.
        self.block = max(1, _ESTIMATE_WORDS // (2 * words))
        self.vols, self.d_plus, self.d_minus = (np.empty(self.block) for _ in range(3))
        self.value = -np.inf
        self.box: AnchoredBox | None = None

    def _rank_maps(self, ranks: np.ndarray) -> list[np.ndarray]:
        """Per axis, the number of ``ranks``' points below each row."""
        return [np.concatenate(([0], np.bincount(rank, minlength=top).cumsum())).astype(np.int16)
                for rank, top in zip(ranks.T, self.top)]

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

    def _plane(self, ranks: np.ndarray) -> tuple[np.ndarray | None, ...]:
        """The plane counts of ``ranks``' points, in last-axis order (see
        the class): umap times the columns of ``cum``, vmap, and ``cum``
        and ``word`` flattened; only vmap at d = 1."""
        maps = self._rank_maps(ranks)
        if len(maps) == 1:
            return None, maps[0], None, None
        size = ranks.shape[0]
        columns = (size >> 6) + 2
        order = np.argsort(ranks[:, 0], kind="stable")  # positions in first-axis order
        block = order >> 6
        cum = np.zeros((size + 1, columns), dtype=np.uint16)
        cum[np.arange(1, size + 1), block + 1] = 1
        np.add.accumulate(cum, axis=1, out=cum)
        np.add.accumulate(cum, axis=0, out=cum)
        # Grouped by block, each block's points stay in first-axis order.
        order = order[np.argsort(block, kind="stable")]
        pos = np.arange(size)
        word = np.zeros((columns - 1, 65), dtype=np.uint64)
        word[pos >> 6, (pos & 63) + 1] = np.left_shift(np.uint64(1),
                                                       (order & 63).astype(np.uint64))
        np.bitwise_or.accumulate(word, axis=1, out=word)
        return maps[0].astype(np.int32) * columns, maps[1], cum.ravel(), word.ravel()

    def rows_of(self, corners: np.ndarray, side: str) -> np.ndarray:
        """Per corner and axis, the open (``side="left"``) or closed
        (``"right"``) row of arbitrary corner values."""
        return np.column_stack([np.searchsorted(g[:-1], corners[:, j], side)
                                for j, g in enumerate(self.grids)])

    def count(self, rows: np.ndarray) -> np.ndarray:
        """Per column of ``rows`` (one row per axis), the number of points
        below the row on every axis."""
        if self.planes:
            return self._plane_count(rows)
        count = 0
        for chunk in self.chunks:
            hit = None
            for (table, rank_map), axis_rows in zip(chunk, rows):
                axis_hit = table.take(rank_map.take(axis_rows), axis=0)
                hit = axis_hit if hit is None else np.bitwise_and(hit, axis_hit, out=hit)
            # Transposed, the sum runs along the block, not across a few words.
            count = count + np.bitwise_count(hit).T.copy().sum(axis=0)
        return count

    def _plane_count(self, rows: np.ndarray) -> np.ndarray:
        """``count`` from the plane counts (d <= 2)."""
        count = np.zeros(rows.shape[1], dtype=np.int64)
        for umap, vmap, cum, word in self.chunks:
            t = vmap.take(rows[-1])
            if cum is None:
                count += t
                continue
            q = t >> 6
            at = umap.take(rows[0]) + q  # the flat index of cum[i, q]
            below = cum.take(at)
            bits = word.take(q * 65 + (cum[1:].take(at) - below))
            count += below
            count += np.bitwise_count(bits & _LOW_BITS.take(t & 63))
        return count

    def offer(self, corners: np.ndarray, open_rows: np.ndarray, closed_rows: np.ndarray,
              boxes: Sequence[AnchoredBox] | None = None) -> None:
        """Score up to ``self.block`` corners given their open and closed
        rows; ``boxes`` are their own boxes."""
        m = corners.shape[0]
        count = self.count(np.concatenate((open_rows.T, closed_rows.T), axis=1))
        vols = self.vols[:m]
        np.copyto(vols, corners[:, 0])
        for j in range(1, corners.shape[1]):
            vols *= corners[:, j]
        cand = _corner_values(count[m:], count[:m], self.n, vols, self.d_plus[:m],
                              self.d_minus[:m])
        i = int(cand.argmax())
        if cand[i] > self.value:
            self.value = float(cand[i])
            self.box = boxes[i] if boxes is not None else AnchoredBox(corners[i])


class _BoxSearch:
    """The exact kernel: a branch and bound over boxes of grid indices (see
    the module).

    A chunk of boxes is an int array (axis, end, box): end 0 is lo and end
    1 is hi.  A box's open row is its lo and its closed row min(hi + 1,
    distinct values), as for the estimate's corners.  ``boxes_bounded``
    counts the boxes bounded and ``corners_scored`` those that are single
    corners, whose bound is their value; neither counts the points' own
    corners.
    """

    def __init__(self, coords: np.ndarray, grids: list[np.ndarray]):
        self.scorer = _CornerScorer(coords, grids)
        self.grids = grids
        self.n = coords.shape[0]
        d = len(grids)
        #: Per axis, end and child c of a box, the row of (lo, mid, mid + 1,
        #: hi) stacked over the axes that holds the child's end: c takes the
        #: upper half [mid + 1, hi] on the axes of its set bits.
        upper = np.arange(1 << d) >> np.arange(d)[:, None, None] & 1
        self.child_ends = (d * (np.arange(2)[:, None] + 2 * upper)
                           + np.arange(d)[:, None, None]).ravel()
        self.value = -np.inf
        self.floor = -np.inf
        self.corner: list[int] = []
        self.closed = False
        self.boxes_bounded = 0
        self.corners_scored = 0

    @property
    def upper(self) -> list[float]:
        return [float(g[k]) for g, k in zip(self.grids, self.corner)]

    def run(self) -> None:
        """The points' own corners, then the frontier from the whole grid."""
        scorer = self.scorer
        for s in range(0, self.n, scorer.block):
            corners = scorer.ranks[s:s + scorer.block].T
            k = corners.shape[1]
            count = scorer.count(np.hstack((corners, corners + 1)))
            self._score(corners, count[k:], count[:k], self._volumes(corners))
        whole = np.stack((np.zeros_like(scorer.top), scorer.top), axis=1)
        stack = [(whole[:, :, None], np.array([np.inf]))]
        per = max(1, scorer.block >> len(self.grids))
        while stack:
            boxes, bound = stack[-1]
            if bound.size > per:
                stack[-1] = boxes[..., :-per], bound[:-per]
                boxes, bound = boxes[..., -per:], bound[-per:]
            else:
                stack.pop()
            keep = np.flatnonzero(bound >= self.floor)  # the floor may have risen since
            if keep.size:
                children = self._bound(self._split(boxes.take(keep, axis=2)))
                if children[1].size:
                    stack.append(children)

    def _split(self, boxes: np.ndarray) -> np.ndarray:
        """The children of the boxes: [lo, mid] or [mid + 1, hi] on each
        axis, where an upper half is empty if lo == hi and drops out."""
        d = len(self.grids)
        lo, hi = boxes[:, 0], boxes[:, 1]
        mid = (lo + hi) >> 1
        children = np.concatenate((lo, mid, mid + 1, hi)).take(self.child_ends, axis=0)
        children = children.reshape(d, 2, -1)
        return children.take(np.flatnonzero((children[:, 0] <= children[:, 1]).all(axis=0)),
                             axis=2)

    def _volumes(self, corners: np.ndarray) -> np.ndarray:
        """Per column of ``corners`` (grid indices), its volume."""
        vols = self.grids[0][corners[0]]
        for g, k in zip(self.grids[1:], corners[1:]):
            vols *= g[k]
        return vols

    def _bound(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds the boxes and raises the floor; scores the single corners
        that reach it and returns the other boxes that do, best bound last."""
        d, _, k = boxes.shape
        rows = np.minimum(boxes + [[0], [1]], self.scorer.top[:, None, None])
        count = self.scorer.count(rows.reshape(d, -1))
        vols = self._volumes(boxes.reshape(d, -1))
        share = count / self.n
        opened, closed, vol_lo, vol_hi = share[:k], share[k:], vols[:k], vols[k:]
        # Attained: the closed side at hi and the open side at lo.
        self.floor = max(self.floor, float(np.maximum(closed - vol_hi, vol_lo - opened).max()))
        bound = np.maximum(closed - vol_lo, vol_hi - opened)
        leaf = (boxes[:, 0] == boxes[:, 1]).all(axis=0)
        self.boxes_bounded += k
        self.corners_scored += int(leaf.sum())
        reach = bound >= self.floor
        i = np.flatnonzero(reach & leaf)
        if i.size:
            self._score(boxes[:, 0].take(i, axis=1), count[k + i], count[i], vol_lo[i])
        i = np.flatnonzero(reach & ~leaf)
        i = i[np.argsort(bound[i], kind="stable")]
        return boxes.take(i, axis=2), bound[i]

    def _score(self, corners: np.ndarray, closed: np.ndarray, opened: np.ndarray,
               vols: np.ndarray) -> None:
        """Values the corners (grid indices per column) from their counts
        and volumes; keeps the lexicographically smallest of the largest."""
        d_plus, d_minus = np.empty((2, len(vols)))
        cand = _corner_values(closed, opened, self.n, vols, d_plus, d_minus)
        top = float(cand.max())
        self.floor = max(self.floor, top)
        if top < self.value:
            return
        ties = np.flatnonzero(cand == top)
        i = ties[np.lexsort(corners[::-1, ties])[0]]
        corner = corners[:, i].tolist()
        if top > self.value or corner < self.corner:
            self.value, self.corner = top, corner
            self.closed = bool(d_plus[i] >= d_minus[i])


def star_discrepancy_lower_estimate(
    ps: PointSet,
    budget: int,
    seed: int = 0,
    extra_boxes: Sequence[AnchoredBox] = (),
) -> tuple[float, AnchoredBox]:
    """Certified lower bound for the star discrepancy.

    Takes the best local discrepancy (open and closed-limit evaluations)
    over any caller-supplied boxes, then the boxes anchored at each point,
    then ``budget`` random corners drawn from the critical grid, one
    ``randbelow`` per axis and corner in row-major order.  A box replaces
    the best one only when its value is strictly larger, so the first
    maximizer in that order is returned (a winning extra box is returned
    as passed).  For a fixed seed the random corners form a prefix stream,
    so a larger budget never lowers the result.

    The counts come from count tables over the points' grid indices (see
    ``_CornerScorer``), built once per call: for d >= 3 per-axis
    cumulative bitsets of about d * N * min(N, 4096) / 8 bytes, for d <= 2
    plane counts of about 130 bytes per point, rank maps of at most
    3 * d * (N + 1) bytes per chunk of 4096 points, and working arrays of a
    few words per point and axis.  The candidates are scored in blocks
    whose open and closed rows of one chunk fill 64 KiB (at least one
    corner), and the random corners are drawn one block at a time
    (``Stream.randbelow_rows``), so memory does not grow with the budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    extra = list(extra_boxes)
    for box in extra:
        _require_same_dim(ps, box)
    coords = ps.coords
    grids = _grids(coords)
    scorer = _CornerScorer(coords, grids)
    step = scorer.block
    for i in range(0, len(extra), step):
        boxes = extra[i:i + step]
        corners = np.array([box.upper for box in boxes])
        scorer.offer(corners, scorer.rows_of(corners, "left"),
                     scorer.rows_of(corners, "right"), boxes)
    for i in range(0, ps.n_points, step):
        ranks = scorer.ranks[i:i + step]
        scorer.offer(coords[i:i + step], ranks, ranks + 1)

    sizes = [len(g) for g in grids]
    stream = Stream(derive(seed, "lower-estimate"))
    for done in range(0, budget, step):
        picks = stream.randbelow_rows(sizes, min(step, budget - done))
        scorer.offer(np.column_stack([g[picks[:, j]] for j, g in enumerate(grids)]),
                     picks, np.minimum(picks + 1, scorer.top))

    assert scorer.box is not None
    return scorer.value, scorer.box


METHODS = ("exact", "exact2d", "estimate")


def star_discrepancy(ps: PointSet, method: str = "exact", budget: int | None = None,
                     seed: int = 0, extra_boxes: Sequence[AnchoredBox] = ()
                     ) -> DiscrepancyCertificate:
    """Star discrepancy of ``ps`` by one of METHODS, as one certificate.

    exact: ``budget`` guards the grid size (default 10**9).  exact2d: d = 2,
    no budget.  estimate: a lower bound (``closed_sided`` None) from
    ``extra_boxes``, then ``budget`` random corners (default 1000) drawn
    from ``seed``.  Raises MethodError for an unknown method or a budget
    given to exact2d.  Each kernel is looked up on this module at call
    time, so a wrapper set on it sees the calls made through here.
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
