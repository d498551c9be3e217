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

One exact kernel serves every dimension.  It recurses depth-first over the
leading axes (all but the last two), keeping the points that survive each
prefix of corner values (open: x < y, closed: x <= y).  Under each prefix
the last two axes form a table of corners whose counts are 2-D prefix
counts of the survivors.  Each corner's value is computed with the same
binary64 operations in the same order as a direct evaluation: volume
((1*a)*b)*c, then closed/N - volume, volume - open/N and their maximum,
in the one function that the lower estimate shares (``_corner_values``).
Corners are visited in lexicographic order and the best value is replaced
only by a strictly larger one, so the reported box is the lexicographically
smallest maximizer; it is closed-sided when its closed surplus is at
least its open deficiency.

For d >= 3 the last leading axis steps up its grid with one closed-count
and one open-count table of grid_u x grid_v cells: a step adds only the
points on one grid value, each as +1 on a quadrant of cells, and every
table is scored in full.  This takes O(grid_u * grid_v) memory: five
float64 tables of that shape (40 B per cell), reused by every table.

For d <= 2 there is one table (d = 1 is a table of one row), built and
scored in blocks of about 16k cells (at least one row), so it takes O(N)
memory rather than O(N^2).  It takes two passes over its blocks of rows.
The first computes, per block, an upper bound on its cells from the
closed counts of its last row with the volumes of its first row, and the
volumes of its last row with the open counts of the row above it; counts
only grow down the rows and along them, and division by N, products of
non-negative numbers and a - b are monotone under round-to-nearest, so
the bound holds in binary64.  It also computes the exact values of every
block's last row; their maximum, the floor, is attained by some corner.
The second pass scores a block only if its bound is at least the floor
and above the best value so far.  A skipped block holds no corner above
the floor or the best value, so it cannot hold the first strict maximum,
and the result is the one the full scan gives.  A block whose bound
equals the floor is scored, as an earlier corner may tie with the floor.
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


#: Cells per block of the d <= 2 prefix-count table (a block is at least one
#: row).  With rows of up to this many cells the block buffers (closed
#: counts, open counts and volumes, float64) take 384 KiB, and a block's few
#: dozen numpy calls are spread over enough cells.
_BLOCK_CELLS = 16384


class _ExactKernel:
    """One exact computation: prefixes of the leading axes, then tables.

    A table holds, per corner of the last two axes, the closed count and the
    open count of the points that survive the prefix.  A point counts in
    the closed table from its own grid index on each of the last two axes,
    and in the open table from the next one.  ``tables`` counts the tables
    scored, the product of the leading grid sizes.

    d <= 2 is one table, built and scored in blocks of rows (``_blocked``);
    ``blocks_seen`` and ``blocks_scored`` count its blocks and those scored.
    d >= 3 steps the last leading axis up its grid (``_steps``).
    """

    def __init__(self, coords: np.ndarray, grids: list[np.ndarray]):
        self.coords = coords
        self.grids = grids
        self.n = coords.shape[0]
        self.grid_u, self.grid_v = grids[-2], grids[-1]
        u, v = coords[:, -2], coords[:, -1]
        self.closed_rows = np.searchsorted(self.grid_u, u, "left")
        self.closed_cols = np.searchsorted(self.grid_v, v, "left")
        self.open_rows = np.searchsorted(self.grid_u, u, "right")
        self.open_cols = np.searchsorted(self.grid_v, v, "right")
        self.value = -np.inf
        self.upper: list[float] = []
        self.closed = False
        self.tables = 0
        self.blocks_seen = 0
        self.blocks_scored = 0

    def run(self) -> None:
        if len(self.grids) == 2:
            self._blocked()
            return
        axis = len(self.grids) - 3
        self.steps = np.searchsorted(self.grids[axis], self.coords[:, axis])
        shape = (len(self.grid_u), len(self.grid_v))
        self.closed_t, self.open_t, self.d_plus, self.d_minus, self.vols = (
            np.empty(shape) for _ in range(5))
        every = np.arange(self.n)
        self._prefixes(0, every, every, 1.0, [])

    def _prefixes(self, axis: int, open_idx: np.ndarray, closed_idx: np.ndarray,
                  vol_prefix: float, prefix: list[float]) -> None:
        if axis == len(self.grids) - 3:
            self._steps(open_idx, closed_idx, vol_prefix, prefix)
            return
        open_col = self.coords[open_idx, axis]
        closed_col = self.coords[closed_idx, axis]
        for y in self.grids[axis]:
            self._prefixes(axis + 1,
                           open_idx[open_col < y],
                           closed_idx[closed_col <= y],
                           vol_prefix * y,
                           prefix + [float(y)])

    def _steps(self, open_idx: np.ndarray, closed_idx: np.ndarray, vol_prefix: float,
               prefix: list[float]) -> None:
        """d >= 3: the tables of the last leading axis, one grid value at a time.

        At grid value g[k] the closed table holds the points whose
        coordinate is at most g[k], and the open table those below g[k],
        which are those at most g[k-1]: no coordinate lies strictly between
        two grid values.  So a step adds to the closed table the points on
        g[k] and to the open table the points on g[k-1], each as +1 on the
        quadrant of cells from which it counts.  The two tables and the
        three score buffers are float64 of grid_u x grid_v cells and are
        reused by every step and prefix: 40 B per cell in all, and numpy's
        fixed-size ufunc buffers besides.
        """
        # (step, table, row, col): when a point is added, where it counts from.
        adds = sorted(
            [(k, 0, r, c) for k, r, c in zip(self.steps[closed_idx].tolist(),
                                             self.closed_rows[closed_idx].tolist(),
                                             self.closed_cols[closed_idx].tolist())]
            + [(k + 1, 1, r, c) for k, r, c in zip(self.steps[open_idx].tolist(),
                                                   self.open_rows[open_idx].tolist(),
                                                   self.open_cols[open_idx].tolist())])
        tables = (self.closed_t, self.open_t)
        for table in tables:
            table.fill(0.0)
        i = 0
        for k, y in enumerate(self.grids[len(self.grids) - 3]):
            while i < len(adds) and adds[i][0] == k:
                _, t, r, c = adds[i]
                tables[t][r:, c:] += 1.0
                i += 1
            self._score_tables(vol_prefix * y, prefix + [float(y)])

    def _score_tables(self, vol_prefix: float, prefix: list[float]) -> None:
        """Every cell of the step tables; keeps the first strict maximum."""
        np.multiply((vol_prefix * self.grid_u)[:, None], self.grid_v, out=self.vols)
        cand = _corner_values(self.closed_t, self.open_t, self.n, self.vols,
                              self.d_plus, self.d_minus)
        self._keep(cand.reshape(-1), self.d_plus, self.d_minus, 0, prefix)
        self.tables += 1

    def _keep(self, cand: np.ndarray, d_plus: np.ndarray, d_minus: np.ndarray, r0: int,
              prefix: list[float]) -> None:
        """Keeps the first strict maximum of ``cand``, cells of rows r0 on."""
        i = int(cand.argmax())
        if cand[i] > self.value:
            r, c = divmod(i, len(self.grid_v))
            self.value = float(cand[i])
            self.upper = prefix + [float(self.grid_u[r0 + r]), float(self.grid_v[c])]
            self.closed = bool(d_plus[r, c] >= d_minus[r, c])

    def _blocked(self) -> None:
        """d <= 2: the one table, in blocks of rows and two passes (see the module).

        A table row holds the closed counts of the row's corners, then their
        open counts, and a point is kept as the flat index of the cell from
        which on it counts.  A block's counts are ``carry`` (per column, the
        points in the rows above it) plus its own points, cumulated down the
        rows and then across the columns.
        """
        n_rows, n_cols = len(self.grid_u), len(self.grid_v)
        self.width = 2 * n_cols
        self.block_rows = min(n_rows, max(1, _BLOCK_CELLS // n_cols))
        self.edges = list(range(0, n_rows, self.block_rows)) + [n_rows]
        self.first_rows = np.array(self.edges[:-1])
        self.last_rows = np.array(self.edges[1:]) - 1
        self.counts = np.empty((self.block_rows, 2, n_cols))
        self.vols = np.empty((self.block_rows, n_cols))
        self.carry = np.empty(self.width)
        self.hit = np.empty(self.width, dtype=bool)
        cells = np.concatenate((self.closed_rows * self.width + self.closed_cols,
                                self.open_rows * self.width + n_cols + self.open_cols))
        cells.sort()
        cuts = np.searchsorted(cells, np.array(self.edges) * self.width).tolist()
        cols = cells % self.width
        row_vol = self.grid_u  # the empty prefix has volume 1, and 1 * u == u
        bounds, floor = self._bounds(cols, cuts, row_vol)
        self.blocks_seen += len(bounds)
        self.carry.fill(0.0)
        carried = 0  # ``carry`` counts the points in the rows before this one
        for r0, r1, lo, hi, bound in zip(self.edges, self.edges[1:], cuts, cuts[1:],
                                         bounds.tolist()):
            # Not skipped on bound == floor: an earlier cell may equal the floor.
            if bound < floor or bound <= self.value:
                continue
            if carried != r0:
                self.carry[:] = np.bincount(cols[:lo], minlength=self.width)
            self._score(r0, r1, cells[lo:hi] - r0 * self.width, row_vol)
            carried = r1
            self.blocks_scored += 1
        self.tables += 1

    def _bounds(self, cols: np.ndarray, cuts: list[int],
                row_vol: np.ndarray) -> tuple[np.ndarray, float]:
        """Pass 1: per block, a bound on its cells; and the floor.

        The blocks' last rows form a table of their own, one row per block,
        copied from per-column running counts (``carry`` plus the columns
        ``cols`` of each block's points) in chunks of ``block_rows`` rows.
        A cell (r, c) of the block [r0, r1) has closed count at most that of
        (r1-1, c) and volume at least row_vol[r0] * grid_v[c]; its open
        count is at least that of (r0-1, c) (0 for the first block) and its
        volume at most row_vol[r1-1] * grid_v[c].  Division by N,
        products of non-negative numbers and a - b (rising in a, falling in
        b) are monotone under round-to-nearest, so the cell's closed and
        open values are at most those of the bounding counts and volumes:
        the bound holds in binary64.  The last rows' values take the
        operations of ``_corner_values`` in its order (fused here with the
        bounds, whose buffers they share), so some cell attains the floor.
        """
        k = self.block_rows
        n_blocks = len(cuts) - 1
        first_vol, last_vol = row_vol[self.first_rows], row_vol[self.last_rows]
        bounds = np.empty(n_blocks)
        floor = -np.inf
        self.carry.fill(0.0)
        above = np.zeros(len(self.grid_v))  # open counts / N of the row above
        for b0 in range(0, n_blocks, k):
            m = min(k, n_blocks - b0)
            counts = self.counts[:m]
            rows = counts.reshape(m, -1)
            for i, b in enumerate(range(b0, b0 + m)):
                np.add.at(self.carry, cols[cuts[b]:cuts[b + 1]], 1.0)
                rows[i] = self.carry
            np.add.accumulate(counts, axis=2, out=counts)
            np.divide(counts, self.n, out=counts)
            closed, opened = counts[:, 0], counts[:, 1]
            vols, bound = self.vols[:m], bounds[b0:b0 + m]
            np.multiply(first_vol[b0:b0 + m, None], self.grid_v, out=vols)
            np.subtract(closed, vols, out=vols)
            np.maximum.reduce(vols, axis=1, out=bound)
            np.multiply(last_vol[b0:b0 + m, None], self.grid_v, out=vols)
            np.subtract(closed, vols, out=closed)
            floor = max(floor, np.maximum.reduce(closed, axis=None))
            # Open counts above each block: the previous block's last row.
            np.subtract(vols[0], above, out=closed[0])
            np.subtract(vols[1:], opened[:-1], out=closed[1:])
            above[:] = opened[-1]
            np.maximum(bound, np.maximum.reduce(closed, axis=1), out=bound)
            np.subtract(vols, opened, out=opened)
            floor = max(floor, np.maximum.reduce(opened, axis=None))
        return bounds, float(floor)

    def _score(self, r0: int, r1: int, cells: np.ndarray, row_vol: np.ndarray) -> None:
        """Pass 2: every cell of the block [r0, r1); keeps the first strict maximum."""
        m = r1 - r0
        counts = self.counts[:m]
        self._cumulate(counts.reshape(m, -1), cells)
        np.add.accumulate(counts, axis=2, out=counts)
        d_plus, d_minus = counts[:, 0], counts[:, 1]  # counts in, values out
        vols = self.vols[:m]
        np.multiply(row_vol[r0:r1, None], self.grid_v, out=vols)
        cand = _corner_values(d_plus, d_minus, self.n, vols, d_plus, d_minus)
        self._keep(cand.reshape(-1), d_plus, d_minus, r0, [])

    def _cumulate(self, block: np.ndarray, cells: np.ndarray) -> None:
        """Carry plus the block's points (flat cells), cumulated down the rows."""
        np.copyto(block, self.carry)
        if cells.size:
            rows, cols = np.divmod(cells, self.width)
            # Only the columns that hold points change down the rows.
            self.hit.fill(False)
            self.hit[cols] = True
            hit = np.flatnonzero(self.hit)
            steps = np.zeros((block.shape[0], hit.size))
            np.add.at(steps.reshape(-1), rows * hit.size + np.searchsorted(hit, cols), 1.0)
            steps[0] += self.carry[hit]
            block[:, hit] = np.add.accumulate(steps, axis=0, out=steps)
        self.carry[:] = block[-1]


def _exact(ps: PointSet, budget: int | None) -> DiscrepancyCertificate:
    """The exact kernel behind both public entry points; ``None`` is no budget."""
    coords = ps.coords
    n, d = coords.shape
    grids = _grids(coords)
    required = 1
    for g in grids:
        required *= len(g)
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget)
    if d == 1:
        # A leading axis with the single grid value 1, below which every
        # point lies, changes no count and no volume (1 * a == a): d = 1 is
        # a table of one row.
        coords = np.column_stack((np.zeros(n), coords))
        grids.insert(0, np.ones(1))
    kernel = _ExactKernel(coords, grids)
    kernel.run()
    return DiscrepancyCertificate(kernel.value, AnchoredBox(np.array(kernel.upper[-d:])),
                                  kernel.closed)


def star_discrepancy_exact(ps: PointSet, budget: int = 10**9) -> DiscrepancyCertificate:
    """Exact star discrepancy via critical-grid enumeration (see the module).

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


#: Points per chunk of the lower estimate's bitsets: 64 uint64 words.
_CHUNK_POINTS = 4096

#: uint64 words per block buffer of the lower estimate (64 KiB): a block of
#: corners fills it with their open and closed rows of one chunk, and is at
#: least one corner.
_ESTIMATE_WORDS = 1 << 13


class _CornerScorer:
    """Scores blocks of candidate corners and keeps the first strict maximum.

    A corner's value is the exact kernel's, from ``_corner_values``.  As
    open <= closed makes open/N - vol at most closed/N - vol in binary64,
    it is the larger of closed/N - vol and |open/N - vol|, each a valid
    lower bound for the star discrepancy.  The volume is the left-to-right
    product of the corner's components, so every value is the binary64
    result a corner-by-corner evaluation gives.

    The counts are exact integers read from per-axis cumulative bitsets.
    On axis j the points a corner holds are those whose grid index on that
    axis is below a row t: row k for the open count at grid index k, row
    min(k + 1, distinct values) for the closed one.  The points are split
    into chunks of at most 4096, one bit per point.  Per chunk and axis,
    row i of a uint64 table holds the chunk's first i points in grid index
    order, and a rank map (the number of the chunk's points below each
    row) turns every row into a table row.  A count is the popcount of the
    AND of one table row per axis, summed over the chunks.  The tables take
    about d * N * min(N, 4096) / 8 bytes and the rank maps 2 * d * (N + 1)
    bytes per chunk; the two block buffers take 64 KiB each.
    """

    def __init__(self, coords: np.ndarray):
        self.n = coords.shape[0]
        self.grids = _grids(coords)
        #: Per point and axis, the grid index of its coordinate.
        self.ranks = np.column_stack([np.searchsorted(g, column)
                                      for g, column in zip(self.grids, coords.T)])
        self.top = np.array([len(g) - 1 for g in self.grids])
        self.chunks = [self._chunk(self.ranks[s:s + _CHUNK_POINTS])
                       for s in range(0, self.n, _CHUNK_POINTS)]
        words = self.chunks[0][0][0].shape[1]
        #: Corners per block: their open and closed rows of a chunk fill
        #: the block buffers.
        self.block = max(1, _ESTIMATE_WORDS // (2 * words))
        self.hit = np.empty(2 * self.block * words, dtype=np.uint64)
        self.axis_hit = np.empty_like(self.hit)
        self.vols, self.d_plus, self.d_minus = (np.empty(self.block) for _ in range(3))
        self.value = -np.inf
        self.box: AnchoredBox | None = None

    def _chunk(self, ranks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis, the cumulative table of ``ranks``' points and its rank map."""
        size = ranks.shape[0]
        pos = np.arange(size)
        word = pos >> 6
        bit = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
        out = []
        for rank, top in zip(ranks.T, self.top):
            order = np.argsort(rank)
            table = np.zeros((size + 1, word[-1] + 1), dtype=np.uint64)
            table[pos + 1, word[order]] = bit[order]
            np.bitwise_or.accumulate(table, axis=0, out=table)
            rank_map = np.concatenate(([0], np.bincount(rank, minlength=top).cumsum()))
            out.append((table, rank_map.astype(np.int16)))
        return out

    def rows_of(self, corners: np.ndarray, side: str) -> np.ndarray:
        """Per corner and axis, the open (``side="left"``) or closed
        (``"right"``) row of arbitrary corner values."""
        return np.column_stack([np.searchsorted(g[:-1], corners[:, j], side)
                                for j, g in enumerate(self.grids)])

    def offer(self, corners: np.ndarray, open_rows: np.ndarray, closed_rows: np.ndarray,
              boxes: Sequence[AnchoredBox] | None = None) -> None:
        """Score up to ``self.block`` corners given their open and closed
        rows; ``boxes`` are their own boxes."""
        m = corners.shape[0]
        rows = np.concatenate((open_rows.T, closed_rows.T), axis=1)
        count = 0
        for chunk in self.chunks:
            size = 2 * m * chunk[0][0].shape[1]
            hit = self.hit[:size].reshape(2 * m, -1)
            axis_hit = self.axis_hit[:size].reshape(2 * m, -1)
            for j, (table, rank_map) in enumerate(chunk):
                table.take(rank_map.take(rows[j]), axis=0, out=axis_hit if j else hit)
                if j:
                    hit &= axis_hit
            count = count + np.bitwise_count(hit).sum(axis=1)
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

    The counts come from per-axis cumulative bitsets over the points'
    grid indices (see ``_CornerScorer``), built once per call: tables of
    about d * N * min(N, 4096) / 8 bytes, a rank map of 2 * d * (N + 1)
    bytes per chunk of 4096 points, and working arrays of a few words per
    point and axis.  The candidates are scored in blocks whose open and
    closed rows of one chunk fill a 64 KiB buffer (at least one corner),
    and the random corners are drawn one block at a time
    (``Stream.randbelow_rows``), so memory does not grow with the budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    extra = list(extra_boxes)
    for box in extra:
        _require_same_dim(ps, box)
    coords = ps.coords
    scorer = _CornerScorer(coords)
    grids = scorer.grids
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
