"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: the dense-grid
discrepancy maximum enumerates boxes on a fixed uniform lattice, and the
probability oracles work in exact rational arithmetic (Fraction over
math.comb).  They exist to certify the fast implementations, so they are
kept simple even where that costs speed.

The two reference exact kernels are the library's earlier implementations,
kept verbatim: the critical-grid DFS with a sort/searchsorted scan of the
last axis, and the O(N^2) two-dimensional insertion sweep.  The box search
that replaced them must agree with them bit for bit (value, argmax box and
side).  The reference lower estimate is the earlier box-at-a-time
estimator, with four changes: its tie rule is the exact kernel's (of
equal values the lexicographically smallest grid corner wins), a
caller-supplied box enters as its two dominating grid corners, found by
masking each axis's grid, past the first block of corners it walks the
grid lines through the best corners before drawing random ones, and it
counts a block of boxes against all the points at once (``box_counts``,
which the oracle tests check against the library's direct counts).  The
block-scoring estimator must return the same value and box.

The float probability kernels are the library's earlier per-mass ones,
kept verbatim: ``log_choose`` summing two lists of logs, the binomial mass
taking the logs of p and 1 - p at every k, and the hypergeometric mass
finding its support and log C(N, n) at every k.  The per-law mass
functions that replaced them must agree with them bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from lhsdisc.discrepancy import (
    AnchoredBox,
    BudgetExceeded,
    DimensionMismatch,
    DiscrepancyCertificate,
    box_volume,
    count_closed,
    count_open,
)
from lhsdisc.points import PointSet
from lhsdisc.rng import Stream, derive


def dense_grid_star_discrepancy(coords: np.ndarray, m: int = 400) -> float:
    """Max of |count/N - vol| over boxes [0, y) with y_j in {1/m, ..., m/m}.

    Counting is open (x < y) with the same float comparisons a direct
    loop over lattice corners would use.  Points partition each axis into
    at most N+1 index ranges on which the count is constant; within such
    a region the volume is monotone, so the maximum over the region is
    attained at one of its two corners.  This reproduces the brute-force
    lattice maximum exactly while evaluating only O((N+1)^d) corners.
    """
    n, d = coords.shape
    grid = np.arange(1, m + 1) / m
    # a[p, j]: smallest 0-based lattice index i with coords[p, j] < grid[i].
    a = np.empty((n, d), dtype=np.int64)
    for j in range(d):
        a[:, j] = np.searchsorted(grid, coords[:, j], side="right")

    region_starts = []
    for j in range(d):
        starts = np.unique(np.concatenate(([0], a[:, j])))
        region_starts.append(starts[starts <= m - 1])

    best = 0.0
    for lows in itertools.product(*region_starts):
        highs = []
        for j, lo in enumerate(lows):
            starts = region_starts[j]
            nxt = starts[starts > lo]
            highs.append((nxt[0] - 1) if nxt.size else m - 1)
        count = int(np.all(a <= np.array(lows), axis=1).sum())
        vol_lo = 1.0
        vol_hi = 1.0
        for j in range(d):
            vol_lo *= grid[lows[j]]
            vol_hi *= grid[highs[j]]
        best = max(best, count / n - vol_lo, vol_hi - count / n)
    return best


def brute_force_lattice_max(coords: np.ndarray, m: int) -> float:
    """Direct triple-loop version of the dense-grid maximum (tiny m only)."""
    n, d = coords.shape
    grid = np.arange(1, m + 1) / m
    best = 0.0
    for corner_idx in itertools.product(range(m), repeat=d):
        vol = 1.0
        for j in range(d):
            vol *= grid[corner_idx[j]]
        count = 0
        for p in range(n):
            if all(coords[p, j] < grid[corner_idx[j]] for j in range(d)):
                count += 1
        best = max(best, abs(count / n - vol))
    return best


def _grids(coords: np.ndarray) -> list[np.ndarray]:
    # Distinct coordinates per axis plus 1; 0 enters only as a coordinate.
    out = []
    for j in range(coords.shape[1]):
        vals = np.unique(coords[:, j])
        out.append(np.append(vals, 1.0))
    return out


class _Best:
    __slots__ = ("value", "upper", "closed")

    def __init__(self) -> None:
        self.value = -np.inf
        self.upper: list[float] | None = None
        self.closed = False


def _scan_last_axis(
    n_points: int,
    grid: np.ndarray,
    open_vals: np.ndarray,
    closed_vals: np.ndarray,
    vol_prefix: float,
    prefix: list[float],
    best: _Best,
) -> None:
    open_sorted = np.sort(open_vals)
    closed_sorted = np.sort(closed_vals)
    cnt_open = np.searchsorted(open_sorted, grid, side="left")
    cnt_closed = np.searchsorted(closed_sorted, grid, side="right")
    vols = vol_prefix * grid
    d_plus = cnt_closed / n_points - vols
    d_minus = vols - cnt_open / n_points
    cand = np.where(d_plus >= d_minus, d_plus, d_minus)
    i = int(np.argmax(cand))
    if cand[i] > best.value:
        best.value = float(cand[i])
        best.upper = prefix + [float(grid[i])]
        best.closed = bool(d_plus[i] >= d_minus[i])


def reference_star_discrepancy_exact(ps: PointSet, budget: int = 10**9) -> DiscrepancyCertificate:
    """Exact star discrepancy via critical-grid enumeration.

    Depth-first over the axes with per-prefix filtering of the surviving
    points, so the innermost axis costs O(survivors).  The scan visits
    grid corners in lexicographic order and updates only on strictly
    larger values, which makes the reported argmax the lexicographically
    smallest maximizer.  Raises BudgetExceeded (reporting the required
    grid size) before doing any work if the grid is too large.
    """
    coords = ps.coords
    n, d = coords.shape
    grids = _grids(coords)
    required = 1
    for g in grids:
        required *= len(g)
    if required > budget:
        raise BudgetExceeded(required, budget)

    best = _Best()

    def recurse(axis: int, open_idx: np.ndarray, closed_idx: np.ndarray,
                vol_prefix: float, prefix: list[float]) -> None:
        if axis == d - 1:
            _scan_last_axis(n, grids[axis], coords[open_idx, axis],
                            coords[closed_idx, axis], vol_prefix, prefix, best)
            return
        open_col = coords[open_idx, axis]
        closed_col = coords[closed_idx, axis]
        for y in grids[axis]:
            recurse(axis + 1,
                    open_idx[open_col < y],
                    closed_idx[closed_col <= y],
                    vol_prefix * y,
                    prefix + [float(y)])

    all_idx = np.arange(n)
    recurse(0, all_idx, all_idx, 1.0, [])
    assert best.upper is not None
    return DiscrepancyCertificate(best.value, AnchoredBox(np.array(best.upper)), best.closed)


def corner_by_corner_star_discrepancy(ps: PointSet) -> DiscrepancyCertificate:
    """Exact star discrepancy, one critical-grid corner at a time (tiny sets).

    Corners in lexicographic order (itertools.product), each valued with
    the public counting functions: the closed surplus count_closed/N - vol
    and the open deficiency vol - count_open/N.  The first strictly larger
    value wins, and the side is closed when the surplus is at least the
    deficiency.
    """
    n = ps.n_points
    best = _Best()
    for corner in itertools.product(*_grids(ps.coords)):
        box = AnchoredBox(np.array(corner))
        vol = box_volume(box)
        d_plus = count_closed(ps, box) / n - vol
        d_minus = vol - count_open(ps, box) / n
        cand = max(d_plus, d_minus)
        if cand > best.value:
            best.value, best.upper, best.closed = cand, list(corner), d_plus >= d_minus
    return DiscrepancyCertificate(best.value, AnchoredBox(np.array(best.upper)), best.closed)


def reference_star_discrepancy_exact_2d(ps: PointSet) -> DiscrepancyCertificate:
    """Exact star discrepancy in dimension 2, O(N^2) time and O(N) memory.

    Sweeps the first-axis grid in ascending order while keeping the
    second coordinates of the points passed so far in a sorted buffer;
    open/closed counts for the whole second-axis grid come from two
    binary searches per sweep step.  Produces the same candidate values
    and scan order as the generic algorithm, hence bit-equal results.
    """
    if ps.dim != 2:
        raise DimensionMismatch(f"specialization requires dim 2, got {ps.dim}")
    coords = ps.coords
    n = ps.n_points
    gx, gy = _grids(coords)

    order = np.argsort(coords[:, 0], kind="stable")
    xs = coords[order, 0]
    ys = coords[order, 1]

    buf = np.empty(0, dtype=np.float64)  # sorted y's of points with x <= current a
    ptr = 0
    best = _Best()
    for a in gx:
        cnt_open = np.searchsorted(buf, gy, side="left")  # buffer holds x < a here
        start = ptr
        while ptr < n and xs[ptr] == a:
            ptr += 1
        if ptr > start:
            batch = np.sort(ys[start:ptr])
            buf = np.insert(buf, np.searchsorted(buf, batch), batch)
        cnt_closed = np.searchsorted(buf, gy, side="right")  # buffer now holds x <= a
        vols = a * gy
        d_plus = cnt_closed / n - vols
        d_minus = vols - cnt_open / n
        cand = np.where(d_plus >= d_minus, d_plus, d_minus)
        i = int(np.argmax(cand))
        if cand[i] > best.value:
            best.value = float(cand[i])
            best.upper = [float(a), float(gy[i])]
            best.closed = bool(d_plus[i] >= d_minus[i])
    assert best.upper is not None
    return DiscrepancyCertificate(best.value, AnchoredBox(np.array(best.upper)), best.closed)


def box_counts(coords: np.ndarray, uppers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row y of ``uppers`` (k x d), the points with every x_j < y_j, those
    with every x_j <= y_j, and the volume of [0, y): every box compared with
    every point on every axis at once (k x d x N, a slice of boxes at a time
    to bound the memory), and each volume multiplied left to right over the
    axes."""
    n, d = coords.shape
    columns = np.ascontiguousarray(coords.T)[None]
    opened = np.empty(len(uppers), dtype=np.int64)
    closed = np.empty(len(uppers), dtype=np.int64)
    step = max(1, (1 << 22) // max(1, n * d))
    for s in range(0, len(uppers), step):
        y = uppers[s:s + step, :, None]
        opened[s:s + step] = (columns < y).all(axis=1).sum(axis=1)
        closed[s:s + step] = (columns <= y).all(axis=1).sum(axis=1)
    vols = np.ones(len(uppers))
    for j in range(d):
        vols = vols * uppers[:, j]
    return opened, closed, vols


def reference_star_discrepancy_lower_estimate(
    ps: PointSet,
    budget: int,
    seed: int = 0,
    extra_boxes: Sequence[AnchoredBox] = (),
    *,
    block: int,
    blocks: list | None = None,
) -> tuple[float, AnchoredBox]:
    """Certified lower bound for the star discrepancy.

    Takes the best local discrepancy over the grid corners of any
    caller-supplied boxes, the boxes anchored at each point, and ``budget``
    corners of the critical grid, ``block`` at a time.  A corner's value
    is the larger of the closed surplus count_closed/N - vol and the open
    |count_open/N - vol|.  A caller's box [0, y) enters as two grid
    corners: per axis the largest grid value at or below y_j (the smallest
    grid value if there is none), and the smallest at or above it.  Of
    equal values the lexicographically smallest corner wins.

    The first block is random corners.  Each later block first takes the
    pending line corners of up to W = max(1, block // L) centers, L the
    sum of the grid sizes, then random corners.  A center's line corners
    are, axis by axis, every grid value on that axis with the others held
    at the center's, and they go on from where an earlier block stopped
    them.  The centers are the pool, best first: after the points' and
    boxes' corners and after each block, the W best corners whose lines
    are not all taken, of the pool and the corners just scored, ties to
    the lexicographically smallest.  For a fixed seed the random corners
    form a prefix stream, so a larger budget never lowers the result.
    Each block's corners (grid indices), in the order taken, are appended
    to ``blocks`` when it is given.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    grids = _grids(ps.coords)
    sizes = [len(g) for g in grids]
    lines = [(j, i) for j, size in enumerate(sizes) for i in range(size)]
    width = max(1, block // len(lines))
    best: list = [-np.inf, None]  # value and grid corner (grid indices)
    pool: list = []  # (value, grid corner) of the centers, best first
    reached: dict = {}  # per center, its line corners taken

    def score(corners: list[tuple[int, ...]]) -> None:
        uppers = np.array([[g[i] for g, i in zip(grids, c)] for c in corners])
        opened, closed, vols = box_counts(ps.coords, uppers)
        open_vals = np.abs(opened / ps.n_points - vols)
        closed_vals = closed / ps.n_points - vols
        candidates = set(pool)
        for corner, o, c in zip(corners, open_vals.tolist(), closed_vals.tolist()):
            value = c if c >= o else o
            if value > best[0] or (value == best[0] and corner < best[1]):
                best[:] = value, corner
            if reached.get(corner, 0) < len(lines):
                candidates.add((value, corner))
        pool[:] = sorted(candidates, key=lambda e: (-e[0], e[1]))[:width]

    def index(upper) -> tuple[int, ...]:
        return tuple(int(np.searchsorted(g, y)) for g, y in zip(grids, upper))

    corners = []
    for box in extra_boxes:
        if box.dim != ps.dim:
            raise DimensionMismatch(f"point set has dim {ps.dim}, box has dim {box.dim}")
        corners.append(index([g[g <= y].max(initial=g[0]) for g, y in zip(grids, box.upper)]))
        corners.append(index([g[g >= y].min() for g, y in zip(grids, box.upper)]))
    score(corners + [index(row) for row in ps.coords])

    largest = max(sizes)
    stream = Stream(derive(seed, "lower-estimate"))
    for done in range(0, budget, block):
        rows = min(block, budget - done)
        corners = []
        for _, center in pool if done else []:
            start = reached.get(center, 0)
            if len(corners) == rows:
                break
            taken = lines[start:start + rows - len(corners)]
            reached[center] = start + len(taken)
            for j, i in taken:
                corners.append(center[:j] + (i,) + center[j + 1:])
        pool[:] = [entry for entry in pool if reached.get(entry[1], 0) < len(lines)]
        while len(corners) < rows:
            corners.append(tuple(stream.randbelow(largest) * size // largest for size in sizes))
        score(corners)
        if blocks is not None:
            blocks.append(corners)

    value, corner = best
    return float(value), AnchoredBox(np.array([g[i] for g, i in zip(grids, corner)]))


def witness_shrinks_frac(k: int, w_count: int, y_count: int, n: int) -> bool:
    """The witness rule Y <= m - sqrt(m)/2, m = k W / N, in rationals.

    sqrt(m) <= 2 (m - Y) holds iff the right side is non-negative and its
    square is at least m.
    """
    m = Fraction(k * w_count, n)
    bound = 2 * (m - y_count)
    return bound >= 0 and bound * bound >= m


def box_excess_frac(coords: np.ndarray, upper: Sequence[float]) -> Fraction:
    """Exact excess count - N vol of the box [0, upper): the points with
    every x_j < y_j, less N times the product of the corners as Fractions."""
    count = int(np.all(coords < np.asarray(upper, dtype=np.float64), axis=1).sum())
    return count - len(coords) * math.prod(Fraction(y) for y in upper)


def floor_double(q: Fraction) -> float:
    """Largest double at or below q (normal range): q floored to 53
    significant bits."""
    if q == 0:
        return 0.0
    e = abs(q.numerator).bit_length() - q.denominator.bit_length()
    if abs(q) < Fraction(2) ** e:
        e -= 1  # now 2**e <= |q| < 2**(e + 1)
    return math.ldexp(math.floor(q * Fraction(2) ** (52 - e)), e - 52)


def witness_bound_frac(coords: np.ndarray, upper: Sequence[float]) -> Fraction:
    """The witness lower bound of the box [0, upper) in rationals:
    max(excess, 0) / N."""
    return max(box_excess_frac(coords, upper), Fraction(0)) / len(coords)


def reference_log_choose(n: int, k: int) -> float:
    """log C(n, k) as the exactly-rounded sum of two lists of logs."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"log_choose needs 0 <= k <= n, got n={n}, k={k}")
    m = min(k, n - k)
    terms = [math.log(n - m + i) for i in range(1, m + 1)]
    terms += [-math.log(i) for i in range(2, m + 1)]
    return math.fsum(terms)


def reference_binom_mass(n: int, p: float, k: int) -> float:
    """Mass of B(n, p) at k, for a domain already checked."""
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(reference_log_choose(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))


def reference_hypergeom_mass(n_total: int, n_white: int, n_draws: int, k: int) -> float:
    """Mass of H(N, W, n) at k, for a domain already checked."""
    lo, hi = max(0, n_draws - (n_total - n_white)), min(n_draws, n_white)
    if k < lo or k > hi:
        return 0.0
    return math.exp(
        reference_log_choose(n_white, k)
        + reference_log_choose(n_total - n_white, n_draws - k)
        - reference_log_choose(n_total, n_draws)
    )


def binom_pmf_frac(n: int, p: Fraction, k: int) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_cdf_frac(n: int, p: Fraction, k: int) -> Fraction:
    return sum((binom_pmf_frac(n, p, i) for i in range(0, min(k, n) + 1)), Fraction(0))


def hypergeom_pmf_frac(n_total: int, n_white: int, n_draws: int, k: int) -> Fraction:
    if k < 0 or k > n_draws or k > n_white or n_draws - k > n_total - n_white:
        return Fraction(0)
    return Fraction(
        math.comb(n_white, k) * math.comb(n_total - n_white, n_draws - k),
        math.comb(n_total, n_draws),
    )


def tv_frac(n_total: int, n_white: int, n_draws: int) -> Fraction:
    """Exact TV distance between H(N, W, n) and B(n, W/N)."""
    p = Fraction(n_white, n_total)
    total = Fraction(0)
    for k in range(n_draws + 1):
        total += abs(hypergeom_pmf_frac(n_total, n_white, n_draws, k) - binom_pmf_frac(n_draws, p, k))
    return total / 2


def tv_by_subset_enumeration(a_probs: list[float], b_probs: list[float]) -> float:
    """max_A |P_a(A) - P_b(A)| over all subsets of the (small) joint support."""
    size = max(len(a_probs), len(b_probs))
    a = a_probs + [0.0] * (size - len(a_probs))
    b = b_probs + [0.0] * (size - len(b_probs))
    best = 0.0
    for mask in range(1 << size):
        pa = sum(a[i] for i in range(size) if mask >> i & 1)
        pb = sum(b[i] for i in range(size) if mask >> i & 1)
        best = max(best, abs(pa - pb))
    return best
