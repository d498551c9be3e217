"""The test oracles themselves get certified against direct enumeration."""

from fractions import Fraction

import numpy as np

from lhsdisc.discrepancy import AnchoredBox, box_volume, count_closed, count_open
from lhsdisc.points import PointSet
from lhsdisc.rng import Stream, derive

from oracles import (
    box_counts,
    brute_force_lattice_max,
    dense_grid_star_discrepancy,
    hypergeom_pmf_frac,
    tv_by_subset_enumeration,
    tv_frac,
)


def test_dense_grid_oracle_matches_brute_force():
    stream = Stream(derive(1000, "oracle-vs-brute"))
    for m in (3, 7, 11):
        for _ in range(8):
            n = 1 + stream.randbelow(5)
            d = 1 + stream.randbelow(2)
            coords = stream.uniform_block(n * d).reshape(n, d)
            assert dense_grid_star_discrepancy(coords, m) == brute_force_lattice_max(coords, m)


def test_dense_grid_oracle_matches_brute_force_with_lattice_points():
    # Points sitting exactly on grid values exercise the strict-comparison edge.
    coords = np.array([[1 / 4, 2 / 4], [2 / 4, 2 / 4], [0.0, 3 / 4]])
    for m in (2, 4, 8):
        assert dense_grid_star_discrepancy(coords, m) == brute_force_lattice_max(coords, m)


def test_box_counts_match_the_library_counts():
    # Random and lattice sets (ties, duplicate points, zeros), with boxes
    # at 0 and 1, on the points' coordinates, one ulp either side of them,
    # and anywhere, as many boxes as a slice holds and more.
    stream = Stream(derive(1001, "box-counts"))
    for n, d, m in ((1, 1, 0), (7, 2, 0), (30, 3, 0), (12, 2, 3), (40, 3, 4), (9, 4, 2)):
        coords = stream.uniform_block(n * d).reshape(n, d)
        if m:
            coords = np.floor(coords * m) / m
        uppers = [np.zeros(d), np.ones(d)]
        for x in coords:
            uppers += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
        uppers += list(stream.uniform_block(20 * d).reshape(20, d))
        uppers = np.array(uppers)
        opened, closed, vols = box_counts(coords, uppers)
        ps = PointSet(coords)
        for y, o, c, v in zip(uppers, opened, closed, vols):
            box = AnchoredBox(y)
            assert o == count_open(ps, box)
            assert c == count_closed(ps, box)
            assert np.float64(v).tobytes() == np.float64(box_volume(box)).tobytes()
    coords = stream.uniform_block(2000 * 3).reshape(2000, 3)
    uppers = stream.uniform_block(800 * 3).reshape(800, 3)  # 800 boxes take two slices
    opened, closed, _ = box_counts(coords, uppers)
    ps = PointSet(coords)
    assert opened.tolist() == [count_open(ps, AnchoredBox(y)) for y in uppers]
    assert closed.tolist() == [count_closed(ps, AnchoredBox(y)) for y in uppers]


def test_tv_frac_matches_subset_enumeration():
    n_total, n_white, n_draws = 10, 5, 5
    p = Fraction(n_white, n_total)
    from oracles import binom_pmf_frac

    h = [float(hypergeom_pmf_frac(n_total, n_white, n_draws, k)) for k in range(n_draws + 1)]
    b = [float(binom_pmf_frac(n_draws, p, k)) for k in range(n_draws + 1)]
    exact = float(tv_frac(n_total, n_white, n_draws))
    assert abs(tv_by_subset_enumeration(h, b) - exact) < 1e-12
