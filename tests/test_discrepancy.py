import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhsdisc import discrepancy
from lhsdisc.discrepancy import (
    AnchoredBox,
    BudgetExceeded,
    DimensionMismatch,
    DiscrepancyCertificate,
    MethodError,
    box_volume,
    count_closed,
    count_open,
    excess,
    local_discrepancy,
    star_discrepancy,
    star_discrepancy_exact,
    star_discrepancy_exact_2d,
    star_discrepancy_lower_estimate,
)
from lhsdisc.points import PointSet
from lhsdisc.rng import Stream, derive
from lhsdisc.sampling import lhs_sample, uniform_sample

from oracles import (
    corner_by_corner_star_discrepancy,
    dense_grid_star_discrepancy,
    reference_star_discrepancy_exact,
    reference_star_discrepancy_exact_2d,
    reference_star_discrepancy_lower_estimate,
)


def pset(*rows):
    return PointSet(np.array(rows, dtype=np.float64))


def box(*upper):
    return AnchoredBox(np.array(upper, dtype=np.float64))


def random_pointset(stream, max_n=8, max_d=3):
    n = 1 + stream.randbelow(max_n)
    d = 1 + stream.randbelow(max_d)
    return PointSet(stream.uniform_block(n * d).reshape(n, d))


class TestCounting:
    def test_box_volume(self):
        assert box_volume(box(1.0, 1.0, 1.0)) == 1.0
        assert box_volume(box(0.3, 0.0)) == 0.0
        assert box_volume(box(0.5, 0.5)) == 0.25

    def test_box_validation(self):
        with pytest.raises(ValueError):
            box(0.5, 1.5)
        with pytest.raises(ValueError):
            box(-0.1)

    def test_count_open_strict(self):
        assert count_open(pset([0.0]), box(0.0)) == 0
        assert count_open(pset([0.0]), box(0.5)) == 1
        dup = pset([0.25], [0.25])
        assert count_open(dup, box(0.25)) == 0
        assert count_open(dup, box(0.26)) == 2

    def test_count_closed_boundary(self):
        assert count_closed(pset([0.0]), box(0.0)) == 1
        assert count_closed(pset([0.25]), box(0.25)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            count_open(pset([0.1, 0.2]), box(0.5))

    def test_local_discrepancy_values(self):
        assert local_discrepancy(pset([0.25], [0.75]), box(0.25)) == 0.25
        assert local_discrepancy(pset([0.25], [0.75]), box(1.0)) == 0.0
        assert local_discrepancy(pset([0.5]), box(0.5)) == 0.5

    def test_excess_values(self):
        assert excess(pset([0.1], [0.2]), box(1.0)) == 0.0
        assert excess(pset([0.1], [0.2]), box(0.5)) == 1.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_excess_vs_local(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 3))
        coord = st.floats(0, 1, exclude_max=True, allow_nan=False, width=64)
        pts = PointSet(np.array(
            [[data.draw(coord) for _ in range(d)] for _ in range(n)]))
        b = box(*[data.draw(st.floats(0, 1, allow_nan=False, width=64)) for _ in range(d)])
        # Identical up to one rounding: |c/N - v| vs |c - N v| / N.
        assert local_discrepancy(pts, b) == pytest.approx(abs(excess(pts, b)) / n,
                                                          rel=1e-12, abs=1e-15)
        assert count_closed(pts, b) >= count_open(pts, b)


class TestExact:
    def test_single_point_at_origin(self):
        cert = star_discrepancy_exact(pset([0.0]))
        assert cert.value == 1.0
        assert cert.closed_sided is True
        assert cert.argmax_box.upper.tolist() == [0.0]

    def test_midpoint_lattice_d1(self):
        cert = star_discrepancy_exact(pset([0.25], [0.75]))
        assert cert.value == 0.25

    def test_certificate_is_self_consistent(self):
        stream = Stream(derive(321, "cert"))
        for _ in range(25):
            ps = random_pointset(stream)
            cert = star_discrepancy_exact(ps)
            vol = box_volume(cert.argmax_box)
            if cert.closed_sided:
                recomputed = count_closed(ps, cert.argmax_box) / ps.n_points - vol
            else:
                recomputed = abs(count_open(ps, cert.argmax_box) / ps.n_points - vol)
            assert recomputed == cert.value

    def test_dense_grid_oracle_agreement(self):
        stream = Stream(derive(17, "oracle"))
        m = 400
        for _ in range(25):
            ps = random_pointset(stream, max_n=6, max_d=2)
            v = star_discrepancy_exact(ps).value
            g = dense_grid_star_discrepancy(ps.coords, m)
            assert g <= v + 1e-12
            assert v <= g + ps.dim / m + 1e-12

    def test_dominates_every_box(self):
        stream = Stream(derive(18, "dominate"))
        ps = random_pointset(stream, max_n=6, max_d=2)
        v = star_discrepancy_exact(ps).value
        for _ in range(200):
            b = box(*stream.uniform_block(ps.dim))
            assert local_discrepancy(ps, b) <= v

    def test_axis_permutation_invariance(self):
        stream = Stream(derive(19, "axes"))
        for _ in range(10):
            n = 1 + stream.randbelow(6)
            coords = stream.uniform_block(n * 3).reshape(n, 3)
            v1 = star_discrepancy_exact(PointSet(coords)).value
            v2 = star_discrepancy_exact(PointSet(coords[:, [2, 0, 1]])).value
            assert v1 == v2

    def test_value_range(self):
        stream = Stream(derive(20, "range"))
        for _ in range(20):
            ps = random_pointset(stream)
            v = star_discrepancy_exact(ps).value
            assert 0.0 < v <= 1.0

    def test_budget_guard(self):
        ps = uniform_sample(40, 3, seed=2)
        with pytest.raises(BudgetExceeded) as err:
            star_discrepancy_exact(ps, budget=1000)
        assert err.value.required == 41**3


class TestExact2D:
    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            star_discrepancy_exact_2d(pset([0.5]))

    def test_bit_equal_on_random_sets(self):
        stream = Stream(derive(44, "2d"))
        for _ in range(60):
            n = 1 + stream.randbelow(32)
            ps = PointSet(stream.uniform_block(2 * n).reshape(n, 2))
            a = star_discrepancy_exact(ps)
            b = star_discrepancy_exact_2d(ps)
            assert a.value == b.value
            assert np.array_equal(a.argmax_box.upper, b.argmax_box.upper)
            assert a.closed_sided == b.closed_sided

    def test_bit_equal_on_shifted_permutation_lattice(self):
        n = 16
        stream = Stream(derive(45, "lattice"))
        sigma = stream.permutation(n)
        coords = np.array([[(i + 0.5) / n, (sigma[i] + 0.5) / n] for i in range(n)])
        ps = PointSet(coords)
        assert star_discrepancy_exact(ps).value == star_discrepancy_exact_2d(ps).value

    def test_bit_equal_with_duplicates_and_zeros(self):
        ps = pset([0.0, 0.5], [0.0, 0.5], [0.25, 0.0], [0.25, 0.5])
        a = star_discrepancy_exact(ps)
        b = star_discrepancy_exact_2d(ps)
        assert (a.value, a.closed_sided) == (b.value, b.closed_sided)
        assert np.array_equal(a.argmax_box.upper, b.argmax_box.upper)


def assert_bit_equal(cert, ref):
    assert np.float64(cert.value).tobytes() == np.float64(ref.value).tobytes()
    assert cert.argmax_box.upper.tobytes() == ref.argmax_box.upper.tobytes()
    assert cert.closed_sided is ref.closed_sided


def check_against_replaced_kernels(ps):
    cert = star_discrepancy_exact(ps)
    assert_bit_equal(cert, reference_star_discrepancy_exact(ps))
    if ps.dim == 2:
        cert_2d = star_discrepancy_exact_2d(ps)
        assert_bit_equal(cert_2d, reference_star_discrepancy_exact_2d(ps))
        assert_bit_equal(cert_2d, cert)


def tie_sorted_positions(coords, lo, hi):
    # On each axis, last first, the points at sorted positions lo to hi - 1
    # take the value at lo, so they tie and keep those positions.
    for j in reversed(range(coords.shape[1])):
        tied = np.argsort(coords[:, j])[lo:hi]
        coords[tied, j] = coords[tied[:1], j]


def lattice_pointset(stream, n, d, m):
    # Coordinates on {0, 1/m, ..., (m-1)/m}: ties on every axis and, for
    # small m, duplicate points.
    return PointSet(np.array([stream.randbelow(m) for _ in range(n * d)],
                             dtype=np.float64).reshape(n, d) / m)


class TestAgainstReplacedKernels:
    """Bit-equality (value, box, side) with the kernels the table replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_samples(self, sampler, d):
        for n in (1, 2, 3, 7, 16, 33 if d < 4 else 12):
            for seed in range(3):
                check_against_replaced_kernels(sampler(n, d, derive(derive(d, n), seed)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coarse_lattice_ties_and_duplicates(self, d):
        stream = Stream(derive(77, f"lattice-{d}"))
        for m in (1, 2, 3, 5, 8):
            for n in (1, 4, 9, 24):
                check_against_replaced_kernels(lattice_pointset(stream, n, d, m))

    def test_2d_search_over_many_chunks(self):
        # 3201 x 3201 corners: the frontier fills about 40 chunks of boxes.
        ps = lhs_sample(3200, 2, seed=derive(78, "blocks-2d"))
        assert_bit_equal(star_discrepancy_exact_2d(ps), reference_star_discrepancy_exact_2d(ps))
        assert_bit_equal(star_discrepancy_exact(ps), reference_star_discrepancy_exact_2d(ps))

    @pytest.mark.parametrize("n", [63, 64, 65, 4095, 4096, 4097])
    def test_2d_ties_across_plane_blocks_and_chunks(self, n):
        # The plane counts cut the points, in last-axis order, into blocks
        # of 64 and chunks of 4096.  The points at sorted positions 60-69
        # and 4090-4101 share a value on each axis, so ties on the last
        # axis straddle a block edge and the chunk edge where N reaches them.
        coords = lhs_sample(n, 2, seed=derive(82, f"plane-edges-{n}")).coords.copy()
        for lo, hi in ((60, 70), (4090, 4102)):
            tie_sorted_positions(coords, lo, hi)
        ps = PointSet(coords)
        ref = reference_star_discrepancy_exact_2d(ps)
        assert_bit_equal(star_discrepancy_exact_2d(ps), ref)
        assert_bit_equal(star_discrepancy_exact(ps), ref)

    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_3d_search_over_several_chunks(self, sampler):
        # 141**3 corners in chunks of 170 boxes: the LHS's frontier fills 39.
        ps = sampler(140, 3, derive(79, "blocks-3d"))
        assert_bit_equal(star_discrepancy_exact(ps), reference_star_discrepancy_exact(ps))

    @pytest.mark.parametrize("n,d", [(2000, 2), (300, 3)])
    def test_lattice_search_over_several_chunks(self, n, d):
        # 151 grid values per axis, with ties on every axis, and a frontier
        # of more chunks than the grid has levels.
        ps = lattice_pointset(Stream(derive(81, f"blocks-lattice-{d}")), n, d, 150)
        check_against_replaced_kernels(ps)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_sets_property(self, data):
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 12))
        value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                          st.floats(0.0, 1.0, exclude_max=True))
        coords = data.draw(st.lists(value, min_size=n * d, max_size=n * d))
        check_against_replaced_kernels(PointSet(np.array(coords).reshape(n, d)))


class TestKernelSharing:
    def test_2d_entry_point_applies_no_budget(self, monkeypatch):
        seen = []
        real = discrepancy._exact

        def spy(ps, budget):
            seen.append(budget)
            return real(ps, budget)

        monkeypatch.setattr(discrepancy, "_exact", spy)
        star_discrepancy_exact_2d(pset([0.5, 0.5]))
        star_discrepancy_exact(pset([0.5, 0.5]))
        assert seen == [None, 10**9]

    def test_entry_points_do_not_call_each_other(self, monkeypatch):
        ps = pset([0.25, 0.5], [0.75, 0.125])
        expected_2d = star_discrepancy_exact_2d(ps)
        expected = star_discrepancy_exact(ps)

        def forbidden(*args, **kwargs):
            raise AssertionError("entry point called another entry point")

        monkeypatch.setattr(discrepancy, "star_discrepancy_exact", forbidden)
        assert_bit_equal(discrepancy.star_discrepancy_exact_2d(ps), expected_2d)
        monkeypatch.undo()
        monkeypatch.setattr(discrepancy, "star_discrepancy_exact_2d", forbidden)
        assert_bit_equal(discrepancy.star_discrepancy_exact(ps), expected)

    def test_table_memory_is_bounded_and_released(self):
        # The paper's d = 2, N = 3200 call: an unblocked 3201 x 3201 table
        # would take about 78 MiB.  Nothing of the table may outlive the
        # call, not even until the next garbage collection.
        ps = lhs_sample(3200, 2, seed=derive(80, "memory"))
        star_discrepancy_exact(pset([0.5, 0.5]))  # first-call imports
        for kernel in (star_discrepancy_exact_2d, star_discrepancy_exact):
            tracemalloc.start()
            try:
                kernel(ps)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert current < 1 << 16

    @pytest.mark.parametrize("n", [3200, 10000])
    def test_plane_memory_is_bounded_and_released(self, n):
        assert_search_memory_bounded(lhs_sample(n, 2, seed=derive(80, f"plane-memory-{n}")))


TIE_N, TIE_A = 1 << 14, (1 << 12) + 2


def tie_across_blocks():
    # v_i = i/N with N = 2**14, so the table has 16385 columns and every
    # block is one row; u = 0 for the first a points, 0.5 for the next
    # a - 1 and 0.75 for the rest.  Rows u = 0 and u = 0.5 both peak at
    # a/N on their closed side, and every operation on them is exact.
    u = np.full(TIE_N, 0.75)
    u[:TIE_A] = 0.0
    u[TIE_A:2 * TIE_A - 1] = 0.5
    return PointSet(np.column_stack((u, np.arange(TIE_N) / TIE_N)))


def run_search(ps, search=discrepancy._BoxSearch):
    kernel = search(*discrepancy._grids(ps.coords))
    kernel.run()
    return kernel


def assert_search_counters(ps):
    # The counters repeat exactly.  Every box is bounded at most once, and
    # the tree of halvings of the grid has fewer than twice its corners.
    first, second = run_search(ps), run_search(ps)
    counters = (first.boxes_bounded, first.corners_scored)
    assert counters == (second.boxes_bounded, second.corners_scored)
    corners = np.prod([len(g) for g in first.grids])
    assert first.corners_scored <= corners
    assert first.corners_scored <= first.boxes_bounded < 2 * corners
    return first


class TestBoundAndSkip:
    """Pruning boxes by their bounds changes no result, and it prunes most
    of a paper grid."""

    def test_block_whose_bound_equals_the_floor_is_scored(self):
        # Row u = 0 is a block whose bound is its own closed maximum a/N;
        # the floor is a/N too, attained again in the later row u = 0.5.
        # Only scoring on bound == floor finds the first maximizer.
        ps = tie_across_blocks()
        later = box(0.5, (2 * TIE_A - 2) / TIE_N)
        assert count_closed(ps, later) / TIE_N - box_volume(later) == TIE_A / TIE_N
        cert = star_discrepancy_exact_2d(ps)
        assert cert.value == TIE_A / TIE_N
        assert cert.argmax_box.upper.tolist() == [0.0, (TIE_A - 1) / TIE_N]
        assert cert.closed_sided
        check_against_replaced_kernels(ps)

    @pytest.mark.parametrize("n,m", [(600, 200), (400, 256)])
    def test_3d_lattice_steps_of_several_points(self, n, m):
        # About 200 grid values per axis: each step of the leading axis adds
        # several points to each table, with ties on every axis.
        ps = lattice_pointset(Stream(derive(85, f"skip-lattice-{n}-{m}")), n, 3, m)
        lead = np.unique(ps.coords[:, 0], return_counts=True)[1]
        assert lead.max() >= 3
        assert_search_counters(ps)
        check_against_replaced_kernels(ps)

    @pytest.mark.parametrize("d,sizes", [(1, (1, 2, 5, 100, 1000, 20000)), (4, (1, 3, 9, 14))])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_one_and_four_dimensions(self, sampler, d, sizes):
        for n in sizes:
            for seed in range(2):
                check_against_replaced_kernels(sampler(n, d, derive(derive(86, f"{d}-{n}"), seed)))

    def test_paper_searches_bound_under_a_tenth_of_their_corners(self):
        for seed in range(3):
            ps = lhs_sample(3200, 2, seed=derive(87, seed))
            assert assert_search_counters(ps).boxes_bounded < 3201**2 / 10
            assert_bit_equal(star_discrepancy_exact_2d(ps), reference_star_discrepancy_exact_2d(ps))

    def test_counters_are_deterministic(self):
        # d >= 3 bounds a small part of the 129**3 corners of the grid.
        ps = lhs_sample(128, 3, seed=derive(88, "counters"))
        assert assert_search_counters(ps).boxes_bounded < 129**3 / 10
        assert_search_counters(uniform_sample(12, 4, derive(88, "counters-4d")))

    def test_counters_of_a_seeded_3d_search(self):
        # The counts of the search that fills every chunk from the stack's
        # top entries and starts from an unbounded level of 256 boxes.
        search = run_search(lhs_sample(128, 3, seed=derive(88, "counters")))
        assert (search.boxes_bounded, search.corners_scored) == (15376, 128)

    def test_counters_of_the_paper_memory_search(self):
        # The d = 2, N = 3200 call of the table memory test: the tree of
        # the stable bound sorts and full chunks of 768 boxes, box for box.
        search = run_search(lhs_sample(3200, 2, seed=derive(80, "memory")))
        assert (search.boxes_bounded, search.corners_scored) == (47354, 85)

    def test_counters_of_a_search_with_tied_bounds(self):
        # A lattice whose kept children often tie on their bounds: ties
        # are pushed in the order they were split, as a stable sort keeps.
        search = run_search(korobov(128, 25))
        assert (search.boxes_bounded, search.corners_scored) == (87592, 15904)


class _RecordingSearch(discrepancy._BoxSearch):
    """The search, recording every single corner it scores, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scored = []

    def _score(self, corners, values, closed, opened, *keep):
        self.scored += zip(map(tuple, corners.T.tolist()), values.tolist())
        return super()._score(corners, values, closed, opened, *keep)


def radical_inverse(i, base):
    value, scale = 0.0, 1.0
    while i:
        scale /= base
        value += scale * (i % base)
        i //= base
    return value


def halton(n, d):
    return PointSet(np.array([[radical_inverse(i, b) for b in (2, 3, 5, 7)[:d]]
                              for i in range(n)]))


def korobov(n, g):
    # The points (i g**j mod n) / n, j = 0, 1, 2.
    i = np.arange(n)
    return PointSet(np.column_stack([i * pow(g, j, n) % n / n for j in range(3)]))


class TestBoxSearchAboveTwoDimensions:
    """d >= 3: the search over boxes of grid indices, bit-equal (value, box
    bytes, side) to the replaced kernel and to a corner-by-corner
    evaluation."""

    @staticmethod
    def check(ps):
        check_against_replaced_kernels(ps)
        if ps.n_points <= 12:
            assert_bit_equal(star_discrepancy_exact(ps), corner_by_corner_star_discrepancy(ps))
        assert_search_counters(ps)

    @pytest.mark.parametrize("d", [3, 4])
    def test_points_sharing_one_leading_coordinate(self, d):
        stream = Stream(derive(96, f"shared-{d}"))
        for n in (2, 7, 12, 40):
            for shared in (2, n // 2 + 1, n):  # n: every point on one value
                coords = stream.uniform_block(n * d).reshape(n, d)
                coords[:shared, d - 3] = coords[0, d - 3]
                self.check(PointSet(coords))

    @pytest.mark.parametrize("d", [3, 4])
    def test_leading_coordinate_zero(self, d):
        stream = Stream(derive(97, f"zero-{d}"))
        for n in (1, 5, 12, 40):
            for zeros in (1, n // 2 + 1, n):
                coords = stream.uniform_block(n * d).reshape(n, d)
                coords[:zeros, d - 3] = 0.0
                self.check(PointSet(coords))
                coords[:zeros] = 0.0
                self.check(PointSet(coords))

    @pytest.mark.parametrize("d", [3, 4])
    def test_one_point(self, d):
        stream = Stream(derive(98, f"one-{d}"))
        for corner in (np.zeros(d), np.full(d, 0.5), stream.uniform_block(d),
                       np.array([0.0, 0.75, 0.0, 0.25][:d])):
            self.check(PointSet(corner.reshape(1, d)))

    @pytest.mark.parametrize("d,sizes", [(3, (16, 32, 64)), (4, (16, 32))])
    def test_coarse_lattices_tie_out_of_search_order(self, d, sizes):
        # A corner with u = 0 (the first of the last two axes) has volume
        # 0, so its value repeats along the other axes once it holds every
        # point with u = 0: the maximum is attained at several corners.
        # The search meets them in the order of its bounds and chunks, and
        # must return the lexicographically smallest with its side.
        stream = Stream(derive(99, f"ties-{d}"))
        out_of_order = 0
        for m in sizes:
            for n in (24, 48, 96):
                for share in (n // 2, 3 * n // 4, n):
                    coords = lattice_pointset(stream, n, d, m).coords.copy()
                    coords[:share, d - 2] = 0.0
                    ps = PointSet(coords)
                    self.check(ps)
                    search = run_search(ps, _RecordingSearch)
                    found = [corner for corner, value in search.scored if value == search.value]
                    assert search.corner == list(min(found))
                    out_of_order += found[0] != min(found)
        # For several sets a maximizer is met before the smallest one.
        assert out_of_order >= 5

    @pytest.mark.parametrize("ps", [korobov(128, 25), korobov(127, 26), halton(128, 3),
                                    halton(300, 3), halton(40, 4)],
                             ids=["korobov-128x3", "korobov-127x3", "halton-128x3",
                                  "halton-300x3", "halton-40x4"])
    def test_low_discrepancy_sets(self, ps):
        # The bounds prune least where the discrepancy is low everywhere.
        # Each Korobov generator g maximizes the Zaremba index of its
        # lattice (the smallest such g).
        assert_bit_equal(star_discrepancy_exact(ps), reference_star_discrepancy_exact(ps))

    @pytest.mark.parametrize("n", [128, 400])
    def test_table_memory_is_bounded_and_released(self, n):
        assert_search_memory_bounded(lhs_sample(n, 3, seed=derive(100, n)))

    def test_memory_of_one_leading_value(self):
        # Every point on one leading value: a grid of 2 x 1001 x 1001
        # corners, for which the replaced stepped tables took five float64
        # tables of 1001 x 1001 cells (40 MB).
        coords = Stream(derive(100, "one-leading-value")).uniform_block(3000).reshape(1000, 3)
        coords[:, 0] = coords[0, 0]
        assert_search_memory_bounded(PointSet(coords))


class _ChunkRecordingSearch(discrepancy._BoxSearch):
    """The search, recording per chunk how many boxes it splits, and how
    many boxes at or above the floor the whole frontier and its top entry
    held before it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.splits = []
        self.held = []
        self.top = []

    def _take(self, stack):
        held = [bound.size - int(bound.searchsorted(self.floor)) for _, bound, _ in stack]
        m, low = super()._take(stack)
        if m:
            self.splits.append(m)
            self.held.append(sum(held))
            self.top.append(held[-1])
        return m, low


class TestHalfOpenBoxes:
    """Boxes [lo, he) whose closed row he reaches the rank maps' extra row
    top + 1, and chunks of every size in one workspace: bit-equal (value,
    box bytes, side) to the replaced kernels."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_point(self, d):
        # The whole grid is [0, 2) on every axis, split into the point's
        # corner [0, 1) and the corner [1, 2) of 1.0.
        stream = Stream(derive(102, f"one-{d}"))
        for corner in (np.zeros(d), np.full(d, 0.5), stream.uniform_block(d),
                       np.full(d, np.nextafter(1.0, 0.0))):
            check_against_replaced_kernels(PointSet(corner.reshape(1, d)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_points_on_the_largest_coordinate(self, d):
        # All or most points take the largest coordinate of one axis, so
        # the last row below 1.0 holds them and boxes end at top + 1 there.
        for n in (2, 9, 40):
            for j in range(d):
                coords = lhs_sample(n, d, derive(103, f"largest-{n}-{d}-{j}")).coords
                for share in (n, n // 2 + 1):
                    tied = coords.copy()
                    tied[:share, j] = coords[:, j].max()
                    check_against_replaced_kernels(PointSet(tied))

    @pytest.mark.parametrize("d", [2, 3])
    def test_largest_coordinates_meet_off_the_points(self, d):
        # Point i of n is ((i + j) mod n) / 2n on axis j, so the largest
        # coordinates of the axes belong to different points.  The maximum
        # is the closed side of the corner they meet at, which holds every
        # point; no point's own corner finds it, and the boxes that lead to
        # it end at top + 1 on every axis.
        for n in (9, 40, 128):
            i = np.arange(n)
            ps = PointSet(np.column_stack([(i + j) % n for j in range(d)]) / (2 * n))
            cert = star_discrepancy_exact(ps)
            assert cert.argmax_box.upper.tolist() == [(n - 1) / (2 * n)] * d
            assert cert.closed_sided
            check_against_replaced_kernels(ps)

    @pytest.mark.parametrize("ps", [uniform_sample(10000, 2, derive(104, "wide-2d")),
                                    korobov(128, 25)], ids=["uniform-10000x2", "korobov-128x3"])
    def test_frontiers_over_several_chunks(self, ps):
        # The frontier takes more chunks than the grid has levels, full
        # ones and partial ones.
        search = run_search(ps, _ChunkRecordingSearch)
        levels = max(int(np.ceil(np.log2(len(g)))) for g in search.grids)
        assert len(search.splits) > levels
        assert search.per in search.splits
        assert min(search.splits) < search.per
        reference = (reference_star_discrepancy_exact_2d if ps.dim == 2
                     else reference_star_discrepancy_exact)
        assert_bit_equal(star_discrepancy_exact(ps), reference(ps))

    def test_unpruned_tree_at_one_dimension(self):
        # The grid's N + 1 single corners are a level of the tree with at
        # most ``per`` = 1536 boxes, so the unbounded start reaches them and
        # one chunk bounds them all.
        n = 1000
        ps = lhs_sample(n, 1, derive(104, "wide-1d"))
        search = run_search(ps, _ChunkRecordingSearch)
        assert search.boxes_bounded == search.corners_scored == n + 1
        assert search.splits == [n + 1]
        check_against_replaced_kernels(ps)

    @pytest.mark.parametrize("n,d", [(1, 13), (2, 13), (65, 12), (2049, 7)])
    def test_children_of_one_box_outnumber_a_block(self, n, d):
        # The whole grid's 2**d children are more than a block of bitset
        # counts (4096 corners for N <= 64, 2048 for N <= 128 and 124 for
        # N = 2049), so a chunk splits one box and the workspace holds its
        # children.  The points tie on every axis but the first, which
        # keeps the grid small.
        coords = lhs_sample(n, d, derive(105, f"wide-{n}-{d}")).coords.copy()
        coords[:, 1:] = coords[0, 1:]
        ps = PointSet(coords)
        search = run_search(ps)
        assert search.per == 1 and search.scorer.block < 2**d
        check_against_replaced_kernels(ps)
        if n <= 2:
            assert_bit_equal(star_discrepancy_exact(ps), corner_by_corner_star_discrepancy(ps))


def full_chunk_sets():
    # LHS, uniform, Korobov and lattice sets at d = 1 to 4, the tie of
    # ``tie_across_blocks`` and sets whose points share an axis's largest
    # coordinate.
    lattice = Stream(derive(108, "full-chunks"))
    tied = []
    for n, d, j in ((40, 2, 0), (40, 3, 2), (200, 2, 1)):
        coords = lhs_sample(n, d, derive(108, f"largest-{n}-{d}")).coords.copy()
        coords[:n // 2 + 1, j] = coords[:, j].max()
        tied.append(PointSet(coords))
    sets = [lhs_sample(1000, 1, derive(108, "lhs-1")), uniform_sample(3000, 1, derive(108, "u-1")),
            lhs_sample(1000, 2, derive(108, "lhs-2")), uniform_sample(1500, 2, derive(108, "u-2")),
            lattice_pointset(lattice, 600, 2, 40), tie_across_blocks(),
            lhs_sample(128, 3, derive(108, "lhs-3")), uniform_sample(100, 3, derive(108, "u-3")),
            korobov(128, 25), lattice_pointset(lattice, 200, 3, 20),
            lhs_sample(16, 4, derive(108, "lhs-4")), uniform_sample(14, 4, derive(108, "u-4")),
            lattice_pointset(lattice, 24, 4, 5)] + tied
    ids = ["lhs-1000x1", "uniform-3000x1", "lhs-1000x2", "uniform-1500x2", "lattice-600x2",
           "tie-across-blocks", "lhs-128x3", "uniform-100x3", "korobov-128x3", "lattice-200x3",
           "lhs-16x4", "uniform-14x4", "lattice-24x4", "largest-40x2", "largest-40x3",
           "largest-200x2"]
    return [pytest.param(ps, id=i) for ps, i in zip(sets, ids)]


def grid_points(sizes):
    # Coordinates whose grid has ``sizes`` values per axis, 1.0 included:
    # point i takes the value min(i, n_j - 2) / n_j on axis j.
    n = max(sizes) - 1
    return PointSet(np.column_stack([np.minimum(np.arange(n), s - 2) / s for s in sizes]))


class TestFullChunks:
    """The frontier fills every chunk from the stack's top entries and
    starts from an unbounded level of the whole grid's halving tree: the
    result stays bit-equal (value, box bytes, side) to the references, and
    the work depends on the points, not on the order of their rows."""

    @pytest.mark.parametrize("ps", full_chunk_sets())
    def test_chunks_take_every_box_they_can(self, ps):
        # Each chunk takes ``per`` boxes whenever the frontier holds that
        # many at or above the floor, and else all of them.
        check_against_replaced_kernels(ps)
        search = run_search(ps, _ChunkRecordingSearch)
        assert search.splits == [min(search.per, held) for held in search.held]

    def test_chunks_reach_below_the_top_entry(self):
        # The top entry often holds fewer boxes than a chunk takes.
        for ps in (lhs_sample(1000, 2, derive(108, "lhs-2")), korobov(128, 25)):
            search = run_search(ps, _ChunkRecordingSearch)
            assert sum(m > top for m, top in zip(search.splits, search.top)) >= 3

    @pytest.mark.parametrize("ps", full_chunk_sets())
    def test_work_does_not_depend_on_the_order_of_the_rows(self, ps):
        search = run_search(ps, _ChunkRecordingSearch)
        stream = Stream(derive(108, "rows"))
        for order in (stream.permutation(ps.n_points), np.arange(ps.n_points)[::-1]):
            moved = run_search(PointSet(ps.coords[order]), _ChunkRecordingSearch)
            assert (moved.boxes_bounded, moved.corners_scored, moved.splits) == (
                search.boxes_bounded, search.corners_scored, search.splits)

    @pytest.mark.parametrize("sizes", [(2,), (5,), (1001,), (3,) * 2, (3201,) * 2, (2, 1000),
                                       (129,) * 3, (2, 7, 129), (5,) * 4, (2,) * 13])
    def test_start_is_the_deepest_level_within_a_chunk(self, sizes):
        # The start's boxes tile the grid; they are at most ``per``, and one
        # more halving would make more than ``per`` unless every box is a
        # single corner.  Its least extent is the boxes' own.
        class Start(discrepancy._BoxSearch):
            def _take(self, stack):
                self.start = stack.pop()
                return 0, 0

        search = run_search(grid_points(sizes), Start)
        assert (search.scorer.top + 1).tolist() == list(sizes)
        boxes, bound, low = search.start
        extent = boxes[1] - boxes[0]
        assert boxes.shape[2] <= search.per and np.isinf(bound).all()
        if np.prod(sizes) <= 1 << 16:
            cover = np.zeros(sizes, dtype=int)
            for lo, he in zip(boxes[0].T, boxes[1].T):
                cover[tuple(slice(a, b) for a, b in zip(lo, he))] += 1
            assert (cover == 1).all()
        else:
            assert extent.prod(axis=0).sum() == np.prod(sizes)
        halved = np.where(extent > 1, 2, 1).prod(axis=0).sum()
        assert halved > search.per or (extent == 1).all()
        assert low == extent.min()


class TestSameOrders:
    """Each faster sort returns the permutation of the stable sort it
    replaces."""

    KEYS = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 2.0**-1074, 0.25, 1.0, np.inf])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(KEYS | st.floats(allow_nan=False), max_size=300))
    def test_bound_order_is_the_stable_order(self, keys):
        keys = np.array(keys, dtype=np.float64)
        order, ordered = discrepancy._ascending(keys)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(order, expected)
        assert ordered.tobytes() == keys[expected].tobytes()

    @pytest.mark.parametrize("n", [100, 2048, 10000])
    def test_bound_order_of_many_ties(self, n):
        # Long runs of equal keys, -0.0 among 0.0 and both infinities,
        # past the sizes that the default sort handles by insertion.
        stream = Stream(derive(106, n))
        values = np.array([-np.inf, -0.0, 0.0, 0.5, np.inf])
        keys = values[stream.randbelow_block(len(values), n)]
        order, ordered = discrepancy._ascending(keys)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(order, expected)
        assert ordered.tobytes() == keys[expected].tobytes()

    def test_tied_bounds_are_sorted_stably(self, monkeypatch):
        # The search over korobov(128, 25) sorts kept children with tied
        # bounds (see its pinned counters).
        tied = []
        ascending = discrepancy._ascending

        def recording(keys):
            tied.append(len(np.unique(keys)) < keys.size)
            return ascending(keys)

        monkeypatch.setattr(discrepancy, "_ascending", recording)
        run_search(korobov(128, 25))
        assert 0 < sum(tied) < len(tied)

    @pytest.mark.parametrize("share", [1.0, 0.5])
    def test_plane_counts_with_wide_grids(self, share):
        # 70000 points, so that an axis has more than 2**16 grid values
        # and its grid indices sort as int32; with share 0.5 the first
        # axis has fewer and sorts as uint16.  Counts at random rows and
        # at the rows around 2**16 equal a brute-force count.
        n = 70000
        stream = Stream(derive(107, f"wide-{share}"))
        coords = uniform_sample(n, 2, derive(107, f"wide-{share}")).coords.copy()
        if share < 1.0:
            coords[:, 0] = np.floor(coords[:, 0] * 30000) / 30000
        scorer = discrepancy._CornerScorer(*discrepancy._grids(coords))
        assert max(len(g) for g in scorer.grids) > 1 << 16
        assert (min(len(g) for g in scorer.grids) < 1 << 16) == (share < 1.0)
        k = 256
        rows = scorer.block_rows(k)
        for side in rows:
            for j, top in enumerate(scorer.top):
                side[j] = stream.randbelow_block(int(top) + 2, k)
        edges = np.array([0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
        rows[0, 1, :edges.size] = np.minimum(edges, scorer.top[1] + 1)
        rows[1, 0, :edges.size] = np.minimum(edges, scorer.top[0] + 1)
        expected = [[np.count_nonzero(np.all(scorer.ranks < row, axis=1)) / n
                     for row in side.T] for side in rows]
        assert scorer.shares(rows).tolist() == expected


def assert_search_memory_bounded(ps):
    # The module's bound: a frontier of at most L * C boxes of 16 d + 8
    # bytes, and for d >= 3 bitset tables and rank maps and one chunk's
    # working arrays, four 64 KiB arrays and about 100 d bytes per child;
    # for d <= 2 the grids and grid indices, cum, word and rank maps per
    # chunk of points, and about 100 d + 100 bytes per child.  Nothing of
    # it may outlive the call.
    n, d = ps.coords.shape
    search = discrepancy._BoxSearch(*discrepancy._grids(ps.coords))
    chunk = max(search.scorer.block, 2**d)
    levels = max(int(np.ceil(np.log2(len(g)))) for g in search.grids)
    frontier = levels * chunk * (16 * d + 8)
    if d <= 2:
        sizes = [min(n - s, discrepancy._CHUNK_POINTS)
                 for s in range(0, n, discrepancy._CHUNK_POINTS)]
        planes = sum((s + 1) * (s // 64 + 2) * 2 + (s // 64 + 1) * 65 * 8 + 6 * (n + 1)
                     for s in sizes)
        bound = 16 * d * (n + 1) + planes + frontier + (100 * d + 100) * chunk
    else:
        tables = d * -(-n // 64) * 8 * (n + 1) + 2 * d * (n + 1)
        bound = tables + frontier + 4 * (1 << 16) + 100 * d * chunk
    star_discrepancy_exact(pset([0.5, 0.5, 0.5]))  # first-call imports
    tracemalloc.start()
    try:
        star_discrepancy_exact(ps)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert current < 1 << 16


class TestLowerEstimate:
    def test_never_exceeds_exact(self):
        stream = Stream(derive(71, "lower"))
        for _ in range(20):
            ps = random_pointset(stream)
            exact = star_discrepancy_exact(ps).value
            est, _ = star_discrepancy_lower_estimate(ps, budget=20, seed=5)
            assert est <= exact

    def test_origin_point_found(self):
        est, b = star_discrepancy_lower_estimate(pset([0.0]), budget=1, seed=0)
        assert est == 1.0
        assert b.upper.tolist() == [0.0]

    def test_point_box_is_built_from_grid_values(self):
        # -0.0 and 0.0 are one grid value.  The winning point corner is
        # (-0.0, 0.5), and its box takes the grid's zero, as the exact
        # kernel's does.
        ps = PointSet(np.array([[0.0, 0.25], [-0.0, 0.5]]))
        est, b = star_discrepancy_lower_estimate(ps, budget=1, seed=0)
        exact = star_discrepancy_exact(ps)
        assert est == exact.value == 1.0
        assert b.upper.tobytes() == exact.argmax_box.upper.tobytes()

    def test_monotone_in_budget(self):
        ps = uniform_sample(12, 2, seed=31)
        est5, _ = star_discrepancy_lower_estimate(ps, budget=5, seed=7)
        est50, _ = star_discrepancy_lower_estimate(ps, budget=50, seed=7)
        assert est50 >= est5
        # Past the first block the line corners share the blocks with the
        # random ones.
        for ps in (lhs_sample(128, 3, derive(31, "monotone-128x3")),
                   lhs_sample(3200, 2, derive(31, "monotone-3200x2"))):
            rows = block_rows(ps)
            estimates = [star_discrepancy_lower_estimate(ps, budget, seed=7)[0]
                         for budget in (rows - 1, rows, rows + 1, 3 * rows)]
            assert estimates == sorted(estimates)

    def test_extra_boxes_are_considered(self):
        ps = pset([0.0, 0.0])
        _, b = star_discrepancy_lower_estimate(
            ps, budget=1, seed=0, extra_boxes=[box(0.0, 0.0)]
        )
        est, _ = star_discrepancy_lower_estimate(ps, budget=1, seed=0)
        assert est == 1.0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            star_discrepancy_lower_estimate(pset([0.5]), budget=0)


def row_order_sets():
    # The pair 0.75, 0.25, and LHS, uniform and coarse-lattice sets (ties
    # and duplicate points) at d = 1, 2 and 3.
    sets = [pytest.param(pset([0.75], [0.25]), id="pair-1d")]
    for d in (1, 2, 3):
        stream = Stream(derive(100, f"order-lattice-{d}"))
        sets += [pytest.param(lhs_sample(40, d, derive(100, f"order-lhs-{d}")), id=f"lhs-{d}d"),
                 pytest.param(uniform_sample(40, d, derive(100, f"order-uniform-{d}")),
                              id=f"uniform-{d}d")]
        sets += [pytest.param(lattice_pointset(stream, n, d, m), id=f"lattice-{n}x{d}-{m}")
                 for n, m in ((40, 5), (12, 2))]
    # The sets above reach the exact value within three blocks of corners,
    # and their line corners fit in one block, which hides the order the
    # blocks are filled in; these two do neither.
    return sets + [pytest.param(lhs_sample(400, 3, derive(100, "order-lhs-400x3")),
                                id="lhs-400x3"),
                   pytest.param(uniform_sample(3200, 2, derive(100, "order-uniform-3200x2")),
                                id="uniform-3200x2")]


class TestRowOrder:
    """A point set is a multiset: the order of its rows never changes a
    certificate."""

    @pytest.mark.parametrize("ps", row_order_sets())
    def test_permuted_rows_give_the_same_certificate(self, ps):
        # Two seeded permutations, and the reversal, which moves every row
        # of the pair.
        stream = Stream(derive(100, "order"))
        n = ps.n_points
        exact = star_discrepancy_exact(ps)
        budgets = (1, 50, 3000, 3 * block_rows(ps))
        estimates = [star_discrepancy(ps, "estimate", budget, seed=3) for budget in budgets]
        for order in (stream.permutation(n), stream.permutation(n), np.arange(n)[::-1]):
            moved = PointSet(ps.coords[order])
            assert_bit_equal(star_discrepancy_exact(moved), exact)
            for budget, estimate in zip(budgets, estimates):
                assert_bit_equal(star_discrepancy(moved, "estimate", budget, seed=3), estimate)

    @pytest.mark.parametrize("ps", [p for p in row_order_sets() if p.values[0].dim == 1])
    def test_one_dimensional_estimate_is_exact(self, ps):
        # Every grid value but 1.0 is a point's own corner, and 1.0 has
        # value 0, so the points' corners alone are the full scan.
        exact = star_discrepancy_exact(ps)
        for budget in (1, 50, 3000):
            value, found = star_discrepancy_lower_estimate(ps, budget, seed=4)
            assert np.float64(value).tobytes() == np.float64(exact.value).tobytes()
            assert found.upper.tobytes() == exact.argmax_box.upper.tobytes()


def assert_estimate_bit_equal(ps, budget, seed=0, extra_boxes=()):
    value, found = star_discrepancy_lower_estimate(ps, budget, seed, extra_boxes)
    ref_value, ref_found = reference_star_discrepancy_lower_estimate(
        ps, budget, seed, extra_boxes, block=block_rows(ps))
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert found.upper.tobytes() == ref_found.upper.tobytes()
    return value, found


def block_rows(ps):
    # The corners the estimate scores at a time: the block of the scorer
    # built for ps.
    return discrepancy._CornerScorer(*discrepancy._grids(ps.coords)).block


class TestLowerEstimateAgainstScalarEstimator:
    """Bit-equality (value, box bytes) with the box-at-a-time reference
    estimator, which takes the exact kernel's tie rule and the extra boxes'
    grid corners (see ``oracles``)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_samples_over_small_budgets(self, sampler, d):
        for n in (1, 5, 40, 128):
            ps = sampler(n, d, derive(derive(d, n), "estimate"))
            for budget in (1, 7, 600):
                assert_estimate_bit_equal(ps, budget, seed=n + budget)

    @pytest.mark.parametrize("n,d", [(40, 1), (40, 3), (128, 2), (128, 4), (3200, 2)])
    def test_budgets_around_the_block_size(self, n, d):
        ps = lhs_sample(n, d, derive(90, f"block-{n}-{d}"))
        rows = block_rows(ps)
        for budget in (rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows):
            assert_estimate_bit_equal(ps, budget, seed=budget)

    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_benchmark_shape(self, sampler):
        # d = 3, N = 128, budget 12000: 6 blocks of 2048 corners, the first
        # random, the others opening with the line corners of the best.
        ps = sampler(128, 3, derive(91, "shape"))
        assert_estimate_bit_equal(ps, 12000, seed=4)

    @pytest.mark.parametrize("sampler,value,upper", [
        (lhs_sample, "0x1.2d8ad7cf04bb0p-4",
         ["0x1.fb9cf87b38ba5p-2", "0x1.21e374ebeb581p-1", "0x1.974474cce8b15p-1"]),
        (uniform_sample, "0x1.b38688e9c1970p-4",
         ["0x1.e74d3c6237d30p-1", "0x1.4e9499d134580p-1", "0x1.0000000000000p+0"]),
    ])
    def test_benchmark_shape_pinned(self, sampler, value, upper):
        # Every axis of these sets has the same grid size, so the random
        # corners are the draws of one randbelow per axis and corner.  The
        # line corners climb to the exact value, which both estimates reach.
        ps = sampler(128, 3, derive(91, "shape"))
        found_value, found = star_discrepancy_lower_estimate(ps, 12000, 4)
        assert found_value.hex() == value
        assert [x.hex() for x in found.upper.tolist()] == upper
        ref_value, _ = reference_star_discrepancy_lower_estimate(ps, 12000, 4,
                                                                 block=block_rows(ps))
        assert found_value == ref_value == star_discrepancy_exact(ps).value

    def test_extra_boxes_tie_and_win(self):
        ps = lhs_sample(40, 2, derive(92, "extra"))
        value, winner = star_discrepancy_lower_estimate(ps, 1, 3)
        # A copy of the winning corner ties with it, in either order, and
        # the box returned is still the grid corner's, not the copy.
        tie = AnchoredBox(winner.upper)
        for extra in ([box(0.5, 0.5), tie], [tie, box(0.5, 0.5)], [box(0.0, 0.0)]):
            found_value, found = assert_estimate_bit_equal(ps, 1, 3, extra)
            assert found_value == value and found is not tie
            assert found.upper.tobytes() == winner.upper.tobytes()
        # The exact maximizer moved one ulp off the grid, to the side that
        # keeps its count, wins as the grid corner it came from.
        exact = star_discrepancy_exact(ps)
        assert exact.value > value
        off = AnchoredBox(np.nextafter(exact.argmax_box.upper, 1.0 if exact.closed_sided else 0.0))
        assert off.upper.tobytes() != exact.argmax_box.upper.tobytes()
        found_value, found = assert_estimate_bit_equal(ps, 1, 3, [box(0.5, 0.5), off])
        assert found_value == exact.value
        assert found.upper.tobytes() == exact.argmax_box.upper.tobytes()

    def test_extra_boxes_over_several_blocks(self):
        ps = uniform_sample(3200, 2, derive(93, "many-extra"))
        stream = Stream(derive(93, "extra-boxes"))
        extra = [AnchoredBox(stream.uniform_block(2)) for _ in range(3 * block_rows(ps) + 5)]
        assert_estimate_bit_equal(ps, 50, 1, extra)
        assert_estimate_bit_equal(ps, 50, 1, extra + [AnchoredBox(np.zeros(2))])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coarse_lattices_of_different_grid_sizes(self, d):
        # Coordinates on {0, 1/m_j, ...} with a different m_j per axis: the
        # grid sizes differ across axes, with ties and duplicate points.
        stream = Stream(derive(94, f"mixed-lattice-{d}"))
        for sizes in ([1, 2, 3, 5][:d], [8, 3, 1, 2][:d], [5, 8, 2, 3][:d]):
            for n in (1, 6, 30, 200):
                coords = np.array([[stream.randbelow(m) / m for m in sizes] for _ in range(n)])
                for budget in (1, 9, 700):
                    assert_estimate_bit_equal(PointSet(coords), budget, seed=n)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_small_sets_property(self, data):
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 12))
        value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                          st.floats(0.0, 1.0, exclude_max=True))
        coords = data.draw(st.lists(value, min_size=n * d, max_size=n * d))
        corner = st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                    st.floats(0.0, 1.0)), min_size=d, max_size=d)
        extra = [AnchoredBox(np.array(c)) for c in data.draw(st.lists(corner, max_size=3))]
        budget = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**64 - 1))
        assert_estimate_bit_equal(PointSet(np.array(coords).reshape(n, d)), budget, seed, extra)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_extra_boxes_enter_as_grid_corners(self, data):
        # Whatever the extra boxes, the value is at least each box's own
        # value and the value without them, at most the exact value, and
        # the box is a grid corner.  A box's components are drawn from 0.0,
        # 1.0, half the smallest coordinate, each coordinate and one ulp
        # either side of it, and any float in [0, 1].
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 12))
        value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                          st.floats(0.0, 1.0, exclude_max=True))
        ps = PointSet(np.array(data.draw(st.lists(value, min_size=n * d, max_size=n * d)))
                      .reshape(n, d))
        grids = [np.append(np.unique(column), 1.0) for column in ps.coords.T]
        edges = [[0.0, 1.0, column.min() / 2]
                 + [float(y) for x in column for y in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))]
                 for column in ps.coords.T]
        corner = st.tuples(*(st.one_of(st.sampled_from(e), st.floats(0.0, 1.0)) for e in edges))
        extra = [AnchoredBox(np.array(c)) for c in data.draw(st.lists(corner, max_size=3))]
        budget = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**64 - 1))
        found_value, found = assert_estimate_bit_equal(ps, budget, seed, extra)
        assert found_value >= star_discrepancy_lower_estimate(ps, budget, seed)[0]
        for b in extra:
            vol = box_volume(b)
            assert found_value >= max(count_closed(ps, b) / n - vol, vol - count_open(ps, b) / n)
        assert found_value <= star_discrepancy_exact(ps).value
        assert all(y in grid for y, grid in zip(found.upper, grids))

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_word_edges(self, n, d):
        # One bit per point: the last word of a chunk is full, holds one
        # point, or is one short.
        for sampler in (lhs_sample, uniform_sample):
            ps = sampler(n, d, derive(96, f"words-{n}-{d}"))
            for budget in (1, 300):
                assert_estimate_bit_equal(ps, budget, seed=n + budget)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_chunk_edges(self, sampler, offset):
        # N one below, at and one above the chunk size.  Above it, the first
        # chunk lacks one grid value and the second holds one point, so
        # both need a rank map.
        n = discrepancy._CHUNK_POINTS + offset
        ps = sampler(n, 2, derive(97, f"chunk-{n}"))
        assert_estimate_bit_equal(ps, 200, seed=n)

    def test_duplicates_straddle_word_and_chunk_boundaries(self):
        # A value shared by points on both sides of a word (or chunk)
        # boundary, one shared by every seventh point, and a coarse lattice
        # spread over two chunks: each chunk needs a rank map.
        stream = Stream(derive(98, "straddle"))
        for n, lo, hi in ((130, 60, 70), (130, 120, 130), (4100, 4090, 4100)):
            coords = stream.uniform_block(n * 3).reshape(n, 3)
            coords[lo:hi, 0] = coords[lo, 0]
            coords[lo - 5:hi, 1] = 0.0
            coords[::7, 2] = 0.5
            assert_estimate_bit_equal(PointSet(coords), 300, seed=n)
        coords = np.array([[stream.randbelow(3) / 3, stream.randbelow(5) / 5]
                           for _ in range(4100)])
        assert_estimate_bit_equal(PointSet(coords), 300, seed=1)
        # d = 2: the plane counts cut the points in last-axis order, so the
        # shared values straddle sorted positions, on both axes.
        stream = Stream(derive(98, "straddle-2d"))
        for n, lo, hi in ((130, 60, 70), (130, 120, 130), (4100, 4090, 4100)):
            coords = stream.uniform_block(n * 2).reshape(n, 2)
            tie_sorted_positions(coords, lo, hi)
            assert_estimate_bit_equal(PointSet(coords), 300, seed=n)

    @pytest.mark.parametrize("n", [65, discrepancy._CHUNK_POINTS + 1])
    def test_extra_boxes_off_the_grid(self, n):
        # Extra boxes with components at 0.0 and 1.0, between grid values,
        # and one ulp on either side of a point's coordinate.
        ps = uniform_sample(n, 3, derive(99, f"off-grid-{n}"))
        stream = Stream(derive(99, f"off-grid-boxes-{n}"))
        x = ps.coords[n // 2]
        extra = [box(0.0, 0.0, 0.0), box(1.0, 1.0, 1.0), box(0.0, 1.0, 0.5),
                 box(1.0, x[1], 0.0), AnchoredBox(np.nextafter(x, 0.0)),
                 AnchoredBox(np.nextafter(x, 1.0)), AnchoredBox(x)]
        extra += [AnchoredBox(stream.uniform_block(3)) for _ in range(20)]
        _, winner = star_discrepancy_lower_estimate(ps, 1, seed=2)
        extra += [AnchoredBox(np.nextafter(winner.upper, 0.0)),
                  AnchoredBox(np.nextafter(winner.upper, 1.0))]
        for boxes in (extra, extra[::-1]):
            assert_estimate_bit_equal(ps, 1, 2, boxes)

    def test_memory_is_bounded_by_the_block(self):
        # A 128 x 3 call with budget 12000 never holds an array the size of
        # the budget: 2 x 64 KiB of block buffers and 6 KiB of bitset
        # tables, plus one block of 2048 corners with their rows and draws.
        ps = lhs_sample(128, 3, derive(95, "memory"))
        star_discrepancy_lower_estimate(ps, 1)  # first-call imports
        tracemalloc.start()
        try:
            star_discrepancy_lower_estimate(ps, 12000, seed=1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert current < 1 << 16

    def test_memory_is_linear_in_the_points(self):
        # The docstring's bound at N = 20000, d = 2: per chunk of s points
        # the planes, cum and word (about 130 bytes per point), and two
        # int32 rank maps of N + 2 rows; the grids and the grid indices,
        # about 12 d N bytes; the scorer's workspace and a block's volumes,
        # 96 bytes per corner of a block at d = 2 (at most 17 d + 67); and
        # the set-up's temporaries (sorts and the rank maps' sums), a few
        # words per point.
        # Bitset tables would take d * N * 4096 / 8 = 20 MB, and unchunked
        # ones N**2 / 8 = 50 MB per axis.
        # Past the first block the line corners through the best corner,
        # d (N + 1) of them, are made a block at a time, so three blocks
        # keep the bound.
        n, d = 20000, 2
        ps = uniform_sample(n, d, derive(95, "linear-memory"))
        sizes = [min(n - s, discrepancy._CHUNK_POINTS)
                 for s in range(0, n, discrepancy._CHUNK_POINTS)]
        planes = sum((s + 1) * ((s // 64 + 5) & -4) * 2 + (s // 64 + 1) * 65 * 8 + 8 * (n + 2)
                     for s in sizes)
        workspace = (17 * d + 67) * block_rows(ps)
        star_discrepancy_lower_estimate(pset([0.5]), 1)  # first-call imports
        for budget in (100, 3 * block_rows(ps)):
            tracemalloc.start()
            try:
                star_discrepancy_lower_estimate(ps, budget, seed=1)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < planes + 12 * d * n + workspace + 32 * n
            assert current < 1 << 16

    @pytest.mark.parametrize("d", [40, 64])
    def test_memory_does_not_grow_with_the_corners_of_a_box(self, d):
        # The estimate never opens a frontier, so its workspace holds one
        # block of corners, not one box's 2**d children: at most 17 d + 67
        # bytes per corner of a block, and 64 KiB for the tables and draws.
        ps = lhs_sample(3, d, derive(95, f"high-dimension-{d}"))
        star_discrepancy_lower_estimate(pset([0.5]), 1)  # first-call imports
        tracemalloc.start()
        try:
            value, _ = star_discrepancy_lower_estimate(ps, 50, seed=1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value >= 1 / 3
        assert peak < (17 * d + 67) * block_rows(ps) + (1 << 16)
        assert current < 1 << 16

    def test_extra_box_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            star_discrepancy_lower_estimate(pset([0.5, 0.5]), 1, extra_boxes=[box(0.5)])


def climb_sets():
    # Several centers climb in each block (W = B // L of 33, 5 and 3) in the
    # samples at d = 3 and 4.  At 3200 x 2 (L = 6402 > B = 2048) one
    # center's lines span blocks, and the uniform set's first center is
    # still the best when the third block opens, so its lines resume at
    # 2048.  In the mirrored set each point's mirror image (y, x) is a
    # point too, so the corners tie in pairs, and the tie rule picks the
    # center.  The lattice's 216 grid corners run the pool dry.
    sets = [pytest.param(sampler(n, d, derive(88, f"climb-{n}x{d}")),
                         id=f"{sampler.__name__.split('_')[0]}-{n}x{d}")
            for n, d in ((40, 3), (128, 3), (128, 4), (3200, 2))
            for sampler in (lhs_sample, uniform_sample)]
    half = Stream(derive(86, "mirror-1600x2")).uniform_block(3200).reshape(1600, 2)
    lattice = np.array([[i % 5 / 5, i % 8 / 8, i % 3 / 3] for i in range(200)])
    return sets + [pytest.param(PointSet(np.concatenate((half, half[:, ::-1]))),
                                id="mirrored-3200x2"),
                   pytest.param(PointSet(lattice), id="lattice-200x3")]


class TestClimbSchedule:
    """Past the first block, each block opens with the pending lines of up
    to W = max(1, B // L) centers, the pool's best unclimbed corners."""

    @pytest.mark.parametrize("ps", climb_sets())
    def test_budgets_around_the_block(self, ps):
        rows = block_rows(ps)
        lines = sum(len(np.unique(column)) + 1 for column in ps.coords.T)
        assert rows // lines >= 3 or lines > rows
        budgets = (rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows)
        found = [assert_estimate_bit_equal(ps, budget, seed=6) for budget in budgets]
        values = [value for value, _ in found]
        assert values == sorted(values)
        assert values[-1] <= star_discrepancy_exact(ps).value
        # The pool and the records go by value and grid corner, so the
        # order of the rows changes nothing.
        stream = Stream(derive(88, "climb-order"))
        for order in (stream.permutation(ps.n_points), np.arange(ps.n_points)[::-1]):
            moved = PointSet(ps.coords[order])
            for budget, (value, found_box) in zip(budgets, found):
                moved_value, moved_box = star_discrepancy_lower_estimate(moved, budget, seed=6)
                assert np.float64(moved_value).tobytes() == np.float64(value).tobytes()
                assert moved_box.upper.tobytes() == found_box.upper.tobytes()

    @pytest.mark.parametrize("ps", climb_sets())
    def test_blocks_are_the_reference_blocks(self, ps, monkeypatch):
        # Corner for corner, in order: the lines of each center, then the
        # random corners, block by block.
        seeded = []
        seed = discrepancy._BoxSearch.seed

        def recording_seed(search, corners, *args):
            seeded.append([tuple(c) for c in corners.T.tolist()])
            return seed(search, corners, *args)

        monkeypatch.setattr(discrepancy._BoxSearch, "seed", recording_seed)
        rows = block_rows(ps)
        star_discrepancy_lower_estimate(ps, 6 * rows, seed=6)
        blocks = []
        reference_star_discrepancy_lower_estimate(ps, 6 * rows, 6, block=rows, blocks=blocks)
        assert seeded[-6:] == blocks

    @pytest.mark.parametrize("sampler,n,d,budget,value,upper", [
        (lhs_sample, 128, 3, 1, "0x1.580631290da40p-5",
         ["0x1.193cae88a65a7p-1", "0x1.307113c21689fp-1", "0x1.d5f9ebadb4710p-1"]),
        (lhs_sample, 128, 3, -1, "0x1.be1b68cd487f8p-5",
         ["0x1.86aae4d0ead5ap-2", "0x1.6f8fda7ca3762p-1", "0x1.febb5998520e2p-1"]),
        (lhs_sample, 128, 3, 0, "0x1.be1b68cd487f8p-5",
         ["0x1.86aae4d0ead5ap-2", "0x1.6f8fda7ca3762p-1", "0x1.febb5998520e2p-1"]),
        (uniform_sample, 128, 4, 1, "0x1.04578bc0fc710p-4",
         ["0x1.e6ba54e9934d6p-1", "0x1.8c22be8b93f5bp-1", "0x1.98a2251e1df3cp-1",
          "0x1.31b541a69aebfp-1"]),
        (uniform_sample, 128, 4, 0, "0x1.79ed31530ab44p-4",
         ["0x1.9496488e5c0ebp-1", "0x1.e1dc49c4190a2p-1", "0x1.eff40fdc92fe8p-2",
          "0x1.e685353b4abdep-1"]),
        (uniform_sample, 3200, 2, 0, "0x1.60945637efe00p-6",
         ["0x1.7ecc6c20331bfp-1", "0x1.5f6c0c99770e6p-1"]),
        (lhs_sample, 40, 3, -1, "0x1.07ff1c91005e4p-3",
         ["0x1.0cf52407ab07bp-1", "0x1.a6993cb116ef8p-1", "0x1.4020211aacb8bp-1"]),
        (lhs_sample, 40, 3, 0, "0x1.07ff1c91005e4p-3",
         ["0x1.0cf52407ab07bp-1", "0x1.a6993cb116ef8p-1", "0x1.4020211aacb8bp-1"]),
    ])
    def test_one_block_is_random_corners_only(self, sampler, n, d, budget, value, upper):
        # A budget of at most B (1, or B plus -1 or 0) draws one block of
        # random corners and climbs no lines: the values and boxes pinned
        # here are those of the estimate that climbed from one corner only.
        ps = sampler(n, d, derive(89, f"first-block-{n}x{d}"))
        if budget < 1:
            budget += block_rows(ps)
        found_value, found = star_discrepancy_lower_estimate(ps, budget, seed=5)
        assert found_value.hex() == value
        assert [x.hex() for x in found.upper.tolist()] == upper


class TestDispatch:
    """star_discrepancy against direct kernel calls, bit for bit."""

    @staticmethod
    def assert_dispatch_equal(cert, ref, kind):
        assert_bit_equal(cert, ref)
        assert cert.kind == ref.kind == kind

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_exact_methods(self, sampler, d):
        for n in (1, 5, 24):
            ps = sampler(n, d, derive(derive(d, n), "dispatch"))
            self.assert_dispatch_equal(star_discrepancy(ps), star_discrepancy_exact(ps),
                                       "exact")
            self.assert_dispatch_equal(star_discrepancy(ps, "exact", budget=10**6),
                                       star_discrepancy_exact(ps, 10**6), "exact")
            if d == 2:
                self.assert_dispatch_equal(star_discrepancy(ps, "exact2d"),
                                           star_discrepancy_exact_2d(ps), "exact")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [lhs_sample, uniform_sample])
    def test_estimate(self, sampler, d):
        for n in (1, 5, 40):
            ps = sampler(n, d, derive(derive(d, n), "dispatch-estimate"))
            extra = [AnchoredBox(np.full(d, 0.5)), AnchoredBox(ps.coords[0])]
            for budget in (1, 7, 600):
                for boxes in ((), extra):
                    cert = star_discrepancy(ps, "estimate", budget, n + budget, boxes)
                    value, found = star_discrepancy_lower_estimate(
                        ps, budget, n + budget, boxes)
                    self.assert_dispatch_equal(
                        cert, DiscrepancyCertificate(value, found, None), "lower-bound")
            value, found = star_discrepancy_lower_estimate(ps, 1000, 0)
            self.assert_dispatch_equal(star_discrepancy(ps, "estimate"),
                                       DiscrepancyCertificate(value, found, None),
                                       "lower-bound")

    @pytest.mark.parametrize("method,budget", [("exact2d", 3), ("sobol", None),
                                               ("Exact", None)])
    def test_method_errors(self, method, budget):
        with pytest.raises(MethodError):
            star_discrepancy(pset([0.5, 0.5]), method, budget)

    def test_kernels_are_looked_up_at_call_time(self, monkeypatch):
        ps = lhs_sample(8, 2, 3)
        seen = []

        def spy(name):
            real = getattr(discrepancy, name)

            def kernel(*args, **kwargs):
                seen.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(discrepancy, name, kernel)

        for name in ("star_discrepancy_exact", "star_discrepancy_exact_2d",
                     "star_discrepancy_lower_estimate"):
            spy(name)
        for method in discrepancy.METHODS:
            star_discrepancy(ps, method)
        assert seen == ["star_discrepancy_exact", "star_discrepancy_exact_2d",
                        "star_discrepancy_lower_estimate"]


def test_lhs_2d_pipeline_agreement():
    # Witness-scale smoke: generic and sweep agree on a small Latin sample.
    ps = lhs_sample(64, 2, seed=10)
    assert star_discrepancy_exact(ps).value == star_discrepancy_exact_2d(ps).value


def test_exact_matches_naive_product_loop_d3():
    # Naive reimplementation: evaluate both sides at every critical-grid
    # corner via itertools.product and the public counting functions, with
    # the same tie rules and scan order.  Values, boxes, and sides must
    # match bit for bit.
    import itertools

    stream = Stream(derive(89, "naive"))
    for _ in range(15):
        n = 1 + stream.randbelow(6)
        ps = PointSet(stream.uniform_block(n * 3).reshape(n, 3))
        grids = [sorted(set(ps.coords[:, j])) + [1.0] for j in range(3)]
        best_val = -np.inf
        best_box = None
        best_closed = None
        for corner in itertools.product(*grids):
            b = box(*corner)
            vol = box_volume(b)
            d_plus = count_closed(ps, b) / n - vol
            d_minus = vol - count_open(ps, b) / n
            cand, closed = (d_plus, True) if d_plus >= d_minus else (d_minus, False)
            if cand > best_val:
                best_val, best_box, best_closed = cand, b, closed
        cert = star_discrepancy_exact(ps)
        assert cert.value == best_val
        assert np.array_equal(cert.argmax_box.upper, best_box.upper)
        assert cert.closed_sided == best_closed


def test_exact_d1_matches_sorted_points_formula():
    # In one dimension the supremum has the classical closed form
    # max_i max((i+1)/N - x_(i), x_(i) - i/N) over the sorted points.
    stream = Stream(derive(88, "d1"))
    for trial in range(50):
        n = 1 + stream.randbelow(40)
        values = stream.uniform_block(n)
        if trial % 5 == 0 and n > 1:
            values[1] = values[0]  # exercise duplicates
        ps = PointSet(values.reshape(n, 1))
        xs = np.sort(values)
        formula = max(
            max((i + 1) / n - xs[i], xs[i] - i / n) for i in range(n)
        )
        assert star_discrepancy_exact(ps).value == pytest.approx(formula, abs=1e-15)
