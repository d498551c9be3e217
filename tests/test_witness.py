import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lhsdisc.discrepancy import (
    AnchoredBox,
    DimensionMismatch,
    box_volume,
    count_open,
    star_discrepancy_exact_2d,
)
from lhsdisc.points import ONE_BELOW, PointSet
from lhsdisc.rng import derive
from lhsdisc.sampling import lhs_sample, uniform_sample
from lhsdisc.witness import (
    NoAdmissibleC,
    NotLatinWarning,
    PreconditionViolated,
    _shrinks,
    build_witness,
    compute_slab_constant,
    theory_constants,
    witness_lower_bound,
)

from oracles import box_excess_frac, floor_double, witness_bound_frac, witness_shrinks_frac


def largest_admissible_k(n_points, dim):
    # Independent enumeration: integers k with N/(84 d) < k <= N/(80 d).
    ks = [k for k in range(1, n_points + 1)
          if 84 * dim * k > n_points and 80 * dim * k <= n_points]
    return max(ks) if ks else None


class TestSlabConstant:
    def test_n3200_d2(self):
        sc = compute_slab_constant(3200, 2)
        assert sc.k_int == 20 == largest_admissible_k(3200, 2)
        assert sc.c == 40 / 3200 == 0.0125

    def test_n5040_d3(self):
        sc = compute_slab_constant(5040, 3)
        assert sc.k_int == 21 == largest_admissible_k(5040, 3)
        assert sc.c == 63 / 5040

    def test_no_admissible_c_small_instance(self):
        assert largest_admissible_k(100, 2) is None
        with pytest.raises(NoAdmissibleC):
            compute_slab_constant(100, 2, strict=False)

    def test_strict_gate(self):
        with pytest.raises(PreconditionViolated):
            compute_slab_constant(3040, 2, strict=True)
        # Same instance passes when forced: 19 lies in (3040/168, 3040/160].
        sc = compute_slab_constant(3040, 2, strict=False)
        assert sc.k_int == 19 == largest_admissible_k(3040, 2)

    def test_dimension_one_rejected(self):
        with pytest.raises(PreconditionViolated):
            compute_slab_constant(3200, 1)

    def test_matches_enumeration_across_regime(self):
        for d in (2, 3, 4, 7):
            for n_over_d in (1600, 1601, 1655, 1680, 1681, 2000, 4000):
                n = n_over_d * d
                sc = compute_slab_constant(n, d)
                assert sc.k_int == largest_admissible_k(n, d)
                assert 1 / 84 < sc.c <= 1 / 80
                assert sc.k_int >= 20

    def test_c_interval_membership_nonstrict(self):
        for n, d in [(200, 2), (500, 3), (1234, 2)]:
            k = largest_admissible_k(n, d)
            if k is None:
                with pytest.raises(NoAdmissibleC):
                    compute_slab_constant(n, d, strict=False)
            else:
                assert compute_slab_constant(n, d, strict=False).k_int == k


class TestTheoryConstants:
    def test_values_at_c_1_over_80(self):
        sc = compute_slab_constant(3200, 2)
        tc = theory_constants(sc)
        v = 0.2 * (1 - 0.0125 / 2) ** 2
        assert tc.v == pytest.approx(v, rel=1e-15)
        assert tc.v == pytest.approx(0.19750781, rel=1e-7)
        assert tc.K == pytest.approx(math.sqrt(0.0125 * v**3) / 80, rel=1e-15)
        assert tc.K == pytest.approx(1.2266e-4, rel=1e-3)
        assert tc.expectation_const == pytest.approx(
            math.sqrt(0.0125 * v**3) / (32 * math.sqrt(2)), rel=1e-15)

    def test_v_floor_over_admissible_range(self):
        # v is decreasing in c, so the floor is attained at c = 1/80.
        for c in (1 / 84 + 1e-9, 0.012, 1 / 80):
            assert 0.2 * (1 - c / 2) ** 2 >= 1 / 6


class TestBuildWitness:
    def test_stripe_excess_zero_and_slab_counts(self):
        sc = compute_slab_constant(3200, 2)
        for i in range(5):
            ps = lhs_sample(3200, 2, derive(50, i))
            trace = build_witness(ps, sc)
            assert abs(trace.stripe_excess) <= 1e-9
            assert trace.stripe_count == 3200 // 4
            for step in trace.steps:
                in_slab = int((ps.coords[:, step.j - 1] >= sc.shrink_coord).sum())
                assert in_slab == sc.k_int

    def test_excess_recursion_identities(self):
        sc = compute_slab_constant(6400, 4)
        tc = theory_constants(sc)
        shrink_gain = math.sqrt(sc.c * tc.v) / 2 * math.sqrt(6400 / 4)
        for i in range(10):
            ps = lhs_sample(6400, 4, derive(51, i))
            trace = build_witness(ps, sc)
            prev = trace.stripe_excess
            for step in trace.steps:
                if step.eta:
                    assert step.excess >= (1 - sc.c / 4) * prev + shrink_gain - 1e-9
                else:
                    assert step.excess == prev
                assert step.excess >= -1e-9
                prev = step.excess

    def test_p_and_volume_ranges(self):
        sc = compute_slab_constant(6400, 4)
        tc = theory_constants(sc)
        for i in range(10):
            ps = lhs_sample(6400, 4, derive(52, i))
            trace = build_witness(ps, sc)
            for step in trace.steps:
                assert tc.v - 1e-12 <= step.p <= 0.25 + 1e-12
                assert tc.v - 1e-12 <= step.volume <= 0.25 + 1e-12
                npq = sc.k_int * step.p * (1 - step.p)
                assert npq >= 2.5 - 1e-9

    def test_final_excess_bound(self):
        sc = compute_slab_constant(6400, 4)
        tc = theory_constants(sc)
        for i in range(10):
            ps = lhs_sample(6400, 4, derive(53, i))
            trace = build_witness(ps, sc)
            floor = 2.5 * math.sqrt(sc.c * tc.v**3) * trace.k_count * math.sqrt(6400 / 4)
            assert trace.final_excess >= floor - 1e-9

    def test_eta_matches_threshold_rule(self):
        sc = compute_slab_constant(6400, 4)
        ps = lhs_sample(6400, 4, derive(54, 0))
        trace = build_witness(ps, sc)
        for step in trace.steps:
            assert step.eta == (1 if step.y_count <= step.threshold else 0)
            assert step.x == (sc.shrink_coord if step.eta else 1.0)
        assert trace.k_count == sum(step.eta for step in trace.steps)

    def test_deterministic_pure_function(self):
        sc = compute_slab_constant(3200, 2)
        ps = lhs_sample(3200, 2, derive(55, 0))
        t1 = build_witness(ps, sc)
        t2 = build_witness(ps, sc)
        assert t1.final_excess == t2.final_excess
        assert t1.steps == t2.steps

    def test_lower_bound_vs_exact_2d(self):
        sc = compute_slab_constant(3200, 2)
        for i in range(5):
            ps = lhs_sample(3200, 2, derive(56, i))
            trace = build_witness(ps, sc)
            lb = witness_lower_bound(trace)
            assert lb <= star_discrepancy_exact_2d(ps).value

    def test_non_latin_input_warns_not_raises(self):
        sc = compute_slab_constant(3200, 2, strict=False)
        ps = uniform_sample(3200, 2, seed=6)
        with pytest.warns(NotLatinWarning):
            trace = build_witness(ps, sc)
        assert witness_lower_bound(trace) >= 0.0

    def test_dimension_mismatch(self):
        sc = compute_slab_constant(3200, 2)
        ps = lhs_sample(3200, 3, seed=1)
        with pytest.raises(DimensionMismatch):
            build_witness(ps, sc)

    def test_witness_lower_bound_clamps_negative(self):
        sc = compute_slab_constant(3200, 2)
        ps = lhs_sample(3200, 2, derive(57, 0))
        trace = build_witness(ps, sc)
        # The bound reads the exact excess, as (numerator, denominator).
        trace.final_excess_ratio = (0, 1)
        assert witness_lower_bound(trace) == 0.0
        trace.final_excess_ratio = (-3, 1)
        assert witness_lower_bound(trace) == 0.0
        # 1/3200 rounds up to nearest, so the bound is the double below it.
        trace.final_excess_ratio = (1, 1)
        assert Fraction(1 / 3200) > Fraction(1, 3200)
        assert witness_lower_bound(trace) == floor_double(Fraction(1, 3200))

    def test_stripe_interval_for_small_n(self):
        # floor(N/4)/N sits in (1/5, 1/4] once N >= 20.
        for n in range(20, 200):
            stripe = (n // 4) / n
            assert 0.2 < stripe <= 0.25

    def test_counts_match_naive_membership_loops(self):
        # Re-derive every W_j, Y_j, eta_j with direct per-point loops over
        # the literal box and slab definitions; the vectorized construction
        # must agree exactly.  N = 500, d = 3 admits c = 6/500 (non-strict).
        sc = compute_slab_constant(500, 3, strict=False)
        for s in range(3):
            ps = lhs_sample(500, 3, derive(58, s))
            trace = build_witness(ps, sc)
            n, d = ps.n_points, ps.dim
            xs = [(n // 4) / n] + [1.0] * (d - 1)
            for step in trace.steps:
                j = step.j
                inside = [p for p in ps.coords
                          if all(p[i] < xs[i] for i in range(d))]
                w = len(inside)
                y = sum(1 for p in inside if p[j - 1] >= sc.shrink_coord)
                assert step.w_count == w
                assert step.y_count == y
                mean = sc.k_int * (w / n)
                assert step.eta == (1 if y <= mean - math.sqrt(mean) / 2 else 0)
                if step.eta:
                    xs[j - 1] = sc.shrink_coord
            final_count = sum(1 for p in ps.coords
                              if all(p[i] < xs[i] for i in range(d)))
            exact = final_count - n * math.prod(Fraction(x) for x in xs)
            assert trace.final_excess == floor_double(exact)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_final_excess_is_the_last_steps(self, d):
        # Each step's excess is the largest double at or below its box's
        # exact excess, and the last step's is the final box's, for strict
        # and non-strict slab constants.
        for n, strict in ((1600 * d, True), (82 * d, False)):
            sc = compute_slab_constant(n, d, strict=strict)
            for sampler in (lhs_sample, uniform_sample):
                for s in range(2):
                    ps = sampler(n, d, derive(59, f"{d}-{n}-{s}"))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", NotLatinWarning)
                        trace = build_witness(ps, sc)
                    # Each step's running volume and count are its box's.
                    xs = [trace.stripe_upper] + [1.0] * (d - 1)
                    for step in trace.steps:
                        xs[step.j - 1] = step.x
                        box = AnchoredBox(xs)
                        assert (np.float64(step.volume).tobytes()
                                == np.float64(box_volume(box)).tobytes())
                        assert step.w_count - step.eta * step.y_count == count_open(ps, box)
                        assert step.excess == floor_double(box_excess_frac(ps.coords, xs))
                    assert np.array_equal(trace.final_box.upper, xs)
                    assert (np.float64(trace.final_excess).tobytes()
                            == np.float64(trace.steps[-1].excess).tobytes())

    @pytest.mark.parametrize("n,d", [(6400, 4), (3200, 2), (4800, 3),
                                     (7840, 2), (16000, 2), (12800, 8)])
    def test_bound_is_the_largest_double_below_the_exact_value(self, n, d):
        # The paper's shapes.  N * vol cancels against the count, so an
        # excess computed in binary64 lies above the exact one on 33 of
        # these 150 inputs.
        sc = compute_slab_constant(n, d)
        for s in range(25):
            ps = lhs_sample(n, d, s)
            trace = build_witness(ps, sc)
            bound = witness_lower_bound(trace)
            exact = witness_bound_frac(ps.coords, trace.final_box.upper)
            assert Fraction(bound) <= exact < Fraction(math.nextafter(bound, math.inf))
            assert trace.final_excess == floor_double(box_excess_frac(ps.coords, trace.final_box.upper))

    def test_first_step_shrink_rate_matches_hypergeometric_law(self):
        # For d = 2 the stripe holds W = 800 of N = 3200 points and the
        # slab draws n = 20 of them without replacement, so the shrink
        # indicator fires with probability P(Y <= threshold) under
        # H(3200, 800, 20).  Empirical rate must sit in the 3-sigma band.
        from lhsdisc.probtools import hypergeom_cdf

        sc = compute_slab_constant(3200, 2)
        reference = hypergeom_cdf(3200, 800, 20, 3)
        trials = 400
        hits = 0
        for s in range(trials):
            trace = build_witness(lhs_sample(3200, 2, derive(123456, s)), sc)
            assert trace.steps[0].threshold == pytest.approx(5 - math.sqrt(5) / 2)
            hits += trace.steps[0].eta
        band = 3 * math.sqrt(reference * (1 - reference) / trials)
        assert abs(hits / trials - reference) <= band


def first_step_instance(n, w_count, y_count):
    """d = 2 points whose first step sees W = w_count and Y = y_count."""
    coords = np.zeros((n, 2))
    coords[w_count:, 0] = 0.5  # outside the stripe [0, floor(N/4)/N)
    coords[:y_count, 1] = ONE_BELOW  # inside the slab [1 - c/2, 1)
    return PointSet(coords)


def near_ties(n, k, width):
    """(W, Y) with Y next to the threshold and |4 D^2 - k W N| <= width."""
    out = []
    for w in range(1, n + 1):
        m = k * w / n
        below = math.floor(m - math.sqrt(m) / 2)
        for y in (below, below + 1):
            gap = k * w - y * n
            if 0 <= y <= w and abs(4 * gap * gap - k * w * n) <= width:
                out.append((w, y))
    return out


class TestExactShrinkRule:
    """The shrink decision against a rational oracle, ties included."""

    # Exact ties where k * (W / N) rounds below m = 4 or m = 16, so the
    # binary64 threshold falls below Y and the float rule would not shrink.
    FLOAT_MISSES = [(7840, 640, 3), (7840, 2560, 14), (15520, 1000, 5)]

    @pytest.mark.parametrize("n,w_count,y_count", FLOAT_MISSES)
    def test_ties_the_float_rule_missed(self, n, w_count, y_count):
        sc = compute_slab_constant(n, 2, strict=False)
        mean = sc.k_int * (w_count / n)
        assert y_count > mean - math.sqrt(mean) / 2.0
        assert witness_shrinks_frac(sc.k_int, w_count, y_count, n)
        with pytest.warns(NotLatinWarning):
            trace = build_witness(first_step_instance(n, w_count, y_count), sc)
        step = trace.steps[0]
        assert (step.w_count, step.y_count, step.eta) == (w_count, y_count, 1)
        assert trace.final_box.upper[1] == sc.shrink_coord

    @pytest.mark.parametrize("n", [160, 323, 800, 1601, 3200, 7840])
    def test_near_ties_match_the_oracle(self, n):
        sc = compute_slab_constant(n, 2, strict=False)
        cases = near_ties(n, sc.k_int, n)
        assert cases
        for w_count, y_count in cases:
            assert (_shrinks(sc.k_int, w_count, y_count, n)
                    == witness_shrinks_frac(sc.k_int, w_count, y_count, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotLatinWarning)
            for w_count, y_count in cases[:: max(1, len(cases) // 8)]:
                trace = build_witness(first_step_instance(n, w_count, y_count), sc)
                assert trace.steps[0].eta == witness_shrinks_frac(
                    sc.k_int, w_count, y_count, n)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_integer_and_float_rules_agree_on_lhs(self, data):
        d = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(160 * d, 2400))
        try:
            sc = compute_slab_constant(n, d, strict=False)
        except NoAdmissibleC:
            assume(False)
        trace = build_witness(lhs_sample(n, d, data.draw(st.integers(0, 2**32))), sc)
        for step in trace.steps:
            assert step.eta == (1 if step.y_count <= step.threshold else 0)
            assert step.eta == witness_shrinks_frac(sc.k_int, step.w_count, step.y_count, n)
