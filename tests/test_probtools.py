import decimal
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lhsdisc import probtools
from lhsdisc.probtools import (
    ConditionalBernoulliTree,
    DepthExceeded,
    DiscreteDistribution,
    DomainError,
    HypothesisNotMet,
    InvariantViolated,
    binom_cdf,
    binom_distribution,
    binom_pmf,
    check_lemma4,
    check_lemma6,
    check_theorem3,
    check_theorem5_binomial,
    hoeffding_bound,
    hypergeom_cdf,
    hypergeom_distribution,
    hypergeom_pmf,
    log_choose,
    tree_sum_distribution,
    tv_distance,
)

from oracles import (
    binom_cdf_frac,
    binom_pmf_frac,
    hypergeom_pmf_frac,
    reference_binom_mass,
    reference_hypergeom_mass,
    reference_log_choose,
    tv_by_subset_enumeration,
    tv_frac,
    witness_shrinks_frac,
)


class TestLogChoose:
    def test_trivial_values(self):
        assert log_choose(5, 0) == 0.0
        assert log_choose(5, 2) == pytest.approx(math.log(10), rel=1e-15)

    def test_against_big_integer_oracle(self):
        # (10**6, 17) and (10**6, 20000) are where a difference of
        # log-gammas cancels.
        for n, k in [(1000, 500), (1000, 3), (10**6, 17), (10**6, 9999), (10**6, 20000)]:
            exact = math.log(math.comb(n, k))
            assert log_choose(n, k) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(40000, 20000), (21000, 10500), (10**6, 20000)])
    def test_within_an_ulp_of_the_correctly_rounded_log(self, n, k):
        # The reference is ln of the exact integer to 80 digits, rounded
        # once to binary64.
        ref = float(decimal.Context(prec=80).ln(decimal.Decimal(math.comb(n, k))))
        assert abs(log_choose(n, k) - ref) <= math.ulp(ref)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_choose(3, 4)
        with pytest.raises(DomainError):
            log_choose(3, -1)

    def test_bit_equal_to_the_list_kernel_at_every_k_up_to_300(self):
        for n in range(301):
            for k in range(n + 1):
                assert log_choose(n, k).hex() == reference_log_choose(n, k).hex(), (n, k)

    @pytest.mark.parametrize("n,k", [(40000, 20000), (22000, 11000), (30000, 12000),
                                     (10**6, 20000), (10**5, 50000)])
    def test_bit_equal_to_the_list_kernel_at_large_sizes(self, n, k):
        assert log_choose(n, k).hex() == reference_log_choose(n, k).hex()


class TestBinomial:
    def test_pmf_trivial(self):
        assert binom_pmf(1, 0.5, 0) == 0.5
        assert binom_pmf(4, 0.0, 0) == 1.0
        assert binom_pmf(4, 1.0, 4) == 1.0
        assert binom_pmf(4, 0.3, 5) == 0.0
        assert binom_pmf(4, 0.3, -1) == 0.0

    def test_cdf_edges(self):
        assert binom_cdf(10, 0.3, 10) == 1.0
        assert binom_cdf(10, 0.3, -1) == 0.0

    def test_pmf_matches_rational_oracle(self):
        for n in (1, 7, 16, 60):
            for p_float in (0.25, 0.5, 3 / 5, 1 / 80):
                p = Fraction(p_float)  # exact rational value of the double
                for k in range(n + 1):
                    exact = float(binom_pmf_frac(n, p, k))
                    got = binom_pmf(n, p_float, k)
                    assert got == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_cdf_matches_rational_oracle_both_tails(self):
        p = Fraction(1, 4)
        for n in (16, 60):
            for k in range(n + 1):
                exact = float(binom_cdf_frac(n, p, k))
                assert binom_cdf(n, 0.25, k) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("args", [(-1, 0.5), (5, -0.25), (5, 1.5), (5, math.nan)])
    def test_domain_checked_by_every_function(self, args):
        # n < 0 and p outside [0, 1] (or NaN) have no binomial law.
        with pytest.raises(DomainError, match="binomial law"):
            binom_pmf(*args, 0)
        with pytest.raises(DomainError, match="binomial law"):
            binom_cdf(*args, 0)
        with pytest.raises(DomainError, match="binomial law"):
            binom_distribution(*args)


class TestHypergeometric:
    def test_all_white(self):
        assert hypergeom_pmf(8, 8, 3, 3) == 1.0
        assert hypergeom_pmf(8, 8, 3, 2) == 0.0

    def test_single_draw(self):
        assert hypergeom_pmf(10, 5, 1, 1) == pytest.approx(0.5, rel=1e-15)

    def test_support_limits(self):
        # 8 draws from 10 with 4 white: only 6 black exist, so at least
        # 2 white are forced into the sample.
        assert hypergeom_pmf(10, 4, 8, 1) == 0.0
        assert hypergeom_cdf(10, 4, 8, 1) == 0.0
        assert hypergeom_cdf(10, 4, 8, 4) == 1.0

    def test_pmf_matches_rational_oracle(self):
        for n_total, n_white, n_draws in [(10, 5, 5), (60, 20, 30), (37, 11, 25)]:
            for k in range(n_draws + 1):
                exact = float(hypergeom_pmf_frac(n_total, n_white, n_draws, k))
                got = hypergeom_pmf(n_total, n_white, n_draws, k)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            hypergeom_pmf(5, 6, 2, 1)

    @pytest.mark.parametrize("args", [(5, 10, 3), (5, 3, 10), (5, -1, 3), (5, 3, -1)])
    def test_domain_checked_by_every_function(self, args):
        # W > N, n > N and negative counts have no hypergeometric law.
        with pytest.raises(DomainError):
            hypergeom_pmf(*args, 0)
        with pytest.raises(DomainError):
            hypergeom_cdf(*args, 0)
        with pytest.raises(DomainError):
            hypergeom_distribution(*args)


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestMassesBitEqualToThePerMassKernels:
    # Every mass of the pmf, cdf and distribution of both laws, against the
    # earlier per-mass kernels of the oracles; the cdf sums those masses with
    # the library's unchanged nearest-tail rule.  The grids take in p = 0 and
    # 1, p = 1.0/n, supports clipped at one end or both, and k one step
    # outside 0..n.
    @pytest.mark.parametrize("n,p", [
        (n, p) for n in (0, 1, 2, 7, 16, 60, 257)
        for p in (0.0, 1.0, 0.25, 0.5, 0.1, 3 / 5, 1 / 80)
    ] + [(n, 1.0 / n) for n in (1, 7, 17, 60, 257)])
    def test_binomial(self, n, p):
        ks = range(-1, n + 2)
        ref = [reference_binom_mass(n, p, k) for k in ks]
        assert _hexes(binom_pmf(n, p, k) for k in ks) == _hexes(ref)
        mass = functools.partial(reference_binom_mass, n, p)
        assert (_hexes(binom_cdf(n, p, k) for k in ks)
                == _hexes(probtools._nearest_tail_cdf(mass, 0, n, k) for k in ks))
        dist = binom_distribution(n, p)
        assert dist.offset == 0
        assert _hexes(dist.probs) == _hexes(ref[1:-1])

    @pytest.mark.parametrize("args", [
        (10, 4, 8), (10, 3, 5), (10, 8, 4), (8, 8, 3), (5, 0, 3), (5, 2, 0), (10, 5, 1),
        (60, 20, 30), (37, 11, 25), (500, 50, 12), (200, 60, 50),
    ])
    def test_hypergeometric(self, args):
        n_total, n_white, n_draws = args
        lo, hi = max(0, n_draws - (n_total - n_white)), min(n_draws, n_white)
        ks = range(-1, n_draws + 2)
        ref = [reference_hypergeom_mass(*args, k) for k in ks]
        assert _hexes(hypergeom_pmf(*args, k) for k in ks) == _hexes(ref)
        mass = functools.partial(reference_hypergeom_mass, *args)
        assert (_hexes(hypergeom_cdf(*args, k) for k in ks)
                == _hexes(probtools._nearest_tail_cdf(mass, lo, hi, k) for k in ks))
        dist = hypergeom_distribution(*args)
        assert dist.offset == lo
        assert _hexes(dist.probs) == _hexes(ref[lo + 1 : hi + 2])


class TestDistributionsAndTV:
    def test_distribution_mass_validated(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, np.array([0.5, 0.4]))
        d = DiscreteDistribution(2, np.array([0.25, 0.75]))
        assert d.pmf(2) == 0.25 and d.pmf(1) == 0.0
        assert d.cdf(1) == 0.0 and d.cdf(3) == 1.0

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.nan]])
    def test_distribution_rejects_nan_mass(self, probs):
        # NaN fails every comparison, so a check written as "v < 0" or
        # "|sum - 1| > tol" would let it through.
        with pytest.raises(ValueError):
            DiscreteDistribution(0, np.array(probs))

    @pytest.mark.parametrize("n,p", [(200, 0.0125), (50, 0.3), (20, 0.5), (1000, 0.004),
                                     (0, 0.3), (7, 0.0), (7, 1.0)])
    def test_binomial_cdf_is_binom_cdf(self, n, p):
        # Bit for bit at every k, from the same nearer-tail sums.
        law = binom_distribution(n, p)
        for k in range(-1, n + 2):
            assert law.cdf(k).hex() == binom_cdf(n, p, k).hex()

    @pytest.mark.parametrize("args", [(60, 20, 30), (3200, 800, 20), (10, 5, 5),
                                      (100, 97, 40), (9, 0, 4)])
    def test_hypergeometric_cdf_is_hypergeom_cdf(self, args):
        law = hypergeom_distribution(*args)
        for k in range(law.offset - 1, law.offset + law.probs.size + 1):
            assert law.cdf(k).hex() == hypergeom_cdf(*args, k).hex()

    def test_constructed_distributions_normalized(self):
        for n_total, n_white, n_draws in [(60, 20, 30), (3200, 800, 20)]:
            h = hypergeom_distribution(n_total, n_white, n_draws)
            assert abs(float(h.probs.sum()) - 1.0) <= 1e-12
        b = binom_distribution(200, 0.0125)
        assert abs(float(b.probs.sum()) - 1.0) <= 1e-12

    def test_tv_trivial(self):
        d = binom_distribution(5, 0.3)
        assert tv_distance(d, d) == 0.0
        a = DiscreteDistribution(0, np.array([1.0]))
        b = DiscreteDistribution(1, np.array([1.0]))
        assert tv_distance(a, b) == 1.0

    def test_tv_matches_subset_enumeration(self):
        h = hypergeom_distribution(10, 5, 5)
        b = binom_distribution(5, 0.5)
        direct = tv_by_subset_enumeration(list(h.probs), list(b.probs))
        assert tv_distance(h, b) == pytest.approx(direct, abs=1e-14)

    def test_tv_single_draw_is_zero(self):
        # Mathematically zero; the two pmfs travel different log-space
        # expressions, so allow last-bit noise.
        for n_total in range(2, 101):
            for n_white in (1, n_total // 2, n_total - 1):
                if 0 < n_white < n_total:
                    h = hypergeom_distribution(n_total, n_white, 1)
                    b = binom_distribution(1, n_white / n_total)
                    assert tv_distance(h, b) <= 1e-15


class TestTheorem3:
    def test_single_draw_hypothesis_not_met(self):
        with pytest.raises(HypothesisNotMet):
            check_theorem3(10, 5, 1)

    def test_reference_instance(self):
        report = check_theorem3(10, 5, 5)
        assert report.passed
        delta = report.computed["delta"]
        assert 4 / (28 * 9) - 1e-12 <= delta <= 4 / 9 + 1e-12
        exact = float(tv_frac(10, 5, 5))
        assert delta == pytest.approx(exact, rel=1e-12)

    def test_degenerate_p(self):
        with pytest.raises(HypothesisNotMet):
            check_theorem3(10, 0, 5)
        with pytest.raises(HypothesisNotMet):
            check_theorem3(10, 10, 5)

    def test_small_sweep_against_exact_rational_tv(self):
        for n_total in (8, 12):
            for n_white in range(1, n_total):
                for n_draws in range(1, n_total + 1):
                    p = n_white / n_total
                    if n_draws * p * (1 - p) < 1.0:
                        continue
                    report = check_theorem3(n_total, n_white, n_draws)
                    assert report.passed, (n_total, n_white, n_draws)
                    exact = float(tv_frac(n_total, n_white, n_draws))
                    assert report.computed["delta"] == pytest.approx(exact, rel=1e-12)


class TestLemma4:
    def test_quarter_case(self):
        report = check_lemma4(16, 0.25)
        # Cutoff 4 - 1 = 3 exactly; mass must match the rational oracle.
        assert report.computed["cutoff"] == 3.0
        exact = float(binom_cdf_frac(16, Fraction(1, 4), 3))
        assert report.computed["mass"] == pytest.approx(exact, rel=1e-12)
        assert report.passed

    def test_one_over_n_case(self):
        report = check_lemma4(16, 1 / 16)
        # Cutoff 0.5 keeps only k = 0, mass (15/16)^16.
        assert report.computed["mass"] == pytest.approx((15 / 16) ** 16, rel=1e-12)
        assert report.passed

    @pytest.mark.parametrize("n,p", [(240, 0.15), (150, 0.24)])
    def test_cut_below_a_cutoff_rounded_up(self, n, p):
        # np - sqrt(np)/2 rounds to 33.0, but for the double p it lies
        # below 33, so the mass is summed through 32.
        report = check_lemma4(n, p)
        assert report.computed["cutoff"] == 33.0
        exact = float(binom_cdf_frac(n, Fraction(p), 32))
        assert report.computed["mass"] == pytest.approx(exact, rel=1e-12)

    def test_cut_is_the_witness_rule(self, monkeypatch):
        cuts = []
        real = probtools.binom_cdf
        monkeypatch.setattr(probtools, "binom_cdf",
                            lambda n, p, k: cuts.append(k) or real(n, p, k))
        for n in range(16, 401):
            for p in (1 / n, 0.075, 0.1, 0.125, 0.15, 0.2, 0.24, 0.25):
                if not 1 / n <= p <= 0.25:
                    continue
                check_lemma4(n, p)
                a, b = p.as_integer_ratio()
                j = cuts.pop()
                assert witness_shrinks_frac(n, a, j, b), (n, p, j)
                assert not witness_shrinks_frac(n, a, j + 1, b), (n, p, j)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisNotMet):
            check_lemma4(15, 0.25)
        with pytest.raises(HypothesisNotMet):
            check_lemma4(16, 0.3)
        with pytest.raises(HypothesisNotMet):
            check_lemma4(16, 1 / 32)


class TestTheorem5:
    def test_reference_instance(self):
        report = check_theorem5_binomial(50, 0.5, 0.2)
        assert report.passed
        assert report.bounds["hoeffding"] == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert report.computed["tail"] <= math.exp(-4.0)
        # Exact rational tail: sum < 25 - 10 = 15, i.e. cdf at 14.
        exact = float(binom_cdf_frac(50, Fraction(1, 2), 14))
        assert report.computed["tail"] == pytest.approx(exact, rel=1e-12)

    def test_cut_is_exact_for_the_doubles(self):
        # 4 * 0.9 - 0.15 * 4 is 3.0 in binary64, but k (q - t) for the
        # doubles q and t is 3 + 1.1e-16, so S < k (q - t) means S <= 3.
        assert 4 * (Fraction(0.9) - Fraction(0.15)) > 3
        report = check_theorem5_binomial(4, 0.9, 0.15)
        exact = float(binom_cdf_frac(4, Fraction(0.9), 3))
        assert report.computed["tail"] == pytest.approx(exact, rel=1e-12)

    def test_zero_tail_when_t_at_least_q(self):
        report = check_theorem5_binomial(20, 0.3, 0.3)
        assert report.computed["tail"] == 0.0
        assert report.passed

    def test_hoeffding_bound_values(self):
        assert hoeffding_bound(10, 1e-12) == pytest.approx(1.0, abs=1e-9)
        # Doubling the sample squares the bound.
        assert hoeffding_bound(24, 0.2) == pytest.approx(hoeffding_bound(12, 0.2) ** 2,
                                                         rel=1e-12)
        # Tail-exponent form used by the final display, evaluated at d = 10.
        d = 10
        direct = math.exp(-2 * d * d / (800**2 * (d - 1)))
        assert hoeffding_bound(d - 1, d / (800 * (d - 1))) == pytest.approx(direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            check_theorem5_binomial(0, 0.5, 0.1)
        with pytest.raises(DomainError):
            check_theorem5_binomial(5, 0.5, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_t_must_be_finite(self, t):
        with pytest.raises(DomainError, match="finite t > 0"):
            check_theorem5_binomial(16, 0.5, t)


class TestTree:
    def test_independent_tree_equals_binomial(self):
        q = 1 / 80
        tree = ConditionalBernoulliTree.independent(10, q)
        for j in (1, 5, 10):
            dist = tree_sum_distribution(tree, j)
            ref = binom_distribution(j, q)
            assert dist.offset == ref.offset == 0
            np.testing.assert_allclose(dist.probs, ref.probs, rtol=1e-12, atol=1e-15)

    def test_depth_one_is_bernoulli(self):
        tree = ConditionalBernoulliTree([np.array([0.3])], 0.25)
        dist = tree_sum_distribution(tree, 1)
        assert dist.probs.tolist() == pytest.approx([0.7, 0.3], rel=1e-15)

    def test_random_tree_mass_sums_to_one(self):
        tree = ConditionalBernoulliTree.random(10, 1 / 80, seed=3)
        dist = tree_sum_distribution(tree, 10)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12

    def test_depth_guards(self):
        tree = ConditionalBernoulliTree.independent(3, 0.5)
        with pytest.raises(DepthExceeded):
            tree_sum_distribution(tree, 4)
        with pytest.raises(DepthExceeded):
            ConditionalBernoulliTree.independent(21, 0.5)

    def test_refused_depth_builds_no_level(self):
        # At depth 21 the levels would take 16 MiB (independent) and 32 MiB
        # (random, with its draws); the guard runs before the first one.
        for build in (lambda: ConditionalBernoulliTree.independent(21, 0.5),
                      lambda: ConditionalBernoulliTree.random(21, 0.5, seed=0)):
            tracemalloc.start()
            try:
                with pytest.raises(DepthExceeded):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_level_shape_validated(self):
        with pytest.raises(ValueError):
            ConditionalBernoulliTree([np.array([0.5, 0.5])], 0.25)

    @pytest.mark.parametrize("node", [math.nan, -0.25, 1.5])
    def test_node_outside_unit_interval_rejected(self, node):
        with pytest.raises(ValueError, match="outside"):
            ConditionalBernoulliTree([np.array([0.5]), np.array([0.5, node])], 0.25)

    def test_hand_computed_dependent_tree(self):
        # eta1 ~ B(0.5); eta2 | eta1=0 ~ B(0.5), eta2 | eta1=1 ~ B(1.0).
        tree = ConditionalBernoulliTree(
            [np.array([0.5]), np.array([0.5, 1.0])], 0.5)
        dist = tree_sum_distribution(tree, 2)
        assert dist.probs.tolist() == pytest.approx([0.25, 0.25, 0.5], rel=1e-15)


class TestLemma6:
    def test_independent_tree_gives_equality(self):
        q = 1 / 80
        tree = ConditionalBernoulliTree.independent(12, q)
        report = check_lemma6(tree)
        assert report.passed
        assert abs(report.margin) <= 1e-12

    def test_uniformly_larger_nodes_dominate_strictly(self):
        tree = ConditionalBernoulliTree.independent(8, 0.3)
        tree.q_floor = 0.1  # declared floor below the actual node value
        report = check_lemma6(tree)
        assert report.passed
        assert report.margin > 1e-6

    def test_corrupted_tree_rejected_before_checking(self):
        q = 1 / 80
        tree = ConditionalBernoulliTree.random(6, q, seed=9)
        tree.levels[3] = tree.levels[3].copy()
        tree.levels[3][2] = q / 2
        with pytest.raises(InvariantViolated):
            check_lemma6(tree)

    def test_nan_node_set_after_construction_rejected(self):
        # A NaN node is not at or above the floor; it must not be skipped
        # by the margins and reported as a pass.
        tree = ConditionalBernoulliTree.independent(2, 0.5)
        tree.levels[1] = np.array([0.5, math.nan])
        with pytest.raises(InvariantViolated, match="nan"):
            check_lemma6(tree)

    def test_random_trees_pass(self):
        q = 1 / 80
        for seed in range(25):
            depth = 1 + seed % 12
            tree = ConditionalBernoulliTree.random(depth, q, seed=seed)
            report = check_lemma6(tree)
            assert report.passed, (seed, depth, report.margin)


def test_check_report_lines_format():
    report = check_lemma4(16, 0.25)
    lines = report.lines()
    assert lines[0] == "check = lemma4"
    assert lines[-1] == "result = PASS"
