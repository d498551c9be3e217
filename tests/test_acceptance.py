"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them all the same.  Statistical criteria use
fixed seeds and three-standard-error margins, so they are deterministic
here and would stay green across seed choices with probability > 99.7%
per check.
"""

import math
import time

import numpy as np
import pytest

from lhsdisc.discrepancy import star_discrepancy_exact, star_discrepancy_exact_2d
from lhsdisc.harness import (
    ExperimentConfig,
    emit_csv,
    run_trials,
    summarize,
    verify_theorem1,
    verify_theorem2,
)
from lhsdisc.points import PointSet
from lhsdisc.probtools import (
    ConditionalBernoulliTree,
    binom_cdf,
    check_lemma4,
    check_lemma6,
    check_theorem3,
    check_theorem5_binomial,
    tree_sum_distribution,
    binom_distribution,
)
from lhsdisc.rng import Stream, derive
from lhsdisc.sampling import latin_check, lhs_sample
from lhsdisc.witness import build_witness, compute_slab_constant, theory_constants, witness_lower_bound

from oracles import dense_grid_star_discrepancy

SLACK = 1e-12


def report(number: int, description: str, ok: bool, t0: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] "
          f"{description} ({elapsed:.1f}s / budget {budget_s:.0f}s)", flush=True)
    assert ok, f"criterion {number} failed"
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget"


def random_pointset(stream: Stream, max_n: int, max_d: int) -> PointSet:
    n = 1 + stream.randbelow(max_n)
    d = 1 + stream.randbelow(max_d)
    return PointSet(stream.uniform_block(n * d).reshape(n, d))


def test_criterion_01_exact_vs_dense_grid_oracle():
    t0 = time.perf_counter()
    stream = Stream(derive(0xACC, 1))
    m = 400
    ok = True
    for _ in range(200):
        ps = random_pointset(stream, max_n=8, max_d=3)
        v = star_discrepancy_exact(ps).value
        g = dense_grid_star_discrepancy(ps.coords, m)
        ok &= (g <= v + SLACK) and (v <= g + ps.dim / m + SLACK)
    report(1, "exact star discrepancy vs dense-grid oracle (200 instances)",
           ok, t0, 60.0)


def test_criterion_02_2d_specialization_bit_equal():
    t0 = time.perf_counter()
    stream = Stream(derive(0xACC, 2))
    ok = True
    for _ in range(500):
        n = 1 + stream.randbelow(32)
        ps = PointSet(stream.uniform_block(2 * n).reshape(n, 2))
        a = star_discrepancy_exact(ps)
        b = star_discrepancy_exact_2d(ps)
        ok &= a.value == b.value
    report(2, "2-D sweep bit-equals generic exact (500 instances)", ok, t0, 60.0)


def test_criterion_03_latin_property_and_d1_law():
    t0 = time.perf_counter()
    ok = True
    grid = [(1, 1), (2, 2), (4, 3), (8, 2), (16, 16), (64, 4),
            (256, 2), (1000, 2), (4096, 1), (10000, 2)]
    for gi, (n, d) in enumerate(grid):
        for s in range(10):
            ok &= latin_check(lhs_sample(n, d, derive(0xACC * 3 + gi, s)))
    for n in (10, 100, 1000):
        for s in range(1000):
            ps = lhs_sample(n, 1, derive(0xACC * 5 + n, s))
            ok &= star_discrepancy_exact(ps).value <= 1.0 / n + SLACK
    report(3, "Latin property (100 draws) and d=1 law D* <= 1/N (3000 draws)",
           ok, t0, 120.0)


def test_criterion_04_theorem3_sweep():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n_total in range(2, 61):
        for n_white in range(1, n_total):
            p = n_white / n_total
            for n_draws in range(1, n_total + 1):
                if n_draws * p * (1.0 - p) < 1.0:
                    continue
                rep = check_theorem3(n_total, n_white, n_draws)
                ok &= rep.passed
                checked += 1
    ok &= checked > 0
    report(4, f"TV envelope (1/28)(n-1)/(N-1) <= delta <= (n-1)/(N-1) "
              f"({checked} instances, N <= 60)", ok, t0, 120.0)


def test_criterion_05_lemma4_sweep():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(16, 201):
        for i in range(1, n // 4 + 1):  # p = i/n <= 1/4
            rep = check_lemma4(n, i / n)
            ok &= rep.passed
            checked += 1
    report(5, f"binomial lower-tail floor 3/160 ({checked} instances)", ok, t0, 30.0)


def test_criterion_06_theorem5_sweep():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for k in range(1, 51):
        for qi in range(1, 10):  # q = 0.1 .. 0.9
            for ti in range(1, 11):  # t = 0.05 .. 0.5
                rep = check_theorem5_binomial(k, qi / 10.0, ti / 20.0)
                ok &= rep.passed
                checked += 1
    report(6, f"exact binomial tails below exp(-2 t^2 k) ({checked} instances)",
           ok, t0, 10.0)


def test_criterion_07_lemma6_enumeration():
    t0 = time.perf_counter()
    q = 1.0 / 80.0
    ok = True
    seed_stream = Stream(derive(0xACC, 7))
    for i in range(500):
        depth = 1 + seed_stream.randbelow(12)
        tree = ConditionalBernoulliTree.random(depth, q, derive(0xACC * 7, i))
        ok &= check_lemma6(tree).passed
    # Independent tree: equality of every CDF within numerical slack.
    tree = ConditionalBernoulliTree.independent(12, q)
    rep = check_lemma6(tree)
    ok &= rep.passed and abs(rep.margin) <= SLACK
    for j in (1, 6, 12):
        dist = tree_sum_distribution(tree, j)
        ref = binom_distribution(j, q)
        ok &= bool(np.all(np.abs(np.cumsum(dist.probs) - np.cumsum(ref.probs)) <= SLACK))
    report(7, "dependent-Bernoulli CDF dominance (500 trees) incl. independent "
              "equality", ok, t0, 120.0)


def test_criterion_08_witness_internal_identities():
    t0 = time.perf_counter()
    n, d = 6400, 4
    sc = compute_slab_constant(n, d)
    tc = theory_constants(sc)
    ok = True
    for s in range(200):
        ps = lhs_sample(n, d, derive(0xACC * 8, s))
        trace = build_witness(ps, sc)
        ok &= abs(trace.stripe_excess) <= 1e-9
        ok &= trace.stripe_count == n // 4
        for step in trace.steps:
            in_slab = int((ps.coords[:, step.j - 1] >= sc.shrink_coord).sum())
            ok &= in_slab == sc.k_int
            ok &= step.excess >= -1e-9
        floor = 2.5 * math.sqrt(sc.c * tc.v**3) * trace.k_count * math.sqrt(n / d)
        ok &= trace.final_excess >= floor - 1e-9
    report(8, "witness identities: zero stripe excess, exact slab counts, "
              "non-negative excess, final-excess floor (200 seeds)", ok, t0, 60.0)


def test_criterion_09_theorem2_statistics():
    t0 = time.perf_counter()
    ok = True

    # (a) d = 4, N = 6400, 2000 trials, witness construction only.
    n, d, trials = 6400, 4, 2000
    sc = compute_slab_constant(n, d)
    tc = theory_constants(sc)
    ks = np.empty(trials)
    bounds = np.empty(trials)
    etas = np.zeros((trials, d - 1))
    for s in range(trials):
        trace = build_witness(lhs_sample(n, d, derive(0xACC * 9, s)), sc)
        ks[s] = trace.k_count
        bounds[s] = witness_lower_bound(trace)
        etas[s] = [step.eta for step in trace.steps]
    sigma_k = math.sqrt(0.25 / trials)
    ok &= ks.mean() >= (d - 1) / 80.0 - 3.0 * sigma_k
    w_ref = tc.expectation_const * math.sqrt((d - 1) / n)
    w_se = bounds.std(ddof=1) / math.sqrt(trials)
    ok &= bounds.mean() >= w_ref - 3.0 * w_se
    ref_k0 = (79.0 / 80.0) ** (d - 1)
    se_k0 = math.sqrt(ref_k0 * (1.0 - ref_k0) / trials)
    ok &= (ks < d / 200.0).mean() <= ref_k0 + 3.0 * se_k0
    ok &= abs(ref_k0 - binom_cdf(d - 1, 1 / 80, math.ceil(d / 200) - 1)) <= SLACK
    # Per-axis selection frequency floor 1/80 (shrink triggers far more often).
    for j in range(d - 1):
        ok &= etas[:, j].mean() >= 1.0 / 80.0 - 3.0 * sigma_k

    # (b) d = 2, N = 3200, 100 trials with the exact 2-D sweep (via harness).
    config = ExperimentConfig(kind="lhs", N=3200, d=2, trials=100,
                              master_seed=0xACC * 10, c_values=(),
                              method="exact2d", strict_witness=True)
    records = run_trials(config)
    sc2 = compute_slab_constant(3200, 2)
    tc2 = theory_constants(sc2)
    dstars = [r.dstar for r in records]
    ok &= all(r.dstar is not None and r.witness_bound is not None for r in records)
    ok &= sum(dstars) / len(dstars) >= tc2.K * math.sqrt(2 / 3200)
    ok &= all(r.witness_bound <= r.dstar for r in records)
    ok &= verify_theorem2(config, records).passed
    report(9, "expectation and tail statistics for the witness bound "
              "(2000 witness trials; 100 exact2d trials)", ok, t0, 900.0)


def test_criterion_10_theorem1_empirical():
    t0 = time.perf_counter()
    n, d, trials = 512, 2, 200
    config = ExperimentConfig(kind="lhs", N=n, d=d, trials=trials,
                              master_seed=0xACC * 11, c_values=(3.0, 4.0),
                              method="exact2d", strict_witness=False)
    records = run_trials(config)
    summary = summarize(records, config)
    freq3 = summary.per_c["3"].frequency
    freq4 = summary.per_c["4"].frequency
    ok = freq3 >= 0.965358 and freq4 >= 0.999
    ok &= verify_theorem1(config, records).passed
    report(10, f"tail frequencies at c=3 ({freq3:.3f} >= 0.965358) and "
               f"c=4 ({freq4:.3f} >= 0.999), 200 exact2d trials", ok, t0, 300.0)


def test_criterion_11_reproducibility():
    t0 = time.perf_counter()
    config = ExperimentConfig(kind="lhs", N=256, d=2, trials=5,
                              master_seed=7, c_values=(3.0,),
                              method="exact2d", strict_witness=False)
    csv_a = emit_csv(run_trials(config))
    csv_b = emit_csv(run_trials(config))
    ok = csv_a == csv_b and csv_a.encode() == csv_b.encode()
    report(11, "repeated experiment emits bit-identical CSV", ok, t0, 60.0)
