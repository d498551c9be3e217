"""Exact distribution kernels and machine checks of the supporting bounds.

The checks certify, on enumerable instances, four facts the witness
construction relies on:

* the total variation distance between sampling without replacement
  (hypergeometric H(N, W, n)) and with replacement (binomial B(n, p),
  p = W/N) is squeezed between (1/28)(n-1)/(N-1) and (n-1)/(N-1)
  whenever n p (1-p) >= 1;
* for n >= 16 and 1/n <= p <= 1/4 the binomial lower tail
  B(n,p)([0, np - sqrt(np)/2]) is at least 3/160;
* sums of independent Bernoulli variables obey the exponential lower-tail
  bound exp(-2 t^2 k);
* dependent Bernoulli variables whose conditional success probability
  never drops below q have partial sums stochastically dominating the
  iid Bernoulli(q) sums (checked by exhaustive path enumeration).

All probability masses are computed in log space with a single
exponentiation per value, which stays finite at large parameters; CDFs
are direct sums from the nearest tail, clamped to [0, 1].  Each law is
one mass function, built once per call: it checks the domain and holds
the law's constants (log p and log(1-p) for B(n, p); the support, N - W
and log C(N, n) for H(N, W, n)).  Every log binomial coefficient, at
every size, is one exactly-rounded sum over two lazy streams of logs
(``log_choose``), so H(22000, 11000, 10500) sums to 1 within the mass
slack.  The lemma 4 and theorem 5 tail cut-offs are exact for their
binary64 inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .rng import Stream, derive
from .witness import _shrinks

#: Acceptable departure of a probability vector from total mass 1.
MASS_TOL = 1e-12


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class HypothesisNotMet(ValueError):
    """Instance fails the hypothesis of the bound being checked."""


class DepthExceeded(ValueError):
    """Tree enumeration past the 2^k guard."""


class InvariantViolated(ValueError):
    """A conditional-probability node sits below the declared floor."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass on consecutive integers offset, offset+1, ..."""

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty vector")
        # Written as `not (...)` so that NaN, which fails every comparison,
        # is rejected too.
        if not np.all(arr >= -MASS_TOL):
            raise ValueError("negative or NaN probability mass")
        if not abs(float(arr.sum()) - 1.0) <= MASS_TOL:
            raise ValueError(f"mass sums to {arr.sum()!r}, not 1 within {MASS_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def pmf(self, k: int) -> float:
        i = k - self.offset
        if 0 <= i < self.probs.size:
            return float(self.probs[i])
        return 0.0

    def cdf(self, k: int) -> float:
        return _nearest_tail_cdf(self.pmf, self.offset, self.offset + self.probs.size - 1, k)


@dataclass
class CheckReport:
    """Outcome of one numeric bound check."""

    name: str
    params: dict = field(default_factory=dict)
    computed: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    passed: bool = True
    margin: float = math.inf

    def lines(self) -> list[str]:
        out = [f"check = {self.name}"]
        for label, mapping in (("param", self.params), ("computed", self.computed),
                               ("bound", self.bounds)):
            for key, val in mapping.items():
                out.append(f"{label} {key} = {val}")
        out.append(f"margin = {self.margin}")
        out.append(f"result = {'PASS' if self.passed else 'FAIL'}")
        return out


@functools.lru_cache(maxsize=1 << 16)
def log_choose(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k).

    One rule for every size, m = min(k, n-k): one exactly-rounded sum
    (math.fsum) over two lazy streams, the logs of n-m+1, ..., n and
    minus the logs of 2, ..., m; no terms (m <= 1 leaves the second
    stream empty) sum to 0.0.  fsum rounds once, so the order of the
    terms does not change the result.  A difference of log-gammas would
    cancel: at log C(40000, 20000), about 27720, lgamma's relative error
    near 1e-15 is an absolute error near 2e-11, past the probability
    checks' 1e-12 mass slack.  Against a correctly rounded reference the
    sum was 0 ulps off at (40000, 20000), (22000, 11000), (30000, 12000),
    (10**6, 20000) and (10**5, 50000).
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"log_choose needs 0 <= k <= n, got n={n}, k={k}")
    m = min(k, n - k)
    return math.fsum(itertools.chain(map(math.log, range(n - m + 1, n + 1)),
                                     map(operator.neg, map(math.log, range(2, m + 1)))))


def _binom_law(n: int, p: float) -> Callable[[int], float]:
    """The mass function of B(n, p); checks the domain and takes the logs
    of p and 1 - p once."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise DomainError(f"binomial law needs n >= 0 and p in [0,1], got n={n}, p={p}")
    if p == 0.0:
        return lambda k: 1.0 if k == 0 else 0.0
    if p == 1.0:
        return lambda k: 1.0 if k == n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def mass(k: int) -> float:
        if k < 0 or k > n:
            return 0.0
        return math.exp(log_choose(n, k) + k * log_p + (n - k) * log_q)

    return mass


def binom_pmf(n: int, p: float, k: int) -> float:
    return _binom_law(n, p)(k)


def _nearest_tail_cdf(mass: Callable[[int], float], lo: int, hi: int, k: int) -> float:
    """P(X <= k) for masses ``mass(i)`` on lo..hi, summed from the nearer tail."""
    if k < lo:
        return 0.0
    if k >= hi:
        return 1.0
    if k - lo + 1 <= hi - k:
        total = sum(map(mass, range(lo, k + 1)))
    else:
        total = 1.0 - sum(map(mass, range(k + 1, hi + 1)))
    return min(1.0, max(0.0, total))


def binom_cdf(n: int, p: float, k: int) -> float:
    return _nearest_tail_cdf(_binom_law(n, p), 0, n, k)


def _hypergeom_law(n_total: int, n_white: int, n_draws: int
                   ) -> tuple[int, int, Callable[[int], float]]:
    """Support lo..hi and mass function of H(N, W, n); checks the domain
    and takes N - W and log C(N, n) once."""
    if not (0 <= n_white <= n_total and 0 <= n_draws <= n_total):
        raise DomainError(
            f"hypergeometric law needs 0 <= W, n <= N, got N={n_total}, W={n_white}, n={n_draws}"
        )
    n_black = n_total - n_white
    lo, hi = max(0, n_draws - n_black), min(n_draws, n_white)
    log_all = log_choose(n_total, n_draws)

    def mass(k: int) -> float:
        if k < lo or k > hi:
            return 0.0
        return math.exp(log_choose(n_white, k) + log_choose(n_black, n_draws - k) - log_all)

    return lo, hi, mass


def hypergeom_pmf(n_total: int, n_white: int, n_draws: int, k: int) -> float:
    """Mass of k white balls when drawing n without replacement from N with W white."""
    return _hypergeom_law(n_total, n_white, n_draws)[2](k)


def hypergeom_cdf(n_total: int, n_white: int, n_draws: int, k: int) -> float:
    lo, hi, mass = _hypergeom_law(n_total, n_white, n_draws)
    return _nearest_tail_cdf(mass, lo, hi, k)


def binom_distribution(n: int, p: float) -> DiscreteDistribution:
    return DiscreteDistribution(0, np.array(list(map(_binom_law(n, p), range(n + 1)))))


def hypergeom_distribution(n_total: int, n_white: int, n_draws: int) -> DiscreteDistribution:
    lo, hi, mass = _hypergeom_law(n_total, n_white, n_draws)
    return DiscreteDistribution(lo, np.array(list(map(mass, range(lo, hi + 1)))))


def tv_distance(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """Total variation distance: half the L1 distance over the union support
    (equal to the max over subsets of the probability difference)."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + a.probs.size, b.offset + b.probs.size)
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[a.offset - lo : a.offset - lo + a.probs.size] = a.probs
    pb[b.offset - lo : b.offset - lo + b.probs.size] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


def check_theorem3(n_total: int, n_white: int, n_draws: int) -> CheckReport:
    """TV distance between H(N, W, n) and B(n, W/N) against its envelope.

    Requires p = W/N in (0, 1) and n p (1-p) >= 1; then checks
    (1/28)(n-1)/(N-1) <= delta <= (n-1)/(N-1) with 1e-12 slack.
    """
    if not (0 <= n_white <= n_total and 1 <= n_draws <= n_total):
        raise DomainError(
            f"need 0 <= W <= N and 1 <= n <= N, got N={n_total}, W={n_white}, n={n_draws}"
        )
    p = n_white / n_total
    if not 0.0 < p < 1.0:
        raise HypothesisNotMet(f"p = W/N = {p} not in (0, 1)")
    npq = n_draws * p * (1.0 - p)
    if npq < 1.0:
        raise HypothesisNotMet(f"n p (1-p) = {npq} < 1")

    delta = tv_distance(
        hypergeom_distribution(n_total, n_white, n_draws),
        binom_distribution(n_draws, p),
    )
    upper = (n_draws - 1) / (n_total - 1)
    lower = upper / 28.0
    passed = (lower - MASS_TOL <= delta) and (delta <= upper + MASS_TOL)
    return CheckReport(
        name="theorem3",
        params={"N": n_total, "W": n_white, "n": n_draws, "p": p},
        computed={"delta": delta},
        bounds={"lower": lower, "upper": upper},
        passed=passed,
        margin=min(delta - lower, upper - delta),
    )


def check_lemma4(n: int, p: float) -> CheckReport:
    """Binomial mass of [0, np - sqrt(np)/2] against the floor 3/160.

    Requires n >= 16 and 1/n <= p <= 1/4.  The mass is summed through the
    largest Y the witness rule (``_shrinks``) accepts at m = np, with p =
    a/b exactly; the reported ``cutoff`` is the binary64 np - sqrt(np)/2.
    The gate 1/n <= p is decided in binary64, against the double 1.0/n, so
    it accepts a p just below 1/n: the double nearest 1/17 is below 1/17.
    An exact gate would reject 13 of the 25 inputs p = 1.0/n in the
    benchmark's prob-verify sweep, so it waits for a decision on whether
    such an input means 1/n.
    """
    if n < 16:
        raise HypothesisNotMet(f"need n >= 16, got {n}")
    if not (1.0 / n <= p <= 0.25):
        raise HypothesisNotMet(f"need 1/n <= p <= 1/4, got p = {p} at n = {n}")
    mean = n * p
    cutoff = mean - math.sqrt(mean) / 2.0
    a, b = p.as_integer_ratio()
    # cutoff is off by far less than 1, so the cut is at most its floor + 1.
    last = math.floor(cutoff) + 1
    while not _shrinks(n, a, last, b):
        last -= 1
    mass = binom_cdf(n, p, last)
    floor = 3.0 / 160.0
    return CheckReport(
        name="lemma4",
        params={"n": n, "p": p},
        computed={"cutoff": cutoff, "mass": mass},
        bounds={"floor": floor},
        passed=mass >= floor - MASS_TOL,
        margin=mass - floor,
    )


def hoeffding_bound(k: int, t: float) -> float:
    """exp(-2 t^2 k): tail bound for a centered sum of k Bernoulli variables."""
    return math.exp(-2.0 * t * t * k)


def check_theorem5_binomial(k: int, q: float, t: float) -> CheckReport:
    """Exact iid-Bernoulli lower tail P(sum < kq - tk) against exp(-2 t^2 k)."""
    if k < 1 or not 0.0 < q < 1.0 or not 0.0 < t < math.inf:
        raise DomainError(f"need k >= 1, q in (0,1), finite t > 0, got k={k}, q={q}, t={t}")
    (a, b), (c, e) = q.as_integer_ratio(), t.as_integer_ratio()
    # Strict: sum < k (q - t) = k (a e - c b) / (b e), whose ceiling is -(-x // y).
    tail = binom_cdf(k, q, -(-k * (a * e - c * b) // (b * e)) - 1)
    bound = hoeffding_bound(k, t)
    return CheckReport(
        name="theorem5",
        params={"k": k, "q": q, "t": t},
        computed={"tail": tail},
        bounds={"hoeffding": bound},
        passed=tail <= bound + MASS_TOL,
        margin=bound - tail,
    )


class ConditionalBernoulliTree:
    """Bernoulli variables eta_1..eta_k with history-dependent success rates.

    Level j holds one success probability per history v in {0,1}^(j-1),
    indexed by the integer whose bit i-1 is v_i (v_1 is the least
    significant bit).  q_floor is the declared lower bound all node
    probabilities are supposed to respect.
    """

    MAX_DEPTH = 20

    def __init__(self, levels: Sequence[np.ndarray], q_floor: float):
        if not 0.0 < q_floor < 1.0:
            raise DomainError(f"q_floor must lie in (0, 1), got {q_floor}")
        self.check_depth(len(levels))
        self.levels = []
        for j, level in enumerate(levels, start=1):
            arr = np.asarray(level, dtype=np.float64)
            if arr.shape != (2 ** (j - 1),):
                raise ValueError(
                    f"level {j} must have {2 ** (j - 1)} nodes, got shape {arr.shape}"
                )
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN too
                raise ValueError(f"level {j} has probabilities outside [0, 1]")
            self.levels.append(arr)
        self.q_floor = q_floor

    @property
    def depth(self) -> int:
        return len(self.levels)

    def verify_floor(self) -> None:
        for j, level in enumerate(self.levels, start=1):
            below = ~(level >= self.q_floor)  # NaN too
            if below.any():
                h = int(np.argmax(below))
                raise InvariantViolated(
                    f"node (level {j}, history {h}) = {level[h]} below floor {self.q_floor}"
                )

    @classmethod
    def check_depth(cls, depth: int) -> None:
        """Raises DepthExceeded past MAX_DEPTH; the constructors call it
        before they build a level."""
        if depth > cls.MAX_DEPTH:
            raise DepthExceeded(f"depth {depth} exceeds guard {cls.MAX_DEPTH}")

    @classmethod
    def independent(cls, depth: int, q: float) -> "ConditionalBernoulliTree":
        cls.check_depth(depth)
        return cls([np.full(2 ** (j - 1), q) for j in range(1, depth + 1)], q)

    @classmethod
    def random(cls, depth: int, q: float, seed: int) -> "ConditionalBernoulliTree":
        """Node probabilities uniform on [q, 1], seeded and reproducible."""
        cls.check_depth(depth)
        stream = Stream(derive(seed, "lemma6-tree"))
        levels = [q + (1.0 - q) * stream.uniform_block(2 ** (j - 1))
                  for j in range(1, depth + 1)]
        return cls(levels, q)


def tree_sum_distribution(tree: ConditionalBernoulliTree, j: int) -> DiscreteDistribution:
    """Exact law of eta_1 + ... + eta_j by summing all 2^j path probabilities."""
    if not 1 <= j <= tree.depth:
        raise DepthExceeded(f"need 1 <= j <= depth ({tree.depth}), got {j}")
    path = np.ones(1)
    for level in tree.levels[:j]:
        # First half: next bit 0, second half: next bit 1 (bit j-1 of the index).
        path = np.concatenate([path * (1.0 - level), path * level])
    popcounts = np.bitwise_count(np.arange(2**j))
    probs = np.bincount(popcounts, weights=path, minlength=j + 1)
    return DiscreteDistribution(0, probs)


def check_lemma6(tree: ConditionalBernoulliTree) -> CheckReport:
    """CDF dominance of every partial sum by the iid Bernoulli(q) sum.

    Sums are integer valued, so checking integer thresholds t = 1..j
    covers all real t > 0.  Rejects the tree up front if any node
    probability sits below the floor.
    """
    tree.verify_floor()
    q = tree.q_floor
    worst = math.inf
    worst_at = None
    for j in range(1, tree.depth + 1):
        dist = tree_sum_distribution(tree, j)
        tree_cdf = np.cumsum(dist.probs)
        for t in range(1, j + 1):
            ref = binom_cdf(j, q, t - 1)
            margin = ref - float(tree_cdf[t - 1])
            if margin < worst:
                worst = margin
                worst_at = (j, t)
    return CheckReport(
        name="lemma6",
        params={"depth": tree.depth, "q": q},
        computed={"worst_at": worst_at},
        bounds={},
        passed=worst >= -MASS_TOL,
        margin=worst,
    )
