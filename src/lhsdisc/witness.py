"""Recursive witness-box construction certifying a star-discrepancy lower bound.

Starting from the stripe B_1 = [0, floor(N/4)/N) x [0,1)^(d-1), which for a
Latin hypercube sample contains exactly floor(N/4) points (zero excess),
the construction walks the remaining axes.  At axis j it counts the points
of the current box that fall inside the thin slab where coordinate j lies
in [1 - c/d, 1); for a Latin sample the slab holds exactly n = Nc/d points
overall, and the in-box count Y_j follows a sampling-without-replacement
law.  Whenever Y_j undershoots its mean by half a standard-deviation proxy
(Y_j <= n p_j - sqrt(n p_j)/2, with p_j the in-box fraction W_j/N), the box
is shrunk on axis j by the factor 1 - c/d: the undershoot means the shaved
slab carried fewer points than its volume share, so the surviving box gains
excess.  Otherwise the axis is left at 1 and nothing changes.  Each shrink
adds at least sqrt(c v)/2 * sqrt(N/d) to the excess (v is the floor of the
box volume), so the final excess divided by N is a certified lower bound
for the star discrepancy.

The walk carries one running box: the mask of its points, their count and
its volume.  A shrink removes exactly the slab's Y_j points and multiplies
the volume by the one coordinate that changed, so nothing is recounted.
Every box coordinate is a binary64, so N vol is an integer over a power of
two; the walk carries it exactly, next to the float volume.  Every reported
excess, and the bound, is the largest double at or below its exact value,
so the bound never exceeds the box's exact local discrepancy.

The construction is a deterministic, pure function of the point set; all
randomness lives in the sample.  It is well defined for any point set, but
its probabilistic guarantees hold only under the Latin hypercube law, so a
non-Latin input triggers a warning rather than an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .discrepancy import AnchoredBox, DimensionMismatch
from .points import PointSet
from .sampling import latin_check


class NoAdmissibleC(ValueError):
    """No slab constant c in (1/84, 1/80] makes N c / d an integer."""


class PreconditionViolated(ValueError):
    """Instance parameters outside the guaranteed regime."""


class NotLatinWarning(UserWarning):
    """Input is not a Latin hypercube sample; guarantees are void."""


@dataclass(frozen=True)
class SlabConstant:
    """Slab constant c in (1/84, 1/80] with N c / d integral.

    k_int = N c / d is the exact number of points a Latin sample puts in
    each axis slab of width c/d; shrink_coord = 1 - k_int/N is the shrunk
    upper coordinate 1 - c/d, computed once so that every consumer (slab
    membership, box corners, volumes) compares against the same double.
    """

    n_points: int
    dim: int
    k_int: int
    c: float
    shrink_coord: float


@dataclass(frozen=True)
class TheoryConstants:
    """Constants derived from c: v = (1/5)(1 - c/2)^2, K = sqrt(c v^3)/80,
    and the expectation constant sqrt(c v^3) / (32 sqrt(2))."""

    v: float
    K: float
    expectation_const: float


@dataclass(frozen=True)
class WitnessStep:
    """Record of one axis decision (axes are numbered 2..d)."""

    j: int
    w_count: int
    p: float
    y_count: int
    threshold: float
    eta: int
    x: float
    volume: float
    excess: float


@dataclass
class WitnessTrace:
    """Full record of the construction on one point set, built once when
    the walk ends; ``final_box`` is the last step's box.

    ``stripe_excess``, each step's ``excess`` and ``final_excess`` are the
    largest doubles at or below the exact excesses count - N vol;
    ``final_excess_ratio`` is the final box's exact excess as (numerator,
    denominator), the denominator a power of two.
    """

    n_points: int
    dim: int
    slab: SlabConstant
    stripe_upper: float
    stripe_count: int
    stripe_excess: float
    steps: list[WitnessStep]
    k_count: int
    final_box: AnchoredBox
    final_excess: float
    final_excess_ratio: tuple[int, int]


def compute_slab_constant(n_points: int, dim: int, strict: bool = True) -> SlabConstant:
    """Largest c in (1/84, 1/80] with N c / d integral, as c = k d / N.

    k must be the largest integer in (N/(84 d), N/(80 d)], i.e.
    k = floor(N / (80 d)) provided 84 d k > N.  Such a k always exists
    once N >= 1600 d: for N/d in [1600, 1680) the floor is 20 and
    84 d * 20 = 1680 d > N; at N/d = 1680 the floor 21 works; and for
    N/d > 1680 the interval has length N/(1680 d) > 1, so it contains an
    integer.  In strict mode N >= 1600 d is required up front.
    """
    if dim < 2:
        raise PreconditionViolated(f"construction needs dim >= 2, got {dim}")
    if strict and n_points < 1600 * dim:
        raise PreconditionViolated(
            f"strict mode requires N >= 1600 d ({1600 * dim}), got N = {n_points}; "
            "pass strict=False (--force) for exploratory runs"
        )
    k = n_points // (80 * dim)
    if k < 1 or 84 * dim * k <= n_points:
        lo = n_points / (84 * dim)
        hi = n_points / (80 * dim)
        raise NoAdmissibleC(
            f"no integer in ({lo:.6g}, {hi:.6g}] for N = {n_points}, d = {dim}"
        )
    return SlabConstant(
        n_points=n_points,
        dim=dim,
        k_int=k,
        c=k * dim / n_points,
        shrink_coord=1.0 - k / n_points,
    )


def theory_constants(sc: SlabConstant) -> TheoryConstants:
    v = 0.2 * (1.0 - sc.c / 2.0) ** 2
    root = math.sqrt(sc.c * v**3)
    return TheoryConstants(v=v, K=root / 80.0, expectation_const=root / (32.0 * math.sqrt(2.0)))


def _shrinks(k: int, w_count: int, y_count: int, n: int) -> bool:
    """Y <= m - sqrt(m)/2 with m = k W / N, decided in integers.

    With D = k W - Y N = N (m - Y), the rule is D >= 0 and 4 D^2 >= k W N.
    """
    gap = k * w_count - y_count * n
    return gap >= 0 and 4 * gap * gap >= k * w_count * n


def _round_down(num: int, den: int) -> float:
    """Largest double at or below num / den, for den > 0."""
    q = num / den  # int true division rounds correctly, to nearest
    a, b = q.as_integer_ratio()
    return math.nextafter(q, -math.inf) if a * den > num * b else q


def build_witness(ps: PointSet, sc: SlabConstant) -> WitnessTrace:
    """Run the construction on ``ps`` and record every intermediate.

    The boxes are products of half-open intervals [0, x_i), the slab on
    axis j is [1 - c/d, 1), and all membership tests use the literal
    strict/non-strict comparisons, so the Latin counting identities
    (stripe count = floor(N/4), slab count = N c / d) hold exactly.
    The shrink rule Y <= m - sqrt(m)/2, with m = k W / N (k = N c / d
    points per slab, W points in the box), is decided exactly in integers
    (``_shrinks``).  In binary64 an exact tie can round the wrong way: at
    N = 7840, d = 2 (k = 49), W = 640 gives m = 4 and the tie Y = 3, but
    49 * (640 / 7840) rounds below 4, so the float threshold falls below
    3.  The float ``threshold`` is kept for the trace only.

    Each axis computes its slab mask once and takes Y from it.  The box's
    count and volume are running state: a shrink subtracts Y from the count
    and multiplies the volume by 1 - c/d, which is the left-to-right
    product ``box_volume`` forms, since every other factor is 1.0.  Next to
    it N vol is kept exactly, from each coordinate's ``as_integer_ratio``,
    and each excess is rounded toward -inf from its exact value, so a step
    that leaves the box as it is repeats the excess before it.
    """
    n, d = ps.n_points, ps.dim
    if (n, d) != (sc.n_points, sc.dim):
        raise DimensionMismatch(
            f"point set is {n} x {d}, slab constant is for {sc.n_points} x {sc.dim}"
        )
    if not latin_check(ps):
        warnings.warn(
            "input is not a Latin hypercube sample; the excess guarantees are void",
            NotLatinWarning,
            stacklevel=2,
        )

    coords = ps.coords
    stripe_upper = (n // 4) / n
    inside = coords[:, 0] < stripe_upper  # remaining axes are full [0,1)
    stripe_count = count = int(inside.sum())
    volume = stripe_upper
    # N vol = n * num / den exactly: every coordinate is a binary64.
    num, den = stripe_upper.as_integer_ratio()
    stripe_excess = _round_down(stripe_count * den - n * num, den)

    shrink = sc.shrink_coord
    n_slab = sc.k_int
    shrink_num, shrink_den = shrink.as_integer_ratio()
    steps = []
    for j in range(2, d + 1):
        slab = inside & (coords[:, j - 1] >= shrink)
        w_count, y_count = count, int(slab.sum())
        p = w_count / n
        mean = n_slab * p
        threshold = mean - math.sqrt(mean) / 2.0
        eta = int(_shrinks(n_slab, w_count, y_count, n))
        if eta:
            inside ^= slab  # the slab lies inside the box
            count -= y_count
            volume *= shrink
            num *= shrink_num
            den *= shrink_den
        steps.append(
            WitnessStep(j=j, w_count=w_count, p=p, y_count=y_count,
                        threshold=threshold, eta=eta, x=shrink if eta else 1.0,
                        volume=volume, excess=_round_down(count * den - n * num, den))
        )

    return WitnessTrace(
        n_points=n,
        dim=d,
        slab=sc,
        stripe_upper=stripe_upper,
        stripe_count=stripe_count,
        stripe_excess=stripe_excess,
        steps=steps,
        k_count=sum(step.eta for step in steps),
        final_box=AnchoredBox([stripe_upper] + [step.x for step in steps]),
        final_excess=steps[-1].excess,
        final_excess_ratio=(count * den - n * num, den),
    )


def witness_lower_bound(trace: WitnessTrace) -> float:
    """Certified lower bound for the star discrepancy: the largest double
    at or below max(E, 0) / N, with E the final box's exact excess."""
    num, den = trace.final_excess_ratio
    return _round_down(max(num, 0), den * trace.n_points)
