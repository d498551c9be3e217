"""The four benchmark workloads: seeded inputs, one timed unit, output checks.

A workload is built from the seed alone (its constructor is the set-up that
``setup_s`` times) and is then driven by run.py in rounds.  A round is the
smallest group of units that is run together: one full sweep of check calls
for prob-verify, one LHS/uniform pair for stardisc-3d, a single unit
otherwise.  ``unit(i)`` is the timed work; ``check(i, out)`` runs after the
timer stops and returns whether the output is correct, the lines that go
into the run's output digest, and the unit's bound gap (or None).

The bound gap is ``1 - smaller / larger`` of a bound the unit computes and
the exact value it bounds: the witness bound against the exact discrepancy
on paper-2d-exact, the certified estimate against the exact discrepancy on
stardisc-3d, and each check's bound against the exact probability on
prob-verify.  run.py reports its mean as ``estimate_gap_rel``; it is
deterministic for a seed, so a change that computes a weaker bound, or any
result that is not bit-identical, shows there.

Every call into lhsdisc goes through a module attribute looked up at call
time (``harness.run_trials``, not a name bound at import), so the span
wrappers of spans.py see the calls a traced round makes.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from lhsdisc import discrepancy, harness, points, probtools, sampling, witness
from lhsdisc.rng import derive


def _hex(value: float | None) -> str:
    return "none" if value is None else float(value).hex()


def _gap(bound: float, exact: float) -> float:
    low, high = sorted((float(bound), float(exact)))
    return 1.0 - low / high if high > 0 else 0.0


class Workload:
    """Defaults shared by the workloads; subclasses set name and units."""

    name = ""
    units_per_round = 1
    #: How caches behave across rounds; printed with every result.
    cache_state = "nothing is warmed: every unit computes from its own inputs"

    def round_start(self) -> None:
        pass

    def round_counters(self) -> dict[str, int]:
        """Deterministic counters of the round that just ended."""
        return {}

    def finish(self) -> tuple[bool, list[str]]:
        """Work done once per run after the last unit; (ok, digest lines)."""
        return True, []


class Paper2dExact(Workload):
    """One trial of the paper's d=2, N=3200 exact experiment per unit."""

    name = "paper-2d-exact"
    N, D = 3200, 2
    C_VALUES = (0.5, 1.0, 1.5, 2.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.config = harness.ExperimentConfig(
            kind="lhs", N=self.N, d=self.D, trials=1, master_seed=seed,
            c_values=self.C_VALUES, method="exact2d", strict_witness=True,
        )
        # run_trials recomputes this per call; computing it here checks the
        # strict witness precondition before any unit is timed.
        witness.compute_slab_constant(self.N, self.D, strict=True)
        self.records: list[harness.TrialRecord] = []

    def unit(self, i: int):
        trial = dataclasses.replace(self.config, master_seed=derive(self.seed, i))
        return harness.run_trials(trial)

    def check(self, i: int, records):
        (r,) = records
        self.records.append(r)
        ok = (r.error is None and r.dstar is not None and r.witness_bound is not None
              and r.witness_bound <= r.dstar)
        line = f"{r.seed} {_hex(r.dstar)} {_hex(r.witness_bound)} {r.k_count} {r.error}"
        return ok, [line], _gap(r.witness_bound, r.dstar) if ok else None

    def finish(self) -> tuple[bool, list[str]]:
        summary = harness.summarize(self.records, self.config)
        return summary.n_ok == len(self.records), [
            harness.emit_csv(self.records), harness.emit_json(summary)
        ]


class Paper4dWitness(Workload):
    """lhs_sample -> build_witness -> witness_lower_bound at d=4, N=6400."""

    name = "paper-4d-witness"
    N, D = 6400, 4

    def __init__(self, seed: int):
        self.seed = seed
        self.slab = witness.compute_slab_constant(self.N, self.D, strict=True)

    def unit(self, i: int):
        ps = sampling.lhs_sample(self.N, self.D, derive(self.seed, i))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", witness.NotLatinWarning)
            trace = witness.build_witness(ps, self.slab)
        return trace, witness.witness_lower_bound(trace), caught

    def check(self, i: int, out):
        trace, bound, caught = out
        ok = (trace.stripe_count == self.N // 4
              and not any(issubclass(w.category, witness.NotLatinWarning) for w in caught))
        return ok, [f"{_hex(bound)} {trace.k_count} {_hex(trace.final_excess)} "
                    f"{trace.stripe_count}"], None  # no exact value at d=4, N=6400


class Stardisc3d(Workload):
    """The ``lhsdisc stardisc`` path on pointset text: parse, estimate, exact."""

    name = "stardisc-3d"
    units_per_round = 2  # one LHS and one uniform point set
    N, D = 128, 3
    BUDGET = 12000
    POOL = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.texts: list[tuple[str, np.ndarray]] = []
        for j in range(self.POOL):
            gen = sampling.lhs_sample if j % 2 == 0 else sampling.uniform_sample
            ps = gen(self.N, self.D, derive(seed, f"stardisc-{j}"))
            self.texts.append((points.pointset_to_text(ps), ps.coords))

    def unit(self, i: int):
        ps = points.pointset_from_text(self.texts[i % self.POOL][0])
        estimate = discrepancy.star_discrepancy_lower_estimate(
            ps, self.BUDGET, derive(self.seed, f"estimate-{i}"))
        cert = discrepancy.star_discrepancy_exact(ps)
        return ps, estimate, cert

    def check(self, i: int, out):
        ps, (estimate, est_box), cert = out
        text, coords = self.texts[i % self.POOL]
        n = ps.n_points
        round_trip = (np.array_equal(ps.coords.view(np.uint64), coords.view(np.uint64))
                      and points.pointset_to_text(ps) == text)

        box = cert.argmax_box
        vol = discrepancy.box_volume(box)
        if cert.closed_sided:
            recount = discrepancy.count_closed(ps, box) / n - vol
        else:
            recount = vol - discrepancy.count_open(ps, box) / n
        est_vol = discrepancy.box_volume(est_box)
        est_recount = max(discrepancy.count_closed(ps, est_box) / n - est_vol,
                          abs(discrepancy.count_open(ps, est_box) / n - est_vol))

        ok = (round_trip and estimate <= cert.value
              and recount == cert.value and est_recount == estimate)
        return ok, [
            f"{_hex(cert.value)} {cert.closed_sided} "
            + " ".join(_hex(y) for y in box.upper),
            f"{_hex(estimate)} " + " ".join(_hex(y) for y in est_box.upper),
        ], _gap(estimate, cert.value)


class ProbVerify(Workload):
    """A fixed sweep of 277 probability-inequality checks per round."""

    name = "prob-verify"
    cache_state = "log_choose LRU cache cleared before every sweep (cold, as one process)"
    TREES = 5
    TREE_DEPTH = 16
    TREE_FLOOR = 1.0 / 80.0
    #: (exact value, bound) of the reports that compare one with the other;
    #: lemma6 reports only its worst margin.
    GAP_KEYS = {"theorem3": ("delta", "upper"), "lemma4": ("mass", "floor"),
                "theorem5": ("tail", "hoeffding")}

    def __init__(self, seed: int):
        sweep: list[tuple[str, tuple]] = []
        for n_total in (500, 1000, 2000, 3000, 4000):
            for w_div in (10, 4, 2):
                for n_div in (40, 20, 10, 4):
                    sweep.append(("check_theorem3",
                                  (n_total, n_total // w_div, n_total // n_div)))
        for n in range(16, 401, 16):
            for p in (1.0 / n, 0.1, 0.125, 0.25):
                sweep.append(("check_lemma4", (n, p)))
        for k in (16, 32, 64, 128, 256, 512, 1024):
            for q in (0.125, 0.25, 0.5, 0.75):
                for t in (0.1, 0.2, 0.3, 0.4):
                    sweep.append(("check_theorem5_binomial", (k, q, t)))
        for i in range(self.TREES):
            tree = probtools.ConditionalBernoulliTree.random(
                self.TREE_DEPTH, self.TREE_FLOOR, derive(seed, f"lemma6-{i}"))
            sweep.append(("check_lemma6", (tree,)))
        self.sweep = sweep
        self.units_per_round = len(sweep)

    def round_start(self) -> None:
        probtools.log_choose.cache_clear()

    def round_counters(self) -> dict[str, int]:
        info = probtools.log_choose.cache_info()
        return {"probtools.log_choose.hits": info.hits,
                "probtools.log_choose.misses": info.misses}

    def unit(self, i: int):
        name, args = self.sweep[i % len(self.sweep)]
        return getattr(probtools, name)(*args)

    def check(self, i: int, report):
        gap = None
        if report.name in self.GAP_KEYS:
            exact, bound = self.GAP_KEYS[report.name]
            gap = _gap(report.bounds[bound], report.computed[exact])
        return report.passed, report.lines(), gap


WORKLOADS = {cls.name: cls for cls in (Paper2dExact, Paper4dWitness, Stardisc3d, ProbVerify)}
