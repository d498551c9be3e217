"""Seeded multi-trial experiments with CSV/JSON emission.

Each trial derives its own seed from the master seed and the trial index,
generates a sample, measures its star discrepancy by the configured
method, and (in dimension >= 2, when a slab constant exists) runs the
witness construction.  Records are collected in trial order, so a config
determines the output bit for bit regardless of execution schedule.
Wall-clock measurements are kept out of the equality contract and out of
the emitted files by default for the same reason.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Sequence

from . import discrepancy, witness
from .probtools import CheckReport, binom_cdf
from .rng import derive
from .sampling import lhs_sample, uniform_sample
from .witness import NoAdmissibleC, NotLatinWarning, PreconditionViolated

KINDS = ("lhs", "uniform")

#: Theorem-1-style tail reference: P(D* <= c sqrt(d/N)) >= 1 - exp(-(Ac^2 - B) d).
TAIL_COEFF_A = 1.6741
TAIL_COEFF_B = 11.7042

CSV_COLUMNS = ("trial", "seed", "dstar", "method", "witness_bound", "k_count", "runtime_ms")


class NoData(ValueError):
    """No successful trial to summarize."""


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    N: int
    d: int
    trials: int
    master_seed: int
    c_values: tuple[float, ...] = ()
    method: str = "exact"
    estimate_budget: int = 1000
    strict_witness: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.method not in discrepancy.METHODS:
            raise ConfigError(f"method must be one of {discrepancy.METHODS}, got {self.method!r}")
        if self.N < 1 or self.d < 1:
            raise ConfigError(f"N and d must be positive, got {self.N} x {self.d}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.method == "exact2d" and self.d != 2:
            raise ConfigError("method exact2d requires d = 2")
        if self.estimate_budget < 1:
            raise ConfigError("estimate_budget must be >= 1")
        if not all(math.isfinite(c) and c > 0 for c in self.c_values):
            raise ConfigError(f"c_values must be finite and positive, got {self.c_values}")
        keys = [format(c, ".6g") for c in self.c_values]
        if len(set(keys)) != len(keys):
            # The summary keys its per-c entries by these 6-digit forms.
            raise ConfigError(f"c_values must differ in 6 significant digits, got {keys}")


_CONFIG_PARSERS = {
    "kind": str,
    "N": int,
    "d": int,
    "trials": int,
    "master_seed": int,
    "method": str,
    "estimate_budget": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` experiment-config format.  A `#` starts
    a comment that runs to the end of its line; no key or value holds one."""
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _CONFIG_PARSERS:
            try:
                fields[key] = _CONFIG_PARSERS[key](value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
        elif key == "c_values":
            try:
                fields[key] = tuple(float(tok) for tok in value.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"line {lineno}: bad c_values: {value!r}") from None
        elif key == "strict_witness":
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"line {lineno}: strict_witness must be true/false")
            fields[key] = value.lower() == "true"
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"missing required keys: {exc}") from None


@dataclass
class TrialRecord:
    trial: int
    seed: int
    dstar: float | None = None
    method: str | None = None
    witness_bound: float | None = None
    k_count: int | None = None
    runtime_ms: float | None = field(default=None, compare=False)
    error: str | None = None


@dataclass
class CBoundSummary:
    """Tail statistics for one threshold c (event D* <= c sqrt(d/N))."""

    c: float
    threshold: float
    frequency: float | None
    reference: float | None  # None when the tail exponent is not positive


@dataclass
class Summary:
    """Aggregate statistics; the field order is the key order of emit_json."""

    n_trials: int
    n_ok: int
    dstar_mean: float | None
    dstar_se: float | None
    k_mean: float | None
    k_reference: float | None
    witness_mean: float | None
    witness_se: float | None
    witness_reference: float | None
    freq_k_below: float | None
    k_below_reference: float | None
    per_c: dict[str, CBoundSummary]


def tail_reference(c: float, d: int) -> float | None:
    """1 - exp(-(A c^2 - B) d), or None when the exponent is not positive."""
    exponent = (TAIL_COEFF_A * c * c - TAIL_COEFF_B) * d
    if exponent <= 0.0:
        return None
    return 1.0 - math.exp(-exponent)


def _sample_stats(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """Run all trials, recording the expected per-trial failures.

    A slab constant that cannot be computed (NoAdmissibleC,
    PreconditionViolated) and an exact grid over budget (BudgetExceeded) are
    recorded in each affected trial's ``error``; any other exception
    propagates.
    """
    slab = None
    slab_error: str | None = None
    if config.d >= 2:
        try:
            slab = witness.compute_slab_constant(config.N, config.d, config.strict_witness)
        except (NoAdmissibleC, PreconditionViolated) as exc:
            slab_error = f"{type(exc).__name__}: {exc}"

    budget = config.estimate_budget if config.method == "estimate" else None
    records: list[TrialRecord] = []
    for i in range(config.trials):
        t0 = time.perf_counter()
        trial_seed = derive(config.master_seed, i)
        record = TrialRecord(trial=i, seed=trial_seed, method=config.method)
        if config.kind == "lhs":
            ps = lhs_sample(config.N, config.d, trial_seed)
        else:
            ps = uniform_sample(config.N, config.d, trial_seed)

        errors = []
        extra_boxes = []
        if slab is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NotLatinWarning)
                trace = witness.build_witness(ps, slab)
            record.witness_bound = witness.witness_lower_bound(trace)
            record.k_count = trace.k_count
            extra_boxes.append(trace.final_box)
        elif slab_error is not None:
            errors.append(slab_error)

        try:
            record.dstar = discrepancy.star_discrepancy(
                ps, config.method, budget, derive(trial_seed, "estimate"), extra_boxes).value
        except discrepancy.BudgetExceeded as exc:
            errors.append(f"BudgetExceeded: {exc}")
        record.error = "; ".join(errors) if errors else None
        record.runtime_ms = (time.perf_counter() - t0) * 1000.0
        records.append(record)
    return records


def summarize(records: Sequence[TrialRecord], config: ExperimentConfig) -> Summary:
    """Aggregate statistics plus the theory reference values they face."""
    dstars = [r.dstar for r in records if r.dstar is not None]
    ks = [r.k_count for r in records if r.k_count is not None]
    wbs = [r.witness_bound for r in records if r.witness_bound is not None]
    n_ok = sum(1 for r in records if r.error is None)
    if not records or (not dstars and not wbs):
        raise NoData("no successful trial to summarize")

    dstar_mean = dstar_se = None
    if dstars:
        dstar_mean, dstar_se = _sample_stats(dstars)

    per_c: dict[str, CBoundSummary] = {}
    for c in config.c_values:
        threshold = c * math.sqrt(config.d / config.N)
        freq = None
        if dstars:
            freq = sum(1 for v in dstars if v <= threshold) / len(dstars)
        per_c[format(c, ".6g")] = CBoundSummary(
            c=c, threshold=threshold, frequency=freq, reference=tail_reference(c, config.d)
        )

    k_mean = k_ref = None
    witness_mean = witness_se = witness_ref = None
    freq_k_below = k_below_ref = None
    if config.d >= 2:
        k_ref = (config.d - 1) / 80.0
        cut = config.d / 200.0
        k_below_ref = binom_cdf(config.d - 1, 1.0 / 80.0, math.ceil(cut) - 1)
        if ks:
            k_mean = sum(ks) / len(ks)
            freq_k_below = sum(1 for k in ks if k < cut) / len(ks)
        if wbs:
            witness_mean, witness_se = _sample_stats(wbs)
        try:
            sc = witness.compute_slab_constant(config.N, config.d, strict=False)
            tc = witness.theory_constants(sc)
            witness_ref = tc.expectation_const * math.sqrt((config.d - 1) / config.N)
        except (NoAdmissibleC, PreconditionViolated):
            pass

    return Summary(
        n_trials=len(records),
        n_ok=n_ok,
        dstar_mean=dstar_mean,
        dstar_se=dstar_se,
        k_mean=k_mean,
        k_reference=k_ref,
        witness_mean=witness_mean,
        witness_se=witness_se,
        witness_reference=witness_ref,
        freq_k_below=freq_k_below,
        k_below_reference=k_below_ref,
        per_c=per_c,
    )


def verify_theorem1(config: ExperimentConfig,
                    records: Sequence[TrialRecord] | None = None) -> CheckReport:
    """Empirical tail frequencies against the 1 - exp(-(Ac^2 - B)d) reference.

    For each c with a positive exponent, requires the empirical frequency
    of {D* <= c sqrt(d/N)} to clear the reference minus three standard
    errors (plus a 1/trials cushion); other c are reported not-applicable.
    Needs an exact method: a lower bound at or below the threshold does
    not put D* there, so the estimate is refused before any trial runs.
    """
    if config.kind != "lhs":
        raise PreconditionViolated("tail reference applies to Latin hypercube samples")
    if config.method not in ("exact", "exact2d"):
        raise PreconditionViolated(
            f"the tail frequency needs D* itself; method {config.method!r} gives a lower bound"
        )
    if records is None:
        records = run_trials(config)
    summary = summarize(records, config)

    computed: dict = {}
    passed = True
    worst = math.inf
    for key, entry in summary.per_c.items():
        if entry.reference is None or entry.frequency is None:
            computed[key] = {"frequency": entry.frequency, "reference": None,
                             "status": "not-applicable"}
            continue
        se = math.sqrt(entry.reference * (1.0 - entry.reference) / summary.n_trials
                       + 1.0 / summary.n_trials)
        floor = entry.reference - 3.0 * se
        ok = entry.frequency >= floor
        computed[key] = {"frequency": entry.frequency, "reference": entry.reference,
                         "floor": floor, "status": "pass" if ok else "fail"}
        passed &= ok
        worst = min(worst, entry.frequency - floor)
    return CheckReport(
        name="theorem1",
        params={"N": config.N, "d": config.d, "trials": summary.n_trials},
        computed=computed,
        bounds={},
        passed=passed,
        margin=worst,
    )


def verify_theorem2(config: ExperimentConfig,
                    records: Sequence[TrialRecord] | None = None) -> CheckReport:
    """Witness-bound expectation, mean D*, and the small-k tail frequency.

    Checks (i) mean witness bound >= expectation_const sqrt((d-1)/N) minus
    three standard errors, (ii) with an exact method, mean D* >= K sqrt(d/N),
    and (iii) the frequency of {k < d/200} against the exact binomial
    coupling reference binom_cdf(d-1, 1/80, ceil(d/200)-1) plus three
    standard errors.
    """
    if config.kind != "lhs":
        raise PreconditionViolated("guarantees apply to Latin hypercube samples")
    if config.d < 2 or config.N < 1600 * config.d:
        raise PreconditionViolated(
            f"need d >= 2 and N >= 1600 d, got N = {config.N}, d = {config.d}"
        )
    if records is None:
        records = run_trials(config)
    summary = summarize(records, config)

    sc = witness.compute_slab_constant(config.N, config.d, strict=True)
    tc = witness.theory_constants(sc)
    computed: dict = {}
    margins = []

    if summary.witness_mean is None or summary.witness_reference is None:
        raise NoData("no witness bounds recorded")
    floor_w = summary.witness_reference - 3.0 * summary.witness_se
    computed["witness"] = {"mean": summary.witness_mean,
                           "reference": summary.witness_reference, "floor": floor_w}
    margins.append(summary.witness_mean - floor_w)

    if config.method in ("exact", "exact2d") and summary.dstar_mean is not None:
        dstar_floor = tc.K * math.sqrt(config.d / config.N)
        computed["dstar"] = {"mean": summary.dstar_mean, "floor": dstar_floor}
        margins.append(summary.dstar_mean - dstar_floor)

    ref = summary.k_below_reference
    se = math.sqrt(ref * (1.0 - ref) / summary.n_trials)
    ceiling = ref + 3.0 * se
    computed["k_below"] = {"frequency": summary.freq_k_below,
                           "reference": ref, "ceiling": ceiling}
    margins.append(ceiling - summary.freq_k_below)

    worst = min(margins)
    return CheckReport(
        name="theorem2",
        params={"N": config.N, "d": config.d, "trials": summary.n_trials,
                "K": tc.K, "expectation_const": tc.expectation_const},
        computed=computed,
        bounds={},
        passed=worst >= 0.0,
        margin=worst,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(records: Sequence[TrialRecord], include_runtime: bool = False) -> str:
    """Render records in the fixed column order of CSV_COLUMNS.

    Runtimes are excluded by default so repeated runs of one config emit
    byte-identical files.
    """
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        runtime = r.runtime_ms if include_runtime else None
        lines.append(",".join([
            str(r.trial), str(r.seed), _fmt(r.dstar), r.method or "",
            _fmt(r.witness_bound), _fmt(r.k_count), _fmt(runtime),
        ]))
    return "\n".join(lines) + "\n"


def emit_json(summary: Summary) -> str:
    """Render a summary as indented JSON, keys in Summary's field order."""
    return json.dumps(asdict(summary), indent=2) + "\n"
