import csv
import io
import json
import math
from pathlib import Path

import pytest

from lhsdisc import harness
from lhsdisc.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    NoData,
    TrialRecord,
    emit_csv,
    emit_json,
    parse_config,
    run_trials,
    summarize,
    tail_reference,
    verify_theorem1,
    verify_theorem2,
)
from lhsdisc.rng import derive
from lhsdisc.sampling import lhs_sample
from lhsdisc.witness import PreconditionViolated, build_witness, compute_slab_constant

from oracles import floor_double, witness_bound_frac

CONFIG_TEXT = """
# demo experiment
kind = lhs
N = 64
d = 2
trials = 4
master_seed = 31337
c_values = 1, 3, 4
method = exact
estimate_budget = 50
strict_witness = true
"""


def small_config(**overrides):
    base = dict(kind="lhs", N=64, d=2, trials=4, master_seed=31337,
                c_values=(1.0, 3.0), method="exact", strict_witness=True)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_round_trip(self):
        config = parse_config(CONFIG_TEXT)
        assert config == ExperimentConfig(
            kind="lhs", N=64, d=2, trials=4, master_seed=31337,
            c_values=(1.0, 3.0, 4.0), method="exact",
            estimate_budget=50, strict_witness=True,
        )

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("kind = lhs\nwat = 3\n")

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("kind = lhs\nN = many\n")
        with pytest.raises(ConfigError):
            parse_config(CONFIG_TEXT + "strict_witness = maybe\n")

    def test_parse_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'N'"):
            parse_config("kind = lhs\nN = 100\nN = 200\n")
        with pytest.raises(ConfigError, match="duplicate key 'c_values'"):
            parse_config(CONFIG_TEXT + "c_values = 2\n")

    @pytest.mark.parametrize("c_values", ["nan", "-1", "0", "inf", "3, nan",
                                          "1, 1.0000001", "3, 3", "2, 2.0000004"])
    def test_parse_rejects_c_values_the_summary_cannot_key(self, c_values):
        # Non-finite values would be written as NaN / Infinity (not JSON),
        # and values with equal 6-digit keys would overwrite a per-c entry.
        with pytest.raises(ConfigError, match="c_values must"):
            parse_config(CONFIG_TEXT.replace("c_values = 1, 3, 4", f"c_values = {c_values}"))

    def test_parse_the_readme_example(self):
        # The fenced block under the README's config heading, verbatim,
        # with its inline comments.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Experiment config format", 1)[1]
        block = section.split("```\n", 2)[1]
        assert "#" in block
        assert parse_config(block) == ExperimentConfig(
            kind="lhs", N=3200, d=2, trials=100, master_seed=12345,
            c_values=(3.0, 4.0), method="exact2d", estimate_budget=1000,
            strict_witness=True,
        )

    @pytest.mark.parametrize("line,key,value", [
        ("kind = uniform# a comment", "kind", "uniform"),
        ("trials = 7   # an int", "trials", 7),
        ("c_values = 1, 3.5 # thresholds, comma separated", "c_values", (1.0, 3.5)),
        ("strict_witness = false  # true | false", "strict_witness", False),
        ("method = estimate #", "method", "estimate"),
    ])
    def test_inline_comment_ends_the_value(self, line, key, value):
        text = CONFIG_TEXT.replace(f"\n{key} = ", f"\n# {key} = ")
        assert getattr(parse_config(text + line + "\n"), key) == value

    def test_comment_only_and_key_only_lines(self):
        assert parse_config(CONFIG_TEXT + "   # indented comment\n") == parse_config(CONFIG_TEXT)
        with pytest.raises(ConfigError, match="line 12: expected 'key = value'"):
            parse_config(CONFIG_TEXT + "trials # = 5\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(kind="sobol")
        with pytest.raises(ConfigError):
            small_config(method="exact2d", d=3)
        with pytest.raises(ConfigError):
            small_config(trials=0)


class TestRunTrials:
    def test_deterministic_and_ordered(self):
        config = small_config()
        a = run_trials(config)
        b = run_trials(config)
        assert a == b  # runtimes excluded from equality
        assert [r.trial for r in a] == [0, 1, 2, 3]

    def test_d1_lhs_exact_respects_law(self):
        config = small_config(N=100, d=1, trials=1, c_values=())
        (record,) = run_trials(config)
        assert record.dstar is not None and record.dstar <= 0.01 + 1e-12
        assert record.witness_bound is None  # no witness in dimension 1

    def test_uniform_exact2d_range(self):
        config = small_config(kind="uniform", N=512, d=2, trials=10,
                              method="exact2d", strict_witness=True)
        records = run_trials(config)
        assert len(records) == 10
        assert all(0.0 < r.dstar <= 1.0 for r in records)

    def test_witness_recorded_when_slab_exists(self):
        config = small_config(N=3200, d=2, trials=2, method="estimate")
        records = run_trials(config)
        for r in records:
            assert r.witness_bound is not None and r.k_count is not None
            assert r.error is None

    def test_missing_slab_recorded_not_fatal(self):
        # N = 64 < 1600 d: strict gate refuses the slab constant.
        records = run_trials(small_config())
        for r in records:
            assert r.witness_bound is None
            assert "PreconditionViolated" in r.error
            assert r.dstar is not None

    def test_budget_exceeded_recorded_not_fatal(self, monkeypatch):
        config = small_config(kind="uniform", N=40, d=3, trials=2,
                              method="exact", strict_witness=False)
        import lhsdisc.discrepancy as discrepancy_module

        original = discrepancy_module.star_discrepancy_exact
        monkeypatch.setattr(discrepancy_module, "star_discrepancy_exact",
                            lambda ps, budget=10**9: original(ps, budget=10))
        records = run_trials(config)
        assert len(records) == 2
        for record in records:
            assert record.dstar is None
            assert "BudgetExceeded" in record.error

    @pytest.mark.parametrize("method,kernel", [
        ("exact", "star_discrepancy_exact"),
        ("exact2d", "star_discrepancy_exact_2d"),
        ("estimate", "star_discrepancy_lower_estimate"),
    ])
    def test_kernel_looked_up_at_call_time(self, monkeypatch, method, kernel):
        import lhsdisc.discrepancy as discrepancy_module

        real = getattr(discrepancy_module, kernel)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(discrepancy_module, kernel, spy)
        config = small_config(trials=3, method=method, estimate_budget=5)
        records = run_trials(config)
        assert len(calls) == 3
        if method == "estimate":
            assert [args[1:3] for args in calls] == [
                (5, derive(r.seed, "estimate")) for r in records]

    def test_estimate_method_uses_budget(self):
        config = small_config(method="estimate", estimate_budget=5)
        records = run_trials(config)
        assert all(r.dstar is not None for r in records)


class TestSummarize:
    def test_equal_values_zero_se(self):
        config = small_config(trials=3, c_values=(3.0,))
        records = [TrialRecord(trial=i, seed=i, dstar=0.25, method="exact")
                   for i in range(3)]
        summary = summarize(records, config)
        assert summary.dstar_mean == 0.25
        assert summary.dstar_se == 0.0
        assert summary.per_c["3"].frequency == 1.0  # 0.25 <= 3 sqrt(2/64)

    def test_no_data(self):
        config = small_config()
        with pytest.raises(NoData):
            summarize([TrialRecord(trial=0, seed=0)], config)

    def test_references(self):
        config = small_config(N=6400, d=4, trials=2, c_values=(1.0, 3.0))
        summary = summarize(run_trials(config), config)
        assert summary.k_reference == pytest.approx(3 / 80)
        assert summary.per_c["1"].reference is None  # vacuous exponent
        ref3 = summary.per_c["3"].reference
        assert ref3 == pytest.approx(1 - math.exp(-(1.6741 * 9 - 11.7042) * 4), rel=1e-12)
        assert summary.k_below_reference == pytest.approx((79 / 80) ** 3, rel=1e-12)
        assert summary.freq_k_below is not None

    def test_tail_reference_matches_quoted_probabilities(self):
        # At d = 1 the c = 3 reference reproduces 0.965358 (6 decimals);
        # the c = 4 reference 0.99999972 floors to 0.999999.
        assert tail_reference(3.0, 1) == pytest.approx(0.965358, abs=2e-6)
        assert tail_reference(4.0, 1) >= 0.999999
        assert tail_reference(1.0, 1) is None

    def test_tail_reference_crossover(self):
        # The exponent turns positive at c = sqrt(11.7042/1.6741) = 2.64415...
        assert tail_reference(2.6441, 1) is None
        assert tail_reference(2.6442, 1) is not None


class TestVerify:
    def test_theorem1_small_run(self):
        config = small_config(N=256, d=2, trials=20, method="exact2d",
                              c_values=(1.0, 3.0, 4.0))
        records = run_trials(config)
        report = verify_theorem1(config, records)
        assert report.passed
        assert report.computed["1"]["status"] == "not-applicable"
        assert report.computed["3"]["status"] == "pass"

    def test_theorem1_requires_lhs(self):
        config = small_config(kind="uniform")
        with pytest.raises(PreconditionViolated):
            verify_theorem1(config)

    def test_theorem1_refuses_lower_bounds(self, monkeypatch):
        # Lower bounds at or below c sqrt(d/N) would count as D* there: this
        # config passed with frequency 1.0 at both c when the estimate was
        # accepted.  The refusal comes before any trial runs.
        config = ExperimentConfig(kind="lhs", N=6400, d=4, trials=5, master_seed=1,
                                  c_values=(2.65, 3.0), method="estimate")

        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trials", no_trials)
        with pytest.raises(PreconditionViolated, match="lower bound"):
            verify_theorem1(config)
        with pytest.raises(PreconditionViolated, match="lower bound"):
            verify_theorem1(config, [])

    def test_theorem2_small_run(self):
        config = small_config(N=3200, d=2, trials=10, method="estimate",
                              c_values=())
        records = run_trials(config)
        report = verify_theorem2(config, records)
        assert "witness" in report.computed and "k_below" in report.computed
        assert report.passed

    def test_theorem2_gate(self):
        with pytest.raises(PreconditionViolated):
            verify_theorem2(small_config(N=100, d=2, trials=1))


class TestEmit:
    def test_csv_columns_and_parse_back(self):
        config = small_config(N=3200, d=2, trials=3, method="estimate")
        records = run_trials(config)
        text = emit_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert len(rows) == 3
        for row, record in zip(rows, records):
            assert int(row["trial"]) == record.trial
            assert int(row["seed"]) == record.seed
            assert float(row["dstar"]) == record.dstar  # 17 digits round-trip
            assert float(row["witness_bound"]) == record.witness_bound
            assert row["runtime_ms"] == ""  # deterministic by default

    def test_csv_empty_cells_for_missing(self):
        records = [TrialRecord(trial=0, seed=1, dstar=None, method="exact")]
        text = emit_csv(records)
        assert text.splitlines()[1] == "0,1,,exact,,,"

    def test_csv_runtime_opt_in(self):
        records = [TrialRecord(trial=0, seed=1, runtime_ms=12.5)]
        assert ",12.5" in emit_csv(records, include_runtime=True)

    def test_csv_repeated_runs_identical(self):
        config = small_config()
        assert emit_csv(run_trials(config)) == emit_csv(run_trials(config))

    def test_summary_json_round_trip(self):
        config = small_config(N=3200, d=2, trials=3, method="estimate",
                              c_values=(3.0,))
        summary = summarize(run_trials(config), config)
        payload = json.loads(emit_json(summary))
        assert payload["n_trials"] == 3
        assert "3" in payload["per_c"]
        assert payload["per_c"]["3"]["threshold"] == pytest.approx(3 * math.sqrt(2 / 3200))

    @pytest.mark.parametrize("method,dstars,mean,se", [
        pytest.param("exact", ("0.046732036256787721", "0.040500527200427128",
                               "0.058912434452360107"),
                     "0.048714999303191654", "0.00540674544730926", id="exact"),
        pytest.param("estimate", ("0.043384491445356888", "0.033047404218017995",
                                  "0.04889392712613605"),
                     "0.04177527426317031", "0.004644719475704317", id="estimate"),
    ])
    def test_artifact_bytes_pinned(self, method, dstars, mean, se):
        # N = 160 admits a non-strict slab constant (k = 1), so every
        # deterministic column is filled; c = 1 has no tail reference and
        # c = 3 has one.  The estimate (budget 50) is also given each
        # trial's witness box.
        config = small_config(N=160, trials=3, strict_witness=False, method=method,
                              estimate_budget=50)
        records = run_trials(config)
        # Each pinned witness bound is the largest double at or below its
        # box's exact bound.  Trial 1's box [0, 1/4) x [0, 1 - 1/160) holds
        # 40 points, and N vol lies 2**-52 above 39.75, so the bound lies
        # just below 1/640.
        slab = compute_slab_constant(160, 2, strict=False)
        for record in records:
            ps = lhs_sample(160, 2, record.seed)
            upper = build_witness(ps, slab).final_box.upper
            assert record.witness_bound == floor_double(witness_bound_frac(ps.coords, upper))
        assert emit_csv(records) == (
            "trial,seed,dstar,method,witness_bound,k_count,runtime_ms\n"
            f"0,4543630709867271855,{dstars[0]},{method},0,0,\n"
            f"1,9755870440102326128,{dstars[1]},{method},0.0015624999999999944,1,\n"
            f"2,16598938683728881325,{dstars[2]},{method},0,0,\n"
        )
        assert emit_json(summarize(records, config)) == """\
{
  "n_trials": 3,
  "n_ok": 3,
  "dstar_mean": %s,
  "dstar_se": %s,
  "k_mean": 0.3333333333333333,
  "k_reference": 0.0125,
  "witness_mean": 0.0005208333333333315,
  "witness_se": 0.0005208333333333315,
  "witness_reference": 1.7143774970490224e-05,
  "freq_k_below": 0.6666666666666666,
  "k_below_reference": 0.9875,
  "per_c": {
    "1": {
      "c": 1.0,
      "threshold": 0.11180339887498948,
      "frequency": 1.0,
      "reference": null
    },
    "3": {
      "c": 3.0,
      "threshold": 0.33541019662496846,
      "frequency": 1.0,
      "reference": 0.9987999595326919
    }
  }
}
""" % (mean, se)

