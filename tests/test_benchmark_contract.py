"""The library entry points the benchmark calls, exercised in a second or so.

The benchmark's own test (benchmarks/test_bench.py) takes minutes and is not
part of this suite.  This file imports benchmarks/spans.py and
benchmarks/workloads.py as they are and runs one unit of each gated workload
in BENCHMARK.json, so that removing or renaming anything the benchmark uses
fails here.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import spans  # noqa: E402
import workloads  # noqa: E402

GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("owner,attr", [t[1:3] for t in spans.TARGETS],
                         ids=[f"{t[1].__name__}.{t[2]}" for t in spans.TARGETS])
def test_traced_entry_point_is_callable(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_runs_one_unit(name):
    workload = workloads.WORKLOADS[name](1)
    workload.round_start()
    assert workload.check(0, workload.unit(0))[0]
    assert workload.finish()[0]


def traced_units(name, n_units):
    rec = spans.Recorder()
    workload = workloads.WORKLOADS[name](1)
    workload.round_start()
    with spans.installed(spans.patches(rec)):
        outs = [workload.unit(i) for i in range(n_units)]
    assert all(workload.check(i, out)[0] for i, out in enumerate(outs))
    return rec


def test_paper_2d_exact_kernel_span_fires_under_run_trials():
    rec = traced_units("paper-2d-exact", 1)
    (idx,) = [i for i, name in enumerate(rec.names) if name == "discrepancy.exact2d"]
    assert rec.names[rec.parents[idx]] == "harness.run_trials"
    assert dict(rec.counters)["discrepancy.exact2d.corners"] == 3201**2


def test_stardisc_3d_kernel_spans_fire():
    rec = traced_units("stardisc-3d", workloads.Stardisc3d.units_per_round)
    assert rec.names.count("discrepancy.exact") == 2
    assert rec.names.count("discrepancy.estimate") == 2
    assert rec.counters["discrepancy.exact.corners"] == 2 * 129**3
    assert rec.counters["discrepancy.estimate.boxes"] == 2 * (128 + 12000)


def test_stardisc_3d_estimate_gap_is_pinned():
    # The first 22 units at seed 1, each checked, and their mean gap, the
    # figure run.py reports as estimate_gap_rel for this run.  The estimate
    # is deterministic for a seed, so any change to it shows here.
    workload = workloads.WORKLOADS["stardisc-3d"](1)
    workload.round_start()
    gaps = []
    for i in range(22):
        ok, _, gap = workload.check(i, workload.unit(i))
        assert ok
        gaps.append(gap)
    assert (math.fsum(gaps) / len(gaps)).hex() == "0x1.40040d3f0df8cp-9"


def test_prob_verify_sweep_bytes_are_pinned():
    # One sweep of 277 checks at seed 1, hashed as run.py hashes it: each
    # unit's check lines, then finish's.  This is run.py's --seconds 0
    # digest, so any change to a reported probability shows here.
    workload = workloads.WORKLOADS["prob-verify"](1)
    assert workload.units_per_round == 277
    workload.round_start()
    digest = hashlib.sha256()
    for i in range(workload.units_per_round):
        ok, lines, _ = workload.check(i, workload.unit(i))
        assert ok
        digest.update(("\n".join(lines) + "\n").encode())
    ok, lines = workload.finish()
    assert ok
    digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == (
        "cebef476647ee27e8e956791c482e4fc33e7980d5beef6b8efee74386bb5d243")
