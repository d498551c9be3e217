"""The library entry points the benchmark calls, exercised in a second or so.

The benchmark's own test (benchmarks/test_bench.py) takes minutes and is not
part of this suite.  This file imports benchmarks/spans.py and
benchmarks/workloads.py as they are and runs one unit of each gated workload
in BENCHMARK.json, so that removing or renaming anything the benchmark uses
fails here.
"""

import json
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
