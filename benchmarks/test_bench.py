"""The benchmark's own test: determinism, output checks and span accounting.

Run from the repository root (a few minutes; it starts the benchmark as a
subprocess with --seconds 0, so that each run does the units of its seed
alone and runs compare unit for unit):

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The gated workloads of BENCHMARK.json plus paper-4d-witness, which
#: workloads.py also defines (README.md says why it is not gated).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["paper-4d-witness"]
#: Per-layer metrics that are times or rates of times, so they may differ
#: between two runs; every other per-layer metric is a deterministic count.
TIMED_SUFFIXES = ("busy_s", "self_s", "_per_s", "overhead_frac")
SEED, OTHER_SEED = 1, 2
#: run.py's MIN_UNITS: the units a run with --seconds 0 does at least.
MIN_UNITS = 22


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """One run's printed key = value lines, last-line result and result file.

    Calls are cached; ``repeat`` asks for a second, otherwise identical run.
    """
    proc = _invoke(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = dict(line.split(" = ", 1) for line in lines[:-1])
    record = json.loads((ROOT / printed["result_file"]).read_text())
    return {"printed": printed, "result": json.loads(lines[-1]), "record": record}


def layer(workload: str, seed: int = SEED, repeat: int = 0) -> dict[str, float]:
    metrics = run(workload, seed, 1, repeat)["result"]["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [SEED, OTHER_SEED])
def test_every_unit_passes_its_output_check(workload, seed):
    result = run(workload, seed, 1)["result"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= MIN_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_and_digest_repeat_for_a_seed_and_digest_follows_the_seed(workload):
    first, second = layer(workload), layer(workload, repeat=1)
    counts = {k: v for k, v in first.items() if not k.endswith(TIMED_SUFFIXES)}
    assert counts == {k: second[k] for k in counts}
    digest = run(workload, SEED, 1)["printed"]["digest"]
    assert digest == run(workload, SEED, 1, repeat=1)["printed"]["digest"]
    assert digest != run(workload, OTHER_SEED, 1)["printed"]["digest"]
    # Tracing wraps the calls but must not change what they return.  A traced
    # run needs two rounds, so it may do more units than an untraced one.
    traced = run(workload, SEED, 1)["record"]["unit_digests"]
    untraced = run(workload, SEED, 0)["record"]["unit_digests"]
    assert traced[:len(untraced)] == untraced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    assert set(layer(workload)) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_of_a_unit_add_up_to_its_wall_time(workload):
    spans = run(workload, SEED, 1)["record"]["spans"]
    durations = [end - start for _, start, end, _, _ in spans]
    self_time = list(durations)
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    roots = [i for i, span in enumerate(spans) if span[0] == "bench.unit"]
    assert roots
    for root in roots:
        unit = spans[root][4]
        total = sum(s for s, span in zip(self_time, spans) if span[4] == unit)
        assert total == pytest.approx(durations[root], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, SEED, 0)["result"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_estimate_gap_repeats_for_a_seed(workload):
    first = run(workload, SEED, 0)["result"]["metrics"]["estimate_gap_rel"]
    assert first == run(workload, SEED, 0, repeat=1)["result"]["metrics"]["estimate_gap_rel"]


def test_exact_2d_kernel_dominates_paper_2d_exact():
    values = layer("paper-2d-exact")
    assert values["discrepancy.exact2d.self_s"] >= 0.9 * values["bench.unit.busy_s"]
    assert values["discrepancy.exact2d.corners"] == values["discrepancy.exact2d.calls"] * 3201**2


def test_sampling_and_witness_dominate_paper_4d_witness():
    values = layer("paper-4d-witness")
    own = sum(values[f"{name}.self_s"] for name in (
        "sampling.lhs_sample", "rng.permutation", "rng.uniform_block",
        "witness.build_witness", "witness.latin_check"))
    assert own >= 0.9 * values["bench.unit.busy_s"]
    assert all(values[f"discrepancy.{k}.calls"] == 0 for k in ("exact", "exact2d", "estimate"))


def test_stardisc_counts_corners_and_boxes():
    values = layer("stardisc-3d")
    calls = values["discrepancy.exact.calls"]
    assert calls == values["discrepancy.estimate.calls"] > 0
    assert values["discrepancy.exact.corners"] == calls * 129**3
    assert values["discrepancy.estimate.boxes"] == calls * (128 + 12000)


def test_run_stays_within_nproc_threads():
    printed = run("paper-4d-witness", SEED, 0)["printed"]
    assert 1 <= int(printed["threads"]) <= int(printed["nproc"])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _invoke(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not os.path.exists(tmp_path / "benchmarks" / "out")
