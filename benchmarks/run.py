"""Closed-loop benchmark of lhsdisc: one client, one unit of work at a time.

Run from the repository root:

    python3 benchmarks/run.py --workload paper-2d-exact --seed 1 --seconds 40 --trace 0

The metric names are those of BENCHMARK.json at the root, which also lists
the workloads whose runs are gated; workloads.py may define more.
The run builds its inputs from --seed, runs whole rounds of units until
--seconds have passed (and at least MIN_UNITS units are done), checks every
unit's output, and prints provenance and every metric as ``name = value
unit`` lines.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full result, with the
spans of a traced run, is written to benchmarks/out/.

A traced run alternates traced and untraced rounds; the untraced ones give
the tracing overhead and never feed an end-to-end metric.  With --seconds 0
a run does exactly the rounds that reach MIN_UNITS units (two rounds at
least when traced), so its units depend on the seed alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Every run completes at least this many units, so that the tail latency
#: (TAIL_BEYOND units beyond it) is at or above the median.
MIN_UNITS = 22
#: unit_ms_tail is the highest percentile with this many units beyond it.
TAIL_BEYOND = 10
#: setup_s is the median over this many fresh processes.
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe_seconds(args) -> float:
    """Time from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


class Phase:
    """Units and wall seconds of the rounds run with tracing on or off."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def rate(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0


def drive(workload, args, rec, spans_mod):
    """Run rounds of units; return latencies, failures, digests, gaps and phases.

    The gaps are those of the units every run completes (MIN_UNITS, or the
    first round if it is longer), so that they depend on the seed alone.
    """
    latencies: list[float] = []
    failed = 0
    first_error = ""
    digest = hashlib.sha256()
    unit_digests: list[str] = []
    gaps: list[float] = []
    gap_units = max(MIN_UNITS, workload.units_per_round)
    phases = {False: Phase(), True: Phase()}
    n_units = 0
    n_rounds = 0
    patch_list = spans_mod.patches(rec)
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= args.seconds and n_units >= MIN_UNITS
        if done and (not args.trace or n_rounds >= 2):
            break
        traced = bool(args.trace) and n_rounds % 2 == 0
        t_round = time.perf_counter()
        with spans_mod.installed(patch_list) if traced else contextlib.nullcontext():
            workload.round_start()
            for _ in range(workload.units_per_round):
                i = n_units
                rec.unit = i
                root = rec.open("bench.unit") if traced else -1
                t0 = time.perf_counter()
                try:
                    out = workload.unit(i)
                    error = None
                except Exception as exc:  # a failing unit is counted, not fatal
                    out, error = None, exc
                t1 = time.perf_counter()
                if traced:
                    rec.close(root)
                latencies.append(t1 - t0)
                gap = None
                if error is None:
                    ok, lines, gap = workload.check(i, out)
                else:
                    ok, lines = False, [f"error {type(error).__name__}: {error}"]
                    first_error = first_error or "".join(traceback.format_exception(error))
                failed += not ok
                text = ("\n".join(lines) + "\n").encode()
                digest.update(text)
                unit_digests.append(hashlib.sha256(text).hexdigest()[:16])
                if gap is not None and i < gap_units:
                    gaps.append(gap)
                n_units += 1
            counters = workload.round_counters()
        if traced:
            for key, value in counters.items():
                rec.counters[key] += value
        phase = phases[traced]
        phase.units += workload.units_per_round
        phase.seconds += time.perf_counter() - t_round
        n_rounds += 1
    loop_s = time.perf_counter() - start

    rec.unit = -1
    with spans_mod.installed(patch_list) if args.trace else contextlib.nullcontext():
        root = rec.open("bench.finish") if args.trace else -1
        finish_ok, lines = workload.finish()
        if args.trace:
            rec.close(root)
    digest.update(("\n".join(lines) + "\n").encode())
    if first_error:
        print(f"first failing unit:\n{first_error}", file=sys.stderr)
    return (latencies, failed, finish_ok, digest.hexdigest(), unit_digests, gaps,
            phases, loop_s, n_rounds)


def end_to_end_values(latencies, loop_s, setup_s, gaps) -> tuple[dict, dict]:
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    values = {
        "units_per_s": n / loop_s,
        "unit_ms_p50": statistics.median(ordered) * 1000.0,
        "unit_ms_tail": ordered[tail_index] * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if gaps:  # paper-4d-witness has no exact value to compare its bound with
        values["estimate_gap_rel"] = math.fsum(gaps) / len(gaps)
    info = {"unit_ms_tail_percentile": 100.0 * (tail_index + 1) / n,
            "unit_ms_tail_units_beyond": n - tail_index - 1}
    return values, info


def layer_values(rec, spans_mod, phases) -> dict:
    values: dict[str, float] = {}
    for name in spans_mod.SPAN_NAMES:
        values[f"{name}.busy_s"] = 0.0
        values[f"{name}.self_s"] = 0.0
        values[f"{name}.calls"] = 0
    for name, start, end, self_s in zip(rec.names, rec.starts, rec.ends, rec.self_times()):
        values[f"{name}.busy_s"] += end - start
        values[f"{name}.self_s"] += self_s
        values[f"{name}.calls"] += 1
    counters = rec.counters
    for name, count, rate in (("discrepancy.exact2d", "corners", "corners_per_s"),
                              ("discrepancy.exact", "corners", "corners_per_s"),
                              ("discrepancy.estimate", "boxes", "boxes_per_s")):
        work = counters.get(f"{name}.{count}", 0)
        busy = values[f"{name}.busy_s"]
        values[f"{name}.{count}"] = work
        values[f"{name}.{rate}"] = work / busy if busy > 0 else 0.0
    for key in ("sampling.lhs_sample.bytes_out", "points.read.bytes",
                "probtools.log_choose.hits", "probtools.log_choose.misses"):
        values[key] = counters.get(key, 0)
    values["witness.shrink_steps"] = counters.get("witness.build_witness.shrink_steps", 0)
    looked_up = values["probtools.log_choose.hits"] + values["probtools.log_choose.misses"]
    values["probtools.log_choose.hit_ratio"] = (
        values["probtools.log_choose.hits"] / looked_up if looked_up else 0.0)
    traced, untraced = phases[True].rate(), phases[False].rate()
    values["trace.traced_units_per_s"] = traced
    values["trace.untraced_units_per_s"] = untraced
    values["trace.overhead_frac"] = 1.0 - traced / untraced if untraced > 0 else 0.0
    return values


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One thread per BLAS/OpenMP pool; must be set before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lhsdisc" / "__init__.py").is_file():
        print(f"error: no lhsdisc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import spans
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    # setup_s is an end-to-end metric, so a traced run takes no probes.
    probes = 0 if args.trace else SETUP_PROBES
    setup_s = None
    if probes:
        setup_s = statistics.median(setup_probe_seconds(args) for _ in range(probes))

    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    own_setup_s = time.perf_counter() - t0
    rec = spans.Recorder()
    (latencies, failed, finish_ok, digest, unit_digests, gaps,
     phases, loop_s, n_rounds) = drive(workload, args, rec, spans)
    attempted = len(latencies)

    if args.trace:
        values = layer_values(rec, spans, phases)
        info = {}
        wanted = spec["per_layer"]
    else:
        values, info = end_to_end_values(latencies, loop_s, setup_s, gaps)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": attempted,
        "rounds": n_rounds,
        "loop_s": loop_s,
        "own_setup_s": own_setup_s,
        "setup_probes": probes,
        "failed_frac": failed / attempted,
        "digest": digest,
        "gap_units": len(gaps),
        "cache_state": workload.cache_state,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": thread_count(),
    }
    for key, value in {**provenance, **info}.items():
        print(f"{key} = {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"provenance": provenance, "info": info, "metrics": metrics,
              "latencies_s": latencies, "unit_digests": unit_digests}
    if args.trace:
        record["spans"] = rec.rows()
    out_path.write_text(json.dumps(record))
    print(f"result_file = {out_path.relative_to(ROOT)}")

    correct = failed == 0 and finish_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
