"""Span recorder and the wrappers that put lhsdisc's entry points under it.

A traced round replaces each public entry point the workloads reach, at the
name its caller looks up (``harness.lhs_sample`` for the harness,
``sampling.lhs_sample`` for the benchmark, ``rng.Stream.permutation`` for
every stream), with a wrapper that records a span: name, start, end, parent
span and unit id.  Spans are kept in memory and written out by run.py when
the run ends.  Self time is a span's duration minus the time its child spans
cover; calls are strictly nested in this single-threaded loop, so that is
the duration minus the sum of the children's durations, and the self times
of one unit's spans add up to the unit's wall time.

Deterministic work counters are computed from each call's arguments and
result by a hook that runs under its own ``trace.hook`` span, so that its
cost is not charged to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from lhsdisc import discrepancy, harness, points, probtools, rng, sampling, witness

HOOK = "trace.hook"


class Recorder:
    """Spans in opening order, one flat array per field.

    Flat arrays rather than one object per span keep a long traced run from
    feeding the cyclic garbage collector, which would slow the traced rounds
    more and more as spans pile up.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.unit_ids = array("q")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.unit = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.unit_ids.append(self.unit)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                out[parent] -= end - start
        return out

    def rows(self) -> list[tuple]:
        """``(name, start, end, parent, unit)`` per span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.unit_ids))


# A hook gets the result followed by the call's own arguments, so that Python
# binds them by name as it did for the wrapped function.

def _corners(result, ps, *rest, **kwargs) -> dict[str, int]:
    # Product of the per-axis critical-grid sizes: distinct coordinates + 1.
    total = 1
    for j in range(ps.dim):
        total *= len(np.unique(ps.coords[:, j])) + 1
    return {"corners": total}


def _boxes(result, ps, budget, seed=0, extra_boxes=()) -> dict[str, int]:
    return {"boxes": ps.n_points + budget + len(extra_boxes)}


def _bytes_out(result, *args, **kwargs) -> dict[str, int]:
    return {"bytes_out": result.coords.nbytes}


def _shrink_steps(result, *args, **kwargs) -> dict[str, int]:
    return {"shrink_steps": result.k_count}


def _bytes_read(result, f) -> dict[str, int]:
    # read_pointset gets the text's lines without their line breaks.
    return {"bytes": sum(len(line.encode()) + 1 for line in f)}


#: (span name, owner, attribute, counter hook).  The owner is the object the
#: caller looks the attribute up on, so each caller's path is wrapped.
TARGETS = (
    ("harness.run_trials", harness, "run_trials", None),
    ("harness.summarize", harness, "summarize", None),
    ("harness.emit_csv", harness, "emit_csv", None),
    ("sampling.lhs_sample", harness, "lhs_sample", _bytes_out),
    ("sampling.lhs_sample", sampling, "lhs_sample", _bytes_out),
    ("rng.permutation", rng.Stream, "permutation", None),
    ("rng.uniform_block", rng.Stream, "uniform_block", None),
    ("witness.build_witness", witness, "build_witness", _shrink_steps),
    ("witness.latin_check", witness, "latin_check", None),
    ("discrepancy.exact2d", discrepancy, "star_discrepancy_exact_2d", _corners),
    ("discrepancy.exact", discrepancy, "star_discrepancy_exact", _corners),
    ("discrepancy.estimate", discrepancy, "star_discrepancy_lower_estimate", _boxes),
    ("points.read", points, "read_pointset", _bytes_read),
    ("probtools.theorem3", probtools, "check_theorem3", None),
    ("probtools.lemma4", probtools, "check_lemma4", None),
    ("probtools.theorem5", probtools, "check_theorem5_binomial", None),
    ("probtools.lemma6", probtools, "check_lemma6", None),
)

#: Every span name a run can record, including the benchmark's own.
SPAN_NAMES = ("bench.unit", "bench.finish", HOOK) + tuple(
    dict.fromkeys(name for name, _, _, _ in TARGETS))


def _wrap(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook_idx = rec.open(HOOK)
            for key, value in hook(result, *args, **kwargs).items():
                rec.counters[f"{name}.{key}"] += value
            rec.close(hook_idx)
        return result

    return traced


def patches(rec: Recorder) -> list[tuple]:
    """``(owner, attribute, original, wrapper)`` for every entry in TARGETS.

    Built once per run, so that switching tracing on and off for a round is
    only a few attribute assignments.
    """
    out = []
    for name, owner, attr, hook in TARGETS:
        original = getattr(owner, attr)
        out.append((owner, attr, original, _wrap(rec, name, original, hook)))
    return out


@contextlib.contextmanager
def installed(patch_list: list[tuple]):
    """Route every patched entry point through its wrapper until exit."""
    try:
        for owner, attr, _, wrapper in patch_list:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original, _ in patch_list:
            setattr(owner, attr, original)
