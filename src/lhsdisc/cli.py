"""Command-line interface: sample, stardisc, witness, prob, experiment.

Every subcommand is a thin shell over a library call.  Exit codes:
0 success / all checks pass, 1 a numeric check failed, 2 usage or
precondition error.  Point-set paths accept '-' for stdin/stdout.
"""

from __future__ import annotations

import argparse
import sys

from . import discrepancy, harness, probtools, witness
from .points import ParseError, PointSetError, read_pointset, write_pointset
from .probtools import DepthExceeded, DomainError, HypothesisNotMet, InvariantViolated
from .rng import Stream, derive
from .sampling import lhs_sample, uniform_sample
from .witness import NoAdmissibleC, PreconditionViolated

USAGE_ERRORS = (
    ParseError,
    PointSetError,
    NoAdmissibleC,
    PreconditionViolated,
    HypothesisNotMet,
    DomainError,
    DepthExceeded,
    InvariantViolated,
    discrepancy.BudgetExceeded,
    discrepancy.DimensionMismatch,
    discrepancy.MethodError,
    harness.ConfigError,
    harness.NoData,
    UnicodeDecodeError,  # an input file that is not UTF-8 text
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _f17(x: float) -> str:
    return format(x, ".17g")


def _read_points(path: str):
    if path == "-":
        return read_pointset(sys.stdin)
    with open(path, "r", encoding="utf-8") as f:
        return read_pointset(f)


def _write_points(ps, path: str) -> None:
    if path == "-":
        write_pointset(ps, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as f:
        write_pointset(ps, f)


def _print_report(report: probtools.CheckReport) -> None:
    for line in report.lines():
        print(line)


def cmd_sample(args) -> int:
    gen = lhs_sample if args.kind == "lhs" else uniform_sample
    ps = gen(args.n, args.d, args.seed)
    _write_points(ps, args.out)
    return 0


def cmd_stardisc(args) -> int:
    ps = _read_points(args.infile)
    cert = discrepancy.star_discrepancy(ps, args.method, args.budget, args.seed)
    print(f"method = {args.method}")
    print(f"kind = {cert.kind}")
    print(f"value = {_f17(cert.value)}")
    print("box = " + " ".join(_f17(v) for v in cert.argmax_box.upper))
    if cert.closed_sided is not None:
        print(f"side = {'closed' if cert.closed_sided else 'open'}")
    return 0


def cmd_witness(args) -> int:
    ps = _read_points(args.infile)
    sc = witness.compute_slab_constant(ps.n_points, ps.dim, strict=not args.force)
    trace = witness.build_witness(ps, sc)
    print("# witness trace")
    print(f"N = {trace.n_points}")
    print(f"d = {trace.dim}")
    print(f"k_int = {sc.k_int}")
    print(f"c = {_f17(sc.c)}")
    print(f"n_slab = {sc.k_int}")
    print(f"stripe_upper = {_f17(trace.stripe_upper)}")
    print(f"stripe_count = {trace.stripe_count}")
    print(f"stripe_excess = {_f17(trace.stripe_excess)}")
    for step in trace.steps:
        print()
        print(f"step = {step.j}")
        print(f"W = {step.w_count}")
        print(f"p = {_f17(step.p)}")
        print(f"Y = {step.y_count}")
        print(f"threshold = {_f17(step.threshold)}")
        # The integers the rule decides on: eta = 1 iff D = kW - YN >= 0
        # and 4 D^2 >= kW N; the float threshold can round across a tie.
        print(f"kW = {sc.k_int * step.w_count}")
        print(f"YN = {step.y_count * trace.n_points}")
        print(f"eta = {step.eta}")
        print(f"x = {_f17(step.x)}")
        print(f"volume = {_f17(step.volume)}")
        print(f"excess = {_f17(step.excess)}")
    print()
    print(f"k_count = {trace.k_count}")
    print("final_box = " + " ".join(_f17(v) for v in trace.final_box.upper))
    print(f"final_excess = {_f17(trace.final_excess)}")
    print(f"lower_bound = {_f17(witness.witness_lower_bound(trace))}")
    return 0


def cmd_prob(args) -> int:
    if args.inequality == "theorem3":
        report = probtools.check_theorem3(args.N, args.W, args.n)
    elif args.inequality == "lemma4":
        report = probtools.check_lemma4(args.n, args.p)
    elif args.inequality == "theorem5":
        report = probtools.check_theorem5_binomial(args.k, args.q, args.t)
    else:
        # Each tree's depth is drawn in 1..--depth, so the guard is checked
        # on --depth itself, whatever the seed.
        probtools.ConditionalBernoulliTree.check_depth(args.depth)
        all_pass = True
        worst = None
        for i in range(args.trees):
            depth = 1 + Stream(derive(args.seed, f"lemma6-depth-{i}")).randbelow(args.depth)
            tree = probtools.ConditionalBernoulliTree.random(
                depth, args.q, derive(args.seed, f"lemma6-{i}")
            )
            report = probtools.check_lemma6(tree)
            if worst is None or report.margin < worst.margin:
                worst = report
            all_pass &= report.passed
        assert worst is not None
        print(f"trees = {args.trees}")
        _print_report(worst)
        return 0 if all_pass else 1
    _print_report(report)
    return 0 if report.passed else 1


def cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        config = harness.parse_config(f.read())
    records = harness.run_trials(config)
    summary = harness.summarize(records, config)
    with open(args.out_records, "w", encoding="utf-8", newline="") as f:
        f.write(harness.emit_csv(records, include_runtime=args.with_runtime))
    with open(args.out_summary, "w", encoding="utf-8") as f:
        f.write(harness.emit_json(summary))
    print(f"trials = {summary.n_trials} ok = {summary.n_ok}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhsdisc",
        description="Latin hypercube / uniform sampling, star discrepancy, "
        "witness lower bounds, and probability-inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pointset_help = (
        "pointset v1 format: line 1 '# pointset v1', line 2 '<N> <d>', then N rows "
        "of d reals in [0,1) at 17 significant digits; blank lines and '#' comments "
        "after line 1 are ignored; '-' means stdin/stdout"
    )

    p = sub.add_parser("sample", help="generate a point set (pointset v1 text)",
                       epilog=pointset_help)
    p.add_argument("--kind", choices=harness.KINDS, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="number of points")
    p.add_argument("--d", type=_positive_int, required=True, help="dimension")
    p.add_argument("--seed", type=int, required=True,
                   help="64-bit seed; required, no wall-clock default")
    p.add_argument("--out", required=True, help="output path, '-' for stdout")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stardisc", help="star discrepancy of a point set",
                       epilog=pointset_help)
    p.add_argument("--in", dest="infile", required=True, help="pointset path, '-' for stdin")
    p.add_argument("--method", choices=discrepancy.METHODS, default="exact")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="exact: grid-evaluation guard (default 1e9); "
                   "estimate: grid corners scored beyond the points' own, a block at a "
                   "time: random ones, and past the first block the grid lines through "
                   "up to max(1, block // sum of grid sizes) of the best corners, each "
                   "climb going on where the last block stopped it (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="seed for estimate (default 0)")
    p.set_defaults(func=cmd_stardisc)

    p = sub.add_parser("witness", help="witness-box construction and its lower bound",
                       epilog=pointset_help)
    p.add_argument("--in", dest="infile", required=True, help="pointset path, '-' for stdin")
    p.add_argument("--force", action="store_true",
                   help="allow N < 1600 d (guarantees void)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("prob", help="probability-inequality checks")
    psub = p.add_subparsers(dest="inequality", required=True)

    q = psub.add_parser("theorem3", help="hypergeometric vs binomial TV envelope")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--W", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_prob)

    q = psub.add_parser("lemma4", help="binomial lower-tail floor 3/160")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.set_defaults(func=cmd_prob)

    q = psub.add_parser("theorem5", help="Hoeffding tail vs exact binomial tail")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--q", type=float, required=True)
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(func=cmd_prob)

    q = psub.add_parser("lemma6", help="CDF dominance for dependent Bernoulli sums")
    q.add_argument("--depth", type=_positive_int, required=True,
                   help="maximum tree depth, at most "
                   f"{probtools.ConditionalBernoulliTree.MAX_DEPTH} (the enumeration guard)")
    q.add_argument("--q", type=float, required=True, help="conditional floor")
    q.add_argument("--trees", type=_positive_int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_prob)

    p = sub.add_parser(
        "experiment", help="seeded multi-trial run with CSV/JSON output",
        epilog="config format: flat 'key = value' lines with keys kind, N, d, "
        "trials, master_seed, c_values (comma separated), method, "
        "estimate_budget, strict_witness",
    )
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out-records", required=True)
    p.add_argument("--out-summary", required=True)
    p.add_argument("--with-runtime", action="store_true",
                   help="include wall-clock runtimes (breaks bit-reproducibility)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
