"""Command-line surface: experiments, single evaluations, and replay.

Exit codes: 0 all requested computations completed; 1 an --assert mode
statistical expectation or a replay digest comparison failed; 2 usage error;
3 domain/precondition error, or an allocation larger than the host's memory;
4 I/O error.  Statistical outcomes are reported, never enforced, unless
--assert is given.

Each subcommand's parser sets args.run, the function that runs it.  Every
command that writes data hands its results to the experiments module, which
owns the CSV files, the manifest format, the write order and replay.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, dirichlet, mellin
from .errors import DomainError, ResourceError
from .experiments import (
    DEFAULT_PRIME_LIMIT,
    EXPERIMENTS,
    Experiment,
    ExperimentConfig,
    assert_outcome,
    replay_experiment,
    run_experiment,
    write_experiment,
    write_series,
)
from .output import fmt_float
from .series import Model, compute_series, detect_sign_changes
from .signs import SignAssignment, SignMode

MODELS = [model.value for model in Model]


def _add_assignment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed for the iid sign assignment")
    parser.add_argument("--minus-one", dest="sign_mode", action="store_const", const=SignMode.ALL_MINUS_ONE,
                        default=SignMode.IID_RADEMACHER,
                        help="use the deterministic all-minus-one assignment (Moebius/Liouville mode)")
    parser.add_argument("--signs-file", help="two-column 'p sign' text file for an explicit assignment")


def _assignment_from_args(args) -> SignAssignment:
    # a signs file overrides --minus-one
    return SignAssignment.of(SignMode.EXPLICIT if args.signs_file else args.sign_mode, args.seed, args.signs_file)


def _add_experiment_flags(parser: argparse.ArgumentParser, spec: Experiment) -> None:
    """--model/--alpha unless the experiment fixes them, the run flags, the
    scan flags if it scans, and the experiment runner as the command's run.
    Each dest but out and assert_mode is an ExperimentConfig field; as the
    parser has argument_default=SUPPRESS, a flag left out takes its default."""
    if spec.fixed is None:
        parser.add_argument("--model", choices=MODELS)
        parser.add_argument("--alpha", type=float)
    else:
        parser.set_defaults(model=spec.fixed[0], alpha=spec.fixed[1])
    parser.add_argument("--limit", type=int, help="partial-sum cutoff N")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help="experiment base seed")
    parser.add_argument("--minus-one", dest="sign_mode", action="store_const", const=SignMode.ALL_MINUS_ONE,
                        help="deterministic all-minus-one signs in every trial")
    parser.add_argument("--threads", type=int, help="worker count (default: all cores, or RMF_LAB_THREADS)")
    parser.add_argument("--out", type=str, required=True, help="output directory")
    parser.add_argument("--assert", dest="assert_mode", action="store_true", default=False,
                        help="fail (exit 1) if the statistical expectation does not hold")
    if spec.sigma_grid is not None:
        parser.add_argument("--sigma-grid", type=_sigma_grid, help="comma-separated, strictly decreasing")
        parser.add_argument("--prime-limit", type=int, help=f"default {DEFAULT_PRIME_LIMIT}")
        parser.add_argument("--grid-step", type=float)
    parser.set_defaults(run=_run_experiment_command)


def _sigma_grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmflab",
        description="Numerical experiments on random multiplicative functions",
    )
    parser.add_argument("--version", action="version", version=f"rmflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="one weighted partial-sum series plus its sign changes")
    p.add_argument("--model", choices=MODELS, default="f")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--limit", type=int, required=True)
    _add_assignment_flags(p)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(run=_run_series)

    for name, spec in EXPERIMENTS.items():
        _add_experiment_flags(sub.add_parser(name, help=spec.help, argument_default=argparse.SUPPRESS), spec)

    p = sub.add_parser("euler", help="evaluate a truncated Euler product at one point")
    p.add_argument("--model", choices=MODELS, default="f")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--prime-limit", type=int, default=10**5)
    _add_assignment_flags(p)
    p.set_defaults(run=_run_euler)

    p = sub.add_parser("mellin-check", help="residual of the truncated partial-summation identity")
    p.add_argument("--model", choices=MODELS, default="f")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--limit", type=int, required=True)
    _add_assignment_flags(p)
    p.set_defaults(run=_run_mellin_check)

    p = sub.add_parser("replay", help="re-run a manifest and compare CSV digests")
    p.add_argument("--manifest", type=str, required=True)
    p.set_defaults(run=_run_replay)

    return parser


def _run_series(args) -> int:
    assignment = _assignment_from_args(args)
    start = time.monotonic()
    series = compute_series(assignment, args.model, args.alpha, args.limit)
    log = detect_sign_changes(series)
    outdir = write_series(series, log, assignment, args.out, time.monotonic() - start, args.signs_file)
    magnitude = np.abs(series.values[1:])
    k = int(np.argmax(magnitude))  # the first x where |M| is largest
    print(
        f"series model={args.model} alpha={args.alpha} N={args.limit}: "
        f"M(N)={fmt_float(series.values[args.limit])} max|M|={fmt_float(magnitude[k])} "
        f"at x={k + 1}, {log.count} sign changes -> {outdir}"
    )
    return 0


def _run_experiment_command(args) -> int:
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "run", "out", "assert_mode")}
    config = ExperimentConfig(experiment=args.command, **fields)
    start = time.monotonic()
    stats = run_experiment(config)
    manifest_path, csv_path = write_experiment(stats, args.out, time.monotonic() - start)
    print(f"{args.command}: {config.trials} trials -> {csv_path}")
    print(f"summary: {json.dumps(stats.summary)}")
    if args.assert_mode:
        ok, message = assert_outcome(stats)
        print(f"assert: {'PASS' if ok else 'FAIL'} ({message})")
        return 0 if ok else 1
    return 0


def _run_euler(args) -> int:
    assignment = _assignment_from_args(args)
    s = complex(args.sigma, args.t)
    product = dirichlet.euler_product_F if args.model == "f" else dirichlet.euler_product_F_star
    result = product(assignment, s, args.prime_limit)
    print(
        f"model={args.model} s={fmt_float(args.sigma)}+{fmt_float(args.t)}i "
        f"prime_limit={args.prime_limit}"
    )
    print(
        f"value={fmt_float(result.value.real)}{'+' if result.value.imag >= 0 else '-'}"
        f"{fmt_float(abs(result.value.imag))}i abs={fmt_float(abs(result.value))} "
        f"last_factor_deviation={fmt_float(result.last_factor_deviation)}"
    )
    return 0


def _run_mellin_check(args) -> int:
    assignment = _assignment_from_args(args)
    s = complex(args.sigma, args.t)
    lhs, rhs = mellin.truncated_identity_sides(assignment, args.model, args.alpha, s, args.limit)
    residual = float(abs(lhs - rhs))
    scale = abs(lhs) + 1.0
    print(
        f"model={args.model} alpha={fmt_float(args.alpha)} s={fmt_float(args.sigma)}"
        f"+{fmt_float(args.t)}i N={args.limit}"
    )
    print(f"residual={fmt_float(residual)} relative={fmt_float(residual / scale)}")
    return 0


def _run_replay(args) -> int:
    ok, recorded, recomputed = replay_experiment(args.manifest)
    print(f"replay: {'MATCH' if ok else 'MISMATCH'}")
    for name in sorted(recorded.keys() | recomputed.keys()):
        if recorded.get(name) != recomputed.get(name):
            print(f"differs: {name} recorded={recorded.get(name)} recomputed={recomputed.get(name)}")
    return 0 if ok else 1


def parse_and_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
