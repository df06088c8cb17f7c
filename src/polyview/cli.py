"""Command-line front end.

Subcommands:
  gaussian-mi   print the closed-form vs matrix-KL MI oracle table
  train         one seeded training run, CSV out
  sweep         methods x M x seeds cross product from a JSON config
  report        aggregate a sweep directory into a summary table
  fingerprint   digest one training step per M-view method and M in {4, 10}
  variance      multi-crop vs pair-loss variance ratio study
  validity      M-view gap vs mean two-view gap study
  check         run a self-check suite (oracles | grads | identities | invariants)

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .gaussian_world import (
    MATRIX_ORACLE_MAX_M,
    mi_infomax_limit,
    mi_via_gaussian_kl,
    true_one_vs_rest_mi,
)
from .harness import (
    CHECK_SUITES,
    NumericalFailure,
    RunSpec,
    SweepSpec,
    _read_json,
    _write_whole,
    aggregate,
    run_sweep,
    write_fingerprint,
    run_training,
    validity_study,
    variance_study,
)
from .losses import Method
from .tinynn import TrainConfig

METHOD_TOKENS = [m.value for m in Method]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; we reserve 2 for numerical
    failures, so usage problems are rerouted to exit code 1."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _add_spec_args(p: argparse.ArgumentParser, *names: str) -> None:
    """Add --NAME options for RunSpec fields, typed and defaulted by RunSpec."""
    for name in names:
        default = getattr(RunSpec, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyview", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gaussian-mi", help="print the MI oracle table")
    p.add_argument("--sigma0-sq", type=float, required=True)
    p.add_argument("--sigma-sq", type=float, required=True)
    p.add_argument("--m-max", type=int, required=True)

    p = sub.add_parser("train", help="run one seeded training run")
    p.add_argument("--method", required=True, choices=METHOD_TOKENS)
    p.add_argument("--m", type=int, required=True)
    _add_spec_args(p, "k")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    _add_spec_args(p, "tau", "seed")
    p.add_argument("--out", required=True)
    _add_spec_args(p, "sigma0_sq", "sigma_sq", "eval_batches")
    p.add_argument("--stride", type=int, default=RunSpec.record_stride,
                   help="record every STRIDE epochs (final epoch always)")

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=None,
                   help="override the config's parallelism limit")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="aggregate a sweep directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fingerprint", help="digest the training steps of fig3's settings")
    p.add_argument("--out", required=True)

    p = sub.add_parser("variance", help="multi-crop variance ratio study")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--batches", type=int, default=256)
    p.add_argument("--k", type=int, default=256)
    _add_spec_args(p, "tau", "seed", "sigma0_sq", "sigma_sq")

    p = sub.add_parser("validity", help="M-view vs mean two-view gap study")
    p.add_argument("--method", required=True, choices=METHOD_TOKENS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--batches", type=int, default=64)
    _add_spec_args(p, "k", "tau", "seed", "sigma0_sq", "sigma_sq")

    p = sub.add_parser("check", help="run a self-check suite")
    p.add_argument("--suite", required=True, choices=list(CHECK_SUITES))
    return parser


def _cmd_gaussian_mi(args) -> int:
    if args.m_max < 2:
        raise _UsageError("gaussian-mi: --m-max must be >= 2")
    s0, s = args.sigma0_sq, args.sigma_sq
    print(f"one-vs-rest MI oracle, sigma0^2 = {s0:g}, sigma^2 = {s:g}")
    print(f"InfoMax limit (M -> inf): {mi_infomax_limit(s0, s):.12f} nats")
    print(f"{'M':>4}  {'closed_form':>18}  {'matrix_kl':>18}  {'abs_diff':>12}")
    for m in range(2, args.m_max + 1):
        closed = true_one_vs_rest_mi(s0, s, m)
        if m <= MATRIX_ORACLE_MAX_M:
            kl = mi_via_gaussian_kl(s0, s, m)
            print(f"{m:>4}  {closed:>18.12f}  {kl:>18.12f}  {abs(closed - kl):>12.3e}")
        else:
            print(f"{m:>4}  {closed:>18.12f}  {'(M beyond matrix oracle)':>18}")
    return 0


def _run_spec(args, method: Method, **settings) -> RunSpec:
    """The RunSpec named by the options that train, variance and validity share."""
    return RunSpec(method=method, m=args.m, k=args.k, sigma0_sq=args.sigma0_sq,
                   sigma_sq=args.sigma_sq, tau=args.tau, seed=args.seed, **settings)


def _check_out_dir(command: str, out: str) -> None:
    """Refuse, before any work, an --out whose directory does not exist."""
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise _UsageError(f"{command}: the directory of --out {out} does not exist")


def _cmd_train(args) -> int:
    _check_out_dir("train", args.out)
    if os.path.isdir(args.out):
        raise _UsageError(f"train: --out {args.out} is a directory; name the CSV file")
    spec = _run_spec(
        args,
        Method.from_token(args.method),
        train=TrainConfig(epochs=args.epochs),
        eval_batches=args.eval_batches,
        record_stride=args.stride,
    )
    try:
        record = run_training(spec)
    except NumericalFailure as exc:
        exc.record.write(args.out)
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial record written to {args.out}", file=sys.stderr)
        return 2
    record.write(args.out)
    final = record.final()
    print(
        f"wrote {args.out}: {args.method} M={args.m} K={args.k} seed={args.seed} "
        f"epoch={final.epoch} bound={final.bound:.6f} true_mi={final.true_mi:.6f} "
        f"gap={final.gap:.6f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    try:  # any JSON value; from_json_dict refuses one that is not an object
        data = _read_json(args.config, object)
    except OSError as exc:
        raise _UsageError(f"sweep: cannot read config: {exc}")
    sweep = SweepSpec.from_json_dict(data)
    if args.jobs is not None:
        sweep = replace(sweep, jobs=args.jobs)
    results = run_sweep(sweep, args.out)
    counts = {"ran": 0, "cached": 0, "failed": 0}
    for r in results:
        counts[r.status] += 1
        line = f"[{r.status}] {os.path.basename(r.path)}"
        if r.message:
            line += f" ({r.message})"
        print(line)
    print(
        f"sweep complete: {counts['ran']} ran, {counts['cached']} cached, "
        f"{counts['failed']} failed -> {args.out}"
    )
    return 2 if counts["failed"] else 0


def _cmd_report(args) -> int:
    _check_out_dir("report", args.out)
    dat_path = os.path.splitext(args.out)[0] + ".dat"
    if dat_path == args.out:
        raise _UsageError(f"report: --out {args.out} is also the path of its .dat table")
    if os.path.realpath(os.path.dirname(args.out) or ".") == os.path.realpath(args.in_dir):
        raise _UsageError(f"report: --out {args.out} is inside --in, whose CSVs it reads")
    table = aggregate(args.in_dir)
    _write_whole(args.out, table.to_csv_text())
    _write_whole(dat_path, table.to_gnuplot_text())
    print(f"wrote {args.out} and {dat_path} ({len(table.rows)} groups)")
    return 0


def _cmd_fingerprint(args) -> int:
    _check_out_dir("fingerprint", args.out)
    fingerprint = write_fingerprint(args.out)
    print(f"wrote {args.out} ({len(fingerprint['digests'])} step digests)")
    return 0


def _cmd_variance(args) -> int:
    report = variance_study(_run_spec(args, Method.MULTICROP), args.batches)
    for line in report.lines():
        print(line)
    return 0


def _cmd_validity(args) -> int:
    report = validity_study(_run_spec(args, Method.from_token(args.method)), args.batches)
    for line in report.lines():
        print(line)
    return 0


def _cmd_check(args) -> int:
    print(f"suite {args.suite}:")
    ok = True
    for criterion in CHECK_SUITES[args.suite]:
        name, passed, detail = criterion()
        ok = ok and passed
        print(f"  [{'ok  ' if passed else 'FAIL'}] criterion {name}: {detail}")
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler = {
            "gaussian-mi": _cmd_gaussian_mi,
            "train": _cmd_train,
            "sweep": _cmd_sweep,
            "report": _cmd_report,
            "fingerprint": _cmd_fingerprint,
            "variance": _cmd_variance,
            "validity": _cmd_validity,
            "check": _cmd_check,
        }[args.command]
        return handler(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
