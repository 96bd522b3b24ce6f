"""Batch front-end: load inputs, run a named suite, emit a CSV report.

Exit codes: number of failing rows (capped at 125); 2 for input that is
refused: a parse error (message carries the offending line), a chain the
chain layer rejects (such as one whose ``mu`` misses a state), any input a
suite refuses, a flag the command does not read, an integer flag below 1
and an ``--out`` path that cannot be written; 3 for numerical failures and
for a run whose arrays do not fit in memory (say, a huge ``--k-max`` or
``--samples``).  No flag moves a row's pass bound: each suite fixes its own.
An exact or info row whose value is not finite is a numerical failure.
All randomness derives from ``--seed``; the written CSV is byte-identical
for identical configurations.
Configuration is by explicit flags; environment variables are ignored.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .chain import NumericalError, build_dual
from .harness import example_suite, iso_suite, mass_gap_suite, mgf_suite, q_suite, trace_suite
from .hilbert import circle_suite, det2_suite, levy_suite
from .modelio import load_chain_spec, load_circle_model, load_levy_model
from .reporting import count_failures, print_reports, write_reports_csv

__all__ = ["main"]

FLAGS = {
    "input": dict(required=True, help="input file (chain or model)"),
    "seed": dict(type=int, default=1, help="master seed (positive)"),
    "samples": dict(type=int, default=100_000, help="Monte Carlo sample count"),
    "n": dict(type=int, default=5, help="number of chain states"),
    "dim": dict(type=int, default=6, help="operator dimension"),
    "k-max": dict(type=int, default=128, help="basis truncation"),
}


def _chain(args):
    return build_dual(load_chain_spec(args.input))


def _mass_gap(args) -> list:
    rows, gap = mass_gap_suite(_chain(args), seed=args.seed)
    print(float(gap))
    return rows


# name -> (flags, runner).  Each command accepts exactly the flags its suite
# reads (plus --out); each suite refuses the inputs it cannot take.  The
# runners look suites up in this module when called, so tests may patch them.
COMMANDS = {
    "verify-iso": (("input", "seed", "samples"), lambda a: iso_suite(_chain(a), count=a.samples, seed=a.seed)),
    "verify-q": (("input", "seed", "samples"), lambda a: q_suite(_chain(a), count=a.samples, seed=a.seed)),
    "mass-gap": (("input", "seed"), _mass_gap),
    "mgf-check": (("input", "seed"), lambda a: mgf_suite(_chain(a), seed=a.seed)),
    "example-chain": (("n", "seed", "samples"), lambda a: example_suite(a.n, count=a.samples, seed=a.seed)),
    "trace-check": (("input", "seed"), lambda a: trace_suite(_chain(a), seed=a.seed)),
    "det2-check": (("dim", "seed", "samples"), lambda a: det2_suite(a.dim, count=a.samples, seed=a.seed)),
    "circle-check": (("input", "k-max"), lambda a: circle_suite(load_circle_model(a.input), K=a.k_max)),
    "levy-check": (("input",), lambda a: levy_suite(load_levy_model(a.input))),
}


def _parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The command-line parser, with the sub-parsers of ``names`` only.

    A parser of fewer commands still lists all of them in its usage line.
    It is built once a command is named, so it never reports a missing or
    unknown command, whose errors name ``command``, not that list.
    """
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Verification suites for killed chains, twisted fields and truncated operators.",
    )
    every = "{" + ",".join(COMMANDS) + "}" if len(names) < len(COMMANDS) else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        p = sub.add_parser(name)
        for flag in COMMANDS[name][0]:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument("--out", default=None, help="CSV report path")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own sub-parser; help, a missing command
    # and an unknown one need them all
    args = _parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS).parse_args(argv)
    low = [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if isinstance(v, int) and v < 1]
    if low:
        print(f"error: {', '.join(low)} must be at least 1", file=sys.stderr)
        return 2
    try:
        reports = COMMANDS[args.command][1](args)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # first: LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"numerical failure: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:  # SpecFileError, ChainError and every suite's own refusals
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_reports(reports)
    if args.out:
        try:
            write_reports_csv(reports, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return count_failures(reports)


if __name__ == "__main__":
    sys.exit(main())
