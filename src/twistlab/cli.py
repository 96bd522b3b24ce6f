"""Batch front-end: load inputs, run a named suite, emit a CSV report.

Exit codes: number of failing rows (capped at 125); 2 for input/parse
errors (message carries the offending line), for a flag the command does
not read and for an integer flag below 1; 3 for numerical failures.  No
flag moves a row's pass bound: each suite fixes its own.
All randomness derives from ``--seed``; the written CSV is byte-identical
for identical configurations (per-row wall times go to the console only).
Configuration is by explicit flags; environment variables are ignored.

Under glibc, `main` fixes malloc's mmap and trim thresholds at
``MALLOC_MMAP_BYTES``.  Left dynamic, the mmap threshold rises to the
largest block freed so far (up to 32 MiB) and the heap may then keep twice
that free, so a process that runs commands back to back holds on to the
full-sample arrays of earlier commands, and how much of that later
allocations reuse depends on heap layout.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

import numpy as np

from .chain import NumericalError, build_dual
from .harness import example_suite, iso_suite, mass_gap_suite, mgf_suite, q_suite, trace_suite
from .hilbert import circle_suite, det2_suite, levy_suite
from .modelio import SpecFileError, load_chain_spec, load_circle_model, load_levy_model
from .reporting import count_failures, print_reports, write_reports_csv
from .twisted import CM_MAX_STATES

__all__ = ["main"]

# below a (count, n) float array of a default run on 8 or more states (1e5
# draws: 6.4 MB and up), so every full-sample array is mapped fresh and
# returned when freed.  On a 2-vCPU Xeon, 128 KiB and 1 MiB cost the cli-mc
# benchmark 45% and 25% more CPU time in page faults; at 16 MiB its resident
# peak still moved between runs
MALLOC_MMAP_BYTES = 4 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3

FLAGS = {
    "input": dict(required=True, help="input file (chain or model)"),
    "seed": dict(type=int, default=1, help="master seed (positive)"),
    "samples": dict(type=int, default=100_000, help="Monte Carlo sample count"),
    "n": dict(type=int, default=5, help="number of chain states"),
    "dim": dict(type=int, default=6, help="operator dimension"),
    "k-max": dict(type=int, default=128, help="basis truncation"),
}

# each command accepts exactly the flags its suite reads (plus --out)
COMMANDS = {
    "verify-iso": ("input", "seed", "samples"),
    "verify-q": ("input", "seed", "samples"),
    "mass-gap": ("input", "seed"),
    "mgf-check": ("input", "seed"),
    "example-chain": ("n", "seed", "samples"),
    "trace-check": ("input", "seed"),
    "det2-check": ("dim", "seed", "samples"),
    "circle-check": ("input", "k-max"),
    "levy-check": ("input",),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Verification suites for killed chains, twisted fields and truncated operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument("--out", default=None, help="CSV report path")
    return parser


def _dispatch(args) -> list:
    if args.command == "example-chain":
        return example_suite(args.n, count=args.samples, seed=args.seed)
    if args.command == "det2-check":
        return det2_suite(args.dim, count=args.samples, seed=args.seed)
    if args.command == "circle-check":
        model = load_circle_model(args.input)
        if args.k_max < model.bandwidth:
            raise SpecFileError(f"--k-max {args.k_max} is below the drift bandwidth {model.bandwidth}")
        return circle_suite(model, K=args.k_max)
    if args.command == "levy-check":
        return levy_suite(load_levy_model(args.input))

    dp = build_dual(load_chain_spec(args.input))
    if args.command == "verify-q" and dp.n > CM_MAX_STATES:
        raise SpecFileError(
            f"verify-q takes at most {CM_MAX_STATES} states (its monotonicity sweep grows as 3^n); got {dp.n}"
        )
    if args.command == "trace-check" and dp.n < 2:
        raise SpecFileError("trace-check needs at least 2 states: a 1-state chain has no proper subset")
    if args.command == "verify-iso":
        return iso_suite(dp, count=args.samples, seed=args.seed)
    if args.command == "verify-q":
        return q_suite(dp, count=args.samples, seed=args.seed)
    if args.command == "mass-gap":
        rows, gap = mass_gap_suite(dp, seed=args.seed)
        print(float(gap))
        return rows
    if args.command == "mgf-check":
        return mgf_suite(dp, seed=args.seed)
    if args.command == "trace-check":
        return trace_suite(dp, seed=args.seed)
    raise AssertionError(f"unhandled command {args.command}")


def _fix_malloc_thresholds():
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, MALLOC_MMAP_BYTES)


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _parser().parse_args(argv)
    low = [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if isinstance(v, int) and v < 1]
    if low:
        print(f"error: {', '.join(low)} must be at least 1", file=sys.stderr)
        return 2
    try:
        reports = _dispatch(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print_reports(reports)
    if args.out:
        write_reports_csv(reports, args.out)
    return count_failures(reports)


if __name__ == "__main__":
    sys.exit(main())
