"""Verification reports and the flat CSV format shared by all suites.

Exact rows compare closed forms at the absolute or relative tolerance that
each row fixes where it is built; Monte Carlo rows compare the caller's
z-score with ``Z_MAX`` = 4 standard errors, deliberately wide so that
suites running dozens of comparisons keep a negligible family-wise
false-alarm rate.  Info rows record a value only.

The CSV columns are fixed: name, mode, lhs, rhs, se_lhs, se_rhs, z, pass,
seconds.  The ``seconds`` column is always written as 0.000 so that a
given configuration produces a byte-identical file; measured runtimes go
to the console only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CSV_COLUMNS",
    "VerificationReport",
    "count_failures",
    "exact_report",
    "info_report",
    "mc_report",
    "mc_vs_exact",
    "print_reports",
    "score",
    "weighted_ratio",
    "write_reports_csv",
]

CSV_COLUMNS = ["name", "mode", "lhs", "rhs", "se_lhs", "se_rhs", "z", "pass", "seconds"]

Z_MAX = 4.0


@dataclass(frozen=True)
class VerificationReport:
    """One lhs-vs-rhs comparison: exact, Monte Carlo, or informational.

    ``z`` holds the z-score in mc mode, the absolute residual in exact
    mode and 0 in info mode.
    """

    name: str
    mode: str
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    z: float
    passed: bool
    seconds: float = 0.0

    def with_seconds(self, seconds: float) -> "VerificationReport":
        return replace(self, seconds=seconds)


def exact_report(name, lhs, rhs, tol, relative=False) -> VerificationReport:
    lhs = float(lhs)
    rhs = float(rhs)
    resid = abs(lhs - rhs)
    bound = tol * max(abs(lhs), abs(rhs)) if relative else tol
    return VerificationReport(
        name=name,
        mode="exact",
        lhs=lhs,
        rhs=rhs,
        se_lhs=0.0,
        se_rhs=0.0,
        z=resid,
        passed=resid <= bound,
    )


def mc_report(name, lhs, se_lhs, rhs, se_rhs, z) -> VerificationReport:
    """Monte Carlo comparison row at the caller's z-score ``z``."""
    return VerificationReport(
        name=name,
        mode="mc",
        lhs=float(lhs),
        rhs=float(rhs),
        se_lhs=float(se_lhs),
        se_rhs=float(se_rhs),
        z=float(z),
        passed=float(z) <= Z_MAX,
    )


def mc_vs_exact(name, num, den, target) -> VerificationReport:
    """Weighted-ratio estimate mean(num)/mean(den) bracketed against an exact value.

    The target is real, so the imaginary part of the estimate enters the
    same z-score.
    """
    r, se_re, se_im = weighted_ratio(num, den)
    z = max(score(r.real - target, se_re), score(r.imag, se_im))
    return mc_report(name, r.real, se_re, float(target), 0.0, z=z)


def info_report(name, value) -> VerificationReport:
    """Logged-only row: ``value`` on both sides, always passing."""
    value = float(value)
    return VerificationReport(
        name=name, mode="info", lhs=value, rhs=value, se_lhs=0.0, se_rhs=0.0, z=0.0, passed=True
    )


def weighted_ratio(num, den):
    """Delta-method mean and standard errors of mean(num)/mean(den).

    Returns (complex ratio, SE of real part, SE of imaginary part); the
    residual linearisation handles complex importance weights directly.
    """
    num = np.asarray(num)
    den = np.asarray(den)
    n = num.shape[0]
    mb = den.mean()
    r = num.mean() / mb
    if n < 2:
        return r, 0.0, 0.0
    resid = (num - r * den) / mb
    se_re = float(np.real(resid).std(ddof=1) / math.sqrt(n))
    se_im = float(np.imag(resid).std(ddof=1) / math.sqrt(n))
    return r, se_re, se_im


def score(value: float, se: float) -> float:
    """z-score of a deviation, with a machine-precision floor.

    Deviations of at most 1e-12 count as zero: estimates that are exact by
    construction (for example a self-normalised constant) otherwise divide
    rounding noise by a vanishing standard error.
    """
    if abs(value) <= 1e-12:
        return 0.0
    if se > 0:
        return abs(value) / se
    return float("inf")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def write_reports_csv(reports, path) -> str:
    """Write rows in declaration order to ``path``; returns the CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(
            [
                r.name,
                r.mode,
                _fmt(r.lhs),
                _fmt(r.rhs),
                _fmt(r.se_lhs),
                _fmt(r.se_rhs),
                _fmt(r.z),
                "1" if r.passed else "0",
                "0.000",
            ]
        )
    text = buf.getvalue()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def count_failures(reports) -> int:
    return min(sum(1 for r in reports if not r.passed), 125)


def print_reports(reports) -> None:
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(
            f"[{flag}] {r.name}: mode={r.mode} lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} "
            f"z={_fmt(r.z)} ({r.seconds:.3f}s)"
        )
