"""Verification reports and the flat CSV format shared by all suites.

Exact rows compare closed forms at the absolute or relative tolerance that
each row fixes where it is built.  Every Monte Carlo row comes from
`mc_vs_estimate(name, lhs, rhs, gap)`: its z-score is the largest of the
gap's real part and each side's imaginary part, each over its own SE, and
it passes at ``Z_MAX`` = 4, wide enough that suites of dozens of rows keep
a negligible family-wise false-alarm rate.  Two rows choose their inputs:
the size-biased rows fold the imaginary SE into the real one, and
``positivity_bump_nonneg`` scores the one-sided shortfall min(value, 0).
Info rows record a value only.

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
    "Estimate",
    "VerificationReport",
    "count_failures",
    "exact_report",
    "info_report",
    "mc_vs_estimate",
    "mc_vs_exact",
    "print_reports",
    "score",
    "weighted_ratio",
    "write_reports_csv",
]

CSV_COLUMNS = ["name", "mode", "lhs", "rhs", "se_lhs", "se_rhs", "z", "pass", "seconds"]

Z_MAX = 4.0


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: a real or complex value and the SE of each part."""

    value: complex
    se_re: float
    se_im: float


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


def mc_vs_estimate(name, lhs, rhs, gap) -> VerificationReport:
    """Row of ``lhs`` against ``rhs``; z is the largest score of gap.real, lhs.imag, rhs.imag."""
    lo, hi = float(lhs.value.real), float(rhs.value.real)
    parts = ((gap.value.real, gap.se_re), (lhs.value.imag, lhs.se_im), (rhs.value.imag, rhs.se_im))
    z = float(np.max([score(v, se, max(abs(lo), abs(hi))) for v, se in parts]))  # NaN anywhere fails
    return VerificationReport(
        name=name, mode="mc", lhs=lo, rhs=hi, se_lhs=float(lhs.se_re), se_rhs=float(rhs.se_re),
        z=z, passed=z <= Z_MAX,
    )


def mc_vs_exact(name, est, target) -> VerificationReport:
    """Row of the estimate ``est`` against an exact real ``target``."""
    gap = Estimate(est.value - target, est.se_re, est.se_im)
    return mc_vs_estimate(name, est, Estimate(target, 0.0, 0.0), gap)


def info_report(name, value) -> VerificationReport:
    """Logged-only row: ``value`` on both sides, always passing."""
    value = float(value)
    return VerificationReport(
        name=name, mode="info", lhs=value, rhs=value, se_lhs=0.0, se_rhs=0.0, z=0.0, passed=True
    )


def weighted_ratio(num, den) -> Estimate:
    """Delta-method mean and standard errors of mean(num)/mean(den).

    The residual linearisation handles complex importance weights directly;
    a real residual (real num and den) gives ``se_im`` 0 without a pass.
    """
    num = np.asarray(num)
    den = np.asarray(den)
    n = num.shape[0]
    mb = den.mean()
    r = num.mean() / mb
    if n < 2:
        return Estimate(r, 0.0, 0.0)
    resid = np.multiply(r, den)
    np.subtract(num, resid, out=resid)
    resid /= mb
    se_re = float(np.real(resid).std(ddof=1) / math.sqrt(n))
    se_im = float(np.imag(resid).std(ddof=1) / math.sqrt(n)) if np.iscomplexobj(resid) else 0.0
    return Estimate(r, se_re, se_im)


def score(value: float, se: float, scale: float) -> float:
    """z-score of a deviation in a row of magnitude ``scale``.

    Deviations of at most 1e-12 * min(1, scale) count as zero: estimates
    exact by construction (a self-normalised constant, say) otherwise divide
    rounding noise by a vanishing SE.  Below scale 1 the floor shrinks with
    the row, so that the row's values cannot hide under it.
    """
    if abs(value) <= 1e-12 * min(1.0, scale):
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
