"""Cross-checks of the field/occupation-time identities on a dual chain.

Two identities are verified, exactly where closed forms exist and
statistically otherwise.  The bridge identity compares the twisted
expectation of ``z_x z̄_y F(z z̄)`` with the twisted-and-bridge expectation
of ``F(l + z z̄)``; the occupation identity is its diagonal form x = y for
the squared-field law, where ``z_x z̄_x = rho_x`` makes the left side the
size-biased expectation ``E[rho_x F(rho)]``.  Monte Carlo rows share the
Gaussian draws between the two sides (common random numbers) and score the
paired difference, with imaginary parts of real quantities folded into the
same z-score.  Each suite draws its twisted-field sample once and builds
every Monte Carlo row on it, and walks each of its killed-path sets once,
evaluating all of the bridge functionals on that set in one
`bridge_targets` call.

Each row fixes its own bound: exact rows pass at the tolerance stated where
they are built (an absolute 1e-10 for the identity and trace rows), MC rows
at 4 SE, wide enough for negligible family-wise false alarms.
"""

from __future__ import annotations

import itertools
import math
import time
from math import pi, sin

import numpy as np

from .chain import DualPair, build_dual, energy_quadratic, mass_gap, nchain, trace_chain
from .functionals import BumpField, ExpField, MonomialField, ProductField
# bridge_values is not called here; bench/layertrace.py patches and checks its harness binding
from .paths import bridge_targets, bridge_values  # noqa: F401
from .reporting import (
    VerificationReport,
    exact_report,
    info_report,
    mc_report,
    mc_vs_exact,
    score as _score,
    weighted_ratio as _ratio,
)
from .seeding import rng_stream
from .twisted import (
    build_twisted,
    complete_monotonicity_check,
    green,
    mgf,
    partition,
    permanent,
    q_moment,
    q_moment_oracle,
    resolvent_trace_residual,
    sample_twisted_batch,
)

__all__ = [
    "example_suite",
    "iso_suite",
    "mass_gap_suite",
    "mgf_suite",
    "positivity_suite",
    "q_suite",
    "trace_suite",
    "verify_bridge_identity",
    "verify_trace",
]


def _bridge_mc(x, y, func, z, w, rho, path_vals, name):
    """MC bridge-identity row on the twisted draws ``(z, w)``.

    ``rho`` is the draws' squared field and ``path_vals`` the bridge values
    of ``func`` from x weighted at y, one path per draw with that draw's
    ``rho`` as the path's offset.  The two sides share the draws; the row
    scores their paired difference and the imaginary part of each side.
    """
    t0 = time.perf_counter()
    lhs_num = w * z[:, x] * np.conj(z[:, y]) * func(rho)
    rhs_num = w * path_vals
    rl, sel_re, sel_im = _ratio(lhs_num, w)
    rr, ser_re, ser_im = _ratio(rhs_num, w)
    rd, sed_re, _ = _ratio(lhs_num - rhs_num, w)
    z_max = max(_score(rd.real, sed_re), _score(rl.imag, sel_im), _score(rr.imag, ser_im))
    rep = mc_report(name, rl.real, sel_re, rr.real, ser_re, z=z_max)
    return rep.with_seconds(time.perf_counter() - t0)


def _path_green(dp, x, y):
    """Green density from the jump chain: expected visits to y from x, each
    holding 1/q_y on average, per unit reference measure at y."""
    return np.linalg.inv(np.eye(dp.n) - dp.pi)[x, y] / (dp.q[y] * dp.m[y])


def verify_bridge_identity(
    dp: DualPair,
    x: int,
    y: int,
    chi=None,
    name: str | None = None,
) -> VerificationReport:
    """Exact bridge identity for the exponential functional exp(-<chi, l>_m).

    F is constant when ``chi`` is None.  Both sides reduce to
    ``G_chi(x, y) * Phi(chi)``, computed along the two determinant routes;
    with chi = None the right side is the Green density counted on the jump
    chain instead, expected visits over rate and weight.  With x = y this is
    the occupation identity; the row passes at an absolute 1e-10.  Monte
    Carlo rows come from `_bridge_mc` on a suite's shared draws and walk.
    """
    if not (0 <= int(x) < dp.n and 0 <= int(y) < dp.n):
        raise ValueError("states out of range")
    t0 = time.perf_counter()
    g = green(dp, chi)[x, y]
    lhs = g * (partition(dp, chi) / partition(dp))
    rhs = _path_green(dp, x, y) if chi is None else g * mgf(dp, chi)
    rep = exact_report(name or f"bridge_identity[x={x},y={y}]", lhs, rhs, tol=1e-10)
    return rep.with_seconds(time.perf_counter() - t0)


def positivity_suite(dp: DualPair, count: int = 100_000, seed: int = 0):
    """Nonnegativity battery for the squared-field law.

    Weighted-sample expectations of nonnegative functionals must be real
    and nonnegative at 4 SE; exponential and monomial rows also bracket
    their exact determinant/permanent values.
    """
    rows = []
    tm = build_twisted(dp)
    z, w = sample_twisted_batch(tm, count, seed)
    rho = np.abs(z) ** 2
    rng = rng_stream(seed, "positivity-battery")
    n = dp.n

    for t in range(2):
        chi = rng.uniform(0.0, 1.5, n)
        f = ExpField(chi, dp.m)
        rows.append(mc_vs_exact(f"positivity_exp{t}_vs_mgf", w * f(rho), w, mgf(dp, chi)))

    bump = BumpField(rng.uniform(0.0, 1.0, n))
    est, se_re, se_im = _ratio(w * bump(rho), w)
    z_neg = max(_score(min(est.real, 0.0), se_re), _score(est.imag, se_im))
    rows.append(mc_report("positivity_bump_nonneg", est.real, se_re, 0.0, 0.0, z=z_neg))

    pts_single = [int(rng.integers(n))]
    pts_pair = sorted(rng.choice(n, size=2, replace=True).tolist())
    for pts, tag in ((pts_single, "single"), (pts_pair, "pair")):
        f = MonomialField(np.bincount(pts, minlength=n))
        rows.append(
            mc_vs_exact(f"positivity_moment_{tag}_vs_permanent", w * f(rho), w, q_moment(dp, pts))
        )
    return rows


def verify_trace(dp: DualPair, keep) -> VerificationReport:
    """Moment-level consistency between a chain and its trace on ``keep``.

    The traced potential must equal the restricted potential, and every
    point-moment of order 1 to 3 on ``keep`` computed on the full chain must
    match the one computed on the trace, both to an absolute 1e-10.
    """
    t0 = time.perf_counter()
    keep_sorted = sorted({int(k) for k in keep})
    traced = trace_chain(dp, keep_sorted)
    sub = np.ix_(keep_sorted, keep_sorted)
    resid = float(np.abs(traced.V - dp.V[sub]).max())
    g_full, g_part = green(dp)[sub], green(traced)
    for size in (1, 2, 3):
        for tup in itertools.combinations_with_replacement(range(len(keep_sorted)), size):
            at = np.ix_(tup, tup)
            resid = max(resid, abs(permanent(g_full[at]) - permanent(g_part[at])))
    label = f"trace_consistency[|Y|={len(keep_sorted)}]"
    rep = exact_report(label, resid, 0.0, tol=1e-10)
    return rep.with_seconds(time.perf_counter() - t0)


def trace_suite(dp: DualPair, seed: int = 0):
    """Traces onto three random proper subsets; a chain needs two states to have one."""
    if dp.n < 2:
        raise ValueError("a 1-state chain has no proper subset to trace onto")
    rng = rng_stream(seed, "trace-suite")
    rows = []
    for _ in range(3):
        size = int(rng.integers(1, dp.n))
        keep = sorted(rng.choice(dp.n, size=size, replace=False).tolist())
        rows.append(verify_trace(dp, keep))
    return rows


def mass_gap_suite(dp: DualPair, seed: int = 0):
    """Gap value plus the energy lower bound on 1000 random complex vectors."""
    t0 = time.perf_counter()
    gap = mass_gap(dp)
    rng = rng_stream(seed, "mass-gap")
    z = rng.standard_normal((1000, dp.n)) + 1j * rng.standard_normal((1000, dp.n))
    energies = energy_quadratic(dp, z)
    norms = np.einsum("ki,ki,i->k", z, np.conj(z), dp.m).real
    margin = float((energies - gap * norms).min())
    rows = [
        info_report("mass_gap", gap, gap).with_seconds(time.perf_counter() - t0),
        exact_report("energy_lower_bound_margin", min(margin, 0.0), 0.0, tol=1e-10),
    ]
    return rows, gap


def mgf_suite(dp: DualPair, seed: int = 0):
    """Laplace-transform consistency rows: ratio identity, trace derivative."""
    rng = rng_stream(seed, "mgf-suite")
    base = partition(dp)
    worst = 0.0
    for _ in range(5):
        s = rng.uniform(0.0, 2.0, dp.n)
        phi = mgf(dp, s)
        worst = max(worst, abs(phi - partition(dp, s) / base) / max(phi, 1e-300))
    rows = [exact_report("mgf_equals_partition_ratio", worst, 0.0, tol=1e-12)]
    s = rng.uniform(0.0, 1.0, dp.n)
    worst_tr = max(resolvent_trace_residual(dp, s, u) for u in range(dp.n))
    rows.append(exact_report("logdet_derivative_vs_trace", worst_tr, 0.0, tol=1e-8))
    g0 = green(dp)
    bumped = green(dp, np.full(dp.n, 0.3))
    rows.append(
        exact_report("green_monotone_in_chi", float(min((g0 - bumped).min(), 0.0)), 0.0, tol=1e-12)
    )
    return rows


def iso_suite(dp: DualPair, count: int = 100_000, seed: int = 0):
    """Identity battery on a chain: exact rows, MC brackets, cross-MC rows."""
    rng = rng_stream(seed, "iso-suite")
    n = dp.n
    x = int(rng.integers(n))
    y = int(rng.integers(n))
    chi = rng.uniform(0.0, 1.0, n)
    z, w = sample_twisted_batch(build_twisted(dp), count, seed)
    rho = np.abs(z) ** 2
    exp_f, prod_f = ExpField(chi, dp.m), ProductField()
    exp_xy, prod_xy, prod_xx = bridge_targets(
        dp, x, [(y, exp_f, rho), (y, prod_f, rho), (x, prod_f, rho)], count, seed
    )
    return [
        verify_bridge_identity(dp, x, y, name=f"bridge_f1_exact[{x},{y}]"),
        verify_bridge_identity(dp, x, y, chi=chi, name=f"bridge_exp_exact[{x},{y}]"),
        _bridge_mc(x, y, exp_f, z, w, rho, exp_xy, f"bridge_exp_mc[{x},{y}]"),
        _bridge_mc(x, y, prod_f, z, w, rho, prod_xy, f"bridge_product_mc[{x},{y}]"),
        verify_bridge_identity(dp, x, x, name=f"occupation_f1_exact[{x}]"),
        verify_bridge_identity(dp, x, x, chi=chi, name=f"occupation_exp_exact[{x}]"),
        _bridge_mc(x, x, prod_f, z, w, rho, prod_xx, f"occupation_product_mc[{x}]"),
        # the twisted field correlation itself must bracket the Green density
        mc_vs_exact(f"field_correlation_vs_green[{x},{y}]", w * z[:, x] * np.conj(z[:, y]), w, green(dp)[x, y]),
    ]


def q_suite(dp: DualPair, count: int = 100_000, seed: int = 0):
    """Squared-field law battery: positivity, monotonicity, moment oracle."""
    rows = positivity_suite(dp, count=count, seed=seed)
    cm = complete_monotonicity_check(dp)
    rows.append(exact_report("cm_full_sweep_clean", cm.violations, 0.0, tol=0.5))
    rng = rng_stream(seed, "q-suite-points")
    for k in (1, 2, 3):
        pts = sorted(rng.choice(dp.n, size=k, replace=True).tolist())
        val = q_moment(dp, pts)
        oracle = q_moment_oracle(dp, pts)
        rows.append(
            exact_report(f"q_moment_vs_derivative_oracle_k{k}", val, oracle, tol=1e-6, relative=True)
        )
    return rows


def example_suite(n_states: int, count: int = 100_000, seed: int = 1):
    """Full battery on the unit-rate march chain of ``n_states`` states.

    Exact rows: Laplace-transform factorisation into prod (1 + s_i)^{-1}
    and the exponential-occupation identities.  MC rows: squared-field
    marginal moments k!, size-biased moments (k+1)!, and the unit-mean
    exponential law of the bridge local time.  The spectral gap of -A,
    whose eigenvalues are 1 - cos(k pi / (n + 1)), is asserted against the
    closed form 2 sin^2(pi / (2 (n + 1))).
    """
    dp = build_dual(nchain(n_states))
    n = dp.n
    x = n // 2
    rng = rng_stream(seed, "example-suite")
    rows = []

    worst = 0.0
    for _ in range(3):
        s = rng.uniform(0.0, 2.0, n)
        target = float(np.prod(1.0 / (1.0 + s)))
        worst = max(worst, abs(mgf(dp, s) - target) / target)
    rows.append(exact_report(f"example_n{n}_mgf_factorisation", worst, 0.0, tol=1e-12))

    z, w = sample_twisted_batch(build_twisted(dp), count, seed)
    rho = np.abs(z) ** 2
    for k in (1, 2, 3):
        rows.append(
            mc_vs_exact(f"example_n{n}_moment_k{k}", w * rho[:, x] ** k, w, float(math.factorial(k)))
        )
    for j in (1, 2, 3):
        # E[rho^{j+1}] / E[rho] against (j + 1)!, at the larger of its real and imaginary SEs
        r, se_re, se_im = _ratio(w * rho[:, x] ** (j + 1), w * rho[:, x])
        se, target = max(se_re, se_im), math.factorial(j + 1)
        zscore = _score(r.real - target, se)
        rows.append(mc_report(f"example_n{n}_size_biased_m{j}", r.real, se, target, 0.0, z=zscore))

    chi = rng.uniform(0.2, 1.0, n)
    exp_f = ExpField(chi, dp.m)
    monomials = [(x, MonomialField(np.bincount([x] * j, minlength=n)), None) for j in (1, 2, 3)]
    *local_times, occ_exp = bridge_targets(dp, x, monomials + [(x, exp_f, rho)], count, seed)
    for j, vals in zip((1, 2, 3), local_times):
        rows.append(mc_vs_exact(f"example_n{n}_bridge_local_time_m{j}", vals, np.ones(count), math.factorial(j)))

    gap, closed = mass_gap(dp), 2.0 * sin(pi / (2 * (n + 1))) ** 2
    rows.append(exact_report(f"example_n{n}_mass_gap_vs_closed_form", gap, closed, tol=1e-10))

    rows.append(verify_bridge_identity(dp, x, x, name=f"example_n{n}_occupation_f1_exact"))
    rows.append(verify_bridge_identity(dp, x, x, chi=chi, name=f"example_n{n}_occupation_exp_exact"))
    rows.append(_bridge_mc(x, x, exp_f, z, w, rho, occ_exp, f"example_n{n}_occupation_exp_mc"))
    return rows
