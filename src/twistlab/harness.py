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
`bridge_targets` call.  The full-sample products the rows read, such as
``w z_x z̄_y`` and ``F(rho)``, are formed once per suite and passed to
every row that reads them (`_bridge_mc` takes them as arguments).

Every exact row compares two routes through the package's own code and
fixes its own bound where it is built (an absolute 1e-10 for the identity
and trace rows); MC rows pass at 4 SE, wide enough for negligible
family-wise false alarms.
"""

from __future__ import annotations

import math
import time
from math import pi, sin

import numpy as np

from .chain import DualPair, build_dual, energy_quadratic, mass_gap, nchain, trace_chain
from .functionals import BumpField, ExpField, MonomialField, ProductField, _power
# bridge_values is not called here; bench/layertrace.py patches and checks its harness binding
from .paths import _refuse_over_budget, bridge_targets, bridge_values  # noqa: F401
from .reporting import Estimate, VerificationReport, exact_report, info_report, mc_vs_estimate, mc_vs_exact
from .reporting import weighted_ratio as _ratio
from .seeding import rng_stream
from .twisted import (
    build_twisted,
    complete_monotonicity_check,
    green,
    mgf,
    q_moment,
    q_moment_oracle,
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


def _bridge_mc(weighted, func_vals, w, path_vals, name):
    """MC bridge-identity row on twisted draws with weights ``w``.

    ``weighted`` is ``w z_x z̄_y`` of the draws, ``func_vals`` the functional
    at their squared field ``rho`` and ``path_vals`` its bridge values from x
    weighted at y, one path per draw with that draw's ``rho`` as the path's
    offset.  The two sides share the draws, so their weighted ratios go to
    `mc_vs_estimate` with the ratio of their paired difference as the gap:
    the row scores that gap's real part and the imaginary part of each side.
    """
    t0 = time.perf_counter()
    lhs_num = weighted * func_vals
    lhs = _ratio(lhs_num, w)
    rhs_num = w * path_vals
    rhs = _ratio(rhs_num, w)
    lhs_num -= rhs_num  # the paired difference, in place: one full-sample array fewer
    del rhs_num
    rep = mc_vs_estimate(name, lhs, rhs, _ratio(lhs_num, w))
    return rep.with_seconds(time.perf_counter() - t0)


def _path_green(dp, x, y, chi=None):
    """Damped Green density counted on the jump chain killed at the extra rate
    chi: expected visits to y from x, each holding 1/(q_y + chi_y) on
    average, per unit reference measure at y."""
    rate = dp.q if chi is None else dp.q + chi
    visits = np.linalg.inv(np.eye(dp.n) - (dp.q / rate)[:, None] * dp.pi)
    return visits[x, y] / (rate[y] * dp.m[y])


def verify_bridge_identity(
    dp: DualPair,
    x: int,
    y: int,
    chi=None,
    name: str | None = None,
) -> VerificationReport:
    """Exact bridge identity for the exponential functional exp(-<chi, l>_m).

    F is constant when ``chi`` is None.  Both sides are G_chi(x, y) times
    ``Phi = mgf(dp, chi)`` (exactly 1 for chi = None): the left side takes
    G_chi from the damped resolvent, the right side counts it on the jump
    chain killed at the extra rate chi.  With x = y this is the occupation
    identity; the row passes at an absolute 1e-10.  Monte Carlo rows come
    from `_bridge_mc` on a suite's shared draws and walk.
    """
    x, y = dp.state_index(x), dp.state_index(y)
    t0 = time.perf_counter()
    phi = mgf(dp, chi)
    lhs = green(dp, chi)[x, y] * phi
    rhs = _path_green(dp, x, y, chi) * phi
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
        rows.append(mc_vs_exact(f"positivity_exp{t}_vs_mgf", _ratio(w * f(rho), w), mgf(dp, chi)))

    bump = BumpField(rng.uniform(0.0, 1.0, n))
    est = _ratio(w * bump(rho), w)
    # one-sided: only a shortfall below 0 counts against the row
    shortfall = Estimate(min(est.value.real, 0.0), est.se_re, 0.0)
    rows.append(mc_vs_estimate("positivity_bump_nonneg", est, Estimate(0.0, 0.0, 0.0), shortfall))

    pts_single = [int(rng.integers(n))]
    pts_pair = sorted(rng.choice(n, size=2, replace=True).tolist())
    for pts, tag in ((pts_single, "single"), (pts_pair, "pair")):
        f = MonomialField(np.bincount(pts, minlength=n))
        rows.append(
            mc_vs_exact(f"positivity_moment_{tag}_vs_permanent", _ratio(w * f(rho), w), q_moment(dp, pts))
        )
    return rows


def verify_trace(dp: DualPair, keep) -> VerificationReport:
    """Consistency between a chain and its trace on ``keep`` (the set Y).

    The traced potential must equal the restricted potential, and the
    Laplace transform Phi of the trace must equal Phi of the full chain
    with s = 0 off Y, at two fixed s on Y of total mass at most one: the
    constant 1/|Y|, and the ramp s_j = (j + 1)/|Y|^2 along Y in increasing
    order.  Phi lies in (0, 1], so the absolute 1e-10 that the row applies
    to all three is a bound on values of order one.
    """
    t0 = time.perf_counter()
    keep = list(keep)
    traced = trace_chain(dp, keep)
    keep_sorted = sorted(set(keep))
    size = len(keep_sorted)
    resid = float(np.abs(traced.V - dp.V[np.ix_(keep_sorted, keep_sorted)]).max())
    s = np.stack([np.full(size, 1.0 / size), np.arange(1, size + 1) / size**2])
    s_full = np.zeros((2, dp.n))
    s_full[:, keep_sorted] = s
    resid = max(resid, float(np.abs(mgf(traced, s) - mgf(dp, s_full)).max()))
    label = f"trace_consistency[|Y|={size}]"
    rep = exact_report(label, resid, 0.0, tol=1e-10)
    return rep.with_seconds(time.perf_counter() - t0)


def trace_suite(dp: DualPair, seed: int = 0):
    """Traces onto three random proper subsets; a chain needs two states to have one."""
    if dp.n < 2:
        raise ValueError("tracing needs at least 2 states: a 1-state chain has no proper subset")
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
        info_report("mass_gap", gap).with_seconds(time.perf_counter() - t0),
        exact_report("energy_lower_bound_margin", min(margin, 0.0), 0.0, tol=1e-10),
    ]
    return rows, gap


def mgf_suite(dp: DualPair, seed: int = 0):
    """Laplace-transform rows: log-derivative against the Green diagonal, monotone damping.

    det(-L + M_s) is affine in each s_u, with the minor off u as its slope,
    so d/ds_u log Phi(s) = 1 - Phi(s) / Phi(s + e_u) exactly: one unit step
    forward, no truncation error.  By Cramer's rule it equals
    -m_u G_s(u, u); the row is the largest gap over u at a random s in
    [0, 1)^n, with Phi at s and at the n points s + e_u from one stacked
    `mgf` call.
    """
    rng = rng_stream(seed, "mgf-suite")
    s = rng.uniform(0.0, 1.0, dp.n)
    g_s = green(dp, s)
    phis = mgf(dp, s + np.eye(dp.n + 1, dp.n, -1))  # rows s, s + e_0, .., s + e_{n-1}
    slopes = 1.0 - phis[0] / phis[1:]
    worst = float(np.abs(slopes + dp.m * np.diag(g_s)).max())
    rows = [exact_report("logdet_derivative_vs_trace", worst, 0.0, tol=1e-8)]
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
    _refuse_over_budget(dp, x)  # before the draw that the walk would waste
    z, w = sample_twisted_batch(build_twisted(dp), count, seed)
    rho = np.abs(z) ** 2
    exp_f, prod_f = ExpField(chi, dp.m), ProductField()
    exp_xy, prod_xy, prod_xx = bridge_targets(
        dp, x, [(y, exp_f, rho), (y, prod_f, rho), (x, prod_f, rho)], count, seed
    )
    exact = [
        verify_bridge_identity(dp, x, y, name=f"bridge_f1_exact[{x},{y}]"),
        verify_bridge_identity(dp, x, y, chi=chi, name=f"bridge_exp_exact[{x},{y}]"),
    ]
    # the rows sharing w z_x z̄_y run first and drop it before the diagonal row
    # forms its own, so no more full-sample arrays are live than with per-row products
    weighted = w * z[:, x] * np.conj(z[:, y])
    exp_mc = _bridge_mc(weighted, exp_f(rho), w, exp_xy, f"bridge_exp_mc[{x},{y}]")
    prod_rho = prod_f(rho)
    prod_mc = _bridge_mc(weighted, prod_rho, w, prod_xy, f"bridge_product_mc[{x},{y}]")
    # the twisted field correlation itself must bracket the Green density
    correlation = mc_vs_exact(f"field_correlation_vs_green[{x},{y}]", _ratio(weighted, w), green(dp)[x, y])
    del weighted
    occ_mc = _bridge_mc(w * z[:, x] * np.conj(z[:, x]), prod_rho, w, prod_xx, f"occupation_product_mc[{x}]")
    return exact + [
        exp_mc,
        prod_mc,
        verify_bridge_identity(dp, x, x, name=f"occupation_f1_exact[{x}]"),
        verify_bridge_identity(dp, x, x, chi=chi, name=f"occupation_exp_exact[{x}]"),
        occ_mc,
        correlation,
    ]


def q_suite(dp: DualPair, count: int = 100_000, seed: int = 0):
    """Squared-field law battery: positivity, monotonicity, moment oracle.

    The monotonicity sweep runs first, so that a chain beyond its state limit
    is refused before any draw; it draws nothing, and its row still follows
    the positivity rows.
    """
    cm = complete_monotonicity_check(dp)
    rows = positivity_suite(dp, count=count, seed=seed)
    rows.append(exact_report("cm_full_sweep_clean", cm.violations, 0.0, tol=0.5))
    rng = rng_stream(seed, "q-suite-points")
    for k in (1, 2, 3):
        pts = sorted(rng.choice(dp.n, size=k, replace=True).tolist())
        val = q_moment(dp, pts)
        oracle = q_moment_oracle(dp, pts)
        rows.append(
            exact_report(f"q_moment_vs_derivative_oracle_k{k}", val, oracle, tol=1e-12, relative=True)
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

    _refuse_over_budget(dp, x)
    z, w = sample_twisted_batch(build_twisted(dp), count, seed)
    rho = np.abs(z) ** 2
    rho_x = np.ascontiguousarray(rho[:, x])  # one column copy for the six moment rows
    for k in (1, 2, 3):
        rows.append(mc_vs_exact(f"example_n{n}_moment_k{k}", _ratio(w * _power(rho_x, k), w), float(math.factorial(k))))
    for j in (1, 2, 3):
        # E[rho^{j+1}] / E[rho] against (j + 1)!, its imaginary SE folded into the real one
        est = _ratio(w * _power(rho_x, j + 1), w * rho_x)
        folded = Estimate(est.value.real, max(est.se_re, est.se_im), 0.0)
        rows.append(mc_vs_exact(f"example_n{n}_size_biased_m{j}", folded, math.factorial(j + 1)))
    del rho_x

    chi = rng.uniform(0.2, 1.0, n)
    exp_f = ExpField(chi, dp.m)
    monomials = [(x, MonomialField(np.bincount([x] * j, minlength=n)), None) for j in (1, 2, 3)]
    *local_times, occ_exp = bridge_targets(dp, x, monomials + [(x, exp_f, rho)], count, seed)
    for j, vals in zip((1, 2, 3), local_times):
        rows.append(mc_vs_exact(f"example_n{n}_bridge_local_time_m{j}", _ratio(vals, np.ones(count)), math.factorial(j)))

    gap, closed = mass_gap(dp), 2.0 * sin(pi / (2 * (n + 1))) ** 2
    rows.append(exact_report(f"example_n{n}_mass_gap_vs_closed_form", gap, closed, tol=1e-10))

    rows.append(verify_bridge_identity(dp, x, x, name=f"example_n{n}_occupation_f1_exact"))
    rows.append(verify_bridge_identity(dp, x, x, chi=chi, name=f"example_n{n}_occupation_exp_exact"))
    rows.append(_bridge_mc(w * z[:, x] * np.conj(z[:, x]), exp_f(rho), w, occ_exp, f"example_n{n}_occupation_exp_mc"))
    return rows
