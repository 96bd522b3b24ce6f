"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else: exact rows
at 1e-10 (relative 1e-12 where stated), Monte Carlo rows at 4 standard
errors, derivative oracles at their stated relative bounds.
"""

import itertools
import time

import numpy as np

from twistlab.chain import build_dual, mass_gap, nchain, random_chain, trace_chain
from twistlab.functionals import ExpField, MonomialField, ProductField
from twistlab.harness import (
    _bridge_mc,
    example_suite,
    positivity_suite,
    verify_bridge_identity,
    verify_trace,
)
from twistlab.hilbert import (
    LevyModel,
    circle_model,
    det2,
    gaussian_char_identities,
    hs_partial_sum,
    levy_suite,
    random_skew,
    random_symmetric_nonneg,
)
from twistlab.paths import bridge_values
from twistlab.reporting import count_failures
from twistlab.seeding import rng_stream
from twistlab.twisted import (
    build_twisted,
    complete_monotonicity_check,
    green,
    mgf,
    permanent,
    q_moment,
    q_moment_oracle,
    sample_twisted_batch,
)


def report(number, passed, detail, elapsed):
    flag = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number}] {flag}: {detail} ({elapsed:.1f}s)")
    assert passed, f"criterion {number}: {detail}"


def log_derivative_residual(dp, s, u, h=1e-3):
    """|d/ds_u log Phi(s) + m_u G_s(u, u)|, central differences of log `mgf`
    at steps h and h/2 with one Richardson step."""
    def central(step):
        e_u = step * np.eye(dp.n)[u]
        return (np.log(mgf(dp, s + e_u)) - np.log(mgf(dp, s - e_u))) / (2 * step)

    return abs((4.0 * central(h / 2) - central(h)) / 3.0 + dp.m[u] * green(dp, s)[u, u])


def test_criterion_1_exact_determinant_calculus():
    t0 = time.perf_counter()
    rng = rng_stream(101, "acceptance")
    worst_pot, worst_deriv = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        dp = build_dual(random_chain(n, rng))
        worst_pot = max(worst_pot, float(np.abs(dp.V @ (-dp.L) - np.eye(n)).max()))
        s_wide = rng.uniform(0.0, 2.0, n)
        u = int(rng.integers(n))
        s_unit = rng.uniform(0.0, 1.0, n)
        # the smallest s_u drawn here is 6.1e-3, so the stencil stays in mgf's s >= 0
        for s in (s_wide, s_unit):
            worst_deriv = max(worst_deriv, log_derivative_residual(dp, s, u))
    elapsed = time.perf_counter() - t0
    ok = worst_pot <= 1e-10 and worst_deriv <= 1e-8 and elapsed < 10.0
    report(
        1,
        ok,
        f"50 chains: potential residual {worst_pot:.2e} <= 1e-10, "
        f"log-transform derivative against the Green diagonal {worst_deriv:.2e} <= 1e-8",
        elapsed,
    )


def test_criterion_2_bridge_brackets_damped_green():
    t0 = time.perf_counter()
    rng = rng_stream(102, "acceptance")
    worst_z = 0.0
    count = 100_000
    for c in range(20):
        n = int(rng.integers(3, 6))
        dp = build_dual(random_chain(n, rng))
        for t in range(5):
            x = int(rng.integers(n))
            y = int(rng.integers(n))
            chi = rng.uniform(0.1, 1.2, n)
            vals = bridge_values(dp, x, y, ExpField(chi, dp.m), count, seed=1000 + 5 * c + t)
            est, se = vals.mean(), vals.std(ddof=1) / np.sqrt(count)
            target = green(dp, chi)[x, y]
            z = abs(est - target) / se if se > 0 else (0.0 if est == target else np.inf)
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 120.0
    report(2, ok, f"100 bridge estimates at 1e5 paths: worst |z| = {worst_z:.2f} <= 4", elapsed)


def test_criterion_3_bridge_identity():
    t0 = time.perf_counter()
    rng = rng_stream(103, "acceptance")
    worst_exact, worst_z = 0.0, 0.0
    for c in range(10):
        dp = build_dual(random_chain(4, rng))
        x = int(rng.integers(4))
        y = int(rng.integers(4))
        chi = rng.uniform(0.1, 1.0, 4)
        exact = verify_bridge_identity(dp, x, y, "bridge", chi=chi)
        worst_exact = max(worst_exact, exact.z)
        z, w = sample_twisted_batch(build_twisted(dp), 100_000, 2000 + c)
        rho = np.abs(z) ** 2
        vals = bridge_values(dp, x, y, ProductField(), 100_000, 2000 + c, offsets=rho)
        mc = _bridge_mc(w * z[:, x] * np.conj(z[:, y]), ProductField()(rho), w, vals, f"bridge_identity[x={x},y={y}]")
        worst_z = max(worst_z, mc.z)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-10 and worst_z <= 4.0 and elapsed < 300.0
    report(
        3,
        ok,
        f"10 chains: exponential exact residual {worst_exact:.2e} <= 1e-10, "
        f"cross-MC worst |z| = {worst_z:.2f} <= 4",
        elapsed,
    )


def test_criterion_4_occupation_identity():
    t0 = time.perf_counter()
    rng = rng_stream(104, "acceptance")
    worst_exact = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 6))
        dp = build_dual(random_chain(n, rng))
        g = green(dp)
        for x in range(n):
            rep = verify_bridge_identity(dp, x, x, "occupation")
            worst_exact = max(worst_exact, rep.z, abs(rep.lhs - g[x, x]))
    rows = example_suite(3, count=100_000, seed=3)
    sb = [r for r in rows if "size_biased" in r.name]
    assert [r.rhs for r in sb] == [2.0, 6.0, 24.0]
    worst_z = max(r.z for r in sb)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-10 and all(r.passed for r in sb) and elapsed < 120.0
    report(
        4,
        ok,
        f"constant-functional exact residual {worst_exact:.2e} <= 1e-10; "
        f"size-biased moments vs (2, 6, 24) worst |z| = {worst_z:.2f} <= 4",
        elapsed,
    )


def test_criterion_5_positivity_and_complete_monotonicity():
    t0 = time.perf_counter()
    rng = rng_stream(105, "acceptance")
    violations = 0
    min_margin = np.inf
    for _ in range(10):
        n = int(rng.integers(2, 5))
        dp = build_dual(random_chain(n, rng))
        rep = complete_monotonicity_check(dp)
        violations += rep.violations
        min_margin = min(min_margin, rep.min_signed_value)
    dp = build_dual(random_chain(4, rng))
    rows = positivity_suite(dp, count=100_000, seed=5)
    fails = count_failures(rows)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and min_margin >= -1e-12 and fails == 0
    report(
        5,
        ok,
        f"sign-pattern sweep on 10 chains: 0 violations (min margin {min_margin:.1e} >= -1e-12); "
        f"nonnegative-functional battery: {fails} failures",
        elapsed,
    )


def test_criterion_6_permanental_moments():
    t0 = time.perf_counter()
    rng = rng_stream(106, "acceptance")
    worst_rel = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 6))
        dp = build_dual(random_chain(n, rng))
        for k in (1, 2, 3):
            pts = sorted(rng.choice(n, size=k, replace=True).tolist())
            val = q_moment(dp, pts)
            oracle = q_moment_oracle(dp, pts)
            worst_rel = max(worst_rel, abs(val - oracle) / max(abs(oracle), 1e-300))
    worst_perm = 0.0
    for k in range(1, 7):
        m = rng.standard_normal((k, k))
        brute = sum(
            np.prod([m[i, p[i]] for i in range(k)]) for p in itertools.permutations(range(k))
        )
        worst_perm = max(worst_perm, abs(permanent(m) - brute) / max(abs(brute), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and worst_perm <= 1e-10
    report(
        6,
        ok,
        f"moment vs Taylor-coefficient oracle worst rel {worst_rel:.2e} <= 1e-12; "
        f"permanent vs brute force worst {worst_perm:.2e} <= 1e-10",
        elapsed,
    )


def test_criterion_7_worked_example():
    t0 = time.perf_counter()
    rng = rng_stream(107, "acceptance")
    worst = 0.0
    for n in range(1, 11):
        dp = build_dual(nchain(n))
        for _ in range(3):
            s = rng.uniform(0.0, 2.0, n)
            target = float(np.prod(1.0 / (1.0 + s)))
            worst = max(worst, abs(mgf(dp, s) - target) / target)
    dp5 = build_dual(nchain(5))
    x = 2
    worst_z = 0.0
    for j, target in ((1, 1.0), (2, 2.0), (3, 6.0)):
        vals = bridge_values(dp5, x, x, MonomialField(np.bincount([x] * j, minlength=5)), 100_000, seed=7)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        worst_z = max(worst_z, abs(vals.mean() - target) / se)
    gap = mass_gap(dp5)
    # -A of the march chain has eigenvalues 1 - cos(k pi / (n + 1))
    closed = 2.0 * np.sin(np.pi / 12) ** 2
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_z <= 4.0 and abs(gap - closed) <= 1e-10
    report(
        7,
        ok,
        f"transform factorisation n <= 10 worst rel {worst:.2e} <= 1e-12; "
        f"bridge local-time moments vs (1, 2, 6) worst |z| = {worst_z:.2f} <= 4; "
        f"mass gap n=5 vs 2 sin^2(pi/2(n+1)) deviation {abs(gap - closed):.1e} <= 1e-10",
        elapsed,
    )


def test_criterion_8_trace_consistency():
    t0 = time.perf_counter()
    rng = rng_stream(108, "acceptance")
    worst_pot, worst_row = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(3, 8))
        dp = build_dual(random_chain(n, rng))
        size = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=size, replace=False).tolist())
        traced = trace_chain(dp, keep)
        worst_pot = max(worst_pot, float(np.abs(traced.V - dp.V[np.ix_(keep, keep)]).max()))
        rep = verify_trace(dp, keep)
        worst_row = max(worst_row, rep.z)
    elapsed = time.perf_counter() - t0
    ok = worst_pot <= 1e-10 and worst_row <= 1e-10
    report(
        8,
        ok,
        f"20 (chain, subset) pairs: potential residual {worst_pot:.2e} <= 1e-10, "
        f"potential and Phi row residual {worst_row:.2e} <= 1e-10",
        elapsed,
    )


def test_criterion_9_operator_identities():
    t0 = time.perf_counter()
    rng = rng_stream(109, "acceptance")
    worst_det2, worst_mult = 0.0, 0.0
    for dim in (2, 4, 6, 8):
        t = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        lhs = det2(t) * np.exp(np.trace(t))
        rhs = float(np.linalg.det(np.eye(dim) + t))
        worst_det2 = max(worst_det2, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        t2 = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        # det2's product law: (I + T1)(I + T2) = I + T1 + T2 + T1 T2
        law = det2(t) * det2(t2) * np.exp(-np.trace(t @ t2))
        worst_mult = max(worst_mult, abs(det2(t + t2 + t @ t2) - law) / max(abs(law), 1e-300))
    worst_z = 0.0
    for dim in (4, 8):
        c = random_symmetric_nonneg(dim, rng)
        b = random_skew(dim, rng)
        rows = gaussian_char_identities(
            c, b, rng.standard_normal(dim), rng.standard_normal(dim), count=100_000, seed=9 + dim
        )
        worst_z = max(worst_z, max(r.z for r in rows))
    elapsed = time.perf_counter() - t0
    ok = worst_det2 <= 1e-10 and worst_mult <= 1e-10 and worst_z <= 4.0 and elapsed < 180.0
    report(
        9,
        ok,
        f"renormalised determinant rel {worst_det2:.2e} <= 1e-10, product law rel {worst_mult:.2e} <= 1e-10, "
        f"Gaussian identities worst |z| = {worst_z:.2f} <= 4",
        elapsed,
    )


def test_criterion_10_circle_and_levy_examples():
    t0 = time.perf_counter()
    model = circle_model(1.0, {1: 0.5})
    steps = np.diff([hs_partial_sum(model, k) for k in range(64, 129)])
    worst_step = float(steps.max())
    # a finite list of Levy terms has a finite sum whatever the series does, so
    # the Levy example records its square sum and gives no verdict
    k = np.arange(1.0, 201.0)
    levy_gap = abs(levy_suite(LevyModel(a=k**2, b=k))[0].lhs / float(np.sum(1.0 / k**2)) - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst_step < 1e-3 and levy_gap <= 1e-12
    report(
        10,
        ok,
        f"cos-drift square-sum tail increments on (64, 128] max {worst_step:.2e} < 1e-3; "
        f"quadratic/linear symbol square sum rel gap {levy_gap:.2e} <= 1e-12",
        elapsed,
    )
