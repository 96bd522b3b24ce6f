import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from twistlab import twisted
from twistlab.chain import ChainSpec, build_dual, dual_pair_from_generator, nchain, random_chain
from twistlab.seeding import rng_stream
from twistlab.twisted import (
    CM_MAX_STATES,
    SAMPLE_BLOCK,
    _cm_differences,
    _cm_phi,
    _principal_minors,
    build_twisted,
    cm_grid,
    complete_monotonicity_check,
    green,
    mgf,
    permanent,
    q_moment,
    q_moment_oracle,
    sample_twisted_batch,
)


def scalar_chain(c=0.0):
    spec = ChainSpec(q=np.ones(1), pi=np.zeros((1, 1)), mu=np.ones(1))
    return build_dual(spec), np.array([c])


def field_correlation_block_oracle(dp, chi):
    """E[z_x z̄_y] under the chi-damped twisted measure via the real 2n-block
    Gaussian: an independent route through complex-symmetric covariance
    algebra (no resolvent formula involved)."""
    n = dp.n
    h = dp.m[:, None] * (-dp.L) + np.diag(np.asarray(chi) * dp.m)
    s = (h + h.T) / 2.0
    k = (h - h.T) / 2.0
    q = np.block([[s, 1j * k], [-1j * k, s]])
    cov = np.linalg.inv(q) / 2.0
    cxx, cxy = cov[:n, :n], cov[:n, n:]
    cyx, cyy = cov[n:, :n], cov[n:, n:]
    return cxx + cyy + 1j * (cyx - cxy)


def field_correlation_quadrature_oracle(dp, chi, nodes=24):
    """Same moment by tensor Gauss-Hermite quadrature over the 2n real
    coordinates, for n <= 2."""
    n = dp.n
    h = dp.m[:, None] * (-dp.L) + np.diag(np.asarray(chi) * dp.m)
    s = (h + h.T) / 2.0
    k = (h - h.T) / 2.0
    # x = a u1, y = a u2 with a^T s a = I turns the damping into exp(-|u|^2)
    evals, evecs = np.linalg.eigh(s)
    a = evecs / np.sqrt(evals)
    x1d, w1d = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x1d] * (2 * n)), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(u.shape[0])
    for axis in range(2 * n):
        weights = weights * w1d[np.searchsorted(x1d, u[:, axis])]
    x = u[:, :n] @ a.T
    y = u[:, n:] @ a.T
    phase = np.exp(-2j * np.einsum("ij,jk,ik->i", x, k, y))
    z = x + 1j * y
    denom = np.sum(weights * phase)
    moments = np.einsum("i,ia,ib->ab", weights * phase, z, np.conj(z))
    return moments / denom


@pytest.mark.parametrize("n", [1, 6, 64])
def test_stacked_mgf_equals_each_one_point_call_bit_for_bit(n):
    rng = rng_stream(31, "twisted-tests")
    dp = build_dual(random_chain(n, rng))
    # zeros, unit steps and random points, as the suites stack them
    stack = np.vstack([np.zeros(n), rng.uniform(0.0, 1.0, n) + np.eye(n + 1, n, -1), rng.uniform(0.0, 3.0, (4, n))])
    phis = mgf(dp, stack)
    assert phis.shape == (len(stack),) and phis.dtype == float
    assert [float(v) for v in phis] == [mgf(dp, row) for row in stack]
    assert isinstance(mgf(dp, stack[1]), float)
    assert mgf(dp, np.empty((0, n))).shape == (0,)


def test_stacked_mgf_gives_the_same_values_a_buffer_full_at_a_time(monkeypatch):
    rng = rng_stream(32, "twisted-tests")
    dp = build_dual(random_chain(6, rng))
    stack = rng.uniform(0.0, 2.0, (7, 6))
    whole = list(mgf(dp, stack))
    for size in (3 * 6 * 6 * 8 + 7, 1):  # three matrices a buffer, and at least one
        monkeypatch.setattr(twisted, "STACK_BYTES", size)
        assert list(mgf(dp, stack)) == whole


def test_green_march_chain_and_scalar():
    dp = build_dual(nchain(4))
    assert np.allclose(green(dp), np.triu(np.ones((4, 4))), atol=1e-12)
    dps, chi = scalar_chain(0.7)
    assert green(dps, chi)[0, 0] == pytest.approx(1.0 / 1.7, rel=1e-12)


def test_green_nonnegative_and_monotone_in_chi():
    rng = rng_stream(22, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    chi = rng.uniform(0.0, 1.0, 5)
    g = green(dp, chi)
    assert np.all(g >= -1e-14)
    for u in range(5):
        bump = chi.copy()
        bump[u] += 0.5
        assert np.all(green(dp, bump) <= g + 1e-14)


def test_convention_scalar_quadrature():
    # pins the no-half normalisation: E[z z̄] = 1/(1 + chi) for the unit chain
    dp, chi = scalar_chain(0.9)
    est = field_correlation_quadrature_oracle(dp, chi, nodes=40)
    assert est[0, 0].real == pytest.approx(green(dp, chi)[0, 0], rel=1e-10)
    assert abs(est[0, 0].imag) < 1e-12


def test_convention_two_state_oracles():
    rng = rng_stream(23, "twisted-tests")
    pi = np.array([[0.0, 0.6], [0.2, 0.0]])
    spec = ChainSpec(q=np.array([1.3, 0.7]), pi=pi, mu=np.array([0.5, 0.5]))
    dp = build_dual(spec)
    assert np.abs(dp.skew).max() > 1e-3  # genuinely non-symmetric
    for chi in (np.zeros(2), rng.uniform(0.1, 1.0, 2)):
        target = green(dp, chi)
        block = field_correlation_block_oracle(dp, chi)
        quad = field_correlation_quadrature_oracle(dp, chi, nodes=24)
        assert np.abs(block - target).max() < 1e-12
        assert np.abs(quad - target).max() < 1e-8


def test_sampler_weights_trivial_for_symmetric_chain():
    # symmetric jump structure with uniform mu keeps L = L_hat
    pi = np.array([[0.0, 0.4], [0.4, 0.0]])
    spec = ChainSpec(q=np.ones(2), pi=pi, mu=np.array([0.5, 0.5]))
    dp = build_dual(spec)
    assert np.abs(dp.skew).max() < 1e-12
    tm = build_twisted(dp)
    _, w = sample_twisted_batch(tm, 1000, seed=5)
    assert np.allclose(w, 1.0, atol=1e-12)


def test_build_and_weights_do_not_depend_on_the_scale_of_m():
    # a symmetric generator with uniform m: skew_form is rounding noise that grows with m
    a = np.random.default_rng(2).random((5, 5))
    off = (a + a.T) / 2.0
    np.fill_diagonal(off, 0.0)
    gen = off - np.diag(off.sum(axis=1) + 0.5)
    for c in (1.0, 1e6, 1e12):
        build_twisted(dual_pair_from_generator(gen, c * np.ones(5)))
    # the twist phase is invariant under m -> c m: the field scales by c^(-1/2), skew_form by c
    dp = build_dual(random_chain(6, rng_stream(27, "twisted-tests")))
    _, w = sample_twisted_batch(build_twisted(dp), 2000, seed=9)
    _, w_scaled = sample_twisted_batch(build_twisted(dual_pair_from_generator(dp.L, 1e6 * dp.m)), 2000, seed=9)
    assert np.abs(dp.skew).max() > 1e-3
    assert np.abs(w_scaled - w).max() <= 1e-10


def test_sampler_unit_modulus_and_mean_weight():
    rng = rng_stream(24, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    tm = build_twisted(dp)
    z, w = sample_twisted_batch(tm, 100_000, seed=6)
    assert np.abs(np.abs(w) - 1.0).max() <= 1e-12
    target = np.linalg.det(dp.m[:, None] * (-dp.A)) / np.linalg.det(dp.m[:, None] * (-dp.L))
    se = w.real.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.real.mean() - target) <= 4.0 * se
    assert abs(w.imag.mean()) <= 4.0 * w.imag.std(ddof=1) / np.sqrt(w.size)


def test_sampler_draws_the_field_from_its_stream_and_twists_by_the_skew_form():
    rng = rng_stream(26, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    tm = build_twisted(dp)
    z, w = sample_twisted_batch(tm, 300, seed=8)
    xi = rng_stream(8, "twisted-field").standard_normal((2, 300, 5))
    assert np.array_equal(z.real, xi[0] @ tm.half_factor.T)
    assert np.array_equal(z.imag, xi[1] @ tm.half_factor.T)
    for zi, wi in zip(z, w):
        assert abs(wi - np.exp(2j * (zi.real @ tm.skew_form @ zi.imag))) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [random_chain(8, rng_stream(41, "twisted-tests")), nchain(24), random_chain(64, rng_stream(42, "twisted-tests"))],
    ids=["random-8", "march-24", "random-64"],
)
def test_build_twisted_gives_the_normalisation_and_green_in_closed_form(spec):
    # with S = skew_form, F = half_factor and Sigma = F F^T, the twist operator is
    # B = 2 F^T S F; integrating Im z out gives E[W] and the conditioned correlation C
    tm = build_twisted(build_dual(spec))
    dp, s, f = tm.dp, tm.skew_form, tm.half_factor
    sigma, b = f @ f.T, 2.0 * f.T @ s @ f
    sigma_c = np.linalg.inv(np.linalg.inv(sigma) + 4.0 * s @ sigma @ s.T)
    k = 2.0 * sigma @ s.T
    log_weight = -0.5 * np.linalg.slogdet(np.eye(dp.n) + b @ b.T)[1]
    log_ratio = np.linalg.slogdet(dp.m[:, None] * -dp.A)[1] - np.linalg.slogdet(dp.m[:, None] * -dp.L)[1]
    assert abs(log_weight - log_ratio) <= 1e-10  # relative 1e-10 on the determinants
    c = sigma_c + sigma - k @ sigma_c @ k.T - k @ sigma_c + sigma_c @ k.T
    g = green(dp)
    assert np.abs(c - g).max() <= 1e-10 * np.abs(g).max()


def two_draw_sample(tm, count, seed):
    """The sampler as one (2, count, n) draw and complex temporaries: the referee."""
    xi = rng_stream(seed, "twisted-field").standard_normal((2, count, tm.dp.n))
    re = xi[0] @ tm.half_factor.T
    im = xi[1] @ tm.half_factor.T
    phase = 2.0 * ((re @ tm.skew_form) * im).sum(axis=1)
    return re + 1j * im, np.exp(1j * phase)


# 1025 and 2049 would leave a 1-row (gemv) block if the sampler cut full
# blocks plus a remainder; at n = 64 OpenBLAS's small-matrix kernel rounds
# blocks of up to 18 rows differently from the one-shot dgemm
@pytest.mark.parametrize("count", [1, 2, 1024, 1025, 2049, 4097])
@pytest.mark.parametrize("n", [1, 2, 8, 24, 64, 128])
def test_sampler_matches_the_two_draw_formula_bit_for_bit(n, count):
    tm = build_twisted(build_dual(random_chain(n, rng_stream(n, "sampler-bits"))))
    z, w = sample_twisted_batch(tm, count, seed=9)
    z_ref, w_ref = two_draw_sample(tm, count, seed=9)
    assert z.tobytes() == z_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def test_sampler_peak_memory_is_one_field_array():
    # the complex (count, n) z, three (SAMPLE_BLOCK, n) float64 buffers, 40
    # bytes a row (the phase, 2j * phase and the weights) and 64 KiB for the
    # span list; one more (count, n) float array would break it
    n, count = 64, 20_000
    tm = build_twisted(build_dual(random_chain(n, rng_stream(n, "sampler-bits"))))
    tracemalloc.start()
    try:
        sample_twisted_batch(tm, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= count * (16 * n + 40) + 3 * SAMPLE_BLOCK * n * 8 + (1 << 16)


def test_sampler_correlation_brackets_green():
    rng = rng_stream(25, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    tm = build_twisted(dp)
    z, w = sample_twisted_batch(tm, 100_000, seed=7)
    g = green(dp)
    for x, y in ((0, 0), (0, 3), (2, 1)):
        num = w * z[:, x] * np.conj(z[:, y])
        est = num.mean() / w.mean()
        resid = (num - est * w) / w.mean()
        se = resid.real.std(ddof=1) / np.sqrt(w.size)
        assert abs(est.real - g[x, y]) <= 4.0 * se


def test_mgf_basics_and_factorisation():
    rng = rng_stream(27, "twisted-tests")
    dp = build_dual(nchain(5))
    assert mgf(dp, np.zeros(5)) == pytest.approx(1.0, abs=1e-14)
    s = rng.uniform(0.0, 2.0, 5)
    assert mgf(dp, s) == pytest.approx(float(np.prod(1.0 / (1.0 + s))), rel=1e-12)
    dps, _ = scalar_chain()
    assert mgf(dps, np.array([0.8])) == pytest.approx(1.0 / 1.8, rel=1e-12)
    # the resolvent-determinant form 1 / det(I + V M_s) on a non-symmetric chain
    dpr = build_dual(random_chain(6, rng))
    s6 = rng.uniform(0.0, 1.5, 6)
    assert mgf(dpr, s6) == pytest.approx(1.0 / np.linalg.det(np.eye(6) + dpr.V @ np.diag(s6)), rel=1e-11)


def test_monotone_first_difference_everywhere():
    rng = rng_stream(29, "twisted-tests")
    dp = build_dual(random_chain(3, rng))
    h = 1e-2
    for s in cm_grid(3):
        base = mgf(dp, s)
        for u in range(3):
            assert mgf(dp, s + h * np.eye(3)[u]) <= base + 1e-15


def test_complete_monotonicity_random_chain():
    rng = rng_stream(30, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    report = complete_monotonicity_check(dp)
    assert report.violations == 0
    assert report.min_signed_value >= -1e-12
    assert report.checks > 0


def negative_rate_chain():
    # a generator with a negative off-diagonal rate gives Phi = 2 / ((1 + s1)(1 + s2) + 1);
    # at the origin its mixed third derivatives, and the mixed second derivatives of
    # its square and cube roots, have the wrong sign
    return dataclasses.replace(build_dual(nchain(2)), L=-np.array([[1.0, 1.0], [-1.0, 1.0]]))


def test_complete_monotonicity_flags_a_transform_of_no_positive_law():
    dp = negative_rate_chain()
    assert mgf(dp, np.array([0.5, 1.0])) == pytest.approx(2.0 / (1.5 * 2.0 + 1.0), rel=1e-12)
    report = complete_monotonicity_check(dp)
    assert (report.checks, report.violations) == (378, 84)
    assert report.min_signed_value < -1e-12
    assert cm_grid(CM_MAX_STATES).shape == (3**CM_MAX_STATES, CM_MAX_STATES)


def cm_referee(dp):
    """The sweep as nested loops: batched LU determinants on the shifted grid,
    then one forward difference per (root, order, multiset) from the binomial
    coefficients of each sub-multiset."""
    h, slack, max_order = 1e-2, 1e-12, 4
    n = dp.n
    grid = cm_grid(n)
    count_vecs = [c for c in itertools.product(range(max_order + 1), repeat=n) if sum(c) <= max_order]
    index = {c: i for i, c in enumerate(count_vecs)}
    flat = (grid[:, None, :] + h * np.array(count_vecs, dtype=float)[None, :, :]).reshape(-1, n)
    mats = np.broadcast_to(-dp.L, (flat.shape[0], n, n)).copy()
    mats[:, np.arange(n), np.arange(n)] += flat
    phi = (np.linalg.det(-dp.L) / np.linalg.det(mats)).reshape(grid.shape[0], len(count_vecs))
    violations = checks = 0
    min_signed = np.inf
    for expo in (1.0, 1.0 / 2.0, 1.0 / 3.0):
        values = phi**expo
        for order in range(1, max_order + 1):
            for multiset in itertools.combinations_with_replacement(range(n), order):
                counts = np.bincount(multiset, minlength=n)
                diff = np.zeros(grid.shape[0])
                for sub in itertools.product(*[range(c + 1) for c in counts]):
                    coeff = (-1.0) ** (order - sum(sub))
                    for total, taken in zip(counts, sub):
                        coeff *= math.comb(total, taken)
                    diff += coeff * values[:, index[tuple(sub)]]
                signed = ((-1.0) ** order) * diff
                checks += grid.shape[0]
                violations += int(np.count_nonzero(signed < -slack))
                min_signed = min(min_signed, float(signed.min()))
    return checks, violations, min_signed


def test_complete_monotonicity_matches_the_nested_loop_referee():
    rng = rng_stream(33, "twisted-tests")
    chains = [build_dual(random_chain(1 + k % 6, rng)) for k in range(20)] + [negative_rate_chain()]
    for dp in chains:
        checks, violations, min_signed = cm_referee(dp)
        report = complete_monotonicity_check(dp)
        assert (report.checks, report.violations) == (checks, violations)
        assert report.min_signed_value == pytest.approx(min_signed, rel=0, abs=1e-14)


def test_sweep_phi_grid_is_mgf_at_every_point():
    rng = rng_stream(34, "twisted-tests")
    for n in (1, 2, 3, 4):
        dp = build_dual(random_chain(n, rng))
        counts, _ = _cm_differences(n)
        phi = _cm_phi(dp, cm_grid(n), 1e-2 * counts)
        want = [[mgf(dp, g + 1e-2 * c) for c in counts] for g in cm_grid(n)]
        np.testing.assert_allclose(phi, want, rtol=1e-13, atol=0)


def test_difference_matrix_takes_exact_differences_of_an_exponential():
    # exp(-<a, s>) at unit step: the signed difference along c at 0 is prod_i (1 - e^{-a_i})^{c_i}
    rng = rng_stream(35, "twisted-tests")
    for n in (1, 3, 5):
        a = rng.uniform(0.5, 2.0, n)
        counts, diff = _cm_differences(n)
        assert counts.shape == (math.comb(n + 4, 4), n) and not counts[0].any()
        assert sorted(map(tuple, counts)) == sorted(c for c in itertools.product(range(5), repeat=n) if sum(c) <= 4)
        np.testing.assert_allclose(diff @ np.exp(-counts @ a), np.prod((1.0 - np.exp(-a)) ** counts[1:], axis=1), rtol=1e-12)


def stacked_cm_phi(dp, grid, shifts):
    """The referee of `_cm_phi`: each monomial one product over a stacked state axis."""
    member, signs, logs = _principal_minors(dp, np.arange(dp.n))
    minors = signs * np.exp(logs - member @ np.log(dp.q))
    sets = np.arange(1 << dp.n)
    W = np.where(sets[:, None] & sets, 0.0, minors[sets[:, None] | sets])
    gmon, dmon = (np.where(member, p[:, None], 1.0).prod(axis=2) for p in (grid, shifts))
    return 1.0 / (gmon @ W @ dmon.T)


def test_sweep_column_products_equal_the_stacked_products_bit_for_bit():
    # numpy multiplies along a stacked axis left to right, as the column
    # products do, so Phi and the binomial matrix keep their bits
    rng = rng_stream(36, "twisted-tests")
    binom = np.array([[math.comb(a, b) for b in range(5)] for a in range(5)], dtype=float)
    for n in range(1, CM_MAX_STATES + 1):
        counts, diff = _cm_differences(n)
        stacked = (-1.0) ** counts.sum(axis=1) * binom[counts[1:, None], counts].prod(axis=2)
        assert diff.shape == stacked.shape and diff.tobytes() == stacked.tobytes()
        dp = build_dual(random_chain(n, rng))
        points = [(cm_grid(n), 1e-2 * counts), (rng.uniform(0.0, 3.0, (50, n)), rng.uniform(0.0, 1.0, (20, n)))]
        for grid, shifts in points:
            got, want = _cm_phi(dp, grid, shifts), stacked_cm_phi(dp, grid, shifts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_derivative_vs_trace():
    # d/ds_u log Phi(s) = -Tr((-L + M_s)^{-1} M_{e_u}) = -m_u G_s(u, u)
    rng = rng_stream(31, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    s = rng.uniform(0.1, 1.0, 5)
    g = green(dp, s)
    h = 1e-4
    for u in range(5):
        e_u = h * np.eye(5)[u]
        deriv = (np.log(mgf(dp, s + e_u)) - np.log(mgf(dp, s - e_u))) / (2 * h)
        assert deriv == pytest.approx(-dp.m[u] * g[u, u], rel=1e-7)


def permanent_bruteforce(mat):
    k = mat.shape[0]
    return float(
        sum(np.prod([mat[i, p[i]] for i in range(k)]) for p in itertools.permutations(range(k)))
    )


def test_permanent_small_and_bruteforce():
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(1 * 4 + 2 * 3)
    rng = rng_stream(32, "twisted-tests")
    for k in range(1, 8):
        m = rng.standard_normal((k, k))
        assert permanent(m) == pytest.approx(permanent_bruteforce(m), rel=1e-10), k


def test_permanent_of_all_ones_is_k_factorial_exactly():
    # every subset sum and product is an integer below 2^53, so Ryser's sum is exact
    assert permanent(np.zeros((0, 0))) == 1.0
    for k in range(1, 11):
        assert permanent(np.ones((k, k))) == math.factorial(k), k


STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def mgf_mixed_derivative(dp, counts):
    """Referee: mixed partial derivative of Phi at 0 by central product stencils.

    ``counts[x]`` is the derivative order in coordinate x (at most 3).  Steps
    h = 0.01, h/2 and h/4 feed two Richardson levels, leaving O(h^6).
    """
    counts = np.asarray(counts, dtype=int)
    active = np.flatnonzero(counts)
    l0 = np.linalg.slogdet(-dp.L)[1]

    def phi(s):  # det(-L) / det(-L + M_s) with no sign check: the stencils step below s = 0
        return float(np.exp(l0 - np.linalg.slogdet(-dp.L + np.diag(s))[1]))

    def estimate(step):
        total = 0.0
        for combo in itertools.product(*[STENCILS[counts[a]] for a in active]):
            s = np.zeros(dp.n)
            coeff = 1.0
            for a, (offset, weight) in zip(active, combo):
                s[a] = offset * step
                coeff *= weight
            total += coeff * phi(s)
        return total / step ** int(counts.sum())

    table = [estimate(0.01 / 2**j) for j in range(3)]
    for level in (1, 2):
        factor = 4.0**level
        table = [(factor * table[j + 1] - table[j]) / (factor - 1.0) for j in range(len(table) - 1)]
    return table[0]


def test_q_moment_single_point_is_green_diagonal():
    rng = rng_stream(33, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    g = green(dp)
    assert mgf_mixed_derivative(dp, np.zeros(4, dtype=int)) == 1.0  # order 0: Phi(0)
    for x in range(4):
        assert q_moment(dp, [x]) == pytest.approx(g[x, x], rel=1e-12)
        # derivative of the Laplace transform, with the m-weight of the pairing
        fd = mgf_mixed_derivative(dp, np.eye(4, dtype=int)[x])
        assert q_moment(dp, [x]) == pytest.approx(-fd / dp.m[x], rel=1e-7)


def test_q_moment_march_chain_double_point():
    dp = build_dual(nchain(4))
    assert q_moment(dp, [2, 2]) == pytest.approx(2.0, rel=1e-12)


def test_q_moment_matches_derivative_oracle_k3():
    # the finite-difference referee holds both routes to its own 1e-6 at k <= 3
    rng = rng_stream(34, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    for pts in ([0, 1, 3], [2, 2], [1, 1, 1], [3, 0, 3]):
        fd = mgf_mixed_derivative(dp, np.bincount(pts, minlength=4))
        want = (-1.0) ** len(pts) * fd / np.prod(dp.m[pts])
        assert q_moment(dp, pts) == pytest.approx(want, rel=1e-6)
        assert q_moment_oracle(dp, pts) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_q_moment_oracle_is_exact_at_every_order(n):
    # 1e-10 relative, fixed beforehand as about 2^8 k n eps at k = 8
    rng = rng_stream(37, "twisted-tests", n)
    for _ in range(3):
        dp = build_dual(random_chain(n, rng))
        for k in range(1, 9):
            pts = rng.choice(n, size=k).tolist()
            assert q_moment_oracle(dp, pts) == pytest.approx(q_moment(dp, pts), rel=1e-10)


def test_q_moment_oracle_stays_finite_where_the_product_of_m_over_the_points_underflows():
    # m is about [1e-200, 1.4, 1e-100], so prod m over [0, 0, 2] is below 1e-500, while
    # det(-L) and every moment stay in float range; subsets of two and three states take
    # the 1/m of each of their members
    spec = ChainSpec(
        q=np.array([1e200, 1.0, 1e100]),
        pi=np.array([[0.0, 0.5, 0.3], [0.4, 0.0, 0.3], [0.2, 0.5, 0.0]]),
        mu=np.array([0.3, 0.3, 0.4]),
    )
    dp = build_dual(spec)
    for pts in ([0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 2], [0, 0, 1, 1, 2, 2]):
        assert q_moment_oracle(dp, pts) == pytest.approx(q_moment(dp, pts), rel=1e-10)


LARGE_Q_CHAIN = ChainSpec(  # q about 1e300, so det(-L) is about 1e1200
    q=np.array([1e300, 2e300, 1.5e300, 0.7e300]),
    pi=np.array([[0.0, 0.3, 0.2, 0.3], [0.3, 0.0, 0.3, 0.2], [0.2, 0.3, 0.0, 0.3], [0.3, 0.2, 0.3, 0.0]]),
    mu=np.full(4, 0.25),
)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_q_moment_oracle_meets_the_rows_bound_where_q_is_near_1e300(n):
    # the verify-q rows' own relative 1e-12 at k <= 3, on every point multiset;
    # a minor of -L itself carries an error of about eps |log det(-L)|, which reaches 9e-12 here at n = 8
    rng = rng_stream(41, "twisted-tests", n)
    specs = [random_chain(n, rng) for _ in range(3)]
    specs = [dataclasses.replace(s, q=1e300 * s.q) for s in specs] + [LARGE_Q_CHAIN] * (n == 4)
    for dp in map(build_dual, specs):
        for k in (1, 2, 3):
            for pts in itertools.combinations_with_replacement(range(n), k):
                assert q_moment_oracle(dp, pts) == pytest.approx(q_moment(dp, pts), rel=1e-12, abs=0)


def test_q_moment_permutation_invariant():
    rng = rng_stream(35, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    base = q_moment(dp, [0, 2, 2, 4])
    for perm in ([2, 0, 4, 2], [4, 2, 0, 2], [2, 2, 4, 0]):
        assert q_moment(dp, perm) == pytest.approx(base, rel=1e-12)
