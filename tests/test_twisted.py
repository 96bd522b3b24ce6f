import dataclasses
import itertools

import numpy as np
import pytest

from twistlab.chain import ChainSpec, build_dual, nchain, random_chain
from twistlab.functionals import ExpField
from twistlab.hilbert import circle_B_matrix, circle_model, eta_kernel
from twistlab.seeding import rng_stream
from twistlab.twisted import (
    CM_MAX_STATES,
    build_twisted,
    cm_grid,
    complete_monotonicity_check,
    green,
    mgf,
    mgf_mixed_derivative,
    partition,
    permanent,
    q_moment,
    q_moment_oracle,
    resolvent_trace_residual,
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


def test_partition_march_chain_is_one():
    dp = build_dual(nchain(4))
    assert partition(dp) == pytest.approx(1.0, abs=1e-12)


def test_partition_scalar_closed_form():
    dp, chi = scalar_chain(0.7)
    assert partition(dp, chi) == pytest.approx(1.0 / 1.7, rel=1e-12)


def test_chi_must_be_a_nonnegative_vector_of_the_chain_length():
    dp = build_dual(nchain(3))
    for fn in (partition, green, mgf):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(dp, np.array([0.1, -0.2, 0.3]))
        for bad in (np.ones(2), np.ones((3, 1)), 0.5):
            with pytest.raises(ValueError, match="length 3"):
                fn(dp, bad)


def damped_circle_kernel(weights):
    model = circle_model(1.0, {1: 0.5})
    return eta_kernel(model, circle_B_matrix(model, 4), 0.7, 1.9, chi_points=[0.7], chi_weights=weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "damp",
    [
        lambda dp, v: mgf(dp, v),
        lambda dp, v: partition(dp, v),
        lambda dp, v: green(dp, v),
        lambda dp, v: ExpField(v, dp.m),
        lambda dp, v: damped_circle_kernel(v[:1]),
    ],
    ids=["mgf", "partition", "green", "exp-field", "eta-kernel"],
)
def test_non_finite_damping_is_rejected(damp, bad):
    # every comparison with NaN is false, so a sign check alone lets NaN through
    dp = build_dual(nchain(3))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        damp(dp, np.array([bad, 0.0, 0.0]))


def test_partition_definition_random_chain():
    rng = rng_stream(21, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    chi = rng.uniform(0.0, 2.0, 5)
    direct = 1.0 / np.linalg.det(dp.m[:, None] * (-dp.L) + np.diag(chi * dp.m))
    assert partition(dp, chi) == pytest.approx(direct, rel=1e-12)
    scaled = partition(dp, chi) * np.linalg.det(dp.m[:, None] * (-dp.L))
    assert 0.0 < scaled < 1.0  # strictly below one away from chi = 0
    assert partition(dp) * np.linalg.det(dp.m[:, None] * (-dp.L)) == pytest.approx(1.0, rel=1e-12)


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


def test_mgf_equals_partition_ratio_and_resolvent_determinant():
    rng = rng_stream(28, "twisted-tests")
    dp = build_dual(random_chain(6, rng))
    s = rng.uniform(0.0, 1.5, 6)
    assert mgf(dp, s) == pytest.approx(partition(dp, s) / partition(dp), rel=1e-12)
    alt = 1.0 / np.linalg.det(np.eye(6) + dp.V @ np.diag(s))
    assert mgf(dp, s) == pytest.approx(alt, rel=1e-11)


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


def test_complete_monotonicity_flags_a_transform_of_no_positive_law():
    # a generator with a negative off-diagonal rate gives Phi = 2 / ((1 + s1)(1 + s2) + 1);
    # at the origin its mixed third derivatives, and the mixed second derivatives of
    # its square and cube roots, have the wrong sign
    dp = dataclasses.replace(build_dual(nchain(2)), L=-np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert mgf(dp, np.array([0.5, 1.0])) == pytest.approx(2.0 / (1.5 * 2.0 + 1.0), rel=1e-12)
    report = complete_monotonicity_check(dp)
    assert report.violations > 0
    assert report.min_signed_value < -1e-12
    assert cm_grid(CM_MAX_STATES).shape == (3**CM_MAX_STATES, CM_MAX_STATES)
    with pytest.raises(ValueError, match="at most"):
        cm_grid(CM_MAX_STATES + 1)


def test_derivative_vs_trace():
    rng = rng_stream(31, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    s = rng.uniform(0.0, 1.0, 5)
    for u in range(5):
        assert resolvent_trace_residual(dp, s, u) <= 1e-8


def permanent_bruteforce(mat):
    k = mat.shape[0]
    return float(
        sum(np.prod([mat[i, p[i]] for i in range(k)]) for p in itertools.permutations(range(k)))
    )


def test_permanent_small_and_bruteforce():
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(1 * 4 + 2 * 3)
    rng = rng_stream(32, "twisted-tests")
    m = rng.standard_normal((5, 5))
    assert permanent(m) == pytest.approx(permanent_bruteforce(m), rel=1e-10)
    with pytest.raises(ValueError):
        permanent(np.zeros((15, 15)))


def test_q_moment_single_point_is_green_diagonal():
    rng = rng_stream(33, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    g = green(dp)
    for x in range(4):
        assert q_moment(dp, [x]) == pytest.approx(g[x, x], rel=1e-12)
        # derivative of the Laplace transform, with the m-weight of the pairing
        fd = mgf_mixed_derivative(dp, np.eye(4, dtype=int)[x])
        assert q_moment(dp, [x]) == pytest.approx(-fd / dp.m[x], rel=1e-7)


def test_q_moment_march_chain_double_point():
    dp = build_dual(nchain(4))
    assert q_moment(dp, [2, 2]) == pytest.approx(2.0, rel=1e-12)


def test_q_moment_matches_derivative_oracle_k3():
    rng = rng_stream(34, "twisted-tests")
    dp = build_dual(random_chain(4, rng))
    pts = [0, 1, 3]
    assert q_moment(dp, pts) == pytest.approx(q_moment_oracle(dp, pts), rel=1e-6)


def test_q_moment_permutation_invariant():
    rng = rng_stream(35, "twisted-tests")
    dp = build_dual(random_chain(5, rng))
    base = q_moment(dp, [0, 2, 2, 4])
    for perm in ([2, 0, 4, 2], [4, 2, 0, 2], [2, 2, 4, 0]):
        assert q_moment(dp, perm) == pytest.approx(base, rel=1e-12)
