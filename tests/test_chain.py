import numpy as np
import pytest

from twistlab.chain import (
    ChainError,
    ChainSpec,
    build_dual,
    energy_quadratic,
    mass_gap,
    nchain,
    random_chain,
    trace_chain,
)
from twistlab.seeding import rng_stream


def test_nchain_potential_reference_and_exit_law():
    dp = build_dual(nchain(3))
    # frozen: inverse of I - shift is the upper triangle of ones
    expected_v = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.allclose(dp.V, expected_v, atol=1e-14)
    assert np.allclose(dp.m, 1.0, atol=1e-14)
    assert np.allclose(dp.mu_hat, [0.0, 0.0, 1.0], atol=1e-14)


def test_no_jump_chain_is_self_dual():
    n = 4
    mu = np.array([0.4, 0.3, 0.2, 0.1])
    spec = ChainSpec(q=np.ones(n), pi=np.zeros((n, n)), mu=mu)
    dp = build_dual(spec)
    assert np.allclose(dp.L, -np.eye(n))
    assert np.allclose(dp.L_hat, -np.eye(n))
    assert np.allclose(dp.m, mu)
    assert np.allclose(dp.mu_hat, mu)


def test_duality_on_random_pairs():
    rng = rng_stream(11, "chain-tests")
    dp = build_dual(random_chain(4, rng))
    scale = np.abs(dp.L).max()
    for _ in range(100):
        f = rng.standard_normal(4)
        g = rng.standard_normal(4)
        lhs = np.sum((dp.L @ f) * g * dp.m)
        rhs = np.sum(f * (dp.L_hat @ g) * dp.m)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


def test_potential_and_reference_identities():
    rng = rng_stream(12, "chain-tests")
    for n in (2, 3, 5, 8):
        spec = random_chain(n, rng)
        dp = build_dual(spec)
        assert np.abs(dp.V @ (-dp.L) - np.eye(n)).max() <= 1e-10
        assert np.all(dp.V >= -1e-12)
        assert np.allclose(spec.mu @ dp.V, dp.m, atol=1e-10)
        # m = mu_hat V_hat, with V_hat the potential of the dual generator
        v_hat = np.linalg.solve(-dp.L_hat, np.eye(n))
        assert np.allclose(dp.mu_hat @ v_hat, dp.m, atol=1e-10)
        assert abs(dp.mu_hat.sum() - 1.0) <= 1e-10


def test_double_dual_returns_original_generator():
    rng = rng_stream(13, "chain-tests")
    spec = random_chain(5, rng)
    dp = build_dual(spec)
    pi_hat = dp.L_hat / dp.q[:, None] + np.eye(5)
    np.fill_diagonal(pi_hat, 0.0)
    spec_hat = ChainSpec(q=dp.q, pi=np.clip(pi_hat, 0, None), mu=dp.mu_hat)
    dp_hat = build_dual(spec_hat)
    assert np.allclose(dp_hat.L, dp.L_hat, atol=1e-10)
    assert np.allclose(dp_hat.L_hat, dp.L, atol=1e-10)
    assert np.allclose(dp_hat.m, dp.m, atol=1e-10)


def test_mass_gap_scalar_chain():
    spec = ChainSpec(q=np.ones(1), pi=np.zeros((1, 1)), mu=np.ones(1))
    assert mass_gap(build_dual(spec)) == pytest.approx(1.0, abs=1e-14)


def test_mass_gap_march_chain_matches_tridiagonal_eigensolver():
    # oracle: dense symmetric eigensolver on I - (pi + pi^T)/2
    for n in (2, 4, 7):
        dp = build_dual(nchain(n))
        tri = np.eye(n)
        for i in range(n - 1):
            tri[i, i + 1] = tri[i + 1, i] = -0.5
        oracle = np.linalg.eigvalsh(tri)[0]
        assert mass_gap(dp) == pytest.approx(oracle, abs=1e-12)
        # known closed form of the eigensolver value for this tridiagonal
        assert oracle == pytest.approx(1.0 - np.cos(np.pi / (n + 1)), abs=1e-12)


def test_energy_lower_bound_on_random_vectors():
    rng = rng_stream(14, "chain-tests")
    dp = build_dual(random_chain(5, rng))
    gap = mass_gap(dp)
    z = rng.standard_normal((1000, 5)) + 1j * rng.standard_normal((1000, 5))
    energies = energy_quadratic(dp, z)
    norms = np.einsum("ki,ki,i->k", z, np.conj(z), dp.m).real
    assert np.min(energies - gap * norms) >= -1e-10


def test_energy_decomposition_matches_quadratic_form():
    # Re<-L z, z̄>_m = 0.5 sum_xy C_xy |z_x - z_y|^2 + sum_x kill_x |z_x|^2 with
    # symmetric conductances C_xy = m_x q_x (pi + pi_hat)_xy / 2 and killing
    # weights kill = (mu + mu_hat) / 2 >= 0
    rng = rng_stream(15, "chain-tests")
    dp = build_dual(random_chain(6, rng))
    w = dp.m[:, None] * dp.q[:, None] * dp.pi
    conductances = (w + w.T) / 2.0
    killing = (dp.mu + dp.mu_hat) / 2.0
    assert np.all(killing >= -1e-14)
    # killing weights agree with the direct q (2 - pi 1 - pi_hat 1) / 2 form
    pi_hat = dp.L_hat / dp.q[:, None] + np.eye(6)
    direct = dp.m * dp.q * (2.0 - dp.pi.sum(1) - pi_hat.sum(1)) / 2.0
    assert np.allclose(killing, direct, atol=1e-12)
    z = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
    diff = np.abs(z[:, :, None] - z[:, None, :]) ** 2
    split = 0.5 * np.einsum("xy,kxy->k", conductances, diff) + np.abs(z) ** 2 @ killing
    assert np.allclose(split, energy_quadratic(dp, z), atol=1e-10)


def test_trace_full_set_is_identity():
    rng = rng_stream(16, "chain-tests")
    dp = build_dual(random_chain(4, rng))
    assert trace_chain(dp, range(4)) is dp


def test_trace_march_chain_by_hand():
    dp = build_dual(nchain(3))
    traced = trace_chain(dp, [0, 2])
    # 2x2 Schur complement done by hand: potential [[1, 1], [0, 1]]
    assert np.allclose(traced.V, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(traced.m, [1.0, 1.0], atol=1e-12)


def test_trace_potential_restricts():
    rng = rng_stream(17, "chain-tests")
    dp = build_dual(random_chain(6, rng))
    keep = [1, 3, 4]
    traced = trace_chain(dp, keep)
    assert np.abs(traced.V - dp.V[np.ix_(keep, keep)]).max() <= 1e-10
    assert np.allclose(traced.m, dp.m[keep])


def test_trace_idempotent():
    rng = rng_stream(18, "chain-tests")
    dp = build_dual(random_chain(6, rng))
    once = trace_chain(trace_chain(dp, [0, 2, 3, 5]), [0, 1, 3])  # -> states {0, 2, 5}
    direct = trace_chain(dp, [0, 2, 5])
    assert np.allclose(once.L, direct.L, atol=1e-10)
    assert np.allclose(once.m, direct.m, atol=1e-12)


def test_trace_takes_numpy_integer_states():
    dp = build_dual(nchain(4))
    traced = trace_chain(dp, np.array([2, 0, 2]))
    assert np.array_equal(traced.L, trace_chain(dp, [0, 2]).L)


# row sums 1 + 5e-13 and 1 - 2e-12 pass the row-sum and reach checks; the
# spectral radius is 1 - 7.5e-13, above the bound 1 - 1e-12
NEAR_UNIT_RADIUS = np.array([[0.5, 0.5 + 5e-13], [0.5, 0.5 - 2e-12]])


def test_spec_radius_test_agrees_with_the_eigenvalues():
    """ChainSpec accepts a jump matrix exactly when eigvals puts its radius below 1 - 1e-12."""
    sums = np.array([1.0, 1 - 1e-13, 1 - 5e-12, 1 - 1e-6, 0.9, 1 + 5e-13])
    weights = [0.15, 0.15, 0.2, 0.05, 0.05, 0.4]  # most radii within 1e-11 of 1
    rng = rng_stream(5, "radius-tests")
    outcomes = {"accepted": 0, "radius": 0, "reach": 0}
    while sum(outcomes.values()) < 1500:
        n = int(rng.integers(1, 13))
        w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        w[np.arange(n), rng.integers(0, n, n)] += 1e-3  # no empty row
        pi = w / w.sum(axis=1, keepdims=True) * rng.choice(sums, n, p=weights)[:, None]
        if pi.max() > 1:  # a lone entry of a row summing to 1 + 5e-13
            continue
        below = float(np.max(np.abs(np.linalg.eigvals(pi)))) < 1 - 1e-12
        try:
            ChainSpec(q=np.ones(n), pi=pi, mu=np.full(n, 1 / n))
        except ChainError as exc:
            assert not below, str(exc)
            outcomes["radius" if "spectral radius" in str(exc) else "reach"] += 1
        else:
            assert below
            outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_accepted_spec_computes_no_eigenvalues(monkeypatch):
    def refuse(a):
        raise AssertionError("eigvals was called")

    assert 1 - 1e-12 <= float(np.max(np.abs(np.linalg.eigvals(NEAR_UNIT_RADIUS)))) < 1  # the refused pi below
    pi = random_chain(32, rng_stream(3, "radius-tests")).pi
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    spec = ChainSpec(q=np.ones(32), pi=pi, mu=np.full(32, 1 / 32))
    assert np.array_equal(spec.pi, pi)
    with pytest.raises(AssertionError, match="eigvals was called"):
        ChainSpec(q=np.ones(2), pi=NEAR_UNIT_RADIUS, mu=np.array([1.0, 0.0]))
