import numpy as np
import pytest

from twistlab.chain import (
    ChainError,
    ChainSpec,
    build_dual,
    dual_pair_from_generator,
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


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ChainError):
        ChainSpec(q=np.array([1.0, -1.0]), pi=np.zeros((2, 2)), mu=np.array([1.0, 0.0]))
    with pytest.raises(ChainError):  # stochastic row: no killing reachable
        ChainSpec(q=np.ones(2), pi=np.array([[0.0, 1.0], [1.0, 0.0]]), mu=np.array([1.0, 0.0]))
    with pytest.raises(ChainError):  # mu not a probability
        ChainSpec(q=np.ones(2), pi=np.zeros((2, 2)), mu=np.array([0.5, 0.2]))
    with pytest.raises(ChainError):  # row sum above one
        ChainSpec(q=np.ones(2), pi=np.array([[0.6, 0.6], [0.0, 0.0]]), mu=np.array([1.0, 0.0]))


@pytest.mark.parametrize("field", ["q", "pi", "mu"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite_entries(field, bad):
    data = dict(q=[1.0, 1.0], pi=[[0.0, 0.5], [0.3, 0.0]], mu=[0.5, 0.5])
    ChainSpec(**data)  # the finite chain is valid
    data[field] = np.array(data[field])
    data[field].flat[0] = bad
    with pytest.raises(ChainError, match=f"{field} has a non-finite entry"):
        ChainSpec(**data)


@pytest.mark.parametrize("field", ["L", "m"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_pair_from_generator_rejects_non_finite_entries(field, bad):
    data = dict(L=-np.eye(2), m=np.ones(2))
    dual_pair_from_generator(**data)  # the finite pair is valid
    data[field] = data[field].copy()
    data[field].flat[1] = bad
    with pytest.raises(ChainError, match=f"{field} has a non-finite entry"):
        dual_pair_from_generator(**data)


def test_build_dual_rejects_vanishing_reference_measure():
    # state 1 unreachable from supp(mu): m has a zero coordinate
    pi = np.zeros((2, 2))
    spec = ChainSpec(q=np.ones(2), pi=pi, mu=np.array([1.0, 0.0]))
    with pytest.raises(ChainError):
        build_dual(spec)


def test_dual_pair_from_generator_rejects_bad_measure():
    dp = build_dual(nchain(3))
    with pytest.raises(ChainError):
        dual_pair_from_generator(dp.L, np.array([1.0, 0.0, 1.0]))
