import numpy as np
import pytest

from twistlab.chain import ChainSpec, NumericalError, build_dual, nchain, random_chain
from twistlab.functionals import ExpField, MonomialField, ProductField
from twistlab.paths import (
    _sojourn_quadrature,
    bridge_estimate,
    bridge_values,
    occupation_batch,
    sample_path,
)
from twistlab.seeding import rng_stream
from twistlab.twisted import green


def test_no_jump_chain_single_visit():
    spec = ChainSpec(q=np.ones(2), pi=np.zeros((2, 2)), mu=np.array([0.5, 0.5]))
    dp = build_dual(spec)
    path = sample_path(dp, 0, seed=3)
    assert path.states.tolist() == [0]
    assert path.durations.size == 1 and path.durations[0] > 0


def test_march_chain_visits_in_order():
    dp = build_dual(nchain(5))
    for seed in range(5):
        path = sample_path(dp, 0, seed=seed)
        assert path.states.tolist() == [0, 1, 2, 3, 4]
        assert np.all(path.durations > 0)


def test_path_follows_support():
    rng = rng_stream(41, "path-tests")
    dp = build_dual(random_chain(5, rng))
    path = sample_path(dp, 2, seed=9)
    for a, b in zip(path.states, path.states[1:]):
        assert dp.pi[a, b] > 0


def test_sample_path_deterministic():
    dp = build_dual(nchain(4))
    p1 = sample_path(dp, 0, seed=42)
    p2 = sample_path(dp, 0, seed=42)
    assert np.array_equal(p1.durations, p2.durations)


def test_occupation_conservation():
    rng = rng_stream(42, "path-tests")
    dp = build_dual(random_chain(5, rng))
    fields, lives = occupation_batch(dp, 0, 2000, seed=7)
    assert np.all(fields >= 0) and np.all(lives > 0)
    np.testing.assert_allclose(fields @ dp.m, lives, rtol=1e-12, atol=0.0)
    # one state with m = 1: the local time is the lifetime
    unit = build_dual(nchain(1))
    single, single_lives = occupation_batch(unit, 0, 50, seed=1)
    np.testing.assert_allclose(single[:, 0], single_lives, rtol=1e-14, atol=0.0)


def test_occupation_batch_mean_matches_green():
    rng = rng_stream(43, "path-tests")
    dp = build_dual(random_chain(4, rng))
    g = green(dp)
    fields, lives = occupation_batch(dp, 0, 100_000, seed=11)
    assert np.allclose(np.sum(fields * dp.m, axis=1), lives, rtol=1e-10)
    for y in range(4):
        se = fields[:, y].std(ddof=1) / np.sqrt(fields.shape[0])
        assert abs(fields[:, y].mean() - g[0, y]) <= 4.0 * se
    # mean lifetime is the m-weighted row sum of the Green density
    se_life = lives.std(ddof=1) / np.sqrt(lives.size)
    assert abs(lives.mean() - np.sum(g[0] * dp.m)) <= 4.0 * se_life


def test_bridge_total_mass_is_green():
    rng = rng_stream(44, "path-tests")
    dp = build_dual(random_chain(4, rng))
    g = green(dp)
    one = ExpField(np.zeros(4), dp.m)
    est, se = bridge_estimate(dp, 1, 3, one, 100_000, seed=12)
    assert abs(est - g[1, 3]) <= 4.0 * se


def test_bridge_exponential_matches_damped_green():
    rng = rng_stream(45, "path-tests")
    dp = build_dual(random_chain(4, rng))
    chi = rng.uniform(0.2, 1.2, 4)
    est, se = bridge_estimate(dp, 0, 2, ExpField(chi, dp.m), 100_000, seed=13)
    assert abs(est - green(dp, chi)[0, 2]) <= 4.0 * se


def test_bridge_quadrature_agrees_with_closed_form():
    # same functional through the generic quadrature path and the closed form
    rng = rng_stream(46, "path-tests")
    dp = build_dual(random_chain(4, rng))
    chi = rng.uniform(0.2, 1.0, 4)
    exp_f = ExpField(chi, dp.m)

    class OpaqueExp:
        def __call__(self, field):
            return exp_f(field)

    closed = bridge_values(dp, 0, 2, exp_f, 2000, seed=14)
    quad = bridge_values(dp, 0, 2, OpaqueExp(), 2000, seed=14)
    assert np.abs(closed - quad).max() <= 1e-7 * max(1.0, np.abs(closed).max())
    # the sojourn integral itself, on random fields and holding times,
    # including a state the functional does not damp (chi_y = 0)
    for trial in range(4):
        chi = rng.uniform(0.0, 2.0, 4)
        chi[trial % 4] = 0.0
        f = ExpField(chi, dp.m)
        fields = rng.uniform(0.0, 1.0, (50, 4))
        taus = rng.exponential(1.0, 50)
        for y in range(4):
            exact = f.sojourn_integral(fields, y, taus, dp.m[y])
            quad = _sojourn_quadrature(f, fields, taus, y, dp.m[y], 1e-12, 256)
            assert np.allclose(exact, quad, rtol=1e-10, atol=0.0)
    # product and monomial forms at every y, with zero fields, stays down to
    # 1e-9, k_y from 0 to 3 and off-y exponents from 0 to 2
    fields = rng.uniform(0.0, 1.0, (60, 4))
    fields[:10] = 0.0
    fields[10:20, 1] = 0.0
    taus = np.concatenate([10.0 ** -np.arange(10), rng.exponential(1.0, 50)])
    for y in range(4):
        functionals = [ProductField()]
        for k_y in range(4):
            k = rng.integers(0, 3, 4)
            k[y] = k_y
            functionals.append(MonomialField(k))
        for f in functionals:
            exact = f.sojourn_integral(fields, y, taus, dp.m[y])
            quad = _sojourn_quadrature(f, fields, taus, y, dp.m[y], 1e-12, 256)
            assert np.allclose(exact, quad, rtol=1e-10, atol=0.0), (type(f).__name__, y)


def test_exp_sojourn_integral_does_not_cancel_for_short_stays():
    # (1 - exp(-chi tau)) / chi = tau - chi tau^2 / 2 + O(tau^3)
    f = ExpField(np.array([1.0, 0.5]), np.ones(2))
    taus = np.array([1e-15, 1e-12, 1e-9])
    got = f.sojourn_integral(np.zeros((3, 2)), 0, taus, 1.0)
    assert np.allclose(got, taus - taus**2 / 2.0, rtol=1e-15, atol=0.0)


def test_monomial_field_takes_only_nonnegative_integer_exponents():
    assert MonomialField([2, 0, 1])(np.array([3.0, 0.0, 2.0])) == 18.0
    assert MonomialField([0.0, 0.0])(np.zeros(2)) == 1.0
    for bad in ([-1, 0], [0.5, 1], [np.nan, 0], [np.inf, 0]):
        with pytest.raises(ValueError):
            MonomialField(bad)


def test_sojourn_quadrature_raises_when_it_misses_tolerance():
    class Step:
        def __call__(self, field):
            return (np.asarray(field)[..., 0] < 0.3).astype(float)

    fields = np.zeros((2, 2))
    taus = np.array([0.5, 1.0])
    with pytest.raises(NumericalError, match="at 64 nodes"):
        _sojourn_quadrature(Step(), fields, taus, 0, 1.0, 1e-8, 64)
    smooth = _sojourn_quadrature(ProductField(), fields, taus, 0, 1.0, 1e-8, 64)
    assert np.allclose(smooth, np.log1p(taus), rtol=1e-12)


def test_bridge_unreachable_target_is_exact_zero():
    dp = build_dual(nchain(4))
    vals = bridge_values(dp, 2, 0, ExpField(np.zeros(4), dp.m), 5000, seed=15)
    assert np.all(vals == 0.0)
    est, se = bridge_estimate(dp, 2, 0, ExpField(np.zeros(4), dp.m), 5000, seed=15)
    assert est == 0.0 and se == 0.0


def test_bridge_reproducible():
    rng = rng_stream(47, "path-tests")
    dp = build_dual(random_chain(4, rng))
    f = ProductField()
    a = bridge_values(dp, 0, 1, f, 40_000, seed=16)
    b = bridge_values(dp, 0, 1, f, 40_000, seed=16)
    assert np.array_equal(a, b)


def test_march_chain_bridge_local_time_is_unit_exponential():
    # on the march chain the diagonal bridge sees only its own local time,
    # distributed Exp(1): moments j! for j = 1, 2, 3
    dp = build_dual(nchain(4))
    x = 1
    count = 100_000
    for j, target in ((1, 1.0), (2, 2.0), (3, 6.0)):
        f = MonomialField(np.bincount([x] * j, minlength=4))
        vals = bridge_values(dp, x, x, f, count, seed=17)
        se = vals.std(ddof=1) / np.sqrt(count)
        assert abs(vals.mean() - target) <= 4.0 * se
    # off-diagonal coordinates of the running field vanish at the bridge times
    probe = MonomialField(np.bincount([x + 1], minlength=4))
    vals = bridge_values(dp, x, x, probe, 5000, seed=18)
    assert np.all(vals == 0.0)


def test_bridge_offsets_shift_the_field():
    dp = build_dual(nchain(3))
    chi = np.array([0.5, 0.5, 0.5])
    f = ExpField(chi, dp.m)
    count = 4000
    base = bridge_values(dp, 0, 1, f, count, seed=19)
    shift = np.full((count, 3), 0.3)
    shifted = bridge_values(dp, 0, 1, f, count, seed=19, offsets=shift)
    damp = float(np.exp(-np.sum(chi * dp.m * 0.3)))
    assert np.allclose(shifted, base * damp, rtol=1e-12)
