import numpy as np
import pytest

from twistlab.chain import ChainSpec, build_dual, nchain, random_chain
from twistlab.functionals import BumpField, ExpField, MonomialField, ProductField
from twistlab.paths import BATCH, _walk, bridge_targets, bridge_values, occupation_batch
from twistlab.seeding import rng_stream
from twistlab.twisted import green


def sojourn_quadrature(functional, fields, taus, y, m_y):
    """(1/m_y) * int_0^tau F(field + u e_y / m_y) du per row, by Gauss-Legendre.

    Doubles the node count from 8 until the largest relative change is
    below 1e-12, and fails past 256 nodes: the referee of the closed forms.
    """
    prev = None
    for k in (8, 16, 32, 64, 128, 256):
        nodes, weights = np.polynomial.legendre.leggauss(k)
        u = (nodes[None, :] + 1.0) * (taus[:, None] / 2.0)
        pts = np.repeat(fields[:, None, :], k, axis=1)
        pts[:, :, y] += u / m_y
        est = (functional(pts) @ weights) * (taus / 2.0) / m_y
        if prev is not None and np.max(np.abs(est - prev) / np.maximum(1e-30, np.abs(est))) < 1e-12:
            return est
        prev = est
    raise AssertionError("sojourn quadrature missed 1e-12 at 256 nodes")


def walk_one(dp, start, seed):
    """States and holding times of one path: the stepping kernel on a batch of one."""
    steps = list(_walk(dp, start, 1, rng_stream(seed, "single-path")))
    return np.array([s[0] for _, s, _ in steps]), np.array([tau[0] for _, _, tau in steps])


def bridge_mean_se(vals):
    return vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)


def test_no_jump_chain_single_visit():
    spec = ChainSpec(q=np.ones(2), pi=np.zeros((2, 2)), mu=np.array([0.5, 0.5]))
    dp = build_dual(spec)
    states, durations = walk_one(dp, 0, seed=3)
    assert states.tolist() == [0]
    assert durations.size == 1 and durations[0] > 0


def test_march_chain_visits_in_order():
    dp = build_dual(nchain(5))
    for seed in range(5):
        states, durations = walk_one(dp, 0, seed=seed)
        assert states.tolist() == [0, 1, 2, 3, 4]
        assert np.all(durations > 0)


def test_path_follows_support():
    rng = rng_stream(41, "path-tests")
    dp = build_dual(random_chain(5, rng))
    states, _ = walk_one(dp, 2, seed=9)
    for a, b in zip(states, states[1:]):
        assert dp.pi[a, b] > 0


def test_sample_path_deterministic():
    dp = build_dual(nchain(4))
    _, d1 = walk_one(dp, 0, seed=42)
    _, d2 = walk_one(dp, 0, seed=42)
    assert np.array_equal(d1, d2)


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
    est, se = bridge_mean_se(bridge_values(dp, 1, 3, one, 100_000, seed=12))
    assert abs(est - g[1, 3]) <= 4.0 * se


def test_bridge_exponential_matches_damped_green():
    rng = rng_stream(45, "path-tests")
    dp = build_dual(random_chain(4, rng))
    chi = rng.uniform(0.2, 1.2, 4)
    est, se = bridge_mean_se(bridge_values(dp, 0, 2, ExpField(chi, dp.m), 100_000, seed=13))
    assert abs(est - green(dp, chi)[0, 2]) <= 4.0 * se


def test_bridge_quadrature_agrees_with_closed_form():
    # the closed-form sojourn integrals against quadrature, on random fields
    # and holding times, including a state the functional does not damp (chi_y = 0)
    rng = rng_stream(46, "path-tests")
    dp = build_dual(random_chain(4, rng))
    for trial in range(4):
        chi = rng.uniform(0.0, 2.0, 4)
        chi[trial % 4] = 0.0
        f = ExpField(chi, dp.m)
        fields = rng.uniform(0.0, 1.0, (50, 4))
        taus = rng.exponential(1.0, 50)
        for y in range(4):
            exact = f.sojourn_integral(fields, y, taus, dp.m[y])
            quad = sojourn_quadrature(f, fields, taus, y, dp.m[y])
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
            quad = sojourn_quadrature(f, fields, taus, y, dp.m[y])
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


def test_bridge_unreachable_target_is_exact_zero():
    dp = build_dual(nchain(4))
    vals = bridge_values(dp, 2, 0, ExpField(np.zeros(4), dp.m), 5000, seed=15)
    assert np.all(vals == 0.0)
    est, se = bridge_mean_se(vals)
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


def test_bridge_targets_match_separate_walks_bit_for_bit():
    # two targets share one offsets array, two have none, one has offsets
    # of its own, the ys differ, and two batches run
    rng = rng_stream(48, "path-tests")
    dp = build_dual(random_chain(4, rng))
    count = BATCH + 700
    rho = rng.uniform(0.0, 1.0, (count, 4))
    other = rng.uniform(0.0, 0.5, (count, 4))
    exp_f = ExpField(rng.uniform(0.2, 1.0, 4), dp.m)
    targets = [
        (2, exp_f, rho),
        (1, ProductField(), rho),
        (0, MonomialField([1, 0, 2, 0]), None),
        (2, ExpField(rng.uniform(0.0, 1.0, 4), dp.m), other),
        (0, exp_f, None),
    ]
    together = bridge_targets(dp, 0, targets, count, seed=20)
    assert len(together) == len(targets)
    for (y, f, offsets), vals in zip(targets, together):
        alone = bridge_values(dp, 0, y, f, count, 20, offsets)
        assert np.array_equal(vals, alone)
    assert np.any(together[2] != 0.0)


def test_bridge_targets_reject_a_bad_target():
    dp = build_dual(nchain(3))
    f = ProductField()
    good = (1, f, np.zeros((10, 3)))
    no_closed_form = (1, BumpField(np.zeros(3)), None)
    for bad in ((3, f, None), (-1, f, None), (1, f, np.zeros((10, 2))), (1, f, np.zeros((9, 3))), no_closed_form):
        with pytest.raises(ValueError):
            bridge_targets(dp, 0, [good, bad], 10, seed=1)
    with pytest.raises(ValueError):
        bridge_targets(dp, 3, [good], 10, seed=1)


def test_occupation_batch_rejects_a_bad_start_or_count():
    dp = build_dual(nchain(3))
    for start, count, message in ((-1, 10, "states out of range"), (3, 10, "states out of range"), (0, 0, "count")):
        with pytest.raises(ValueError, match=message):
            occupation_batch(dp, start, count, seed=1)
