import functools

import numpy as np
import pytest

from twistlab import paths
from twistlab.chain import ChainSpec, NumericalError, build_dual, nchain, random_chain
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


class StubRng:
    """Generator stand-in for `_walk`: holds of one and uniforms picked per state.

    A path at state x draws an entry of row x of ``uniforms``: on the first
    call the i-th path draws entry i; later calls pick an entry at random,
    or half the time the last one, which must kill, so walks stay short.
    The caller sets ``states`` to each step's states before the next draw.
    """

    def __init__(self, uniforms, seed):
        self.uniforms = uniforms
        self.pick = np.random.default_rng(seed)
        self.states = self.drawn = None

    def exponential(self, scale):
        return np.ones_like(scale)

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        k = self.uniforms.shape[1]
        if self.drawn is None:
            col = np.arange(size) % k
        else:
            col = np.where(self.pick.random(size) < 0.5, k - 1, self.pick.integers(k, size=size))
        self.drawn = self.uniforms[self.states, col]
        return self.drawn


def linear_step(cum, rows, states, u):
    """The referee jump search: count the row's cumulative probabilities <= u."""
    nxt = (u[:, None] >= cum[states]).sum(axis=1)
    live = nxt < cum.shape[0]
    return rows[live], nxt[live]


@pytest.mark.parametrize(
    "spec",
    [nchain(n) for n in (1, 2, 9)]
    + [random_chain(n, rng_stream(n, "bisection")) for n in (1, 2, 7, 8, 9, 15, 16, 17, 128)],
    ids=[f"march-n{n}" for n in (1, 2, 9)] + [f"random-n{n}" for n in (1, 2, 7, 8, 9, 15, 16, 17, 128)],
)
def test_walk_bisection_takes_the_linear_search_jump(spec):
    # uniforms at 0, at every cumulative jump probability (the march chain's
    # zero jumps repeat them), one ulp below and above each, at the row total
    # and at or above it: the bisection must pick what the linear count picks
    dp = build_dual(spec)
    cum = np.cumsum(dp.pi, axis=1)
    ones = np.ones((dp.n, 1))
    uniforms = np.hstack(
        [0.0 * ones, cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
         np.nextafter(1.0, 0.0) * ones, ones, 2.0 * ones]
    )
    b = uniforms.shape[1]
    for start in range(dp.n):
        rng = StubRng(uniforms, seed=start)
        want_rows, want_states = np.arange(b), np.full(b, start)
        for rows, states, _ in _walk(dp, start, b, rng):
            if rng.drawn is not None:
                want_rows, want_states = linear_step(cum, want_rows, want_states, rng.drawn)
            assert np.array_equal(rows, want_rows) and np.array_equal(states, want_states)
            rng.states = states
        assert linear_step(cum, want_rows, want_states, rng.drawn)[0].size == 0


@pytest.mark.parametrize("k", [1, BATCH])
def test_scaled_standard_exponential_is_the_exponential_draw_for_draw(k):
    # `_walk` draws holds as standard_exponential(k) * (1/q)[states]; numpy's
    # exponential(scale) is scale * standard_exponential() on the same
    # ziggurat, so both give the same stream and the same bits
    q = np.geomspace(1e-3, 1e3, 13)
    mean_hold = 1.0 / q
    states = rng_stream(50, "path-tests", "hold-states", k).integers(q.size, size=(3, k))
    scaled, direct = rng_stream(50, "path-tests", "holds", k), rng_stream(50, "path-tests", "holds", k)
    for step in states:
        assert np.array_equal(scaled.standard_exponential(k) * mean_hold[step], direct.exponential(1.0 / q[step]))
        assert np.array_equal(scaled.random(k), direct.random(k))


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
    for bad in ([-1, 0], [0.5, 1], [np.nan, 0], [np.inf, 0], [65, 0]):
        with pytest.raises(ValueError):
            MonomialField(bad)


def power_by_multiplication(x, k):
    """x^k as k left-to-right multiplications of x, starting from ones."""
    return functools.reduce(np.multiply, [x] * int(k), np.ones_like(x))


def full_product(exponents, field):
    """The referee of `MonomialField.__call__`: every column raised and multiplied."""
    f = np.asarray(field, dtype=float)
    cols = [power_by_multiplication(f[..., u], k) for u, k in enumerate(exponents)]
    return np.prod(np.stack(cols, axis=-1), axis=-1)


def full_product_sojourn(exponents, field, y, tau, m_y):
    """The referee of `MonomialField.sojourn_integral`: every column raised and multiplied."""
    f = np.asarray(field, dtype=float)
    rest = np.asarray(exponents).copy()
    k = int(rest[y])
    rest[y] = 0
    a, d = f[..., y], tau / m_y
    spread = sum(power_by_multiplication(a, j) * power_by_multiplication(a + d, k - j) for j in range(k + 1))
    return full_product(rest, f) * d * spread / (k + 1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [3, 5, 8, 128])
def test_monomial_field_skips_unit_factors_bit_for_bit(n):
    # against the product over every column, each raised by repeated
    # multiplication: zero-exponent columns hold 0, inf, NaN and subnormals; the
    # exponents run from all zero through a lone 1 or 2 to three or more
    # nonzero; and fields come one at a time and in batches of shape (..., n)
    rng = rng_stream(n, "monomial-referee")
    specials = np.array([0.0, np.inf, np.nan, 5e-324, 2.2e-308, 1.0])
    exponent_sets = [np.zeros(n, dtype=int)] + [np.bincount([n // 2] * j, minlength=n) for j in (1, 2, 3)]
    for values in ([2, 1], [1, 2, 3], [2, 2, 2]):
        k = np.zeros(n, dtype=int)
        k[rng.choice(n, size=len(values), replace=False)] = values
        exponent_sets.append(k)
    exponent_sets += [np.where(rng.random(n) < 0.5, rng.integers(1, 4, n), 0) for _ in range(2)]
    for k in exponent_sets:
        f = MonomialField(k)
        for shape in ((n,), (7, n), (3, 4, n), (1000, n)):
            field = rng.uniform(0.0, 2.0, shape)
            field[..., k == 0] = rng.choice(specials, size=field[..., k == 0].shape)
            assert same_bits(f(field), full_product(k, field))
            tau = rng.exponential(1.0, shape[:-1])
            for y in {0, n - 1, *np.flatnonzero(k)[:4].tolist()}:
                want = full_product_sojourn(k, field, y, tau, 0.7)
                assert same_bits(f.sojourn_integral(field, y, tau, 0.7), want), (k, shape, y)


def test_monomial_field_bits_do_not_depend_on_memory_layout():
    # numpy's float power takes a SIMD pow routine or multiplies depending on
    # the layout of its operands; powers by multiplication give one answer
    rng = rng_stream(6, "monomial-referee")
    field = rng.uniform(0.0, 2.0, (2000, 5))
    layouts = [field, np.asfortranarray(field), np.ascontiguousarray(field.T).T, np.pad(field, ((0, 0), (0, 3)))[:, :5]]
    tau = rng.exponential(1.0, 2000)
    for k in ([2, 0, 3, 1, 0], [0, 2, 0, 0, 0], [4, 4, 1, 2, 3]):
        f = MonomialField(k)
        want = f(field)
        assert all(same_bits(f(g), want) for g in layouts[1:]), k
        for y in range(5):
            want = f.sojourn_integral(field, y, tau, 0.7)
            assert all(same_bits(f.sojourn_integral(g, y, tau, 0.7), want) for g in layouts[1:]), (k, y)


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


def per_target_bridges(dp, x, targets, count, seed):
    """The referee of `bridge_targets`: every target masks, gathers and integrates on its own.

    The walk draws each step's holds with scale ``1 / q`` of the live
    states and finds jumps by linear search, on the streams the engine uses.
    """
    cum = np.cumsum(dp.pi, axis=1)
    groups, plan = [], []
    for y, functional, offsets in targets:
        if not any(o is offsets for o in groups):
            groups.append(offsets)
        plan.append((y, functional, next(g for g, o in enumerate(groups) if o is offsets)))
    outs = [np.zeros(count) for _ in plan]
    for idx, lo in enumerate(range(0, count, BATCH)):
        b = min(BATCH, count - lo)
        rng = rng_stream(seed, "bridge-batch", idx)
        fields = np.zeros((len(groups), b, dp.n))
        for g, o in enumerate(groups):
            if o is not None:
                fields[g] = o[lo : lo + b]
        rows, states = np.arange(b), np.full(b, x)
        while rows.size:
            taus = rng.exponential(1.0 / dp.q[states])
            for out, (y, f, group) in zip(outs, plan):
                here = states == y
                if here.any():
                    at = rows[here]
                    out[lo + at] += f.sojourn_integral(fields[group, at], y, taus[here], dp.m[y])
            fields[:, rows, states] += taus / dp.m[states]
            rows, states = linear_step(cum, rows, states, rng.random(rows.size))
    return outs


def _referee_case(name):
    rng = rng_stream(49, "path-tests", name)
    if name == "n128-exp":
        dp = build_dual(random_chain(128, rng))
        count = 3000
        rho = rng.uniform(0.0, 1.0, (count, 128))
        chi = rng.uniform(0.0, 0.05, 128)
        return dp, 5, [(5, ExpField(chi, dp.m), rho), (40, ExpField(chi, dp.m), None)], count
    if name == "march-whole-batch":
        # every path moves 0 -> 1 together, so step 1 reads whole batches of
        # fields that already hold step 0; the short second batch reuses them
        dp = build_dual(nchain(4))
        count = BATCH + 700
        rho = rng.uniform(0.0, 1.0, (count, 4))
        exp_f = ExpField(rng.uniform(0.2, 1.0, 4), dp.m)
        targets = [(1, exp_f, rho), (1, MonomialField([1, 1, 0, 0]), None), (1, ProductField(), None)]
        return dp, 0, targets, count
    dp = build_dual(random_chain(4, rng))
    count = BATCH + 700 if name.endswith("two-batches") else 5000
    rho = rng.uniform(0.0, 1.0, (count, 4))
    exp_f = ExpField(rng.uniform(0.2, 1.0, 4), dp.m)
    if name == "shared-state-and-offsets":
        targets = [(2, exp_f, rho), (2, ProductField(), rho), (2, MonomialField([1, 0, 2, 1]), rho)]
    elif name == "none-and-array-offsets":
        targets = [(1, exp_f, None), (1, exp_f, rho), (3, ProductField(), None), (1, MonomialField([0, 2, 0, 0]), None)]
    elif name == "x-equals-y":
        targets = [(0, exp_f, rho), (0, MonomialField([2, 0, 0, 0]), None), (3, ProductField(), rho)]
    elif name == "x-equals-y-two-batches":
        targets = [(0, ProductField(), rho), (0, MonomialField([1, 2, 0, 1]), None), (0, ProductField(), None)]
    else:
        targets = [(2, exp_f, rho), (0, ProductField(), rho), (2, MonomialField([0, 0, 3, 0]), None)]
    return dp, 0, targets, count


@pytest.mark.parametrize(
    "name",
    [
        "shared-state-and-offsets",
        "none-and-array-offsets",
        "x-equals-y",
        "two-batches",
        "n128-exp",
        "march-whole-batch",
        "x-equals-y-two-batches",
    ],
)
def test_bridge_targets_match_the_per_target_loop_bit_for_bit(name):
    dp, x, targets, count = _referee_case(name)
    got = bridge_targets(dp, x, targets, count, seed=21)
    want = per_target_bridges(dp, x, targets, count, seed=21)
    assert len(got) == len(want)
    for vals, ref in zip(got, want):
        assert np.array_equal(vals, ref)
    assert all(np.any(vals != 0.0) for vals in got)


def test_bridge_targets_without_targets_walk_nothing(monkeypatch):
    dp = build_dual(nchain(3))
    monkeypatch.setattr(paths, "_batches", None)  # any batch, budget or draw would raise
    assert bridge_targets(dp, 2, [], 10, seed=1) == []
    with pytest.raises(ValueError, match="count"):
        bridge_targets(dp, 0, [], 0, seed=1)
    with pytest.raises(ValueError, match="states out of range"):
        bridge_targets(dp, 3, [], 10, seed=1)


def per_path_occupation(dp, start, count, seed):
    """The referee of `occupation_batch`: holds drawn with scale ``1 / q`` of
    the live states, jumps by linear search and a 2-D scatter-add of the
    holds, on the streams the engine uses."""
    cum = np.cumsum(dp.pi, axis=1)
    fields, lives = np.zeros((count, dp.n)), np.zeros(count)
    for idx, lo in enumerate(range(0, count, BATCH)):
        b = min(BATCH, count - lo)
        rng = rng_stream(seed, "occupation-batch", idx)
        times, life = fields[lo : lo + b], lives[lo : lo + b]
        rows, states = np.arange(b), np.full(b, start)
        while rows.size:
            taus = rng.exponential(1.0 / dp.q[states])
            times[rows, states] += taus
            life[rows] += taus
            rows, states = linear_step(cum, rows, states, rng.random(rows.size))
    fields /= dp.m
    return fields, lives


def _occupation_case(name):
    rng = rng_stream(51, "path-tests", name)
    if name == "n1":
        return random_chain(1, rng), 0, 5000
    if name == "n128":
        return random_chain(128, rng), 7, 3000
    spec = random_chain(4, rng)  # holding rates 1e-3 to 1e3, two batches
    return ChainSpec(q=np.array([1e-3, 0.1, 10.0, 1e3]), pi=spec.pi, mu=spec.mu), 1, BATCH + 700


@pytest.mark.parametrize("name", ["n1", "n4-two-batches", "n128"])
def test_occupation_batch_matches_the_per_path_loop_bit_for_bit(name):
    spec, start, count = _occupation_case(name)
    dp = build_dual(spec)
    fields, lives = occupation_batch(dp, start, count, seed=22)
    want_fields, want_lives = per_path_occupation(dp, start, count, seed=22)
    assert np.array_equal(fields, want_fields) and np.array_equal(lives, want_lives)
    assert np.all(np.count_nonzero(fields, axis=0) > 0)


def test_bridge_targets_reject_a_bad_target():
    dp = build_dual(nchain(3))
    f = ProductField()
    good = (1, f, np.zeros((10, 3)))
    no_closed_form = (1, BumpField(np.zeros(3)), None)
    bad_states = ((3, f, None), (-1, f, None), (1.5, f, None))
    for bad in bad_states + ((1, f, np.zeros((10, 2))), (1, f, np.zeros((9, 3))), no_closed_form):
        with pytest.raises(ValueError):
            bridge_targets(dp, 0, [good, bad], 10, seed=1)
    for x in (3, 1.5):
        with pytest.raises(ValueError, match="states out of range"):
            bridge_targets(dp, x, [good], 10, seed=1)


def test_occupation_batch_rejects_a_bad_start_or_count():
    dp = build_dual(nchain(3))
    out_of_range = ((-1, 10, "states out of range"), (3, 10, "states out of range"), (1.5, 10, "states out of range"))
    for start, count, message in out_of_range + ((0, 0, "count"),):
        with pytest.raises(ValueError, match=message):
            occupation_batch(dp, start, count, seed=1)


# a path survives each jump with probability 0.999: about 1000 sojourns
SLOW_KILL = ChainSpec(q=np.ones(2), pi=np.array([[0.0, 0.999], [0.999, 0.0]]), mu=np.array([0.5, 0.5]))


def test_path_walks_are_bounded(monkeypatch):
    dp = build_dual(SLOW_KILL)
    monkeypatch.setattr(paths, "MAX_JUMPS", 50)
    with pytest.raises(NumericalError):
        occupation_batch(dp, 0, 200, seed=1)
    with pytest.raises(NumericalError):
        bridge_values(dp, 0, 1, ProductField(), 200, seed=1)


def test_walk_within_budget_still_stops_at_the_bound(monkeypatch):
    # 1000 expected sojourns pass the up-front check at a bound of 2000, and
    # about 13% of paths outlive it, so the bound in the walk itself raises
    dp = build_dual(SLOW_KILL)
    monkeypatch.setattr(paths, "MAX_JUMPS", 2000)
    with pytest.raises(NumericalError, match="^path did not terminate; jump matrix"):
        occupation_batch(dp, 0, 200, seed=1)
