import numpy as np
import pytest

from twistlab.chain import ChainError, build_dual, nchain, random_chain
from twistlab.functionals import ExpField, ProductField
from twistlab.harness import (
    _bridge_mc,
    example_suite,
    iso_suite,
    mass_gap_suite,
    mgf_suite,
    positivity_suite,
    q_suite,
    trace_suite,
    verify_bridge_identity,
    verify_trace,
)
from twistlab.paths import bridge_values
from twistlab.reporting import count_failures, write_reports_csv
from twistlab.seeding import rng_stream
from twistlab.twisted import build_twisted, green, mgf, q_moment, sample_twisted_batch


@pytest.fixture(scope="module")
def chain4():
    rng = rng_stream(51, "harness-tests")
    return build_dual(random_chain(4, rng))


def bridge_mc_row(dp, x, y, func, count, seed):
    """MC bridge-identity row built as the suites build it: one draw set, one walk."""
    z, w = sample_twisted_batch(build_twisted(dp), count, seed)
    rho = np.abs(z) ** 2
    vals = bridge_values(dp, x, y, func, count, seed, offsets=rho)
    return _bridge_mc(w * z[:, x] * np.conj(z[:, y]), func(rho), w, vals, f"bridge_identity[x={x},y={y}]")


def test_bridge_identity_constant_reduces_to_green(chain4):
    g = green(chain4)
    rep = verify_bridge_identity(chain4, 0, 2)
    assert rep.mode == "exact" and rep.passed
    assert rep.lhs == pytest.approx(g[0, 2], rel=1e-12)
    assert rep.rhs == pytest.approx(g[0, 2], rel=1e-12)


def test_bridge_identity_exponential_exact_and_bracketed(chain4):
    rng = rng_stream(52, "harness-tests")
    chi = rng.uniform(0.2, 1.0, 4)
    rep = verify_bridge_identity(chain4, 0, 3, chi=chi)
    assert rep.mode == "exact" and rep.passed and rep.z <= 1e-10
    # the exact value both sides agree on
    target = green(chain4, chi)[0, 3] * mgf(chain4, chi)
    assert rep.lhs == pytest.approx(target, rel=1e-12)
    mc = bridge_mc_row(chain4, 0, 3, ExpField(chi, chain4.m), 100_000, seed=3)
    assert mc.passed
    spread = np.hypot(mc.se_lhs, mc.se_rhs)
    assert abs(mc.lhs - target) <= 4.0 * max(mc.se_lhs, 1e-12)
    assert abs(mc.rhs - target) <= 4.0 * max(mc.se_rhs, 1e-12)
    assert abs(mc.lhs - mc.rhs) <= 4.0 * max(spread, 1e-12)


def test_bridge_identity_cross_mc_generic_functional(chain4):
    rep = bridge_mc_row(chain4, 1, 2, ProductField(), 100_000, seed=4)
    assert rep.mode == "mc" and rep.passed


def test_bridge_identity_rejects_states_out_of_range(chain4):
    for x, y in ((-1, 0), (0, -1), (4, 0), (0, 4), (1.5, 0), (0, 1.5), (True, 0)):
        with pytest.raises(ValueError, match="states out of range"):
            verify_bridge_identity(chain4, x, y)


def test_occupation_identity_constant_is_green_diagonal(chain4):
    g = green(chain4)
    for x in range(4):
        rep = verify_bridge_identity(chain4, x, x)
        assert rep.passed and rep.lhs == pytest.approx(g[x, x], rel=1e-12)


def test_occupation_identity_exponential_exact(chain4):
    rng = rng_stream(53, "harness-tests")
    chi = rng.uniform(0.1, 0.8, 4)
    rep = verify_bridge_identity(chain4, 2, 2, chi=chi)
    assert rep.passed and rep.z <= 1e-10


def test_march_chain_size_biased_moments():
    # size-biasing the unit-exponential marginal gives the two-fold
    # convolution: moments 2, 6, 24
    rows = example_suite(3, count=100_000, seed=2)
    sb = {r.name: r for r in rows if "size_biased" in r.name}
    targets = {"m1": 2.0, "m2": 6.0, "m3": 24.0}
    for tag, target in targets.items():
        row = sb[f"example_n3_size_biased_{tag}"]
        assert row.rhs == target
        assert row.passed


def test_example_suite_all_pass_small_and_exact_rows():
    rows = example_suite(1, count=20_000, seed=5)
    assert count_failures(rows) == 0
    gap_row = next(r for r in rows if "mass_gap" in r.name)
    assert gap_row.mode == "exact" and gap_row.lhs == pytest.approx(1.0, abs=1e-12)
    rows3 = example_suite(3, count=50_000, seed=6)
    assert count_failures(rows3) == 0
    fact = next(r for r in rows3 if "factorisation" in r.name)
    assert fact.z <= 1e-12


def test_suites_draw_the_twisted_field_once(chain4, monkeypatch):
    from twistlab import harness

    calls = []
    real = harness.sample_twisted_batch

    def counting(tm, count, seed):
        calls.append((count, seed))
        return real(tm, count, seed)

    monkeypatch.setattr(harness, "sample_twisted_batch", counting)
    iso_suite(chain4, count=2000, seed=21)
    assert calls == [(2000, 21)]
    calls.clear()
    example_suite(3, count=2000, seed=22)
    assert calls == [(2000, 22)]


def test_suites_walk_each_path_set_once_per_batch(chain4, monkeypatch):
    from twistlab import paths

    walks = []
    real = paths._walk

    def counting(dp, start, b, rng):
        walks.append((start, b))
        return real(dp, start, b, rng)

    monkeypatch.setattr(paths, "_walk", counting)
    count = paths.BATCH + 500  # two batches
    iso_suite(chain4, count=count, seed=23)
    assert [b for _, b in walks] == [paths.BATCH, 500]
    assert walks[0][0] == walks[1][0]
    walks.clear()
    example_suite(3, count=count, seed=24)
    assert walks == [(1, paths.BATCH), (1, 500)]


def _killed(dp, chi):
    """Visit counts of the jump chain killed at the extra rate chi, and its total rates."""
    rate = dp.q + (0.0 if chi is None else chi)
    return np.linalg.inv(np.eye(dp.n) - (dp.q / rate)[:, None] * dp.pi), rate


def _start_rate(dp, x, y, chi=None):  # the holding rate of x where that of y belongs
    visits, rate = _killed(dp, chi)
    return visits[x, y] / (rate[x] * dp.m[y])


def _first_visit_dropped(dp, x, y, chi=None):  # the visit at the start left uncounted
    visits, rate = _killed(dp, chi)
    return (visits - np.eye(dp.n))[x, y] / (rate[y] * dp.m[y])


def _exact_rows(names):
    """The named rows of `iso_suite` (x = 1, y = 2) and `example_suite` on small draws."""
    dp = build_dual(random_chain(4, rng_stream(53, "harness-tests")))
    got = {r.name: r for r in iso_suite(dp, count=2000, seed=3) + example_suite(3, count=2000, seed=1)}
    return [got[name] for name in names]


@pytest.mark.parametrize(
    "wrong, rows",
    [
        (_start_rate, ["bridge_f1_exact[1,2]", "bridge_exp_exact[1,2]"]),
        (
            _first_visit_dropped,
            [
                "occupation_f1_exact[1]",
                "occupation_exp_exact[1]",
                "example_n3_occupation_f1_exact",
                "example_n3_occupation_exp_exact",
            ],
        ),
    ],
    ids=["start-rate", "first-visit-dropped"],
)
def test_f1_exact_rows_fail_on_a_wrong_path_side(wrong, rows, monkeypatch):
    from twistlab import harness

    assert all(r.passed for r in _exact_rows(rows))
    monkeypatch.setattr(harness, "_path_green", wrong)
    assert not any(r.passed for r in _exact_rows(rows))


def test_exp_exact_rows_fail_on_a_green_damped_twice(monkeypatch):
    from twistlab import harness

    rows = ["bridge_exp_exact[1,2]", "occupation_exp_exact[1]", "example_n3_occupation_exp_exact"]
    assert all(r.passed for r in _exact_rows(rows))
    real = harness.green
    monkeypatch.setattr(harness, "green", lambda dp, chi=None: real(dp, None if chi is None else 2.0 * chi))
    assert not any(r.passed for r in _exact_rows(rows))


def log_derivative_row(dp):
    return next(r for r in mgf_suite(dp, seed=9) if r.name == "logdet_derivative_vs_trace")


def test_log_derivative_row_fails_on_a_transform_damped_by_s_times_m(chain4, monkeypatch):
    from twistlab import harness

    def on_sm(dp, s):  # det(-L) / det(-L + M_{s m}) per row of the stack: the pairing's weight counted twice
        logdets = [np.linalg.slogdet(-dp.L + np.diag(row * dp.m))[1] for row in s]
        return np.exp(np.linalg.slogdet(-dp.L)[1] - np.array(logdets))

    assert log_derivative_row(chain4).passed
    monkeypatch.setattr(harness, "mgf", on_sm)
    assert not log_derivative_row(chain4).passed


def test_mgf_suite_factors_each_determinant_kind_once(chain4, monkeypatch):
    # det(-L) once and every det(-L + M_s) in one stack: two slogdet calls up to n = 101, not 2n + 2
    calls = []
    real = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(np.shape(a)) or real(a))
    assert all(r.passed for r in mgf_suite(chain4, seed=9))
    assert calls == [(4, 4), (5, 4, 4)]


def test_log_derivative_row_fails_on_a_green_blind_to_chi(chain4, monkeypatch):
    from twistlab import harness

    real = harness.green
    monkeypatch.setattr(harness, "green", lambda dp, chi=None: real(dp))  # G_0 whatever chi is
    assert not log_derivative_row(chain4).passed


def test_moment_rows_fail_on_a_determinant_for_the_permanent(chain4, monkeypatch):
    from twistlab import twisted

    def passed():
        return [r.passed for r in q_suite(chain4, count=1000, seed=13) if r.name.startswith("q_moment_vs")]

    assert passed() == [True, True, True]
    monkeypatch.setattr(twisted, "permanent", lambda mat: float(np.linalg.det(mat)))
    assert passed() == [True, False, False]  # one point: det and per agree


def test_positivity_battery(chain4):
    rows = positivity_suite(chain4, count=100_000, seed=7)
    assert count_failures(rows) == 0
    assert [r.name for r in rows] == [
        "positivity_exp0_vs_mgf",
        "positivity_exp1_vs_mgf",
        "positivity_bump_nonneg",
        "positivity_moment_single_vs_permanent",
        "positivity_moment_pair_vs_permanent",
    ]


def test_verify_trace_full_and_march():
    dp = build_dual(nchain(4))
    full = verify_trace(dp, range(4))
    assert full.passed and full.z <= 1e-12
    rep = verify_trace(dp, [0, 3])
    assert rep.passed
    # hand value: permanent of the restricted Green block [[1,1],[0,1]] is 1
    traced_moment = q_moment(dp, [0, 3])
    assert traced_moment == pytest.approx(1.0, rel=1e-12)


def test_verify_trace_fails_a_trace_without_the_schur_correction(monkeypatch):
    from twistlab import chain, harness

    def restricted(dp, keep):  # L_T = L_YY, as if the excursions off Y were dropped
        return chain.dual_pair_from_generator(dp.L[np.ix_(keep, keep)], dp.m[keep])

    dp = build_dual(random_chain(8, rng_stream(53, "harness-tests")))
    keep = [0, 2, 3, 5, 7]
    assert verify_trace(dp, keep).passed
    # the Phi comparison alone sees the missing correction, not only the potential's
    s_full = np.zeros(dp.n)
    s_full[keep] = 1.0 / len(keep)
    assert abs(mgf(restricted(dp, keep), s_full[keep]) - mgf(dp, s_full)) > 1e-6
    monkeypatch.setattr(harness, "trace_chain", restricted)
    rep = verify_trace(dp, keep)
    assert not rep.passed and rep.z > 1e-6


@pytest.mark.parametrize("keep", [[0, 1.5], [1.0, 2.0]])
def test_verify_trace_refuses_non_integer_states(keep):
    with pytest.raises(ChainError, match="integer state indices"):
        verify_trace(build_dual(nchain(4)), keep)


def test_verify_trace_random(chain4):
    rep = verify_trace(chain4, [0, 2, 3])
    assert rep.passed and rep.z <= 1e-10


def test_suites_run_clean(chain4):
    assert count_failures(mgf_suite(chain4, seed=9)) == 0
    assert count_failures(trace_suite(chain4, seed=10)) == 0
    rows, gap = mass_gap_suite(chain4, seed=11)
    assert gap > 0 and count_failures(rows) == 0
    assert count_failures(iso_suite(chain4, count=60_000, seed=12)) == 0
    assert count_failures(q_suite(chain4, count=60_000, seed=13)) == 0


def test_csv_writer_deterministic(chain4, tmp_path):
    rows = mgf_suite(chain4, seed=14)
    text1 = write_reports_csv(rows, tmp_path / "a.csv")
    text2 = write_reports_csv(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert text1 == text2
    header = text1.splitlines()[0]
    assert header == "name,mode,lhs,rhs,se_lhs,se_rhs,z,pass,seconds"
    # the wall-clock column is fixed; runtimes go to the console only
    assert all(line.endswith(",0.000") for line in text1.splitlines()[1:])
