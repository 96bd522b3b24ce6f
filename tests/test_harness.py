import numpy as np
import pytest

from twistlab.chain import build_dual, nchain, random_chain
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
    rep = verify_bridge_identity(chain4, 0, 2, "bridge")
    assert rep.mode == "exact" and rep.passed
    assert rep.lhs == pytest.approx(g[0, 2], rel=1e-12)
    assert rep.rhs == pytest.approx(g[0, 2], rel=1e-12)


def test_bridge_identity_exponential_exact_and_bracketed(chain4):
    rng = rng_stream(52, "harness-tests")
    chi = rng.uniform(0.2, 1.0, 4)
    rep = verify_bridge_identity(chain4, 0, 3, "bridge", chi=chi)
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


def test_occupation_identity_constant_is_green_diagonal(chain4):
    g = green(chain4)
    for x in range(4):
        rep = verify_bridge_identity(chain4, x, x, "occupation")
        assert rep.passed and rep.lhs == pytest.approx(g[x, x], rel=1e-12)


def test_occupation_identity_exponential_exact(chain4):
    rng = rng_stream(53, "harness-tests")
    chi = rng.uniform(0.1, 0.8, 4)
    rep = verify_bridge_identity(chain4, 2, 2, "occupation", chi=chi)
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


def test_over_budget_walk_is_refused_before_drawing(monkeypatch):
    from twistlab import harness, paths
    from twistlab.chain import NumericalError

    draws = []
    real = harness.sample_twisted_batch
    monkeypatch.setattr(harness, "sample_twisted_batch", lambda *a, **k: draws.append(a) or real(*a, **k))
    # every start expects at least one sojourn, so a bound of 1 refuses every walk
    monkeypatch.setattr(paths, "MAX_JUMPS", 1)
    with pytest.raises(NumericalError, match="expected sojourns"):
        example_suite(3, count=1000, seed=1)
    assert draws == []


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


def test_mgf_suite_factors_each_determinant_kind_once(chain4, monkeypatch):
    # det(-L) once and every det(-L + M_s) in one stack: two slogdet calls up to n = 101, not 2n + 2
    calls = []
    real = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(np.shape(a)) or real(a))
    assert all(r.passed for r in mgf_suite(chain4, seed=9))
    assert calls == [(4, 4), (5, 4, 4)]


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
