import math

import numpy as np
import pytest

from twistlab import harness
from twistlab.chain import build_dual, nchain
from twistlab.reporting import Estimate, mc_vs_estimate, mc_vs_exact, weighted_ratio
from twistlab.seeding import rng_stream


def complex_draws(tag, count):
    rng = rng_stream(7, tag)
    return rng.standard_normal(count) + 1j * rng.standard_normal(count), rng


def test_weighted_ratio_with_unit_weights_is_the_sample_mean():
    num, _ = complex_draws("unit-weights", 500)
    est = weighted_ratio(num, np.ones(num.size))
    assert est.value == pytest.approx(num.mean(), rel=1e-13)
    assert est.se_re == pytest.approx(num.real.std(ddof=1) / math.sqrt(num.size), rel=1e-13)
    assert est.se_im == pytest.approx(num.imag.std(ddof=1) / math.sqrt(num.size), rel=1e-13)


def test_weighted_ratio_is_unchanged_by_scaling_the_weights():
    num, rng = complex_draws("scaled-weights", 400)
    den = rng.uniform(0.5, 2.0, num.size) * np.exp(1j * rng.uniform(-0.3, 0.3, num.size))
    # the weights multiply both the numerator and the denominator
    est, scaled = weighted_ratio(num * den, den), weighted_ratio(num * (3.7 * den), 3.7 * den)
    assert scaled.value == pytest.approx(est.value, rel=1e-12)
    assert scaled.se_re == pytest.approx(est.se_re, rel=1e-12)
    assert scaled.se_im == pytest.approx(est.se_im, rel=1e-12)


def test_weighted_ratio_of_one_draw_has_zero_standard_errors():
    est = weighted_ratio(np.array([2.0 + 1.0j]), np.array([0.5]))
    assert est == Estimate(4.0 + 2.0j, 0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 10_000])
@pytest.mark.parametrize("kinds", ["real/real", "complex/complex", "real/complex", "complex/real"])
def test_weighted_ratio_equals_the_temporary_residual_formula_bit_for_bit(kinds, n):
    rng = rng_stream(8, "weighted-ratio-residual", kinds, n)

    def draw(kind):
        x = rng.uniform(0.5, 2.0, n)
        return x * np.exp(1j * rng.uniform(-0.5, 0.5, n)) if kind == "complex" else x

    num_kind, den_kind = kinds.split("/")
    num, den = draw(num_kind), draw(den_kind)
    mb = den.mean()
    r = num.mean() / mb
    want = Estimate(r, 0.0, 0.0)
    if n > 1:
        resid = (num - r * den) / mb
        root_n = math.sqrt(n)
        want = Estimate(r, float(resid.real.std(ddof=1) / root_n), float(np.imag(resid).std(ddof=1) / root_n))
    got = weighted_ratio(num, den)
    assert got == want
    assert np.iscomplexobj(got.value) == np.iscomplexobj(r)
    assert (got.se_im == 0.0) == (kinds == "real/real" or n == 1)


def test_exact_target_row_scores_real_and_imaginary_deviations():
    row = mc_vs_exact("row", Estimate(1.3 + 0.05j, 0.1, 0.01), 1.0)
    assert (row.mode, row.lhs, row.rhs, row.se_lhs, row.se_rhs) == ("mc", 1.3, 1.0, 0.1, 0.0)
    assert row.z == pytest.approx(5.0) and not row.passed
    assert mc_vs_exact("row", Estimate(1.3 + 0.02j, 0.1, 0.01), 1.0).z == pytest.approx(3.0)


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_large_imaginary_part_on_either_side_fails_the_row(side):
    real, imag = Estimate(1.0, 0.1, 0.01), Estimate(1.0 + 0.5j, 0.1, 0.01)
    gap = Estimate(0.0, 0.01, 0.0)
    assert mc_vs_estimate("row", real, real, gap).passed
    row = mc_vs_estimate("row", imag, real, gap) if side == "lhs" else mc_vs_estimate("row", real, imag, gap)
    assert row.z == pytest.approx(50.0) and not row.passed


def paired_sides(shift):
    """Two sides sharing a wide common noise; ``shift`` moves the left side."""
    rng = rng_stream(7, "paired-sides")
    common = 100.0 * rng.standard_normal(10_000)
    lhs_num = common + 1.0 + shift + 1e-3 * rng.standard_normal(common.size)
    rhs_num = common + 1.0 + 1e-3 * rng.standard_normal(common.size)
    ones = np.ones(common.size)
    lhs, rhs = weighted_ratio(lhs_num, ones), weighted_ratio(rhs_num, ones)
    return lhs, rhs, weighted_ratio(lhs_num - rhs_num, ones)


def test_paired_sides_with_a_tight_gap_pass_despite_wide_side_errors():
    lhs, rhs, gap = paired_sides(0.0)
    assert lhs.se_re > 0.5 and rhs.se_re > 0.5 and gap.se_re < 1e-4
    row = mc_vs_estimate("paired", lhs, rhs, gap)
    assert row.passed and row.se_lhs == lhs.se_re and row.se_rhs == rhs.se_re


def test_paired_sides_fail_on_a_gap_that_the_side_errors_would_hide():
    lhs, rhs, gap = paired_sides(1e-2)
    assert abs(lhs.value - rhs.value) < lhs.se_re
    row = mc_vs_estimate("paired", lhs, rhs, gap)
    assert row.z > 100 and not row.passed


@pytest.mark.parametrize("where", ["gap", "lhs", "rhs"])
def test_a_nan_score_fails_the_row(where):
    side, nan_side, gap = Estimate(1.0, 0.1, 0.1), Estimate(complex(1.0, math.nan), 0.1, 0.1), Estimate(0.0, 0.1, 0.0)
    args = {"gap": (side, side, Estimate(math.nan, 0.1, 0.0)), "lhs": (nan_side, side, gap), "rhs": (side, nan_side, gap)}
    assert not mc_vs_estimate("row", *args[where]).passed


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bump_shortfall_passes_a_positive_mean_and_fails_a_negative_one(monkeypatch, sign):
    # a constant functional: its self-normalised mean is exact, far from 0 on either side
    monkeypatch.setattr(harness, "BumpField", lambda centre: lambda rho: np.full(rho.shape[0], sign))
    dp = build_dual(nchain(3))
    row = next(r for r in harness.positivity_suite(dp, count=2000, seed=1) if r.name == "positivity_bump_nonneg")
    assert (row.lhs, row.rhs) == pytest.approx((sign, 0.0))
    assert row.passed == (sign > 0) and (row.z == 0.0) == (sign > 0)


def test_tiny_rows_are_scored_below_the_absolute_floor():
    row = mc_vs_exact("tiny", Estimate(5e-13, 1e-15, 0.0), 1e-14)
    assert row.z == pytest.approx(490.0) and not row.passed


def test_rounding_noise_of_an_exact_estimate_scores_zero():
    row = mc_vs_exact("exact_by_construction", Estimate(1.0 + 4e-13, 0.0, 0.0), 1.0)
    assert row.z == 0.0 and row.passed
