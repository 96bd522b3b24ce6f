import numpy as np
import pytest

from twistlab.hilbert import (
    KIND_TOL,
    LevyModel,
    _coupling_square_sum,
    circle_B_matrix,
    circle_model,
    circle_suite,
    det2,
    det2_suite,
    eta_kernel,
    gaussian_char_identities,
    hs_partial_sum,
    levy_suite,
    random_skew,
    random_symmetric_nonneg,
)
from twistlab.reporting import count_failures
from twistlab.seeding import rng_stream


def _gaussian_rows(c, b):
    d = c.shape[0]
    return gaussian_char_identities(c, b, np.ones(d), np.ones(d), count=8, seed=1)


@pytest.mark.parametrize("dim", [3, 64, 133])
def test_kind_checks_catch_one_entry_in_any_block(dim):
    rng = rng_stream(dim, "hilbert-tests")
    a = 3.0 * rng.standard_normal((dim, dim))
    skew, sym = (a - a.T) / 2.0, a @ a.T / dim
    # the skew B at this scale passes its check (with C = 0: det2(I + C + B)
    # underflows at dim 133 for this C)
    assert len(_gaussian_rows(np.zeros_like(sym), skew)) == 3
    for mat, rows in ((skew, lambda bad: _gaussian_rows(sym, bad)), (sym, lambda bad: _gaussian_rows(bad, skew))):
        scale = max(1.0, float(np.abs(mat).max()))
        for i, j in ((dim - 1, 0), (dim // 2, dim - 1), (dim - 1, dim - 2)):
            bad = mat.copy()
            bad[i, j] += 2.0 * KIND_TOL * scale
            with pytest.raises(ValueError, match="not s"):
                rows(bad)


def test_det2_zero_operator():
    assert det2(np.zeros((4, 4))) == pytest.approx(1.0, abs=1e-14)


def test_det2_eigenvalue_minus_one_gives_zero():
    assert det2(np.diag([-1.0, 0.5])) == 0.0


def test_det2_takes_complex_dtype_with_zero_imaginary_part():
    t = np.array([[0.5, 0.2], [-0.1, 0.3]])
    assert det2(t.astype(complex)) == det2(t)


@pytest.mark.parametrize(
    "diagonal, value",
    [
        # the factor (1 + lambda) e^{-lambda} at lambda = -800 overflows, and the one at 800 underflows
        ([-800.0, 800.0], -799.0 * 801.0),
        # the product of the two factors at 700 underflows, and the factor at -1300 overflows
        ([700.0, 700.0, -1300.0], -701.0 * 701.0 * 1299.0 * np.exp(-100.0)),
    ],
)
def test_det2_is_returned_where_only_its_factors_leave_float_range(diagonal, value):
    assert det2(np.diag(diagonal)) == pytest.approx(value, rel=1e-12)


def test_det2_matches_det_times_exp_trace():
    rng = rng_stream(61, "hilbert-tests")
    t = rng.standard_normal((5, 5)) / np.sqrt(5)
    lhs = det2(t) * np.exp(np.trace(t))
    rhs = np.linalg.det(np.eye(5) + t)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_det2_skew_identities():
    rng = rng_stream(62, "hilbert-tests")
    b = random_skew(4, rng)
    gram = np.linalg.det(np.eye(4) + b @ b.T)
    assert det2(b) == pytest.approx(np.sqrt(gram), rel=1e-10)
    assert det2(b) == pytest.approx(det2(-b), rel=1e-12)
    assert det2(b) >= 1.0 - 1e-12
    assert det2(np.zeros((4, 4))) == pytest.approx(1.0, abs=1e-14)
    # closed form in dimension 2
    beta = 0.7
    b2 = np.array([[0.0, beta], [-beta, 0.0]])
    assert det2(b2) == pytest.approx(1.0 + beta**2, rel=1e-12)


def test_identity_plus_cb_invertible():
    rng = rng_stream(64, "hilbert-tests")
    c = random_symmetric_nonneg(6, rng)
    b = random_skew(6, rng)
    smallest = np.linalg.svd(np.eye(6) + c + b, compute_uv=False)[-1]
    assert smallest > 0.1


def pairing_ratio_block_oracle(c, b, f1, f2):
    """Dense block-Gaussian value of the weighted pairing ratio.

    Tilting standard normals phi1, phi2 by exp(-(1/2) quad - i pairing)
    gives E[u u^T] = Q^{-1} with the complex-symmetric block matrix below;
    assembling psi(f1) psī(f2) from the blocks is independent of the
    perturbation-determinant route being verified.
    """
    d = c.shape[0]
    eye = np.eye(d)
    q = np.block([[eye + c, 1j * b.T], [1j * b, eye + c]])
    cov = np.linalg.inv(q)
    cxx, cxy = cov[:d, :d], cov[:d, d:]
    cyx, cyy = cov[d:, :d], cov[d:, d:]
    return complex(
        f1 @ cxx @ f2 + f1 @ cyy @ f2 + 1j * (f1 @ cyx @ f2 - f1 @ cxy @ f2)
    )


def test_gaussian_identities_trivial_case():
    rows = gaussian_char_identities(
        np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3), np.ones(3), count=2000, seed=1
    )
    for r in rows:
        assert r.passed
    targets = {r.name: r.rhs for r in rows}
    assert targets["char_skew_vs_det2"] == pytest.approx(1.0)
    assert targets["char_complex_vs_det2"] == pytest.approx(1.0)
    assert targets["pairing_vs_resolvent"] == pytest.approx(2.0 * 3.0)


def test_gaussian_identities_two_dim_closed_form():
    beta = 0.8
    b = np.array([[0.0, beta], [-beta, 0.0]])
    rows = gaussian_char_identities(
        np.zeros((2, 2)), b, np.array([1.0, 0.0]), np.array([0.0, 1.0]), count=100_000, seed=2
    )
    skew_row = next(r for r in rows if r.name == "char_skew_vs_det2")
    assert skew_row.rhs == pytest.approx(1.0 / (1.0 + beta**2), rel=1e-12)
    assert skew_row.passed


def test_gaussian_identities_random_and_block_oracle():
    rng = rng_stream(65, "hilbert-tests")
    c = random_symmetric_nonneg(6, rng)
    b = random_skew(6, rng)
    f1 = rng.standard_normal(6)
    f2 = rng.standard_normal(6)
    # the resolvent target itself, pinned by the block-Gaussian oracle
    oracle = pairing_ratio_block_oracle(c, b, f1, f2)
    target = 2.0 * float(f2 @ np.linalg.solve(np.eye(6) + c + b, f1))
    assert abs(oracle.imag) < 1e-12
    assert oracle.real == pytest.approx(target, rel=1e-12)
    rows = gaussian_char_identities(c, b, f1, f2, count=100_000, seed=3)
    assert count_failures(rows) == 0


def test_det2_suite_clean():
    rows = det2_suite(6, count=100_000, seed=7)
    assert count_failures(rows) == 0


def test_circle_zero_drift():
    model = circle_model(1.0, {})
    assert np.abs(circle_B_matrix(model, 16)).max() == 0.0
    assert hs_partial_sum(model, 16) == 0.0


def test_circle_cos_drift_partial_sums():
    model = circle_model(1.0, {1: 0.5})
    # direct-summation oracle at the two truncations
    def direct(K):
        total = 0.0
        for k in range(-K, K + 1):
            for l in (k - 1, k + 1):
                if abs(l) <= K:
                    total += (k * k / (k * k + 1.0)) * 0.25 / (l * l + 1.0)
        return total

    s64, s128 = hs_partial_sum(model, 64), hs_partial_sum(model, 128)
    assert s64 == pytest.approx(direct(64), rel=1e-12)
    assert s128 == pytest.approx(direct(128), rel=1e-12)
    # frozen from the oracle: the 64 -> 128 difference is 7.81e-3
    assert s128 - s64 == pytest.approx(7.810831e-3, rel=1e-5)
    assert s128 - s64 < 1e-2
    # per-truncation tail increments in that range are all below 1e-3
    steps = np.diff([hs_partial_sum(model, k) for k in range(64, 129)])
    assert steps.max() < 1e-3
    assert np.all(steps >= 0)


def test_circle_matrix_skew_for_random_band_limited_drift():
    rng = rng_stream(67, "hilbert-tests")
    coeffs = {0: rng.standard_normal() * 0.2}
    for k in (1, 2, 3):
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
    model = circle_model(0.7, coeffs)
    op = circle_B_matrix(model, 32)
    assert np.abs(op + op.T).max() <= 1e-10


def test_circle_matrix_against_drift_quadrature():
    # entries <(-A)^{-1} S u_l, u_k>_H equal (1/2) integral b (u_l' u_k - u_l u_k')
    # over the circle; check a few against trapezoid quadrature
    model = circle_model(1.0, {1: 0.5})  # drift cos(theta)
    K = 4
    op = circle_B_matrix(model, K)
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    b_theta = np.cos(theta)

    def basis(idx):
        if idx == 0:
            return np.ones_like(theta) / np.sqrt(model.epsilon), np.zeros_like(theta)
        j = (idx + 1) // 2
        scale = np.sqrt(2.0 / (j * j + model.epsilon))
        if idx % 2 == 1:
            return np.cos(j * theta) * scale, -j * np.sin(j * theta) * scale
        return np.sin(j * theta) * scale, j * np.cos(j * theta) * scale

    for k_idx, l_idx in ((0, 1), (1, 2), (2, 3), (3, 6), (1, 4)):
        uk, duk = basis(k_idx)
        ul, dul = basis(l_idx)
        integrand = 0.5 * b_theta * (dul * uk - ul * duk)
        quad = integrand.mean()
        assert op[k_idx, l_idx] == pytest.approx(quad, abs=1e-10)


def test_hs_partial_sums_nondecreasing():
    model = circle_model(0.5, {1: 0.3, 2: 0.1})
    sums = [hs_partial_sum(model, k) for k in (4, 8, 16, 32, 64)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def loop_hs_partial_sum(model, K):
    """`hs_partial_sum` as a loop over drift frequencies with an integer frequency array."""
    eps = model.epsilon
    k = np.arange(-K, K + 1)
    front = k.astype(float) ** 2 / (k.astype(float) ** 2 + eps)
    total = 0.0
    for d, c in zip(model.ks, model.coeffs):
        l = k + int(d)
        ok = np.abs(l) <= K
        total += float(np.sum(front[ok] * (abs(c) ** 2) / (l[ok].astype(float) ** 2 + eps)))
    return total


def loop_coupling_square_sum(model, K):
    """`_coupling_square_sum` as a loop over drift frequencies, indexing each array per d."""
    eps = model.epsilon
    l = np.arange(-K, K + 1).astype(float)
    total = 0.0
    for d, c in zip(model.ks, model.coeffs):
        k = l + d
        ok = np.abs(k) <= K
        total += float(np.sum(0.25 * (k[ok] + l[ok]) ** 2 * abs(c) ** 2 / ((k[ok] ** 2 + eps) * (l[ok] ** 2 + eps))))
    return total


def test_circle_square_sums_equal_the_per_frequency_loops_bit_for_bit():
    rng = rng_stream(71, "hilbert-tests")
    models = [
        circle_model(1.0, {}),  # no drift: both sums are empty
        circle_model(0.4, {0: 0.3}),  # a constant drift: the one frequency d is zero
        circle_model(1.0, {1: 0.4 + 0.1j, 2: 0.1 - 0.2j}),
        circle_model(0.7, {0: 0.3, 1: 0.2 + 0.1j, 3: -0.4j}),
        circle_model(2.5, {k: complex(*rng.standard_normal(2)) / k for k in range(1, 9)}),
    ]
    for model in models:
        for K in (model.bandwidth, model.bandwidth + 1, 32, 513):
            assert hs_partial_sum(model, K) == loop_hs_partial_sum(model, K), (model, K)
            assert _coupling_square_sum(model, K) == loop_coupling_square_sum(model, K), (model, K)


def test_square_sums_skip_a_drift_frequency_at_the_int64_edge():
    # a + d is taken in floats, so a frequency near 2**63 cannot wrap round into the truncation
    model = circle_model(1.0, {2**63 - 1: 0.5})
    assert hs_partial_sum(model, 4) == 0.0 and _coupling_square_sum(model, 4) == 0.0


def test_levy_convergent_and_divergent():
    # a finite list has a finite sum either way: the suite records it and gives no verdict
    k = np.arange(1.0, 201.0)

    def total(model):
        (row,) = levy_suite(model)
        assert (row.name, row.mode, row.passed) == ("levy_partial_sum", "info", True)
        return row.lhs

    assert total(LevyModel(a=k**2, b=k)) == pytest.approx(float(np.sum(1.0 / k**2)), rel=1e-12)
    assert total(LevyModel(a=k, b=k)) == 200.0
    assert total(LevyModel(a=k, b=0.0 * k)) == 0.0


def test_circle_model_takes_frequencies_up_to_the_int64_bound():
    assert circle_model(1.0, {2**63 - 1: 0.5}).bandwidth == 2**63 - 1


def test_eta_kernel_series_and_symmetry():
    model = circle_model(1.0, {})
    K = 40
    op = circle_B_matrix(model, K)
    series = 1.0 / model.epsilon + sum(2.0 / (k * k + model.epsilon) for k in range(1, K + 1))
    assert eta_kernel(model, op, 0.3, 0.3) == pytest.approx(series, rel=1e-12)  # no drift, no damping
    a = eta_kernel(model, op, 0.3, 1.4)
    b = eta_kernel(model, op, 1.4, 0.3)
    assert a == pytest.approx(b, rel=1e-12)


def test_eta_kernel_damping_monotone():
    model = circle_model(1.0, {1: 0.5})
    u = 1.1
    op = circle_B_matrix(model, 48)
    base = eta_kernel(model, op, u, u)
    light = eta_kernel(model, op, u, u, chi_points=[u], chi_weights=[0.3])
    heavy = eta_kernel(model, op, u, u, chi_points=[u], chi_weights=[1.0])
    assert heavy < light < base


def test_damped_kernel_matches_gaussian_pairing_on_truncation():
    # finite shadow of the continuum identity: the field built on the
    # truncated basis has <Z_x Z̄_y>_weighted equal (up to the pairing
    # factor 2) to the damped kernel V_chi(x, y)
    from twistlab.hilbert import _eta_vector

    model = circle_model(1.0, {1: 0.4, 2: 0.1})
    K = 8
    x, y = 0.9, 2.3
    chi_points, chi_weights = [0.5, 4.0], [0.6, 0.3]
    op = circle_B_matrix(model, K)
    c = np.zeros_like(op)
    for u, p in zip(chi_points, chi_weights):
        eta_u = _eta_vector(model, K, u)
        c += p * np.outer(eta_u, eta_u)
    eta_x = _eta_vector(model, K, x)
    eta_y = _eta_vector(model, K, y)
    rows = gaussian_char_identities(
        c, op, eta_y, eta_x, count=200_000, seed=11
    )
    pairing = next(r for r in rows if r.name == "pairing_vs_resolvent")
    target = eta_kernel(model, op, x, y, chi_points=chi_points, chi_weights=chi_weights)
    assert pairing.rhs == pytest.approx(2.0 * target, rel=1e-10)
    assert pairing.passed


def test_circle_suite_builds_the_operator_once(monkeypatch):
    from twistlab import hilbert

    calls = []
    real = hilbert.circle_B_matrix

    def counting(model, K):
        calls.append(K)
        return real(model, K)

    monkeypatch.setattr(hilbert, "circle_B_matrix", counting)
    circle_suite(circle_model(1.0, {1: 0.5}), K=32)
    # one build at K, read only by the Frobenius row
    assert calls == [32]


def test_circle_suite_makes_no_solve(monkeypatch):
    # the plain kernel is a dot product of evaluation elements
    calls = []
    real = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    circle_suite(circle_model(1.0, {1: 0.5}), K=32)
    assert calls == []


def _dense_circle_B(model, K):
    """Reference build: the dense complex coupling S conjugated by the unitary W."""
    size = 2 * K + 1
    freq = np.arange(-K, K + 1)
    s_c = np.zeros((size, size), dtype=complex)
    for d, c in zip(model.ks, model.coeffs):
        for li, l in enumerate(freq):
            k = l + int(d)
            if abs(k) <= K:
                s_c[k + K, li] = 0.5j * (k + l) * c
    norm = np.sqrt(freq.astype(float) ** 2 + model.epsilon)
    s_c = s_c / norm[:, None] / norm[None, :]
    w = np.zeros((size, size), dtype=complex)
    w[K, 0] = 1.0
    for j in range(1, K + 1):
        w[K + j, 2 * j - 1] = w[K - j, 2 * j - 1] = 1.0 / np.sqrt(2.0)
        w[K + j, 2 * j] = -1j / np.sqrt(2.0)
        w[K - j, 2 * j] = 1j / np.sqrt(2.0)
    return np.conj(w.T) @ s_c @ w


def test_circle_matrix_matches_dense_conjugation():
    models = [
        circle_model(1.0, {1: 0.5}),
        circle_model(0.7, {0: 0.3, 1: 0.2 + 0.1j, 3: -0.4j}),  # real k = 0 coefficient
    ]
    for model in models:
        for K in (model.bandwidth, 8, 32, 128):
            dense = _dense_circle_B(model, K)
            assert np.abs(dense.imag).max() <= 1e-14
            assert np.abs(circle_B_matrix(model, K) - dense.real).max() <= 1e-14


def test_circle_and_levy_suites():
    assert count_failures(circle_suite(circle_model(1.0, {1: 0.5}), K=128)) == 0
    k = np.arange(1.0, 201.0)
    assert count_failures(levy_suite(LevyModel(a=k**2, b=k))) == 0
    assert count_failures(levy_suite(LevyModel(a=k, b=k))) == 0  # a sum is recorded, not judged
