"""Truncated-operator laboratory: renormalised determinants and Gaussian
characteristic identities, with drift-on-the-circle and Levy-symbol models.

Everything infinite-dimensional is verified on finite truncations only;
convergence in the truncation size stands in for statements about the
limit.  Operators are kept real by working in the trigonometric basis of
the periodic Sobolev space; complex exponentials appear only in the drift
coefficients supplied as input.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .chain import NumericalError, _readonly
from .reporting import exact_report, info_report, mc_vs_exact, weighted_ratio
from .seeding import rng_stream

__all__ = [
    "CircleDriftModel",
    "LevyModel",
    "circle_B_matrix",
    "circle_model",
    "circle_suite",
    "det2",
    "det2_suite",
    "eta_kernel",
    "gaussian_char_identities",
    "hs_partial_sum",
    "levy_suite",
    "random_skew",
    "random_symmetric_nonneg",
]

KIND_TOL = 1e-12


def random_skew(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return (a - a.T) / 2.0


def random_symmetric_nonneg(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a @ a.T / dim


def det2(T) -> float:
    """Renormalised determinant det((I + T) e^{-T}) from the eigenvalues.

    Equals det(I + T) e^{-tr T} in finite dimension; an eigenvalue at -1
    gives 0 (reported, not an error).  T must be real and finite, else
    `ValueError`; its eigenvalues pair into conjugates and the product is
    returned as a real number; one out of float range raises
    `NumericalError`.
    """
    t = np.asarray(T)
    if np.any(np.imag(t)) or not np.isfinite(t).all():  # isfinite is false for NaN
        raise ValueError("det2 takes a real operator with finite entries")
    lam = np.linalg.eigvals(t.real)
    scale = max(1.0, float(np.abs(lam).max()))
    if np.any(np.abs(1.0 + lam) < 1e-14 * scale):
        return 0.0
    with np.errstate(all="ignore"):  # out of range is raised below
        prod = np.prod((1.0 + lam) * np.exp(-lam))
        size = float(np.abs(prod))
    if not np.finfo(float).tiny <= size < math.inf:  # false for NaN
        raise NumericalError(f"renormalised determinant leaves float range (modulus {size:.3g})")
    if abs(prod.imag) > 1e-10 * max(1.0, size):
        raise NumericalError("conjugate eigenvalue pairing failed for a real operator")
    return float(prod.real)


def gaussian_char_identities(C, B, f1, f2, count: int = 100_000, seed: int = 0):
    """Monte Carlo checks of the Gaussian characteristic-functional identities.

    With phi1, phi2 independent standard Gaussian vectors and
    psi = phi1 + i phi2: (a) E e^{i <B phi1, phi2>} = det2(I + B)^{-1};
    (b) E e^{-(1/2) <(C - B) psi, psī>} = det2(I + C + B)^{-1} e^{-tr C};
    (c) the psi(f1) psī(f2)-weighted ratio equals
    2 <(I + C + B)^{-1} f1, f2> (the factor 2 is forced by the
    normalisation E psi(f) psī(f) = 2 |f|^2 of standard normals, and is
    pinned by the block-Gaussian oracle in the tests).  The
    Wick-compensated forms of (b) and (c) multiply the weight by the
    constant e^{tr C}, which cancels from every ratio and z-score in any
    truncation, so (b) and (c) check them and they have no rows of their own.

    C must be symmetric with a nonnegative spectrum and B skew, both
    finite, each to ``KIND_TOL`` relative to its largest entry.
    """
    cm = np.asarray(C, dtype=float)
    bm = np.asarray(B, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    d = f1.size
    if cm.shape != (d, d) or bm.shape != (d, d) or f1.shape != (d,) or f2.shape != (d,):
        raise ValueError("dimension mismatch between C, B, f1, f2")
    # max and min propagate NaN, so the largest entry itself shows NaN and inf entries
    c_top, b_top = (float(max(m.max(), -m.min())) for m in (cm, bm))
    if not (math.isfinite(c_top) and math.isfinite(b_top)):
        raise ValueError("operator matrix has a non-finite entry")
    c_tol, b_tol = KIND_TOL * max(1.0, c_top), KIND_TOL * max(1.0, b_top)
    if float(np.abs(bm + bm.T).max()) > b_tol:
        raise ValueError("matrix is not skew-symmetric")
    if float(np.abs(cm - cm.T).max()) > c_tol:
        raise ValueError("matrix is not symmetric")
    low = float(np.linalg.eigvalsh(cm)[0])
    if low < -c_tol:
        raise ValueError(f"matrix has negative eigenvalue {low:.3e}")
    rng = rng_stream(seed, "gaussian-identities")
    phi1 = rng.standard_normal((count, d))
    phi2 = rng.standard_normal((count, d))
    buf = np.empty((count, d))  # reused: each fresh array this size is mapped and page-faulted anew
    pairing = np.einsum("ij,ij->i", phi2, np.matmul(phi1, bm.T, out=buf))
    quad1 = np.einsum("ij,ij->i", phi1, np.matmul(phi1, cm.T, out=buf))
    quad2 = np.einsum("ij,ij->i", phi2, np.matmul(phi2, cm.T, out=buf))
    del buf
    tr_c = float(np.trace(cm))
    eye = np.eye(d)
    # -(1/2) <(C - B) psi, psī> expands to -(1/2)(<C phi1, phi1> + <C phi2, phi2>)
    # minus i <B phi1, phi2>; the pairing sign matters only for (c)

    ones = np.ones(count)
    weight = np.exp(-0.5 * (quad1 + quad2) - 1j * pairing)
    psi_f1 = phi1 @ f1 + 1j * (phi2 @ f1)
    psi_bar_f2 = phi1 @ f2 - 1j * (phi2 @ f2)
    resolvent = 2.0 * float(f2 @ np.linalg.solve(eye + cm + bm, f1))

    return [
        mc_vs_exact("char_skew_vs_det2", weighted_ratio(np.exp(1j * pairing), ones), 1.0 / det2(bm)),
        mc_vs_exact("char_complex_vs_det2", weighted_ratio(weight, ones), math.exp(-tr_c) / det2(cm + bm)),
        mc_vs_exact("pairing_vs_resolvent", weighted_ratio(psi_f1 * psi_bar_f2 * weight, weight), resolvent),
    ]


@dataclass(frozen=True)
class CircleDriftModel:
    """Periodic diffusion with drift: spectral shift and drift coefficients.

    ``ks``/``coeffs`` hold the finitely many Fourier coefficients of the
    real drift (conjugate-closed: coeff(-k) = conj(coeff(k))).
    """

    epsilon: float
    ks: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is false
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        ks = _readonly(self.ks, dtype=int)
        coeffs = _readonly(self.coeffs, dtype=complex)
        if ks.ndim != 1 or coeffs.shape != ks.shape:
            raise ValueError("ks and coeffs must be matching vectors")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("drift coefficients must be finite")
        if len(set(ks.tolist())) != ks.size:
            raise ValueError("duplicate frequencies in drift coefficients")
        table = dict(zip(ks.tolist(), coeffs.tolist()))
        for k, c in table.items():
            mirror = table.get(-k)
            if mirror is None or abs(mirror - np.conj(c)) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"drift is not real: coefficient at {-k} must conjugate the one at {k}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def bandwidth(self) -> int:
        return int(np.abs(self.ks).max()) if self.ks.size else 0


def circle_model(epsilon: float, coeffs: dict) -> CircleDriftModel:
    """Build a drift model from coefficients at integer frequencies.

    A frequency -k that is not given is filled in with the conjugate of the
    coefficient at k; `CircleDriftModel` checks the pairs that are given.
    Frequencies are stored in increasing order, as int64, so each one and
    its negative must lie in ±(2**63 - 1).
    """
    table = {operator.index(k): complex(c) for k, c in coeffs.items()}
    for k in table:
        if abs(k) > np.iinfo(np.int64).max:
            raise ValueError(f"frequency {k} is outside ±(2**63 - 1)")
    for k, c in list(table.items()):
        table.setdefault(-k, c.conjugate())
    ks = sorted(table)
    return CircleDriftModel(
        epsilon=float(epsilon), ks=np.array(ks, dtype=int), coeffs=np.array([table[k] for k in ks], dtype=complex)
    )


def hs_partial_sum(model: CircleDriftModel, K: int) -> float:
    """Square-sum of the drift coupling over basis frequencies up to K.

    sum over |k|, |l| <= K of (k^2 / (k^2 + eps)) |bhat(l - k)|^2 / (l^2 + eps).
    Nondecreasing in K; its convergence is the square-summability condition
    on the skew part.
    """
    eps = model.epsilon
    k = np.arange(-K, K + 1)
    front = k.astype(float) ** 2 / (k.astype(float) ** 2 + eps)
    total = 0.0
    for d, c in zip(model.ks, model.coeffs):
        l = k + int(d)
        ok = np.abs(l) <= K
        total += float(
            np.sum(front[ok] * (abs(c) ** 2) / (l[ok].astype(float) ** 2 + eps))
        )
    return total


def circle_B_matrix(model: CircleDriftModel, K: int) -> np.ndarray:
    """Skew coupling operator on the truncated periodic Sobolev basis.

    Returns the matrix of (-A)^{-1} S in the orthonormal basis of
    H = {f : integral (f'^2 + eps f^2) < inf}, where A is the shifted
    Laplacian and S the antisymmetrised drift term.  Basis order is
    [constant, cos 1, sin 1, .., cos K, sin K].

    In the exponential basis the entries are
    S[k, l] = (i/2)(k + l) bhat(k - l) / sqrt((k^2 + eps)(l^2 + eps)),
    nonzero only for k - l in the drift's support.  Frequency j > 0 maps to
    the real basis through e_j = (cos_j + i sin_j)/sqrt(2), so each complex
    entry lands on at most four real entries; the build is O(K bandwidth).
    The matrix is real and skew in exact arithmetic and is antisymmetrised
    against round-off.
    """
    if K < model.bandwidth:
        raise ValueError(f"truncation K={K} is below the drift bandwidth {model.bandwidth}")
    size = 2 * K + 1
    freq = np.arange(-K, K + 1)
    norm = np.sqrt(freq.astype(float) ** 2 + model.epsilon)
    # the two nonzeros of e_f in the real basis, as columns and weights
    # (index f + K); e_0 is the constant alone, with a zero second weight
    j = np.abs(freq)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    col = np.stack([np.maximum(2 * j - 1, 0), 2 * j])
    wt = np.stack([np.where(j > 0, inv_sqrt2, 1.0), np.where(j > 0, -1j * np.sign(freq) * inv_sqrt2, 0.0)])
    # every nonzero S[k, l]: l + d stays in the truncation for a drift frequency d
    il, at_d = np.nonzero(np.abs(freq[:, None] + model.ks[None, :]) <= K)
    ik = il + model.ks[at_d]
    k, l = freq[ik], freq[il]
    s_kl = 0.5j * (k + l) * model.coeffs[at_d] / (norm[ik] * norm[il])
    # B[a, b] gets conj(w_a(k)) S[k, l] w_b(l), shaped (2, 2, entries); the
    # imaginary parts cancel between the entries at (k, l) and (-k, -l)
    part = (np.conj(wt[:, ik])[:, None] * s_kl * wt[:, il][None]).real.ravel() / 2.0
    rows = np.broadcast_to(col[:, ik][:, None], (2, 2, il.size)).ravel()
    cols = np.broadcast_to(col[:, il][None], (2, 2, il.size)).ravel()
    # antisymmetrise in the scatter: half of each part at (a, b), minus half at (b, a)
    mat = np.bincount(
        np.concatenate([rows * size + cols, cols * size + rows]),
        weights=np.concatenate([part, -part]),
        minlength=size * size,
    )
    return mat.reshape(size, size)


@dataclass(frozen=True)
class LevyModel:
    """Symbol coefficients a_k + i b_k for k = 1..K (a even, b odd)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(self.a, dtype=float)
        b = _readonly(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape or a.size == 0:
            raise ValueError("a and b must be matching nonempty vectors")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("all a_k and b_k must be finite")
        if not np.all(a > 0):
            raise ValueError("all a_k must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _eta_vector(model: CircleDriftModel, K: int, x: float) -> np.ndarray:
    """Coordinates of the evaluation element at x in the real basis."""
    eps = model.epsilon
    out = np.empty(2 * K + 1)
    out[0] = 1.0 / math.sqrt(eps)
    ks = np.arange(1, K + 1)
    scale = np.sqrt(2.0 / (ks.astype(float) ** 2 + eps))
    out[1::2] = np.cos(ks * x) * scale
    out[2::2] = np.sin(ks * x) * scale
    return out


def eta_kernel(model: CircleDriftModel, op, x: float, y: float, chi_points=(), chi_weights=()) -> float:
    """Damped kernel V_chi(x, y) at truncation K.

    ``op`` is ``circle_B_matrix(model, K)``; K is read from its dimension
    2K + 1.  chi is the finitely supported measure sum p_j delta_{u_j}; the
    damping operator is the rank-sum of the evaluation elements at the u_j.
    V_chi costs one dense (2K + 1)^2 solve; the plain reproducing kernel
    K(x, y) is ``_eta_vector`` at x dotted with the one at y and needs none.

    The value is eta_y^T (I - B_K + C)^{-1} eta_x, with C the damping
    operator: the transpose of the chain layer's G(x, y) = E_x[l^y].
    ``test_damped_kernel_matches_gaussian_pairing_on_truncation`` pins
    this orientation.
    """
    chi_points = list(chi_points)
    chi_weights = [float(p) for p in chi_weights]
    if len(chi_points) != len(chi_weights):
        raise ValueError("chi_points and chi_weights must have equal length")
    if not all(math.isfinite(p) and p >= 0 for p in chi_weights):
        raise ValueError("chi weights must be finite and nonnegative")
    if not all(math.isfinite(v) for v in (x, y, *chi_points)):
        raise ValueError("x, y and chi points must be finite")

    K = op.shape[0] // 2
    eta_x = _eta_vector(model, K, x)
    eta_y = _eta_vector(model, K, y)
    m = np.eye(op.shape[0]) - op
    for u, p in zip(chi_points, chi_weights):
        eta_u = _eta_vector(model, K, u)
        m = m + p * np.outer(eta_u, eta_u)
    return float(eta_y @ np.linalg.solve(m, eta_x))


def det2_suite(dim: int = 6, count: int = 100_000, seed: int = 0):
    """Determinant calculus and Gaussian identity battery at one dimension."""
    rng = rng_stream(seed, "det2-suite")
    t_gen = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    rows = [
        exact_report(
            "det2_vs_det_exp_trace",
            det2(t_gen) * math.exp(float(np.trace(t_gen))),
            float(np.linalg.det(np.eye(dim) + t_gen)),
            tol=1e-10,
            relative=True,
        )
    ]
    # a second operator, no longer read, is still drawn so that B, C, f1, f2
    # and the pinned Gaussian rows that read them do not move
    rng.standard_normal((dim, dim))

    b_op = random_skew(dim, rng)
    bbt = b_op @ b_op.T
    rows.append(
        exact_report(
            "det2_skew_vs_sqrt_gram",
            det2(b_op),
            math.exp(0.5 * float(np.linalg.slogdet(np.eye(dim) + bbt)[1])),  # det overflows before its root
            tol=1e-10,
            relative=True,
        )
    )

    c_op = random_symmetric_nonneg(dim, rng)
    f1 = rng.standard_normal(dim)
    f2 = rng.standard_normal(dim)
    rows.extend(gaussian_char_identities(c_op, b_op, f1, f2, count=count, seed=seed))
    return rows


def _coupling_square_sum(model: CircleDriftModel, K: int) -> float:
    """Squared Frobenius norm of the coupling in the exponential basis.

    sum over |k|, |l| <= K of (1/4)(k + l)^2 |bhat(k - l)|^2 / ((k^2 + eps)(l^2 + eps)).
    The change to the real basis is unitary, so ``circle_B_matrix`` must
    have the same Frobenius norm.
    """
    eps = model.epsilon
    l = np.arange(-K, K + 1).astype(float)
    total = 0.0
    for d, c in zip(model.ks, model.coeffs):
        k = l + d
        ok = np.abs(k) <= K
        total += float(np.sum(0.25 * (k[ok] + l[ok]) ** 2 * abs(c) ** 2 / ((k[ok] ** 2 + eps) * (l[ok] ** 2 + eps))))
    return total


def circle_suite(model: CircleDriftModel, K: int = 128):
    """Drift-coupling battery: operator norm, square sum, kernel.

    Builds the operator once and makes no dense solve.  The Frobenius row
    checks the real-basis build against its frequency-domain sum.  The
    kernel row checks the truncated reproducing kernel at (0.7, 1.9)
    against the untruncated closed form (pi/a) cosh(a(pi - |x - y|))/sinh(pi a),
    a = sqrt(eps), within the tail bound sum_{k > K} 2/k^2 < 2/K.
    """
    B = circle_B_matrix(model, K)
    B *= B  # squared in place: numpy's B ** 2 is this same product, in a second matrix
    rows = [
        exact_report(
            "circle_frobenius_vs_frequency_sum",
            float(np.sum(B)),
            _coupling_square_sum(model, K),
            tol=1e-10,
            relative=True,
        ),
        info_report("circle_hs_partial_sum", hs_partial_sum(model, K)),
    ]
    x, y = 0.7, 1.9
    a = math.sqrt(model.epsilon)
    t = abs(x - y)
    # cosh(a(pi - t))/sinh(pi a), written so that a large a cannot overflow
    closed = math.pi / a * (math.exp(-a * t) + math.exp(-a * (2.0 * math.pi - t)))
    closed /= -math.expm1(-2.0 * math.pi * a)
    truncated = float(_eta_vector(model, K, x) @ _eta_vector(model, K, y))
    rows.append(exact_report("circle_kernel_vs_closed_form", truncated, closed, tol=2.0 / K))
    return rows


def levy_suite(model: LevyModel):
    """Square sum of the symbol ratios (b_k / a_k)^2 over k = 1..K, as an info row.

    A finite list of terms always has a finite sum, so the row gives no
    verdict on convergence.  The terms are added in order, first to last.
    """
    return [info_report("levy_partial_sum", float(np.cumsum((model.b / model.a) ** 2)[-1]))]
