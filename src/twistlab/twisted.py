"""Twisted complex Gaussian measure of a dual chain: exact calculus and sampling.

Conventions, fixed once and pinned by oracle tests: the symmetric base
measure has density proportional to ``exp(<A z, z̄>_m)`` so that
``E[z_x z̄_y] = ((-M_m A)^{-1})_{xy}``; the twist is the unit-modulus weight
``exp(<(L - A) z, z̄>_m)`` whose exponent is purely imaginary; the squared
field is ``rho_u = z_u z̄_u``.  With this normalisation the chi-damped field
correlation under the twisted measure equals the Green density
``G_chi(x, y) = ((-L + M_chi)^{-1})_{xy} / m_y`` exactly, the Laplace
transform of the squared-field law in the m-weighted pairing is
``Phi(s) = det(-L) / det(-L + M_s)``, and the k-point moments are
permanents of ``G_0`` on the chosen points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .chain import DualPair, NumericalError
from .seeding import rng_stream

__all__ = [
    "CMReport",
    "CM_MAX_STATES",
    "TwistedModel",
    "build_twisted",
    "cm_grid",
    "complete_monotonicity_check",
    "green",
    "mgf",
    "mgf_mixed_derivative",
    "partition",
    "permanent",
    "q_moment",
    "q_moment_oracle",
    "resolvent_trace_residual",
    "sample_twisted_batch",
]


def _chi_vector(chi, n: int) -> np.ndarray:
    if chi is None:
        return np.zeros(n)
    v = np.asarray(chi, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"chi must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v) & (v >= 0)):  # false for NaN
        raise ValueError("chi must be finite and nonnegative")
    return v


def partition(dp: DualPair, chi=None) -> float:
    """det(M_m (-L) + M_{chi m})^{-1}, by LU factorisation (slogdet)."""
    chiv = _chi_vector(chi, dp.n)
    mat = dp.m[:, None] * (-dp.L) + np.diag(chiv * dp.m)
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise NumericalError("twisted partition matrix is singular or negative")
    return float(np.exp(-logdet))


def green(dp: DualPair, chi=None) -> np.ndarray:
    """Damped Green density G_chi(x, y) = ((-L + M_chi)^{-1})_{xy} / m_y."""
    chiv = _chi_vector(chi, dp.n)
    try:
        res = np.linalg.solve(-dp.L + np.diag(chiv), np.eye(dp.n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"damped resolvent is singular: {exc}") from exc
    return res / dp.m[None, :]


def mgf(dp: DualPair, s) -> float:
    """Laplace transform Phi(s) = det(-L) / det(-L + M_s) for s >= 0."""
    sv = _chi_vector(s, dp.n)
    return _phi_any(dp, sv)


def _phi_any(dp: DualPair, s: np.ndarray) -> float:
    # same ratio without the sign restriction on s; used by the difference
    # oracles which need small negative excursions
    s0, l0 = np.linalg.slogdet(-dp.L)
    s1, l1 = np.linalg.slogdet(-dp.L + np.diag(s))
    if s0 <= 0 or s1 <= 0:
        raise NumericalError("determinant lost positivity while evaluating Phi")
    return float(np.exp(l0 - l1))


@dataclass(frozen=True)
class TwistedModel:
    """Base covariance factor and unit-modulus twist of the complex field measure.

    ``skew_form = M_m (L - A)`` is real antisymmetric, so the twist exponent
    ``<(L - A) z, z̄>_m`` is purely imaginary for every complex z.
    ``half_factor`` F satisfies ``F F^T = (-M_m A)^{-1} / 2``, half the field
    covariance E[z_x z̄_y] under the symmetric base measure, and maps i.i.d.
    normals to the real and imaginary parts of the field.
    """

    dp: DualPair
    skew_form: np.ndarray
    half_factor: np.ndarray


def build_twisted(dp: DualPair) -> TwistedModel:
    s_mat = dp.m[:, None] * (-dp.A)
    s_mat = (s_mat + s_mat.T) / 2.0
    try:
        base_cov = np.linalg.solve(s_mat, np.eye(dp.n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric part is singular: {exc}") from exc
    base_cov = (base_cov + base_cov.T) / 2.0
    try:
        half_factor = np.linalg.cholesky(base_cov / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("base covariance is not positive definite") from exc
    skew_form = dp.m[:, None] * dp.skew
    asym = float(np.abs(skew_form + skew_form.T).max())
    if asym > 1e-10 * max(1.0, float(np.abs(skew_form).max())):
        raise NumericalError(f"skew form asymmetry {asym:.3e}")
    for a in (skew_form, half_factor):
        a.setflags(write=False)
    return TwistedModel(dp=dp, skew_form=skew_form, half_factor=half_factor)


def sample_twisted_batch(tm: TwistedModel, count: int, seed: int):
    """``count`` complex field draws and their twist weights, as arrays.

    The field is Gaussian with E[z_x z̄_y] = (-M_m A)^{-1}; the weight is
    ``exp(i * 2 Re(z)^T skew_form Im(z))``, unit modulus by construction.
    Deterministic given (seed, count).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = rng_stream(seed, "twisted-field")
    xi = rng.standard_normal((2, count, tm.dp.n))
    re = xi[0] @ tm.half_factor.T
    im = xi[1] @ tm.half_factor.T
    phase = 2.0 * ((re @ tm.skew_form) * im).sum(axis=1)
    return re + 1j * im, np.exp(1j * phase)


def permanent(mat) -> float:
    """Permanent of a square matrix, Ryser's formula with Gray-code updates."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    k = a.shape[0]
    if k == 0:
        return 1.0
    if k > 14:
        raise ValueError("permanent limited to 14x14; Ryser is O(2^k k)")
    row = np.zeros(k)
    total = 0.0
    prev = 0
    for i in range(1, 1 << k):
        gray = i ^ (i >> 1)
        j = (gray ^ prev).bit_length() - 1
        if gray & (1 << j):
            row += a[:, j]
        else:
            row -= a[:, j]
        prev = gray
        if gray.bit_count() % 2:
            total -= row.prod()
        else:
            total += row.prod()
    if k % 2:
        total = -total
    return float(total)


def q_moment(dp: DualPair, points) -> float:
    """Permanental k-point moment candidate: per(G_0 on the chosen points).

    Repetitions allowed.  The formula is pinned against
    `q_moment_oracle` (derivatives of the Laplace transform), never
    trusted on its own.
    """
    pts = [int(p) for p in points]
    if not 1 <= len(pts) <= 8:
        raise ValueError("between 1 and 8 points")
    g0 = green(dp)
    return permanent(g0[np.ix_(pts, pts)])


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def mgf_mixed_derivative(dp: DualPair, counts) -> float:
    """Mixed partial derivative of Phi at 0 by central product stencils.

    ``counts[x]`` is the derivative order in coordinate x (at most 3 per
    coordinate).  Steps h = 0.01, h/2 and h/4 feed two Richardson
    extrapolation levels, which remove the leading even-order errors and
    leave O(h^6).
    """
    counts = np.asarray(counts, dtype=int)
    if counts.shape != (dp.n,):
        raise ValueError("counts must have one entry per state")
    if counts.max() > 3:
        raise ValueError("difference stencils support orders up to 3 per coordinate")
    active = np.flatnonzero(counts)
    order = int(counts.sum())
    if order == 0:
        return mgf(dp, np.zeros(dp.n))

    def estimate(step: float) -> float:
        total = 0.0
        for combo in itertools.product(*[_STENCILS[counts[a]] for a in active]):
            s = np.zeros(dp.n)
            coeff = 1.0
            for a, (offset, weight) in zip(active, combo):
                s[a] = offset * step
                coeff *= weight
            total += coeff * _phi_any(dp, s)
        return total / step**order

    table = [estimate(0.01 / 2**j) for j in range(3)]
    for level in (1, 2):
        factor = 4.0**level
        table = [
            (factor * table[j + 1] - table[j]) / (factor - 1.0)
            for j in range(len(table) - 1)
        ]
    return table[0]


def q_moment_oracle(dp: DualPair, points) -> float:
    """Independent moment value from finite differences of Phi at step 0.01.

    E[rho_{x1} .. rho_{xk}] = (-1)^k (prod 1/m_{xi}) d^k Phi / d s_{x1}..d s_{xk}
    at 0; the m factors come from the m-weighted pairing in Phi.
    """
    pts = [int(p) for p in points]
    counts = np.bincount(pts, minlength=dp.n)
    d = mgf_mixed_derivative(dp, counts)
    sign = (-1.0) ** len(pts)
    return float(sign * d / np.prod(dp.m[pts]))


def resolvent_trace_residual(dp: DualPair, s, u: int) -> float:
    """|d/dt log det(I + R M_{t e_u}) at 0 - Tr(R M_{e_u})| for R = (-L + M_s)^{-1}.

    Central differences at step h = 1e-3 with one Richardson step; checks
    the first-order term of the log-determinant expansion against the trace.
    """
    h = 1e-3
    sv = _chi_vector(s, dp.n)
    r_mat = np.linalg.solve(-dp.L + np.diag(sv), np.eye(dp.n))
    e_u = np.zeros(dp.n)
    e_u[u] = 1.0

    def logdet(t: float) -> float:
        sign, val = np.linalg.slogdet(np.eye(dp.n) + r_mat @ np.diag(t * e_u))
        if sign <= 0:
            raise NumericalError("perturbed determinant lost positivity")
        return val

    d1 = (logdet(h) - logdet(-h)) / (2 * h)
    d2 = (logdet(h / 2) - logdet(-h / 2)) / h
    deriv = (4.0 * d2 - d1) / 3.0
    return float(abs(deriv - r_mat[u, u]))


# the sweep evaluates Phi at 3^n grid points, each shifted C(n + 4, 4) ways
CM_MAX_STATES = 6


@dataclass(frozen=True)
class CMReport:
    """Sign-pattern sweep of forward differences of Phi and its roots.

    ``violations`` counts the (root, direction multiset, grid point) checks
    whose signed difference fell below the slack.
    """

    checks: int
    violations: int
    min_signed_value: float


def cm_grid(n: int) -> np.ndarray:
    """The sweep's tensor grid {0, 1, 2}^n, for at most ``CM_MAX_STATES`` states."""
    if n > CM_MAX_STATES:
        raise ValueError(f"the monotonicity sweep takes at most {CM_MAX_STATES} states; got {n}")
    return np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=n)))


def complete_monotonicity_check(dp: DualPair) -> CMReport:
    """Check that mixed forward differences of Phi alternate in sign.

    For Phi, Phi^{1/2} and Phi^{1/3} and every direction multiset of size
    k <= 4, the forward difference at step h = 1e-2 at every point of
    `cm_grid` must carry sign (-1)^k up to a slack of -1e-12.  Violations
    are counted, not raised.
    """
    h, slack, max_order = 1e-2, 1e-12, 4
    n = dp.n
    grid = cm_grid(n)
    count_vecs = [
        c for c in itertools.product(range(max_order + 1), repeat=n) if sum(c) <= max_order
    ]
    index = {c: i for i, c in enumerate(count_vecs)}
    pts = grid[:, None, :] + h * np.array(count_vecs, dtype=float)[None, :, :]
    flat = pts.reshape(-1, n)

    mats = np.broadcast_to(-dp.L, (flat.shape[0], n, n)).copy()
    idx = np.arange(n)
    mats[:, idx, idx] += flat
    dets = np.linalg.det(mats)
    det0 = np.linalg.det(-dp.L)
    phi = det0 / dets
    if np.any(phi <= 0):
        raise NumericalError("Phi lost positivity on the difference grid")
    phi = phi.reshape(grid.shape[0], len(count_vecs))

    violations = 0
    checks = 0
    min_signed = np.inf
    for expo in (1.0, 1.0 / 2.0, 1.0 / 3.0):
        values = phi**expo
        for order in range(1, max_order + 1):
            for multiset in itertools.combinations_with_replacement(range(n), order):
                counts = np.bincount(multiset, minlength=n)
                diff = np.zeros(grid.shape[0])
                for sub in itertools.product(*[range(c + 1) for c in counts]):
                    coeff = (-1.0) ** (order - sum(sub))
                    for total, taken in zip(counts, sub):
                        coeff *= comb(total, taken)
                    diff += coeff * values[:, index[tuple(sub)]]
                signed = ((-1.0) ** order) * diff
                checks += grid.shape[0]
                violations += int(np.count_nonzero(signed < -slack))
                min_signed = min(min_signed, float(signed.min()))
    return CMReport(checks=checks, violations=violations, min_signed_value=float(min_signed))
