"""Twisted complex Gaussian measure of a dual chain: exact calculus and sampling.

Conventions, fixed once and pinned by oracle tests: the symmetric base
measure has density proportional to ``exp(<A z, z̄>_m)`` so that
``E[z_x z̄_y] = ((-M_m A)^{-1})_{xy}``; the twist is the unit-modulus weight
``exp(<(L - A) z, z̄>_m)`` whose exponent is purely imaginary; the squared
field is ``rho_u = z_u z̄_u``.  With this normalisation the chi-damped field
correlation under the twisted measure equals the Green density
``G_chi(x, y) = ((-L + M_chi)^{-1})_{xy} / m_y`` exactly, the Laplace
transform of the squared-field law in the m-weighted pairing is
``Phi(s) = det(-L) / det(-L + M_s)``, whose log-derivative in s_u is
``-m_u G_s(u, u)``, and the k-point moments are permanents of ``G_0`` on
the chosen points.  det(-L + M_s) is multilinear in s with the principal
minors of -L as coefficients, so Phi on the monotonicity sweep's grid and
its exact Taylor coefficients at 0, the moments' second route, both come
from those minors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, factorial

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
    "permanent",
    "q_moment",
    "q_moment_oracle",
    "sample_twisted_batch",
]

# Rows per sampler block.  Count is cut into near-equal spans, never full
# blocks plus a remainder: a 1-row block goes through gemv and OpenBLAS's
# small-matrix kernel (up to 18 rows at n = 64) both round differently from
# the one-shot dgemm, while spans above 512 rows give its bits exactly.
SAMPLE_BLOCK = 1024

# Bytes of the one buffer in which `mgf` builds its k matrices -L + M_s, so
# memory does not grow as k n^2 (`mgf_suite` fills one buffer up to n = 101).
STACK_BYTES = 8 << 20


def _chi_vector(chi, n: int, max_ndim: int = 1) -> np.ndarray:
    """``chi`` as a float vector of length n (zeros for None), or also a (k, n) stack of them if ``max_ndim`` is 2."""
    if chi is None:
        return np.zeros(n)
    v = np.asarray(chi, dtype=float)
    if v.shape != (n,) and (v.ndim != max_ndim or v.shape[-1] != n):
        raise ValueError(f"chi must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v) & (v >= 0)):  # false for NaN
        raise ValueError("chi must be finite and nonnegative")
    return v


def green(dp: DualPair, chi=None) -> np.ndarray:
    """Damped Green density G_chi(x, y) = ((-L + M_chi)^{-1})_{xy} / m_y."""
    try:
        res = np.linalg.solve(-dp.L + np.diag(_chi_vector(chi, dp.n)), np.eye(dp.n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"damped resolvent is singular: {exc}") from exc
    return res / dp.m[None, :]


def mgf(dp: DualPair, s):
    """Laplace transform Phi(s) = det(-L) / det(-L + M_s) for s >= 0.

    ``s`` is one point (None for 0), which gives a float, or a (k, n) stack
    of points, which gives an array of k values.  det(-L) is factored once
    per call; the matrices -L + M_s are built a buffer-full at a time and
    factored by one batched `slogdet` each, which factors every matrix on
    its own, so a value does not depend on the stack it came in.
    """
    v = _chi_vector(s, dp.n, max_ndim=2)
    stack = v.reshape(-1, dp.n)
    s0, l0 = np.linalg.slogdet(-dp.L)
    rows = max(1, STACK_BYTES // (8 * dp.n * dp.n))
    block = np.empty((min(rows, len(stack)), dp.n, dp.n))
    base = -dp.L + 0.0  # + 0.0 gives the positive zeros of -L + diag(s), where -L has negative ones
    signs, logdets = np.empty(len(stack)), np.empty(len(stack))
    for lo in range(0, len(stack), rows):
        part = block[: len(stack) - lo]
        part[:] = base
        part.reshape(len(part), -1)[:, :: dp.n + 1] += stack[lo : lo + rows]
        signs[lo : lo + rows], logdets[lo : lo + rows] = np.linalg.slogdet(part)
    if s0 <= 0 or (signs <= 0).any():
        raise NumericalError("determinant lost positivity while evaluating Phi")
    phi = np.exp(l0 - logdets)
    return phi if v.ndim == 2 else float(phi[0])


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
    for a in (skew_form, half_factor):
        a.setflags(write=False)
    return TwistedModel(dp=dp, skew_form=skew_form, half_factor=half_factor)


def sample_twisted_batch(tm: TwistedModel, count: int, seed: int):
    """``count`` complex field draws and their twist weights, as arrays.

    The field is Gaussian with E[z_x z̄_y] = (-M_m A)^{-1}; the weight is
    ``exp(i * 2 Re(z)^T skew_form Im(z))``, unit modulus by construction.
    Deterministic given (seed, count).  All normals of Re(z) are drawn
    before those of Im(z), from one stream, in row spans of at most
    `SAMPLE_BLOCK` rows.  The only (count, n) array is the returned complex
    z; the rest of the peak is three (`SAMPLE_BLOCK`, n) float buffers and
    per-row vectors: the phase, and the complex weights made from it.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = rng_stream(seed, "twisted-field")
    blocks = -(-count // SAMPLE_BLOCK)
    cuts = [count * i // blocks for i in range(blocks + 1)]
    spans = list(zip(cuts[:-1], cuts[1:]))
    normals, field, re = (np.empty((min(count, SAMPLE_BLOCK), tm.dp.n)) for _ in range(3))
    z = np.empty((count, tm.dp.n), dtype=complex)
    phase = np.empty(count)
    for lo, hi in spans:
        rows = hi - lo
        rng.standard_normal(out=normals[:rows])
        np.matmul(normals[:rows], tm.half_factor.T, out=field[:rows])
        z.real[lo:hi] = field[:rows]
    for lo, hi in spans:
        rows = hi - lo
        rng.standard_normal(out=normals[:rows])
        np.matmul(normals[:rows], tm.half_factor.T, out=field[:rows])
        z.imag[lo:hi] = field[:rows]
        re[:rows] = z.real[lo:hi]
        np.matmul(re[:rows], tm.skew_form, out=normals[:rows])
        normals[:rows] *= field[:rows]
        normals[:rows].sum(axis=1, out=phase[lo:hi])
    return z, np.exp(2j * phase)


def _subsets(k: int) -> np.ndarray:
    """The (2^k, k) membership mask of the subsets of k items: row i holds the bits of i."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1


def permanent(mat) -> float:
    """Permanent by Ryser: the sum over column sets S of (-1)^{k - |S|} prod_i (row S of `_subsets` @ A^T)_i."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    k = a.shape[0]
    if k > 14:
        raise ValueError("permanent limited to 14x14; Ryser is O(2^k k^2)")
    mask = _subsets(k)
    sign = np.where((k - mask.sum(axis=1)) % 2, -1.0, 1.0)
    return float(sign @ np.prod(mask @ a.T, axis=1))


def _points(dp: DualPair, points) -> list[int]:
    pts = [dp.state_index(p) for p in points]
    if not 1 <= len(pts) <= 8:
        raise ValueError("between 1 and 8 points")
    return pts


def q_moment(dp: DualPair, points) -> float:
    """Permanental k-point moment candidate: per(G_0 on the chosen points).

    Repetitions allowed.  The formula is pinned against `q_moment_oracle`,
    the Taylor coefficient of the Laplace transform computed from principal
    minors of -L, never trusted on its own.
    """
    pts = _points(dp, points)
    g0 = green(dp)
    return permanent(g0[np.ix_(pts, pts)])


def _principal_minors(dp: DualPair, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every subset S of ``states`` and the minor det((-L) off S) of each, over det(-L).

    Returns the `_subsets` mask of ``states`` (bit j set when S holds
    ``states[j]``), and the sign and log modulus (`slogdet`, so in range at
    any size of -L) of each relative minor in the same order; the first is 1.
    """
    states = np.asarray(states)
    member = _subsets(states.size)
    keep = np.ones((member.shape[0], dp.n), dtype=bool)
    keep[:, states] = ~member
    signs, logs = np.array([np.linalg.slogdet(-dp.L[np.ix_(u, u)]) for u in keep]).T
    return member, signs * signs[0], logs - logs[0]


def q_moment_oracle(dp: DualPair, points) -> float:
    """Independent moment value: the Taylor coefficient of Phi at 0, exactly.

    E[rho_{x1} .. rho_{xk}] = (-1)^k (prod 1/m_{xi}) d^k Phi / d s_{x1}..d s_{xk}
    at 0; the m factors come from the m-weighted pairing in Phi.  On the
    active states A, det(-L + M_s) = sum over S of s^S det((-L) off S), so
    Phi (1 + sum_{S != {}} r_S s^S) = 1 with r_S the minor off S over
    det(-L), and the coefficients of Phi on the box c' <= c follow from
    Phi[c'] = -sum over nonempty S in supp c' of r_S Phi[c' - 1_S].
    With each r_S divided by prod_{u in S} m_u in its exponent, they are
    coefficients in m_u s_u and stay in float range where a power of a tiny
    m or a minor of a large -L does not.  2^|A| determinants at any n.
    """
    pts = _points(dp, points)
    active, counts = np.unique(pts, return_counts=True)
    member, signs, logs = _principal_minors(dp, active)
    steps = member[1:].astype(int)
    ratio = signs[1:] * np.exp(logs[1:] - steps @ np.log(dp.m[active]))
    coef = np.zeros(counts + 1)
    coef.flat[0] = 1.0
    for c in itertools.islice(np.ndindex(coef.shape), 1, None):
        fits = (steps <= c).all(axis=1)
        coef[c] = -ratio[fits] @ coef[tuple((np.array(c) - steps[fits]).T)]
    c_fact = np.prod([factorial(j) for j in counts])
    return float((-1.0) ** len(pts) * c_fact * coef[tuple(counts)])


# the sweep evaluates Phi at 3^n grid points, each shifted C(n + 4, 4) ways
CM_MAX_STATES = 6


@dataclass(frozen=True)
class CMReport:
    """Sign-pattern sweep of forward differences of Phi and its roots.

    ``violations`` counts the (root, direction multiset, grid point) checks
    whose signed difference fell below the slack or is NaN.
    """

    checks: int
    violations: int
    min_signed_value: float


def cm_grid(n: int) -> np.ndarray:
    """The sweep's tensor grid {0, 1, 2}^n, for at most ``CM_MAX_STATES`` states."""
    if n > CM_MAX_STATES:
        raise ValueError(f"the monotonicity sweep takes at most {CM_MAX_STATES} states; got {n}")
    return np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=n)))


def _cm_phi(dp: DualPair, grid: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Phi at each point of ``grid`` plus each row of ``shifts``: (len(grid), len(shifts)).

    1 / Phi(s) = det(-L + M_s) / det(-L) is the sum over sets S of
    prod_{i in S} s_i times the minor of -L off S over det(-L).  With
    s = g + d, every 1 / Phi is an entry of ``gmon @ W @ dmon.T``: the
    monomials prod_{i in U} g_i and prod_{i in T} d_i, and W[U, T] the
    relative minor off U ∪ T for disjoint U and T, else 0.
    """
    member, signs, logs = _principal_minors(dp, np.arange(dp.n))
    minors = signs * np.exp(logs)
    sets = np.arange(1 << dp.n)
    W = np.where(sets[:, None] & sets, 0.0, minors[sets[:, None] | sets])
    gmon, dmon = (
        functools.reduce(np.multiply, (np.where(member[:, j], p[:, j, None], 1.0) for j in range(dp.n)))
        for p in (grid, shifts)
    )
    phi = 1.0 / (gmon @ W @ dmon.T)
    if np.any(phi <= 0):
        raise NumericalError("Phi lost positivity on the difference grid")
    return phi


def _cm_differences(n: int):
    """Count vectors c of sum <= 4, zero first, and the (len - 1, len) matrix E.

    Row c - 1 of E holds (-1)^{|sub|} prod_i C(c_i, sub_i) at every sub <= c,
    so ``values @ E.T`` is (-1)^{|c|} times the forward difference along c.
    """
    counts = np.indices((5,) * n).reshape(n, -1).T
    counts = counts[counts.sum(axis=1) <= 4]
    binom = np.array([[comb(a, b) for b in range(5)] for a in range(5)], dtype=float)
    terms = functools.reduce(np.multiply, (binom[counts[1:, i, None], counts[:, i]] for i in range(n)))
    return counts, (-1.0) ** counts.sum(axis=1) * terms


def complete_monotonicity_check(dp: DualPair) -> CMReport:
    """Check that mixed forward differences of Phi alternate in sign.

    For Phi, Phi^{1/2} and Phi^{1/3} and every direction multiset of size
    k <= 4, the forward difference at step h = 1e-2 at every point of
    `cm_grid` must carry sign (-1)^k up to a slack of -1e-12.  Violations
    are counted, not raised.  Phi is `_cm_phi`'s principal-minor expansion:
    -L of a killed chain is a nonsingular M-matrix, so its principal minors
    are positive and the expansion sums positive terms only.  One binomial
    matrix (`_cm_differences`) takes every signed difference.  `cm_grid`
    refuses a chain beyond ``CM_MAX_STATES`` before anything that grows
    with n is built.
    """
    grid = cm_grid(dp.n)
    counts, diff = _cm_differences(dp.n)
    phi = _cm_phi(dp, grid, 1e-2 * counts)
    violations, lows = 0, []
    for e in (1.0, 1.0 / 2.0, 1.0 / 3.0):
        # one root's differences at a time, and Phi itself as it is: phi**1.0 is a copy
        signed = (phi if e == 1.0 else phi**e) @ diff.T
        violations += int(np.count_nonzero(~(signed >= -1e-12)))  # a NaN is not >=, so it counts
        lows.append(signed.min())
    return CMReport(checks=3 * signed.size, violations=violations, min_signed_value=float(np.min(lows)))
