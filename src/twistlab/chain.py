"""Finite killed Markov chains in duality.

A chain on states ``{0, .., n-1}`` is given by positive jump rates ``q``, a
strictly substochastic jump matrix ``pi`` and an initial law ``mu``.  The
generator is ``L = M_q (pi - I)``, so ``-L`` is a nonsingular M-matrix, the
potential ``V = (-L)^{-1}`` is entrywise nonnegative, and ``m = mu V`` is a
strictly positive reference measure.  The m-adjoint generator, the
symmetric/skew split of ``L``, the energy form Re<-L z, z̄>_m and its
spectral mass gap (from the symmetric part), and the trace (Schur
complement) of the chain on a subset of states are all computed densely:
everything here is desk scale, O(n^3) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainError",
    "ChainSpec",
    "DualPair",
    "NumericalError",
    "build_dual",
    "dual_pair_from_generator",
    "energy_quadratic",
    "mass_gap",
    "nchain",
    "random_chain",
    "trace_chain",
]

POTENTIAL_TOL = 1e-10


class ChainError(ValueError):
    """Structurally invalid chain data (rates, jump matrix, initial law)."""


class NumericalError(RuntimeError):
    """Numerical failure: singular matrix or lost positivity."""


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(**arrays):
    for label, a in arrays.items():
        if not np.isfinite(a).all():  # false for NaN as well as for inf
            raise ChainError(f"{label} has a non-finite entry")


def _reaches_killing(pi: np.ndarray) -> np.ndarray:
    """Which states can reach a state with a jump-probability deficit."""
    deficit = pi.sum(axis=1) < 1.0 - 1e-12
    support = pi > 0.0
    reach = deficit.copy()
    for _ in range(pi.shape[0]):
        grown = reach | (support @ reach)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return reach


def _radius_below(pi: np.ndarray, c: float) -> bool:
    """Whether the nonnegative matrix ``pi`` has spectral radius below ``c``."""
    a = c * np.eye(pi.shape[0]) - pi
    try:
        x = np.linalg.solve(a, np.ones(pi.shape[0]))
    except np.linalg.LinAlgError:  # c is an eigenvalue of pi
        return False
    return bool(np.all(x > 0) and np.all(a @ x > 0))


@dataclass(frozen=True)
class ChainSpec:
    """Killed-chain data: rates ``q``, jump matrix ``pi``, initial law ``mu``.

    Validated at construction: finite entries, q > 0, pi entrywise in
    [0, 1] with row sums at most 1, mu a probability vector, every state
    able to reach a killing state, and spectral radius of pi below
    c = 1 - 1e-12.  Arrays are frozen read-only.

    The radius test is one LAPACK solve of (c I - pi) x = 1.  As pi >= 0,
    c I - pi is a Z-matrix; it is a nonsingular M-matrix, which here means
    rho(pi) < c, exactly when some x > 0 has (c I - pi) x > 0, and the
    solve's x is that witness when one exists.  Only a refused pi pays for
    the eigenvalues its message quotes.
    """

    q: np.ndarray
    pi: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        q = _readonly(self.q)
        pi = _readonly(self.pi)
        mu = _readonly(self.mu)
        if q.ndim != 1 or q.size == 0:
            raise ChainError("q must be a nonempty vector of rates")
        n = q.size
        if pi.shape != (n, n):
            raise ChainError(f"pi must be {n}x{n}, got {pi.shape}")
        if mu.shape != (n,):
            raise ChainError(f"mu must have length {n}, got {mu.shape}")
        _require_finite(q=q, pi=pi, mu=mu)
        if not np.all(q > 0):
            raise ChainError("all jump rates q must be positive")
        if np.any(pi < 0) or np.any(pi > 1):
            raise ChainError("pi entries must lie in [0, 1]")
        rows = pi.sum(axis=1)
        if np.any(rows > 1 + 1e-12):
            bad = int(np.argmax(rows))
            raise ChainError(f"row {bad} of pi sums to {rows[bad]:.6g} > 1")
        if np.any(mu < 0):
            raise ChainError("mu must be nonnegative")
        if abs(mu.sum() - 1.0) > 1e-9:
            raise ChainError(f"mu must sum to 1, got {mu.sum():.12g}")
        reach = _reaches_killing(pi)
        if not reach.all():
            stuck = np.flatnonzero(~reach).tolist()
            raise ChainError(
                f"states {stuck} cannot reach any killing state; lifetime would be infinite"
            )
        if not _radius_below(pi, 1 - 1e-12):
            radius = float(np.max(np.abs(np.linalg.eigvals(pi))))
            raise ChainError(f"spectral radius of pi is {radius:.12g}; must be < 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class DualPair:
    """Generator, m-dual, potential and reference measure of a killed chain.

    ``q`` and ``pi`` are the minimal jump representation derived from ``L``
    (zero-diagonal jump matrix), used by the path sampler.
    Instances come from `build_dual`, `dual_pair_from_generator` or
    `trace_chain`; all fields are read-only and safe to share across
    threads.
    """

    L: np.ndarray
    L_hat: np.ndarray
    m: np.ndarray
    A: np.ndarray
    skew: np.ndarray
    V: np.ndarray
    mu_hat: np.ndarray
    q: np.ndarray
    pi: np.ndarray

    @property
    def n(self) -> int:
        return self.m.size

    def state_index(self, p) -> int:
        """``p`` as a state: a Python or numpy integer, not a bool, in 0..n-1, else `ValueError`."""
        if not (isinstance(p, (int, np.integer)) and not isinstance(p, bool) and 0 <= p < self.n):
            raise ValueError(f"states out of range: {p!r} is not an integer in 0..{self.n - 1}")
        return int(p)

    @property
    def mu(self) -> np.ndarray:
        """Initial law reproducing m = mu V.

        For a traced chain this is the hitting measure of the kept states
        and may be a sub-probability (mass killed before first arrival).
        """
        return np.maximum(self.m @ (-self.L), 0.0)


def dual_pair_from_generator(L, m) -> DualPair:
    """Assemble a `DualPair` from a generator matrix and a positive measure.

    Requires finite entries, checks the M-matrix structure of ``-L``,
    inverts it for the potential, verifies the residual, and requires
    ``m (-L) >= 0`` so that ``m`` is ``mu V`` for a nonnegative initial law.
    """
    L = np.array(L, dtype=float)
    m = np.array(m, dtype=float)
    n = m.size
    if L.shape != (n, n):
        raise ChainError(f"generator must be {n}x{n}, got {L.shape}")
    _require_finite(L=L, m=m)
    if np.any(m <= 0):
        raise ChainError("reference measure must be strictly positive")
    scale = max(1.0, float(np.abs(L).max()))
    off = L - np.diag(np.diag(L))
    if off.min() < -1e-10 * scale:
        raise ChainError("generator must have nonnegative off-diagonal entries")
    qv = -np.diag(L)
    if np.any(qv <= 0):
        raise ChainError("generator diagonal must be strictly negative")
    try:
        V = np.linalg.solve(-L, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generator is singular: {exc}") from exc
    resid = float(np.abs(V @ (-L) - np.eye(n)).max())
    if resid > POTENTIAL_TOL:
        raise NumericalError(f"potential residual {resid:.3e} exceeds {POTENTIAL_TOL}")
    mu_row = m @ (-L)
    if mu_row.min() < -1e-9 * max(1.0, float(np.abs(mu_row).max())):
        raise ChainError("m is not mu V for any nonnegative mu")
    L_hat = (L.T * m[None, :]) / m[:, None]
    A = (L + L_hat) / 2.0
    skew = (L - L_hat) / 2.0
    mu_hat = np.maximum(m * ((-L) @ np.ones(n)), 0.0)
    pi = L / qv[:, None] + np.eye(n)
    np.fill_diagonal(pi, 0.0)
    pi = np.clip(pi, 0.0, None)
    return DualPair(
        L=_readonly(L),
        L_hat=_readonly(L_hat),
        m=_readonly(m),
        A=_readonly(A),
        skew=_readonly(skew),
        V=_readonly(V),
        mu_hat=_readonly(mu_hat),
        q=_readonly(qv),
        pi=_readonly(pi),
    )


def build_dual(spec: ChainSpec) -> DualPair:
    """Generator, potential, reference measure and m-dual for a chain spec."""
    n = spec.n
    L = spec.q[:, None] * (spec.pi - np.eye(n))
    V = np.linalg.solve(-L, np.eye(n))
    m = spec.mu @ V
    if np.any(m <= 0):
        dead = np.flatnonzero(m <= 0).tolist()
        raise ChainError(
            f"reference measure vanishes at states {dead}; unreachable from supp(mu)"
        )
    return dual_pair_from_generator(L, m)


def mass_gap(dp: DualPair) -> float:
    """Spectral mass gap: the least eigenvalue of the m-symmetrised ``-A``.

    It is the best constant in Re<-L z, z̄>_m >= gap * <z, z̄>_m, and it is
    positive for every killed chain; a gap that is not raises.
    """
    s = np.sqrt(dp.m)
    sym = (-dp.A) * s[:, None] / s[None, :]
    sym = (sym + sym.T) / 2.0
    gap = float(np.linalg.eigvalsh(sym)[0])
    if gap <= 0:
        raise NumericalError(
            f"mass gap {gap:.3e} is not positive; strict submarkovianity is violated"
        )
    return gap


def energy_quadratic(dp: DualPair, z: np.ndarray) -> np.ndarray:
    """Re <-L z, z̄>_m for a batch of complex vectors shaped (..., n)."""
    w = z @ (-dp.L).T
    return np.real(np.einsum("...i,...i,i->...", w, np.conj(z), dp.m))


def trace_chain(dp: DualPair, keep) -> DualPair:
    """The chain watched only on the states in ``keep`` (Schur complement).

    The traced generator is ``L_YY - L_YC L_CC^{-1} L_CY``; its potential is
    exactly ``V`` restricted to ``keep x keep`` and the reference measure
    restricts as is.  The implied initial law absorbs any mass killed before
    first reaching ``keep`` and may be a sub-probability.
    """
    keep = list(keep)
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in keep):
        raise ChainError(f"keep must hold integer state indices, got {keep!r}")
    keep = np.asarray(sorted(set(keep)), dtype=int)
    if keep.size == 0:
        raise ChainError("keep must be a nonempty set of states")
    if keep.min() < 0 or keep.max() >= dp.n:
        raise ChainError("keep contains out-of-range state indices")
    if keep.size == dp.n:
        return dp
    out = np.setdiff1d(np.arange(dp.n), keep)
    L = dp.L
    lcc = L[np.ix_(out, out)]
    try:
        feedback = np.linalg.solve(lcc, L[np.ix_(out, keep)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interior block of the generator is singular: {exc}") from exc
    traced = L[np.ix_(keep, keep)] - L[np.ix_(keep, out)] @ feedback
    return dual_pair_from_generator(traced, dp.m[keep])


def nchain(n: int) -> ChainSpec:
    """Unit-rate march 0 -> 1 -> ... -> n-1 -> killed, started at state 0."""
    if n < 1:
        raise ChainError("n must be at least 1")
    pi = np.zeros((n, n))
    for i in range(n - 1):
        pi[i, i + 1] = 1.0
    mu = np.zeros(n)
    mu[0] = 1.0
    return ChainSpec(q=np.ones(n), pi=pi, mu=mu)


def random_chain(
    n: int,
    rng: np.random.Generator,
) -> ChainSpec:
    """Random strictly substochastic chain with everywhere-positive jumps.

    Row sums of ``pi`` are drawn uniformly in [0.4, 0.85], so every state
    kills with probability at least 0.15 and paths stay short.
    """
    if n < 1:
        raise ChainError("n must be at least 1")
    raw = rng.uniform(0.2, 1.0, size=(n, n))
    np.fill_diagonal(raw, 0.0)
    if n == 1:
        pi = np.zeros((1, 1))
    else:
        targets = rng.uniform(0.4, 0.85, size=n)
        pi = raw / raw.sum(axis=1)[:, None] * targets[:, None]
    q = rng.uniform(0.5, 2.0, size=n)
    mu = rng.dirichlet(np.ones(n))
    return ChainSpec(q=q, pi=pi, mu=mu)
