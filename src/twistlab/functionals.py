"""Field functionals fed to the Monte Carlo harnesses.

A functional is a pure vectorised evaluator over nonnegative fields: it
accepts arrays shaped ``(..., n)`` and returns ``(...)``.  A bridge
functional must also provide ``sojourn_integral(field, y, tau, m_y)``, the
per-row value of ``(1/m_y) * int_0^tau F(field + u e_y / m_y) du`` over a
stay of length ``tau`` at state ``y``, and the bridge sampler rejects one
that does not.  `ExpField`, `ProductField` and `MonomialField` integrate
their sojourns in closed form, written so that nothing cancels for short
stays; `BumpField` has no closed form and serves only the twisted-field
rows.  ``sojourn_integral`` must not modify ``field`` or keep a reference
to it, because `bridge_targets` may pass a view of its running fields.
"""

from __future__ import annotations

import numpy as np

from .twisted import _chi_vector

__all__ = ["BumpField", "ExpField", "MonomialField", "ProductField"]


class ExpField:
    """exp(-<chi, field>_m), the exponentially damped field functional; chi is checked as `mgf` checks it."""

    def __init__(self, chi, m):
        m = np.asarray(m, dtype=float)
        self.chi = _chi_vector(chi, m.size)
        self.weights = self.chi * m

    def __call__(self, field):
        return np.exp(-(np.asarray(field) @ self.weights))

    def sojourn_integral(self, field, y, tau, m_y):
        """F(field) * (1 - exp(-chi_y tau)) / (chi_y m_y); tau / m_y at chi_y = 0."""
        rate = self.chi[y]
        stay = -np.expm1(-rate * tau) / (rate * m_y) if rate > 0 else tau / m_y
        return self(field) * stay


class ProductField:
    """prod_u (1 + field_u)^{-1}; bounded, continuous, not exponential."""

    def __call__(self, field):
        return 1.0 / np.prod(1.0 + np.asarray(field), axis=-1)

    def sojourn_integral(self, field, y, tau, m_y):
        """F(field) (1 + a) log1p(d / (1 + a)) with a = field_y, d = tau / m_y."""
        grow = 1.0 + np.asarray(field)[..., y]
        return self(field) * grow * np.log1p(tau / m_y / grow)


class BumpField:
    """Smooth Gaussian bump of width 0.75 around ``center``, a mollified indicator."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def __call__(self, field):
        d = np.asarray(field) - self.center
        d /= 0.75
        d *= d
        return np.exp(-np.sum(d, axis=-1))


# the largest exponent a MonomialField takes; its loops run that many times
MAX_EXPONENT = 64


def _power(x, k: int):
    """x^k for an integer k >= 0 by left-to-right multiplication: x^0 is ones, x^1 a copy.

    numpy's float power takes a CPU-dependent SIMD pow for every exponent but a constant 2.
    """
    out = np.ones_like(x) if k == 0 else x.copy()
    for _ in range(k - 1):
        out *= x
    return out


class MonomialField:
    """prod_u field_u^{k_u}, integer 0 <= k_u <= ``MAX_EXPONENT``; nonnegative on nonnegative fields.

    Only the columns with k_u > 0 are raised, by `_power`, and multiplied
    left to right, so a zero-exponent column is never read.
    """

    def __init__(self, exponents):
        self.exponents = np.asarray(exponents, dtype=float)
        k = self.exponents
        if not np.all((k >= 0) & (k <= MAX_EXPONENT) & (k == np.floor(k))):  # false for NaN
            raise ValueError(f"exponents must be integers from 0 to {MAX_EXPONENT}")

    @staticmethod
    def _product(f, exponents):
        """prod_u f_u^{e_u} over the columns of ``f`` with e_u > 0, left to right."""
        cols = np.flatnonzero(exponents)
        if cols.size == 0:
            return np.ones(f.shape[:-1])
        out = _power(f[..., cols[0]], int(exponents[cols[0]]))
        for u in cols[1:]:
            out *= _power(f[..., u], int(exponents[u]))
        return out

    def __call__(self, field):
        return self._product(np.asarray(field, dtype=float), self.exponents)

    def sojourn_integral(self, field, y, tau, m_y):
        """R (b^{k+1} - a^{k+1}) / (k+1), R = prod_{u != y} field_u^{k_u}, k = k_y.

        With a = field_y, d = tau / m_y and b = a + d, the difference is
        taken as d * sum_{j=0..k} a^j b^{k-j}, which does not cancel.
        """
        f = np.asarray(field, dtype=float)
        rest = self.exponents.copy()
        k = int(rest[y])
        rest[y] = 0.0
        a, d = f[..., y], tau / m_y
        b = a + d
        spread = sum(_power(a, j) * _power(b, k - j) for j in range(k + 1))
        return self._product(f, rest) * d * spread / (k + 1)
