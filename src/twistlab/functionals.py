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

__all__ = ["BumpField", "ExpField", "MonomialField", "ProductField"]


class ExpField:
    """exp(-<chi, field>_m), the exponentially damped field functional."""

    def __init__(self, chi, m):
        self.chi = np.asarray(chi, dtype=float)
        self.weights = self.chi * np.asarray(m, dtype=float)
        if not np.all(np.isfinite(self.chi) & (self.chi >= 0)):  # false for NaN
            raise ValueError("chi must be finite and nonnegative")

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
        d = (np.asarray(field) - self.center) / 0.75
        return np.exp(-np.sum(d * d, axis=-1))


class MonomialField:
    """prod_u field_u^{k_u} with integer k_u >= 0; nonnegative on nonnegative fields.

    Only the columns with k_u > 0 are raised and multiplied; on C-ordered
    fields this is ``np.prod(field ** k, axis=-1)`` bit for bit, since
    ``v ** 0.0`` is 1 for every float v, NaN and inf included, and the
    product runs left to right.  numpy squares by multiplication, not by its
    pow routine, where the exponent is constant along its inner loop, and
    the two can differ in the last bit, so a lone kept column is raised
    beside a unit one.
    """

    def __init__(self, exponents):
        self.exponents = np.asarray(exponents, dtype=float)
        k = self.exponents
        if not np.all(np.isfinite(k) & (k >= 0) & (k == np.floor(k))):
            raise ValueError("exponents must be nonnegative integers")

    @staticmethod
    def _product(f, exponents):
        """prod_u f_u^{e_u} over the columns of ``f`` with e_u > 0."""
        cols = np.flatnonzero(exponents)
        if cols.size == 1 and f.shape[-1] > 1:
            cols = np.append(cols, np.argmin(exponents))
        return np.prod(np.take(f, cols, axis=-1) ** exponents[cols], axis=-1)

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
        spread = sum(a**j * b ** (k - j) for j in range(k + 1))
        return self._product(f, rest) * d * spread / (k + 1)
