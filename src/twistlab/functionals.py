"""Field functionals fed to the Monte Carlo harnesses.

A functional is a pure vectorised evaluator over nonnegative fields: it
accepts arrays shaped ``(..., n)`` and returns ``(...)``.  A functional may
also provide ``sojourn_integral(field, y, tau, m_y)``, the per-row value of
``(1/m_y) * int_0^tau F(field + u e_y / m_y) du`` over a stay of length
``tau`` at state ``y``; the bridge sampler uses it in place of quadrature.
`ExpField` does, in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BumpField", "ExpField", "MonomialField", "ProductField"]


class ExpField:
    """exp(-<chi, field>_m), the exponentially damped field functional."""

    def __init__(self, chi, m):
        self.chi = np.asarray(chi, dtype=float)
        self.weights = self.chi * np.asarray(m, dtype=float)
        if np.any(self.chi < 0):
            raise ValueError("chi must be nonnegative")

    def __call__(self, field):
        return np.exp(-(np.asarray(field) @ self.weights))

    def sojourn_integral(self, field, y, tau, m_y):
        """F(field) * (1 - exp(-chi_y tau)) / (chi_y m_y); tau / m_y at chi_y = 0."""
        rate = self.chi[y]
        stay = (1.0 - np.exp(-rate * tau)) / (rate * m_y) if rate > 0 else tau / m_y
        return self(field) * stay


class ProductField:
    """prod_u (1 + field_u)^{-1}; bounded, continuous, not exponential."""

    def __call__(self, field):
        return 1.0 / np.prod(1.0 + np.asarray(field), axis=-1)


class BumpField:
    """Smooth Gaussian bump of width 0.75 around ``center``, a mollified indicator."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def __call__(self, field):
        d = (np.asarray(field) - self.center) / 0.75
        return np.exp(-np.sum(d * d, axis=-1))


class MonomialField:
    """prod_u field_u^{k_u}; nonnegative on nonnegative fields."""

    def __init__(self, exponents):
        self.exponents = np.asarray(exponents, dtype=float)

    def __call__(self, field):
        f = np.asarray(field, dtype=float)
        with np.errstate(invalid="ignore"):
            out = np.prod(np.where(self.exponents > 0, f**self.exponents, 1.0), axis=-1)
        return out
