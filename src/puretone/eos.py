"""Gamma-law equation of state.

Closes the 1-D system in material coordinates: the specific volume is
v(p, A) = A * p**(-1/gamma), where the entropy factor A = exp(s/gamma)
carries the entropy s.  Entropy only ever enters through A, so the package
carries A values (or the wavespeed coefficient sigma), never s itself.

Sign conventions that the rest of the code relies on:
    v > 0,  v_p < 0 (strict hyperbolicity),  v_pp > 0 (genuine nonlinearity),
    sigma = sqrt(-v_p(pbar, A)) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _check_pressure(p):
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise DomainError("pressure must be positive")
    return p


@dataclass(frozen=True)
class GammaLawEos:
    """p * v**gamma = A**gamma, i.e. v = A * p**(-1/gamma).

    Parameters
    ----------
    gamma : adiabatic exponent, > 1
    """

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")

    def factor_from_sigma(self, p_bar, sigma):
        """Invert sigma = sqrt(-v_p(p_bar, A)) for the entropy factor A."""
        p_bar = _check_pressure(p_bar)
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0.0):
            raise DomainError("sigma must be positive")
        return self.gamma * sigma**2 * p_bar ** (1.0 / self.gamma + 1.0)

    # -- constitutive relations ---------------------------------------------

    def volume_from_factor(self, p, A):
        p = _check_pressure(p)
        return np.asarray(A, dtype=float) * p ** (-1.0 / self.gamma)

    def dvdp_from_factor(self, p, A):
        p = _check_pressure(p)
        return -(1.0 / self.gamma) * self.volume_from_factor(p, A) / p

    def d2vdp2_from_factor(self, p, A):
        p = _check_pressure(p)
        g = 1.0 / self.gamma
        return g * (g + 1.0) * self.volume_from_factor(p, A) / p**2

    def sigma_from_factor(self, p_bar, A):
        """Linear wavespeed coefficient sigma = sqrt(-v_p(p_bar, A))."""
        return np.sqrt(-self.dvdp_from_factor(p_bar, A))

    # -- increments relative to a base pressure, p = a (1 + x) -------------

    def volume_remainder(self, x):
        """f(x) = (1+x)**(-1/gamma) - 1 + x/gamma, free of cancellation.

        v(a(1+x)) - v(a) - v_p(a) a x = v(a) f(x) at any A.  Evaluated as
        expm1(-log1p(x)/gamma) + x/gamma, the relative error is about
        eps/|x| where the direct form loses eps/x**2; f(0) = 0 exactly.
        """
        x = np.asarray(x, dtype=float)
        g = 1.0 / self.gamma
        return np.expm1(-g * np.log1p(x)) + g * x

    def slope_increment(self, x):
        """(1+x)**(-1-1/gamma) - 1 = v_p(a(1+x)) / v_p(a) - 1, free of cancellation."""
        x = np.asarray(x, dtype=float)
        return np.expm1(-(1.0 + 1.0 / self.gamma) * np.log1p(x))

