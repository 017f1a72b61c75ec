"""Gamma-law equation of state.

Closes the 1-D system in material coordinates: the specific volume is
v(p, s) = A(s) * p**(-1/gamma) with entropy factor A(s) = (k_ref*exp(s))**(1/gamma).
Entropy only ever enters through A, so most of the package carries A values
(or the wavespeed coefficient sigma) instead of s itself.

Sign conventions that the rest of the code relies on:
    v > 0,  v_p < 0 (strict hyperbolicity),  v_pp > 0 (genuine nonlinearity),
    sigma = sqrt(-v_p(pbar, s)) > 0.
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
    """p * v**gamma = A(s), i.e. v = A(s) * p**(-1/gamma).

    Parameters
    ----------
    gamma : adiabatic exponent, > 1
    k_ref : reference entropy constant in A(s) = (k_ref * exp(s))**(1/gamma)
    """

    gamma: float
    k_ref: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        if not self.k_ref > 0.0:
            raise DomainError(f"k_ref must be positive, got {self.k_ref}")

    # -- entropy handling -------------------------------------------------

    def entropy_factor(self, s):
        """A(s) = (k_ref * exp(s))**(1/gamma)."""
        return (self.k_ref * np.exp(np.asarray(s, dtype=float))) ** (1.0 / self.gamma)

    def factor_from_sigma(self, p_bar, sigma):
        """Invert sigma = sqrt(-v_p(p_bar, A)) for the entropy factor A."""
        p_bar = _check_pressure(p_bar)
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0.0):
            raise DomainError("sigma must be positive")
        return self.gamma * sigma**2 * p_bar ** (1.0 / self.gamma + 1.0)

    # -- constitutive relations, entropy form ------------------------------

    def specific_volume(self, p, s):
        return self.volume_from_factor(p, self.entropy_factor(s))

    def dv_dp(self, p, s):
        return self.dvdp_from_factor(p, self.entropy_factor(s))

    def d2v_dp2(self, p, s):
        return self.d2vdp2_from_factor(p, self.entropy_factor(s))

    def sigma_of(self, p_bar, s):
        """Linear wavespeed coefficient sigma = sqrt(-v_p(p_bar, s))."""
        return self.sigma_from_factor(p_bar, self.entropy_factor(s))

    # -- constitutive relations, entropy-factor form -----------------------

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


@dataclass(frozen=True)
class QuietState:
    """Stationary state: constant pressure p_bar, zero velocity, fixed profile."""

    p_bar: float
    profile: object

    def __post_init__(self):
        if not self.p_bar > 0.0:
            raise DomainError(f"p_bar must be positive, got {self.p_bar}")
