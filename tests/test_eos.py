from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from puretone.eos import GammaLawEos
from puretone.errors import DomainError


def test_unit_normalization():
    eos = GammaLawEos(2.0)
    # A = exp(s / gamma) = 1 at s = 0
    assert_allclose(eos.volume_from_factor(1.0, 1.0), 1.0)
    assert_allclose(eos.volume_from_factor(4.0, 1.0), 0.5)


def test_high_precision_power():
    eos = GammaLawEos(1.4)
    assert_allclose(eos.volume_from_factor(2.0, 1.0), 2.0 ** (-1.0 / 1.4), rtol=1e-15)


def test_derivative_values_at_unit_state():
    eos = GammaLawEos(2.0)
    assert_allclose(eos.dvdp_from_factor(1.0, 1.0), -0.5)
    assert_allclose(eos.d2vdp2_from_factor(1.0, 1.0), 0.75)


def test_derivatives_match_finite_differences():
    # central differences at h = 1e-5 agree to relative 1e-8
    eos = GammaLawEos(1.4)
    h = 1e-5
    for p in (0.5, 1.0, 3.0):
        for A in (0.6, 1.0, 2.1):
            fd1 = (eos.volume_from_factor(p + h, A) - eos.volume_from_factor(p - h, A)) / (2 * h)
            assert_allclose(fd1, eos.dvdp_from_factor(p, A), rtol=1e-8)
            fd2 = (eos.dvdp_from_factor(p + h, A) - eos.dvdp_from_factor(p - h, A)) / (2 * h)
            assert_allclose(fd2, eos.d2vdp2_from_factor(p, A), rtol=1e-8)


def test_fd_error_shrinks_with_h():
    eos = GammaLawEos(2.0)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (eos.volume_from_factor(1.0 + h, 1.0) - eos.volume_from_factor(1.0 - h, 1.0)) / (2 * h)
        errs.append(abs(fd - eos.dvdp_from_factor(1.0, 1.0)))
    assert errs[1] < errs[0] * 1e-1  # O(h^2)


def test_sign_conditions_on_grid():
    # strict hyperbolicity and genuine nonlinearity over a (p, A) grid
    eos = GammaLawEos(1.4)
    p = np.linspace(0.1, 10.0, 25)[:, None]
    A = np.exp(np.linspace(-2.0, 2.0, 15) / 1.4)[None, :]
    assert np.all(eos.volume_from_factor(p, A) > 0)
    assert np.all(eos.dvdp_from_factor(p, A) < 0)
    assert np.all(eos.d2vdp2_from_factor(p, A) > 0)


def test_sigma_examples():
    eos2 = GammaLawEos(2.0)
    assert_allclose(eos2.sigma_from_factor(1.0, 1.0), np.sqrt(0.5), rtol=1e-15)
    eos14 = GammaLawEos(1.4)
    assert_allclose(eos14.sigma_from_factor(1.0, 1.0), np.sqrt(1.0 / 1.4), rtol=1e-15)


def test_sigma_continuous_in_entropy():
    eos = GammaLawEos(1.4)
    A = np.exp(np.linspace(-1.0, 1.0, 200) / 1.4)
    sig = eos.sigma_from_factor(1.0, A)
    assert np.all(np.abs(np.diff(sig)) < 1e-2)


def test_factor_sigma_round_trip():
    eos = GammaLawEos(1.4)
    for A in (0.5, 1.0, 3.0):
        sig = eos.sigma_from_factor(2.5, A)
        assert_allclose(eos.factor_from_sigma(2.5, sig), A, rtol=1e-14)


def test_domain_errors():
    eos = GammaLawEos(2.0)
    with pytest.raises(DomainError):
        eos.volume_from_factor(0.0, 1.0)
    with pytest.raises(DomainError):
        eos.volume_from_factor(-1.0, 1.0)
    with pytest.raises(DomainError):
        eos.sigma_from_factor(-2.0, 1.0)
    with pytest.raises(DomainError):
        eos.factor_from_sigma(1.0, 0.0)
    with pytest.raises(DomainError):
        eos.factor_from_sigma(1.0, -0.5)
    with pytest.raises(DomainError):
        GammaLawEos(1.0)
    with pytest.raises(DomainError):
        GammaLawEos(0.5)


def test_increments_match_decimal_reference():
    # f(x) = (1+x)^(-g) - 1 + g x and (1+x)^(-1-g) - 1 against 50-digit
    # arithmetic at the float g = 1/gamma the code uses, 1e-8 <= |x| <= 0.5
    eps = np.finfo(float).eps
    mags = np.logspace(-8.0, np.log10(0.5), 60)
    xs = np.concatenate([mags, -mags])
    for gamma in (1.4, 5.0 / 3.0, 2.0, 3.0, 7.0):
        eos = GammaLawEos(gamma)
        f = eos.volume_remainder(xs)
        slope = eos.slope_increment(xs)
        with localcontext() as ctx:
            ctx.prec = 50
            g = Decimal(1.0 / gamma)
            for x, fx, sx in zip(xs, f, slope):
                d = Decimal(float(x))
                log1p = (1 + d).ln()
                f_ref = (-g * log1p).exp() - 1 + g * d
                slope_ref = (-(1 + g) * log1p).exp() - 1
                f_err = float(abs((Decimal(float(fx)) - f_ref) / f_ref))
                slope_err = float(abs((Decimal(float(sx)) - slope_ref) / slope_ref))
                assert f_err <= 4.0 * eps * max(1.0, 1.0 / abs(x)), (gamma, x, f_err)
                assert slope_err <= 4.0 * eps, (gamma, x, slope_err)
        # quiet data: both increments vanish exactly
        assert eos.volume_remainder(0.0) == 0.0
        assert eos.slope_increment(0.0) == 0.0
