import numpy as np
import pytest
from hypothesis import settings

# Tier-1 property tests draw the same examples on every run and keep no
# example database; each test keeps its own max_examples
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

from puretone.eos import GammaLawEos
from puretone.profile import PiecewiseConstantProfile, SmoothPiece, SmoothProfile


@pytest.fixture(scope="session")
def gamma2():
    return GammaLawEos(2.0)


@pytest.fixture(scope="session")
def two_level(gamma2):
    """The canonical two-level profile: sigma = [1, 2], L = [1/2, 1/2]."""
    return PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5], pbar=1.0, eos=gamma2)


@pytest.fixture(scope="session")
def const_profile(gamma2):
    return PiecewiseConstantProfile([1.0], [1.0], pbar=1.0, eos=gamma2)


@pytest.fixture(scope="session")
def smooth_ramp(gamma2):
    """sigma(x) = 1 + x on [0, 1], a single C1 piece."""
    x = np.linspace(0.0, 1.0, 65)
    return SmoothProfile((SmoothPiece(x, 1.0 + x),), pbar=1.0, eos=gamma2)


@pytest.fixture(scope="session")
def smooth_jumpy(gamma2):
    """Two smooth pieces with a genuine interior jump at x = 0.4."""
    x1 = np.linspace(0.0, 0.4, 33)
    x2 = np.linspace(0.4, 1.0, 49)
    return SmoothProfile(
        (SmoothPiece(x1, 1.0 + 0.5 * np.sin(2.0 * x1)), SmoothPiece(x2, 2.0 - x2)),
        pbar=1.0,
        eos=gamma2,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
