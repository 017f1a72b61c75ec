"""Environment pinning and the canonical inputs of the benchmark workloads.

Shared by `run.py` and `make_refs.py`, so the references are computed on
exactly the profiles the timed runs use.  `pin_environment()` must run
before numpy is imported.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
OUT = BENCH_DIR / "results"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# smooth_scan: the tests' smooth_ramp, resonance scan of k = 1 up to j = 16;
# the scan's frequency-ratio check solves omega_1..omega_{j_max + 2}
RAMP_SAMPLES = 65
SMOOTH_K = 1
SMOOTH_JMAX = 16
SMOOTH_LMAX = SMOOTH_JMAX + 2


class MissingPackage(RuntimeError):
    """The checkout holds no puretone sources to benchmark."""


def pin_environment():
    """One BLAS/OpenMP thread, and puretone imported from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "puretone" / "__init__.py").is_file():
        raise MissingPackage(f"no puretone package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_commit():
    """HEAD of this checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def gamma2():
    from puretone.eos import GammaLawEos

    return GammaLawEos(2.0)


def two_level():
    """sigma = [1, 2], L = [1/2, 1/2], pbar = 1, gamma = 2."""
    from puretone.profile import PiecewiseConstantProfile

    return PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5], pbar=1.0, eos=gamma2())


def ramp_samples():
    import numpy as np

    x = np.linspace(0.0, 1.0, RAMP_SAMPLES)
    return x, 1.0 + x


def smooth_ramp():
    """sigma(x) = 1 + x on [0, 1] from 65 PCHIP samples, one C1 piece."""
    from puretone.profile import SmoothPiece, SmoothProfile

    x, sigma = ramp_samples()
    return SmoothProfile((SmoothPiece(x, sigma),), pbar=1.0, eos=gamma2())
