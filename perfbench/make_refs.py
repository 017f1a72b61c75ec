"""Regenerate the accuracy references of the `branch` and `smooth_scan` workloads.

    python3 perfbench/make_refs.py

Writes `perfbench/refs/<workload>.json` with the values and their provenance
(commit, settings, library versions, date).  Timed benchmark runs only read
these files; they never call this script.

* branch: the default two-level branch (k = 1, chi = 1, M = 32, n_quad = 128,
  k_accuracy = 4, alphas 1e-4 .. 1e-3) solved again by the package with a
  tighter x-error target and Newton tolerance.
* smooth_scan: omega_1..omega_18 and delta_1..delta_16 (k = 1, chi = 1) of
  the 65-sample ramp from a dense fixed-step RK4 of
  Psi' = omega [[0, -1], [sigma^2, 0]] Psi on the PCHIP sigma.  Nothing of
  the package's Prüfer path is used: the angle is unwrapped from the dense
  trajectory and the roots are found by bracketed regula falsi.  The same
  computation at half the steps gives the reference's own error estimate.
"""

import datetime
import json
import platform
import sys
import time

from inputs import REFS, ROOT, SMOOTH_JMAX, SMOOTH_K, SMOOTH_LMAX, pin_environment

pin_environment()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.interpolate import PchipInterpolator  # noqa: E402

import inputs  # noqa: E402

BRANCH_X_ERROR = 1e-12  # the package default is 1e-9
BRANCH_NEWTON_TOL = 1e-12  # the package default is 1e-10
DENSE_STEPS = 2**16
ANGLE_STRIDE = 16  # steps between angle samples; each adds far less than pi
ROOT_TOL = 1e-13  # radians on theta(ell, omega) - k pi/2


def _provenance(settings, seconds):
    return {
        "commit": inputs.git_commit(),
        "generated_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "generator": "perfbench/make_refs.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "settings": settings,
        "seconds": round(seconds, 1),
    }


# -- branch ------------------------------------------------------------------------


def branch_reference():
    from puretone.bifurcate import BifurcationProblem, branch_continue
    from puretone.evolve import EvolutionConfig

    t0 = time.perf_counter()
    cfg = EvolutionConfig(M=32, n_quad=128, k_accuracy=4, x_error_target=BRANCH_X_ERROR)
    prof = inputs.two_level()
    problem = BifurcationProblem(prof, prof.eos, k=1, chi=1, cfg=cfg, newton_tol=BRANCH_NEWTON_TOL)
    branch = branch_continue(problem)
    if branch.failure is not None:
        raise RuntimeError(f"reference branch failed: {branch.failure}")
    sols = [
        {
            "alpha": s.alpha,
            "z": s.z,
            "a": s.a.tolist(),
            "max_abs_a": float(np.max(np.abs(s.a))),
            "residual_weighted": s.residual_weighted,
            "newton_iters": s.newton_iters,
            "M": s.M,
        }
        for s in branch.solutions
    ]
    settings = {
        "profile": "two-level sigma=[1,2] L=[1/2,1/2] pbar=1 gamma=2",
        "k": 1,
        "chi": 1,
        "M": 32,
        "n_quad": 128,
        "k_accuracy": 4,
        "x_error_target": BRANCH_X_ERROR,
        "newton_tol": BRANCH_NEWTON_TOL,
        "dx": cfg.resolved_dx(prof, problem.eigen().T),
    }
    return {"solutions": sols, "provenance": _provenance(settings, time.perf_counter() - t0)}


# -- smooth_scan: dense oracle -------------------------------------------------------


class DenseRamp:
    """Fixed-step RK4 of the first SL column (phi, psi) = (1, 0) at x = 0."""

    def __init__(self, n_steps):
        x_s, sig_s = inputs.ramp_samples()
        sigma = PchipInterpolator(x_s, sig_s)
        self.n = n_steps
        self.h = (x_s[-1] - x_s[0]) / n_steps
        nodes = x_s[0] + self.h * np.arange(n_steps + 1)
        self.sig = sigma(nodes)
        self.sig2 = self.sig**2
        self.sig2_mid = sigma(nodes[:-1] + 0.5 * self.h) ** 2

    def _angle(self, i, phi, psi):
        rq = np.sqrt(self.sig[i])
        return np.arctan2(psi / rq, phi * rq)

    def march(self, omega):
        """(phi, psi, theta) at x = ell; theta is the unwrapped Prüfer angle."""
        omega = np.asarray(omega, dtype=float)
        phi = np.ones_like(omega)
        psi = np.zeros_like(omega)
        theta = np.zeros_like(omega)
        prev = np.zeros_like(omega)
        h, hh = self.h, 0.5 * self.h
        for i in range(self.n):
            s0, sm, s1 = self.sig2[i], self.sig2_mid[i], self.sig2[i + 1]
            k1p, k1q = -omega * psi, omega * s0 * phi
            k2p, k2q = -omega * (psi + hh * k1q), omega * sm * (phi + hh * k1p)
            k3p, k3q = -omega * (psi + hh * k2q), omega * sm * (phi + hh * k2p)
            k4p, k4q = -omega * (psi + h * k3q), omega * s1 * (phi + h * k3p)
            phi = phi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            psi = psi + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            if (i + 1) % ANGLE_STRIDE == 0 or i + 1 == self.n:
                ang = self._angle(i + 1, phi, psi)
                theta = theta + (np.mod(ang - prev + np.pi, 2.0 * np.pi) - np.pi)
                prev = ang
        return phi, psi, theta

    def ladder(self, l_max):
        """omega_1..omega_l_max from theta(ell, omega) = l pi/2 (Illinois regula falsi)."""
        x_s, sig_s = inputs.ramp_samples()
        total = float(PchipInterpolator(x_s, sig_s).integrate(x_s[0], x_s[-1]))
        wiggle = 0.5 * float(np.sum(np.abs(np.diff(np.log(sig_s))))) + 1e-6
        target = np.arange(1, l_max + 1) * (np.pi / 2.0)
        lo = (target - wiggle) / total
        hi = (target + wiggle) / total
        f_lo = self.march(lo)[2] - target
        f_hi = self.march(hi)[2] - target
        if not (np.all(f_lo < 0.0) and np.all(f_hi > 0.0)):
            raise RuntimeError("angle bounds do not bracket the ladder")
        side = np.zeros(l_max, dtype=int)
        w = 0.5 * (lo + hi)
        for _ in range(200):
            w = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            f_w = self.march(w)[2] - target
            if np.all((np.abs(f_w) <= ROOT_TOL) | (hi - lo <= 4.0 * np.spacing(hi))):
                return w
            right = f_w > 0.0
            hi, f_hi = np.where(right, w, hi), np.where(right, f_w, f_hi)
            lo, f_lo = np.where(right, lo, w), np.where(right, f_lo, f_w)
            # Illinois: halve the stale end when the same side moves twice
            f_lo = np.where(right & (side == 1), 0.5 * f_lo, f_lo)
            f_hi = np.where(~right & (side == -1), 0.5 * f_hi, f_hi)
            side = np.where(right, 1, -1)
        raise RuntimeError("ladder regula falsi did not converge")

    def divisors(self, omega_1, j_max):
        """delta_j(T_1) = cos(j pi/2) psi(ell) - sin(j pi/2) phi(ell), omega = j omega_1."""
        js = np.arange(1, j_max + 1)
        phi, psi, _ = self.march(js * omega_1)
        c = np.array([(1, 0, -1, 0)[j % 4] for j in js], dtype=float)
        s = np.array([(0, 1, 0, -1)[j % 4] for j in js], dtype=float)
        return c * psi - s * phi


def smooth_reference():
    from puretone import spectrum

    t0 = time.perf_counter()
    fine = DenseRamp(DENSE_STEPS)
    coarse = DenseRamp(DENSE_STEPS // 2)
    omega = fine.ladder(SMOOTH_LMAX)
    omega_c = coarse.ladder(SMOOTH_LMAX)
    k = SMOOTH_K
    omega_k = omega[k - 1]
    delta = fine.divisors(omega_k, SMOOTH_JMAX)
    delta_c = coarse.divisors(omega_c[k - 1], SMOOTH_JMAX)
    others = np.abs(delta).copy()
    others[k - 1] = np.inf
    min_div = float(np.min(others))
    if min_div < spectrum.BORDERLINE_TOL:
        verdict = "resonant"
    elif min_div <= spectrum.RESONANCE_TOL:
        verdict = "borderline"
    else:
        verdict = "nonresonant"
    settings = {
        "profile": "ramp sigma=1+x, 65 samples on [0,1], PCHIP",
        "k": k,
        "chi": 1,
        "j_max": SMOOTH_JMAX,
        "l_max": SMOOTH_LMAX,
        "dense_rk4_steps": DENSE_STEPS,
        "root_tol_theta": ROOT_TOL,
        "verdict_tols": {"resonant_below": spectrum.BORDERLINE_TOL,
                         "nonresonant_above": spectrum.RESONANCE_TOL},
    }
    return {
        "omega": omega.tolist(),
        "T": 2.0 * np.pi * k / omega_k,
        "delta": delta.tolist(),
        "verdict": verdict,
        "min_divisor": min_div,
        "argmin_j": int(np.argmin(others)) + 1,
        "self_error": {
            "omega_rel_half_steps": float(np.max(np.abs(omega_c - omega) / omega)),
            "delta_abs_half_steps": float(np.max(np.abs(delta_c - delta))),
        },
        "provenance": _provenance(settings, time.perf_counter() - t0),
    }


def main():
    REFS.mkdir(parents=True, exist_ok=True)
    for name, make in (("branch", branch_reference), ("smooth_scan", smooth_reference)):
        doc = make()
        path = REFS / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)} ({doc['provenance']['seconds']} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
