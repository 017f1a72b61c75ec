"""Eigenfrequencies, small divisors, resonance verdicts and genericity studies.

The continuous mode count

    kappa(omega) = (2/pi) * theta(ell, omega),    theta(0) = 0,

is strictly increasing with bounded slope, so the k-th eigenfrequency is the
unique root of kappa(omega) = k.  The winding bound |h(J, z) - z| < pi/2 per
jump gives deterministic brackets

    (k*pi/2 -+ (N-1)*pi/2) / integral(sigma)

inside which a safeguarded Newton iteration (slope from the exact zeta chain)
converges to machine accuracy.  All roots share one active-set solve: points
are taken in fixed-size blocks, and a point stops being evaluated once it has
converged, so each root is bit-identical to the root solved on its own.

With the reference period T fixed, the j-th small divisor is the sine
component of the boundary-shifted, linearly evolved cosine j-mode:

    delta_j(T) = cos(j chi pi/2) psi(ell) - sin(j chi pi/2) phi(ell),

with (phi, psi) = Psi(ell; j 2 pi / T) (1, 0)^T.  Zeros of delta_j at T = T_k
are exactly the resonances k*omega_l = j*omega_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .profile import PiecewiseConstantProfile, sigma_integral
from . import sl_core

#: convergence target for |kappa(omega_k) - k|
KAPPA_TOL = 1e-12

#: looser target for smooth profiles, above the Magnus propagator's error
#: target PRUFER_TOL on each piece
KAPPA_TOL_SMOOTH = 5e-11

#: thresholds of the resonance verdict (RESONANCE_TOL is the default `tol`)
RESONANCE_TOL = 1e-8
BORDERLINE_TOL = 1e-10
EXACT_TOL = 1e-12  # genericity_mc counts residuals below this as exact resonances

#: default Monte-Carlo sampling box: J in [0.2, 5], theta in [0.1, 3]
DEFAULT_MC_BOX = ((0.2, 5.0), (0.1, 3.0))


@dataclass(frozen=True)
class EigenFrequency:
    k: int
    omega: float
    T: float
    chi: int
    kappa_residual: float


@dataclass(frozen=True)
class DivisorTable:
    T: float
    chi: int
    delta: np.ndarray  # delta[j-1] = delta_j, j = 1..j_max

    @property
    def j_max(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class ResonanceReport:
    k: int
    chi: int
    T: float
    verdict: str  # 'nonresonant' | 'borderline' | 'resonant'
    min_divisor: float
    argmin_j: int
    tol: float
    borderline: float
    divisor_table: DivisorTable
    ratio_checks: tuple  # (l, j, |k w_l - j w_k| / w_k) sorted by residual
    min_ratio_residual: float


def kappa(profile, omega):
    """Continuous mode count (2/pi) theta(ell, omega)."""
    return (2.0 / np.pi) * sl_core.angle_at_ell(profile, omega)


def asymptotic_slope(profile) -> float:
    """Lambda = (pi/2) / integral(sigma): the large-k limit of omega_k / k."""
    return (np.pi / 2.0) / sigma_integral(profile)


# -- root solvers ----------------------------------------------------------------


#: (sample, target) points a root solve carries at once; the rest wait their turn
_BLOCK = 2**14


def _solve_targets(angle_and_slope, total, wiggle, targets, tol, max_iter=80):
    """Active-set safeguarded Newton for theta(ell, omega) = target, point by point.

    `angle_and_slope(omega, idx)` returns (theta, d theta/d omega) at the
    points of flat indices idx into targets.shape; theta(ell, omega) lies
    within `wiggle` of omega * `total` (broadcast against targets), which
    brackets each root.  Points are solved in blocks of _BLOCK, and a point
    leaves the active set once it has converged, so later passes evaluate
    the chain only on the points still moving.  Each point runs the same
    update as it would alone, so its root does not depend on the batch.
    targets has at least one axis.  Returns (omega, converged mask), both
    of targets' shape.
    """
    targets = np.asarray(targets, dtype=float)
    shape, size = targets.shape, targets.size
    total = np.broadcast_to(total, shape)
    omega, ok = np.empty(size), np.ones(size, dtype=bool)
    tol_theta = tol * (np.pi / 2.0)
    for start in range(0, size, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, size))
        at = np.unravel_index(idx, shape)
        t, tot = targets[at], total[at]
        lo = np.maximum((t - wiggle) / tot, 0.0)
        hi = (t + wiggle) / tot
        om = np.clip(t / tot, lo + 1e-30, hi)
        for _ in range(max_iter):
            th, dth = angle_and_slope(om, idx)
            f = th - t
            done = np.abs(f) <= tol_theta
            omega[idx[done]] = om[done]
            if np.all(done):
                break
            keep = ~done
            idx, t, lo, hi, om, f, dth = (v[keep] for v in (idx, t, lo, hi, om, f, dth))
            hi = np.where(f > 0.0, np.minimum(hi, om), hi)
            lo = np.where(f < 0.0, np.maximum(lo, om), lo)
            cand = om - f / dth
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            om = np.where(bad, 0.5 * (lo + hi), cand)
        else:  # points still moving after max_iter passes get a 10x looser test
            th, _ = angle_and_slope(om, idx)
            omega[idx] = om
            ok[idx] = np.abs(th - t) <= 10.0 * tol_theta
    return omega.reshape(shape), ok.reshape(shape)


def _pwc_solve_targets(jumps, angles, targets, max_iter=80):
    """Roots of the pwc chain; jumps (..., N-1), angles (..., N) broadcast against targets.

    The active points' jumps and angles are gathered from broadcast views,
    so no flattened copy of the whole batch is made.
    """
    targets = np.asarray(targets, dtype=float)
    shape = targets.shape
    J = np.broadcast_to(jumps, shape + jumps.shape[-1:])
    A = np.broadcast_to(angles, shape + angles.shape[-1:])
    wiggle = jumps.shape[-1] * (np.pi / 2.0)

    def chain(om, idx):
        at = np.unravel_index(idx, shape)
        return sl_core._angle_chain(J[at], A[at], om, with_slope=True)

    return _solve_targets(chain, np.sum(angles, axis=-1), wiggle, targets, KAPPA_TOL, max_iter)


def _solve_profile_targets(profile, targets):
    """Roots theta(ell, omega) = targets for any profile, all targets at once."""
    if isinstance(profile, PiecewiseConstantProfile):
        return _pwc_solve_targets(profile.jumps, profile.angles, targets)
    # |theta(ell) - omega*total| <= pi/2 per jump + TV(log sigma)/2 per piece
    wiggle = (profile.n_pieces - 1) * (np.pi / 2.0) + 0.5 * profile.log_sigma_variation() + 1e-9
    slope = lambda om, _idx: sl_core.angle_and_slope_at_ell(profile, om)
    return _solve_targets(slope, sigma_integral(profile), wiggle, targets, KAPPA_TOL_SMOOTH)


def eigen_solve(profile, k: int, chi: int = 1) -> EigenFrequency:
    """omega_k from the angle boundary condition theta(ell, omega) = k pi/2.

    chi = 1 admits every k >= 1; the acoustic condition chi = 0 only the
    even ones (the boundary angle is then a multiple of pi).
    """
    _validate_mode(k, chi)
    om, ok = _solve_profile_targets(profile, np.array([k * np.pi / 2.0]))
    if not ok[0]:
        raise SolverError(f"eigenfrequency iteration for k={k} did not converge")
    om = float(om[0])
    res = abs(float(kappa(profile, om)) - k)
    return EigenFrequency(k=k, omega=om, T=2.0 * np.pi * k / om, chi=chi, kappa_residual=res)


def eigen_ladder(profile, k_max: int):
    """omega_1..omega_{k_max} (chi=1 labels); returns (omega, kappa_residual)."""
    ks = np.arange(1, k_max + 1, dtype=float)
    om, ok = _solve_profile_targets(profile, ks * np.pi / 2.0)
    if not np.all(ok):
        raise SolverError(f"ladder solve failed for k in {1 + np.flatnonzero(~ok)}")
    res = np.abs(kappa(profile, om) - ks)
    return om, res


def _validate_mode(k, chi):
    if chi not in (0, 1):
        raise DomainError("chi must be 0 (acoustic) or 1 (periodic)")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError("mode index k must be a positive integer")
    if chi == 0 and k % 2 == 1:
        raise DomainError("acoustic boundary condition (chi=0) admits even k only")


# -- small divisors ----------------------------------------------------------------


def divisor_bound(profile) -> float:
    """Uniform bound C_delta on |delta_j(T)|, from the Prüfer radius chain.

    With data (1, 0) the initial radius is sqrt(sigma(0)); each jump scales
    it by at most max(sqrt J, 1/sqrt J), and the final conversion out of
    Prüfer variables contributes max(sqrt sigma(ell), 1/sqrt sigma(ell)).
    Within C1 pieces the log-radius moves by at most TV(log sigma)/2.
    """
    s0 = float(profile.pieces[0].sigma_samples[0])
    s1 = float(profile.pieces[-1].sigma_samples[-1])
    interior = np.exp(0.5 * profile.log_sigma_variation())
    jump_factor = float(np.prod(np.maximum(np.sqrt(profile.jumps), 1.0 / np.sqrt(profile.jumps))))
    return np.sqrt(s0) * max(np.sqrt(s1), 1.0 / np.sqrt(s1)) * jump_factor * interior


def divisors(profile, T: float, chi: int, j_max: int) -> DivisorTable:
    """delta_j(T) for j = 1..j_max via the fundamental matrix.

    The quarter-turn factors cos/sin(j chi pi/2) are taken from an exact
    integer table so that axis hits are not polluted by pi roundoff.
    """
    if not T > 0.0:
        raise DomainError("period T must be positive")
    if chi not in (0, 1):
        raise DomainError("chi must be 0 or 1")
    if j_max < 1:
        raise DomainError(f"j_max must be at least 1 (got {j_max})")
    j = np.arange(1, j_max + 1)
    psi_mat = sl_core.fundamental_matrix(profile, j * 2.0 * np.pi / T)
    c, s = sl_core.quarter_cos_sin(j * chi)
    delta = c * psi_mat[:, 1, 0] - s * psi_mat[:, 0, 0]
    return DivisorTable(T=T, chi=chi, delta=delta)


def resonance_scan(
    profile,
    k: int,
    chi: int = 1,
    j_max: int = 64,
    tol: float = RESONANCE_TOL,
) -> ResonanceReport:
    """Divisor scan at T = T_k plus the frequency-ratio cross check.

    Verdict: 'nonresonant' iff min_{j != k} |delta_j(T_k)| > tol, 'resonant'
    below BORDERLINE_TOL, 'borderline' in between.  The ratio check looks for
    integer relations k*omega_l ~ j*omega_k (l <= j_max + 2); these are the
    zeros of delta_j, since delta_j(T_k) = 0 means j*2pi/T_k meets the
    boundary condition and hence is itself an eigenfrequency omega_l.
    """
    eig = eigen_solve(profile, k, chi)
    table = divisors(profile, eig.T, chi, j_max)
    absd = np.abs(table.delta).copy()
    if k <= j_max:
        absd[k - 1] = np.inf
    argmin_j = int(np.argmin(absd)) + 1
    min_div = float(absd[argmin_j - 1])
    if min_div < BORDERLINE_TOL:
        verdict = "resonant"
    elif min_div <= tol:
        verdict = "borderline"
    else:
        verdict = "nonresonant"

    om_ladder, _ = eigen_ladder(profile, j_max + 2)
    checks = []
    for l, om_l in enumerate(om_ladder, start=1):
        if l == k:
            continue
        j_star = int(np.rint(k * om_l / eig.omega))
        if j_star < 1 or j_star > j_max or j_star == k:
            continue
        resid = abs(k * om_l - j_star * eig.omega) / eig.omega
        checks.append((l, j_star, resid))
    checks.sort(key=lambda t: t[2])
    min_ratio = checks[0][2] if checks else np.inf
    return ResonanceReport(
        k=k,
        chi=chi,
        T=eig.T,
        verdict=verdict,
        min_divisor=min_div,
        argmin_j=argmin_j,
        tol=tol,
        borderline=BORDERLINE_TOL,
        divisor_table=table,
        ratio_checks=tuple(checks),
        min_ratio_residual=float(min_ratio),
    )


# -- Monte-Carlo genericity ----------------------------------------------------------


@dataclass(frozen=True)
class GenericityResult:
    n_levels: int
    samples: int
    seed: int
    box: tuple
    k_max: int
    l_max: int
    j_max: int
    exact_tol: float
    min_residual: np.ndarray  # per sample, failures hold nan
    argmin_triple: np.ndarray  # per sample (k, j, l)
    n_exact: int
    n_failed: int
    failed_ids: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray  # log10of residual bin edges

    def summary(self) -> dict:
        ok = np.isfinite(self.min_residual)
        return {
            "n_levels": self.n_levels,
            "samples": self.samples,
            "seed": self.seed,
            "box": [list(b) for b in self.box],
            "k_max": self.k_max,
            "l_max": self.l_max,
            "j_max": self.j_max,
            "exact_tol": self.exact_tol,
            "n_exact": self.n_exact,
            "n_failed": self.n_failed,
            "min_residual": float(np.min(self.min_residual[ok])) if np.any(ok) else None,
            "median_residual": float(np.median(self.min_residual[ok])) if np.any(ok) else None,
            "hist_counts": self.hist_counts.tolist(),
            "hist_edges_log10": self.hist_edges.tolist(),
        }


def genericity_mc(
    n_levels: int,
    samples: int,
    seed: int = 0,
    box=DEFAULT_MC_BOX,
    k_max: int = 12,
    l_max: int = 12,
    j_max: int = 24,
) -> GenericityResult:
    """Sample (J, Theta) profiles and hunt for frequency-ratio resonances.

    For every sample the eigenfrequency ladder omega_1..omega_max is solved
    (one active-set Newton over all (sample, target) points, in blocks of
    _BLOCK), then over all pairs (k, l), l != k, the nearest
    integer j = round(k omega_l / omega_k) <= j_max defines the relative
    residual |k omega_l - j omega_k| / (k omega_l).  Exact resonances are
    residuals below EXACT_TOL.  Deterministic for a fixed seed.
    """
    if n_levels < 2:
        raise DomainError("need at least two entropy levels")
    if samples < 1:
        raise DomainError("need at least one sample")
    # k = 1 alone leaves no pair l != k when l_max = 1, and no j != k when j_max = 1
    if min(k_max, l_max, j_max) < 1 or (k_max == 1 and min(l_max, j_max) == 1):
        raise DomainError(f"k_max={k_max}, l_max={l_max}, j_max={j_max} leave no triple to test")
    (j_lo, j_hi), (t_lo, t_hi) = box
    # a point range (lo == hi) is a fixed value, e.g. J = 1, the isentropic limit
    if not (0.0 < j_lo <= j_hi and 0.0 < t_lo <= t_hi):
        raise DomainError(f"box ranges must be positive and nondecreasing, got {box}")
    rng = np.random.default_rng(seed)
    jumps = rng.uniform(j_lo, j_hi, size=(samples, n_levels - 1))
    angles = rng.uniform(t_lo, t_hi, size=(samples, n_levels))

    k_top = max(k_max, l_max)
    targets = np.arange(1, k_top + 1, dtype=float) * np.pi / 2.0
    om, ok = _pwc_solve_targets(
        jumps[:, None, :], angles[:, None, :], np.broadcast_to(targets, (samples, k_top))
    )
    sample_ok = np.all(ok, axis=1)

    min_res = np.full(samples, np.inf)
    argmin = np.zeros((samples, 3), dtype=int)
    ls = np.arange(1, l_max + 1)
    for k in range(1, k_max + 1):
        om_k = om[:, k - 1][:, None]
        om_l = om[:, :l_max]
        with np.errstate(invalid="ignore", divide="ignore"):
            j_star = np.rint(k * om_l / om_k)
            res = np.abs(k * om_l - j_star * om_k) / (k * om_l)
        valid = (ls[None, :] != k) & (j_star >= 1) & (j_star <= j_max) & (j_star != k)
        res = np.where(valid, res, np.inf)
        best_l = np.argmin(res, axis=1)
        best = res[np.arange(samples), best_l]
        better = best < min_res
        min_res = np.where(better, best, min_res)
        argmin[better, 0] = k
        argmin[better, 1] = j_star[np.arange(samples), best_l][better].astype(int)
        argmin[better, 2] = best_l[better] + 1

    min_res[~sample_ok] = np.nan
    finite = min_res[sample_ok]
    n_exact = int(np.sum(finite < EXACT_TOL))
    edges = np.arange(-16.0, 0.5, 0.5)
    logs = np.log10(np.clip(finite, 1e-300, None))
    counts, edges = np.histogram(np.clip(logs, edges[0], edges[-1]), bins=edges)
    return GenericityResult(
        n_levels=n_levels,
        samples=samples,
        seed=seed,
        box=tuple(tuple(b) for b in box),
        k_max=k_max,
        l_max=l_max,
        j_max=j_max,
        exact_tol=EXACT_TOL,
        min_residual=min_res,
        argmin_triple=argmin,
        n_exact=n_exact,
        n_failed=int(np.sum(~sample_ok)),
        failed_ids=np.flatnonzero(~sample_ok),
        hist_counts=counts,
        hist_edges=edges,
    )
