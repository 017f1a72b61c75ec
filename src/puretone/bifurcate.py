"""Numerical Liapunov-Schmidt solver for nonlinear pure-tone data.

For a nonresonant k-mode with reference period T = 2 pi k / omega_k, we seek
even initial data

    y0(t) = pbar + alpha cos(k t 2pi/T) + z + sum_{j != k} a_j cos(j t 2pi/T)

whose boundary image S E^ell y0 vanishes.  The amplitude alpha is prescribed;
the unknowns are the 0-mode shift z (the bifurcation direction, powered by
genuine nonlinearity) and the auxiliary coefficients a_j.  There is exactly
one sine equation r_j per unknown, so the system is square and is solved by
one coupled damped Newton iteration instead of the literal nested
auxiliary-then-bifurcation construction; the two residual pieces are still
reported separately in the diagnostics.  Rows j != k of the Jacobian are
preconditioned by the fixed inverse divisors 1/delta_j.

Convergence is declared in the divisor-scaled norm, in which the linearized
boundary operator is an isometry, so the weighted residual measures the H^b
size of the remaining correction to y0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ResonanceError, SolverError
from . import spectrum as _spectrum
from . import sl_core
from .evolve import (
    EvolutionConfig,
    FourierField,
    evolve_coefficients,
    second_derivative_quiet,
    weighted_norm,
)

#: Newton iterations per solve; forward-difference step of the Jacobian,
#: relative to max(1, |u_i|)
_MAX_NEWTON, _FD_STEP = 30, 1e-7

#: a solve whose top two cosine coefficients exceed this share of the largest
#: is repeated with M doubled, at most _MAX_M_DOUBLINGS times
_TAIL_TOL, _MAX_M_DOUBLINGS = 1e-3, 2


@dataclass
class BifurcationProblem:
    profile: object
    eos: object
    k: int
    chi: int = 1
    cfg: EvolutionConfig = None
    alphas: tuple = (1e-4, 2e-4, 5e-4, 1e-3)
    newton_tol: float = 1e-10
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.cfg is None:
            # phase accuracy is driven by the perturbed k-mode, not the cutoff
            self.cfg = EvolutionConfig(M=32, k_accuracy=max(4, self.k + 2))

    # -- cached spectral data ---------------------------------------------

    def eigen(self):
        if "eig" not in self._cache:
            self._cache["eig"] = _spectrum.eigen_solve(self.profile, self.k, self.chi)
        return self._cache["eig"]

    def divisor_table(self, m):
        key = ("table", m)
        if key not in self._cache:
            self._cache[key] = _spectrum.divisors(self.profile, self.eigen().T, self.chi, m)
        return self._cache[key]

    def validate(self):
        """Resonance gate: refuse anything but a clean nonresonant verdict."""
        if self._cache.get("validated"):
            return
        report = _spectrum.resonance_scan(self.profile, self.k, self.chi, j_max=self.cfg.M)
        if report.verdict != "nonresonant":
            raise ResonanceError(
                f"k={self.k} mode is {report.verdict} "
                f"(min divisor {report.min_divisor:.3e} at j={report.argmin_j})"
            )
        self._cache["validated"] = True


@dataclass(frozen=True)
class PureToneSolution:
    alpha: float
    z: float
    a: np.ndarray  # full cosine corrections, a[0] = a[k] = 0
    residual_weighted: float
    newton_iters: int
    converged: bool
    k: int
    chi: int
    T: float
    M: int
    pbar: float
    pbar_effective: float
    diagnostics: dict = field(default_factory=dict)

    def y0_field(self) -> FourierField:
        cos = self.a.copy()
        cos[0] = self.pbar + self.z
        cos[self.k] = self.alpha
        return FourierField(self.T, cos, np.zeros_like(cos))


@dataclass(frozen=True)
class BranchResult:
    solutions: tuple
    failure: Optional[dict]
    alphas_requested: tuple

    @property
    def largest_alpha(self):
        return self.solutions[-1].alpha if self.solutions else None


# -- residual assembly ---------------------------------------------------------


def _mode_indices(m, k):
    """Unknown ordering: u = [z, a_j for j in 1..M, j != k]."""
    return [j for j in range(1, m + 1) if j != k]


def _sine_components(a_out, b_out, chi):
    """Sine coefficients of S applied to the evolved field, j = 1..M."""
    c, s = sl_core.quarter_cos_sin(np.arange(a_out.shape[-1]) * chi)
    return (c * b_out - s * a_out)[..., 1:]


def residual(problem: BifurcationProblem, z, a_vec, alpha):
    """Boundary residual r_1..r_M of the assembled data (single evolution)."""
    m = problem.cfg.M
    eig = problem.eigen()
    cos = np.asarray(a_vec, dtype=float).copy()
    if cos.size != m + 1:
        raise SolverError("a_vec must have M+1 entries (zeros at 0 and k)")
    cos[0] = problem.profile.pbar + z
    cos[problem.k] = alpha
    (a_out, b_out), _ = evolve_coefficients(
        problem.profile, problem.eos, cos, np.zeros_like(cos), eig.T, problem.cfg
    )
    return _sine_components(a_out, b_out, problem.chi)


class _NewtonWorkspace:
    """Residual/Jacobian evaluation at fixed alpha with batched evolutions."""

    def __init__(self, problem, alpha, m):
        self.problem = problem
        self.alpha = alpha
        self.m = m
        self.idx = _mode_indices(m, problem.k)
        self.eig = problem.eigen()
        self.table = problem.divisor_table(m)
        self.n_evolve = 0

    def unpack(self, u):
        z = u[0]
        cos = np.zeros(self.m + 1)
        cos[0] = self.problem.profile.pbar + z
        cos[self.problem.k] = self.alpha
        cos[self.idx] = u[1:]
        return cos

    def _evolve(self, cos_batch):
        self.n_evolve += cos_batch.shape[0] if cos_batch.ndim > 1 else 1
        (a_out, b_out), _ = evolve_coefficients(
            self.problem.profile,
            self.problem.eos,
            cos_batch,
            np.zeros_like(cos_batch),
            self.eig.T,
            self.problem.cfg,
        )
        return _sine_components(a_out, b_out, self.problem.chi)

    def residual(self, u):
        return self._evolve(self.unpack(u))

    def weighted(self, r):
        return weighted_norm(r, self.table, k=self.problem.k)

    def residual_and_jacobian(self, u):
        """One batched evolution: base plus M forward-difference columns."""
        n_unknowns = u.size
        steps = _FD_STEP * np.maximum(1.0, np.abs(u))
        batch = np.empty((n_unknowns + 1, self.m + 1))
        batch[0] = self.unpack(u)
        for i in range(n_unknowns):
            up = u.copy()
            up[i] += steps[i]
            batch[i + 1] = self.unpack(up)
        r_all = self._evolve(batch)
        r0 = r_all[0]
        jac = (r_all[1:] - r0[None, :]).T / steps[None, :]
        return r0, jac


def solve_at_alpha(problem: BifurcationProblem, alpha, warm=None) -> PureToneSolution:
    """Damped Newton on the square system r(z, {a_j}; alpha) = 0.

    Rows j != k are scaled by 1/delta_j (the constant preconditioner that
    the linear theory provides); convergence is weighted residual below
    problem.newton_tol.  If the converged tail coefficients are not small
    against max |a_j|, the cutoff M is doubled and the solve repeats.
    """
    problem.validate()
    pbar = problem.profile.pbar
    eig = problem.eigen()
    if alpha == 0.0:
        m = problem.cfg.M
        return PureToneSolution(
            alpha=0.0, z=0.0, a=np.zeros(m + 1), residual_weighted=0.0,
            newton_iters=0, converged=True, k=problem.k, chi=problem.chi,
            T=eig.T, M=m, pbar=pbar, pbar_effective=pbar,
            diagnostics={"note": "quiet state solves exactly"},
        )

    for doubling in range(_MAX_M_DOUBLINGS + 1):
        m = problem.cfg.M
        ws = _NewtonWorkspace(problem, alpha, m)
        u = np.zeros(m) if warm is None else _resize_warm(warm, m, problem.k)
        sol = _newton_loop(problem, ws, u, alpha, eig, pbar)
        tail_ok = _tail_small(sol)
        if tail_ok or doubling == _MAX_M_DOUBLINGS:
            if not tail_ok:
                sol.diagnostics["tail_warning"] = "tail still large at max M"
            return sol
        problem.cfg = replace(problem.cfg, M=2 * m)
        warm = sol

    raise SolverError("unreachable")


def _resize_warm(warm: PureToneSolution, m, k):
    u = np.zeros(m)
    u[0] = warm.z
    a_old = warm.a
    for pos, j in enumerate(_mode_indices(m, k)):
        if j < a_old.size:
            u[1 + pos] = a_old[j]
    return u


def _tail_small(sol: PureToneSolution) -> bool:
    mags = np.abs(sol.a)
    peak = float(np.max(mags)) if np.any(mags > 0.0) else 0.0
    if peak == 0.0:
        return True
    tail = float(max(mags[-1], mags[-2]))
    sol.diagnostics["tail_fraction"] = tail / peak
    return tail <= _TAIL_TOL * peak


def _newton_loop(problem, ws, u, alpha, eig, pbar):
    k = problem.k
    delta = ws.table.delta.copy()
    scale = np.ones_like(delta)
    others = np.arange(1, ws.m + 1) != k
    scale[others] = 1.0 / delta[others]

    best = None
    r = ws.residual(u)
    wres = ws.weighted(r)
    iters = 0
    t0 = time.perf_counter()
    for iters in range(1, _MAX_NEWTON + 1):
        if wres < problem.newton_tol:
            break
        _, jac = ws.residual_and_jacobian(u)
        try:
            du = np.linalg.solve(jac * scale[:, None], -r * scale)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Newton system at alpha={alpha:g}: {exc}") from exc
        step = 1.0
        for _ in range(8):
            u_try = u + step * du
            r_try = ws.residual(u_try)
            w_try = ws.weighted(r_try)
            if w_try < wres or w_try < problem.newton_tol:
                u, r, wres = u_try, r_try, w_try
                break
            step *= 0.5
        else:
            break  # no progress along the Newton direction
        if best is None or wres < best[1]:
            best = (u.copy(), wres, r.copy())
    if best is not None and best[1] < wres:
        u, wres, r = best[0], best[1], best[2]

    converged = bool(wres < problem.newton_tol)
    if not converged:
        raise SolverError(
            f"Newton stalled at alpha={alpha:g}: weighted residual {wres:.3e} "
            f"after {iters} iterations"
        )
    a_full = np.zeros(ws.m + 1)
    a_full[ws.idx] = u[1:]
    z = float(u[0])
    aux = weighted_norm(np.where(others, r, 0.0), ws.table, k=k)
    return PureToneSolution(
        alpha=float(alpha),
        z=z,
        a=a_full,
        residual_weighted=float(wres),
        newton_iters=iters,
        converged=converged,
        k=k,
        chi=problem.chi,
        T=eig.T,
        M=ws.m,
        pbar=pbar,
        pbar_effective=pbar + z,
        diagnostics={
            "auxiliary_residual": float(aux),
            "bifurcation_residual": float(abs(r[k - 1])),
            "evolutions": ws.n_evolve,
            "seconds": time.perf_counter() - t0,
        },
    )


def branch_continue(problem: BifurcationProblem, alphas=None) -> BranchResult:
    """Walk the amplitude schedule with warm starts; stop at first failure."""
    problem.validate()
    schedule = tuple(alphas if alphas is not None else problem.alphas)
    if any(a2 <= a1 for a1, a2 in zip(schedule, schedule[1:])):
        raise SolverError("alpha schedule must be strictly increasing")
    solutions = []
    warm = None
    failure = None
    for alpha in schedule:
        try:
            sol = solve_at_alpha(problem, alpha, warm=warm)
        except Exception as exc:  # noqa: BLE001 - record cause, stop the branch
            failure = {
                "alpha": float(alpha),
                "error": type(exc).__name__,
                "message": str(exc),
            }
            break
        solutions.append(sol)
        warm = sol
    return BranchResult(tuple(solutions), failure, schedule)


# -- dual-path derivative check ----------------------------------------------------


@dataclass(frozen=True)
class DgdzCheck:
    fd_value: float
    pairing: float
    rel_diff: float
    sign_match: bool
    phi_hat: float
    psi_hat: float
    b_ell: float
    h_alpha: float
    h_z: float


def dgdz_check(problem: BifurcationProblem, h_alpha=3e-4, h_z=3e-4) -> DgdzCheck:
    """Central finite differences of f(alpha, z) against the Duhamel pairing.

    f(alpha, z) is the k-th sine coefficient of S E^ell (pbar + z + alpha
    cos(k .)); the mixed partial at the origin equals the quiet-state second
    derivative pairing (auxiliary terms are higher order there).
    """
    problem.validate()
    m = problem.cfg.M
    eig = problem.eigen()
    pbar = problem.profile.pbar
    batch = np.zeros((4, m + 1))
    signs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    for row, (sa, sz) in zip(batch, signs):
        row[0] = pbar + sz * h_z
        row[problem.k] = sa * h_alpha
    (a_out, b_out), _ = evolve_coefficients(
        problem.profile, problem.eos, batch, np.zeros_like(batch), eig.T, problem.cfg
    )
    r = _sine_components(a_out, b_out, problem.chi)[:, problem.k - 1]
    fd = (r[0] - r[1] - r[2] + r[3]) / (4.0 * h_alpha * h_z)
    d2 = second_derivative_quiet(problem.profile, problem.eos, problem.k, problem.chi, eig=eig)
    rel = abs(fd - d2.pairing) / max(abs(d2.pairing), 1e-300)
    return DgdzCheck(
        fd_value=float(fd),
        pairing=float(d2.pairing),
        rel_diff=float(rel),
        sign_match=bool(np.sign(fd) == np.sign(d2.pairing)),
        phi_hat=d2.phi_hat,
        psi_hat=d2.psi_hat,
        b_ell=d2.b_ell,
        h_alpha=float(h_alpha),
        h_z=float(h_z),
    )
