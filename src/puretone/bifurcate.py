"""Numerical Liapunov-Schmidt solver for nonlinear pure-tone data.

For a nonresonant k-mode with reference period T = 2 pi k / omega_k, we seek
even initial data

    y0(t) = pbar + alpha cos(k t 2pi/T) + z + sum_{j != k} a_j cos(j t 2pi/T)

whose boundary image S E^ell y0 vanishes.  The amplitude alpha is prescribed;
the unknowns are the 0-mode shift z (the bifurcation direction, powered by
genuine nonlinearity) and the auxiliary coefficients a_j.  There is exactly
one sine equation r_j per unknown, so the system is square and is solved as
one coupled system instead of the literal nested auxiliary-then-bifurcation
construction; the two residual pieces are still reported separately in the
diagnostics.

The iteration is a chord method on the Jacobian to first order in alpha,
J0 + alpha J1, which the quiet state gives in closed form.  J0 = S o L is
diag(delta_j) on the a_j and nothing on z.  J1 = S D^2 E(pbar)[cos k, .] is
the quiet second variation (`quiet_second_variation`), one banded table per
problem and M: column i feeds only the rows i + k and |i - k|, and the z
column's one entry, at r_k, is the genuine-nonlinearity pairing.  The
dropped terms are O(alpha^2), so the chord contracts at about 5e-8 to 5e-6
per step on the default branch.  A chord step costs one single-row
evolution and one dense M x M solve.  A step that fails to halve the
weighted residual replaces the chord matrix by a forward-difference
Jacobian at the new iterate, one batched evolution of M rows, at most
_MAX_REFRESH times per solve; if the step taken with that fresh Jacobian
does not lower the residual either, the solve has reached its roundoff
floor and ends with a SolverError that names it.  Along a branch the start
is the previous solution with each unknown scaled by its own power of
alpha / alpha_prev: the cube for the a_j at odd multiples 3k, 5k, ... of k,
which are odd in alpha, and the square for z and every other a_j
(`_resize_warm`).  On the default branch that start lands below newton_tol
at the two middle alphas, whose solves then end on their first residual.

A solve stops once the weighted residual is below newton_tol and returns
the chord step solved from that residual, unmarched.  The weighted residual
is the divisor-scaled norm, in which the linearized boundary operator is an
isometry, so it measures the H^b size of the step's correction to the a_j.
Keeping the step is safe: Theta, the contraction, multiplies the error it
removes, since the error after it is at most Theta / (1 - Theta) times the
step (Deuflhard 2004, ch. 2), and a step that fails to halve the residual
triggers a refresh.  The step also pins z, which the weighted residual
leaves loose (its k-row is not divided by alpha * pairing), up to a floor on
accuracy: r_k rounds at about eps * alpha and moves by alpha * pairing per
unit z, so z resolves only to about eps / |pairing| absolute.  The
diagnostics report `contraction`, the largest ratio of successive weighted
residuals, and `refreshes`, the number of Jacobians taken.  A solve that
ends on its first residual measures no ratio, and its `contraction` is 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, PureToneError, ResonanceError, SolverError
from . import spectrum as _spectrum
from . import sl_core
from .evolve import (
    EvolutionConfig,
    FourierField,
    eos_and_pbar,
    evolve_coefficients,
    quiet_second_variation,
    weighted_norm,
)

#: chord iterations per solve; forward-difference Jacobians that may replace
#: the first-order chord matrix per solve, and their step relative to max(1, |u_i|)
_MAX_NEWTON, _MAX_REFRESH, _FD_STEP = 30, 3, 1e-7

#: a solve whose top two cosine coefficients exceed this share of the largest
#: is repeated with M doubled, at most _MAX_M_DOUBLINGS times
_TAIL_TOL, _MAX_M_DOUBLINGS = 1e-3, 2


@dataclass
class BifurcationProblem:
    """One pure-tone problem: the k-mode of `profile` with boundary condition chi.

    The problem resolves the x-march's accuracy mode: a cfg that leaves
    `k_accuracy` unset gets max(4, k + 2), since the data are the linear
    k-mode plus O(alpha^2) corrections and the march's phase accuracy is set
    by that mode, not by the cutoff M.  An omitted cfg is EvolutionConfig(M=32)
    before that; an explicit k_accuracy or dx is kept as given.  Construction
    refuses a profile without eos or pbar, an `eos` other than profile.eos,
    a cutoff M below 2, which leaves no a_j to solve for, and a mode k above
    the cutoff M, which the data could not carry.
    """

    profile: object
    eos: object
    k: int
    chi: int = 1
    cfg: EvolutionConfig = None
    newton_tol: float = 1e-10
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0.0 < self.newton_tol < np.inf:
            raise DomainError(f"newton_tol must be finite and positive (got {self.newton_tol!r})")
        if eos_and_pbar(self.profile)[0] != self.eos:
            raise DomainError(f"eos must be the profile's {self.profile.eos!r} (got {self.eos!r})")
        if self.cfg is None:
            self.cfg = EvolutionConfig(M=32)
        if self.cfg.M < 2:
            raise DomainError(f"cutoff M={self.cfg.M} is below 2: it leaves no a_j beside the k-mode")
        if self.k > self.cfg.M:
            raise DomainError(f"mode k={self.k} lies above the cutoff M={self.cfg.M}")
        if self.cfg.k_accuracy is None:
            self.cfg = replace(self.cfg, k_accuracy=max(4, self.k + 2))

    # -- cached spectral data ---------------------------------------------

    def eigen(self):
        if "eig" not in self._cache:
            self._cache["eig"] = _spectrum.eigen_solve(self.profile, self.k, self.chi)
        return self._cache["eig"]

    def validate(self):
        """Resonance gate at j_max = cfg.M: refuse anything but a nonresonant verdict.

        Returns the gate's ResonanceReport, cached per M; its divisor table is
        the one the chord solve and the weighted norm read.
        """
        key = ("gate", self.cfg.M)
        if key not in self._cache:
            report = _spectrum.resonance_scan(self.profile, self.k, self.chi, j_max=self.cfg.M)
            if report.verdict != "nonresonant":
                raise ResonanceError(
                    f"k={self.k} mode is {report.verdict} "
                    f"(min divisor {report.min_divisor:.3e} at j={report.argmin_j})"
                )
            self._cache[key] = report
        return self._cache[key]

    def second_variation(self):
        """J1 of quiet_second_variation at the gate's T and cutoff M, cached per M."""
        key = ("j1", self.cfg.M)
        if key not in self._cache:
            self._cache[key] = quiet_second_variation(self.profile, self.k, self.chi,
                                                      self.eigen().T, self.cfg.M)
        return self._cache[key]


@dataclass(frozen=True)
class PureToneSolution:
    """A converged solve: z and a are one chord step past the last iterate whose
    residual was evaluated, which `residual_weighted` and the diagnostics'
    residuals report; `newton_iters` counts the chord steps taken.  A solve
    whose start already met newton_tol takes one step, measures no
    contraction and reports `contraction` 0.0."""

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


# -- residual assembly ---------------------------------------------------------


def _mode_indices(m, k):
    """Unknown ordering: u = [z, a_j for j in 1..M, j != k]."""
    return [j for j in range(1, m + 1) if j != k]


def _boundary_sines(problem, cos_rows):
    """Sine coefficients j = 1..M of S E^ell y0 for even data y0 with cosine rows cos_rows."""
    (a_out, b_out), _ = evolve_coefficients(problem.profile, cos_rows, np.zeros_like(cos_rows),
                                            problem.eigen().T, problem.cfg)
    return sl_core.boundary_sine(np.arange(a_out.shape[-1]) * problem.chi, a_out, b_out)[..., 1:]


class _NewtonWorkspace:
    """Residual/Jacobian evaluation at fixed alpha with batched evolutions."""

    def __init__(self, problem, alpha, m):
        self.problem = problem
        self.alpha = alpha
        self.m = m
        self.idx = _mode_indices(m, problem.k)
        self.pbar = problem.profile.pbar
        self.table = problem.validate().divisor_table
        self.n_evolve = 0

    def unpack(self, u):
        cos = np.zeros(self.m + 1)
        cos[0] = self.pbar + u[0]
        cos[self.problem.k] = self.alpha
        cos[self.idx] = u[1:]
        return cos

    def _evolve(self, cos_batch):
        self.n_evolve += cos_batch.shape[0] if cos_batch.ndim > 1 else 1
        return _boundary_sines(self.problem, cos_batch)

    def residual(self, u):
        return self._evolve(self.unpack(u))

    def weighted(self, r):
        return weighted_norm(r, self.table, k=self.problem.k)

    def chord(self):
        """J0 + alpha J1 in the residual's row order and the unknowns' column order."""
        jac = self.alpha * self.problem.second_variation()[:, [0] + self.idx]
        rows = np.array(self.idx) - 1
        jac[rows, 1 + np.arange(rows.size)] += self.table.delta[rows]
        return jac

    def jacobian(self, u, r0):
        """Forward differences about u, whose residual is r0: one batch of M rows."""
        steps = _FD_STEP * np.maximum(1.0, np.abs(u))
        batch = np.empty((u.size, self.m + 1))
        for i in range(u.size):
            up = u.copy()
            up[i] += steps[i]
            batch[i] = self.unpack(up)
        return (self._evolve(batch) - r0[None, :]).T / steps[None, :]


def solve_at_alpha(problem: BifurcationProblem, alpha, warm=None) -> PureToneSolution:
    """Chord iteration on the square system r(z, {a_j}; alpha) = 0.

    The chord matrix is J0 + alpha J1, refreshed by a forward-difference
    Jacobian only when a step fails to contract (module docstring); u is
    returned one step past the iterate whose residuals it reports.  If the
    converged tail coefficients are not small against max |a_j|, the cutoff
    M is doubled (n_quad kept >= 4 M) and the solve repeats.
    """
    problem.validate()
    if alpha == 0.0:
        m, pbar = problem.cfg.M, problem.profile.pbar
        return PureToneSolution(
            alpha=0.0, z=0.0, a=np.zeros(m + 1), residual_weighted=0.0,
            newton_iters=0, converged=True, k=problem.k, chi=problem.chi,
            T=problem.eigen().T, M=m, pbar=pbar, pbar_effective=pbar,
            diagnostics={"note": "quiet state solves exactly"},
        )

    for doubling in range(_MAX_M_DOUBLINGS + 1):
        m = problem.cfg.M
        ws = _NewtonWorkspace(problem, alpha, m)
        u = np.zeros(m) if warm is None else _resize_warm(warm, m, problem.k, alpha)
        sol = _newton_loop(ws, u)
        tail_ok = _tail_small(sol)
        if tail_ok or doubling == _MAX_M_DOUBLINGS:
            if not tail_ok:
                sol.diagnostics["tail_warning"] = "tail still large at max M"
            return sol
        n_quad = problem.cfg.n_quad and max(problem.cfg.n_quad, 4 * (2 * m))  # None stays 4 M
        problem.cfg = replace(problem.cfg, M=2 * m, n_quad=n_quad)
        problem.validate()  # gate the divisors j in (M, 2M] as well
        warm = sol

    raise SolverError("unreachable")


def _resize_warm(warm: PureToneSolution, m, k, alpha):
    """Start from a solution at another alpha, each unknown scaled by its own power.

    The solution carries only the harmonics j = m k: its data are
    T/k-periodic.  The shift t -> t + T / (2k) multiplies a_{mk} by (-1)^m,
    the k-mode included, so it maps the alpha solution onto the -alpha one:
    z and the a_j with j/k even are even in alpha, O(alpha^2), and the a_j
    with j an odd multiple of k are odd, O(alpha^3).  The latter scale by
    (alpha / alpha_prev)^3, every other unknown by (alpha / alpha_prev)^2.
    """
    u = np.zeros(m)
    u[0] = warm.z
    a_old = warm.a
    idx = _mode_indices(m, k)
    for pos, j in enumerate(idx):
        if j < a_old.size:
            u[1 + pos] = a_old[j]
    if not warm.alpha:
        return u
    ratio = alpha / warm.alpha
    odd = np.array([False] + [j % (2 * k) == k for j in idx])
    return u * np.where(odd, ratio**3, ratio**2)


def _tail_small(sol: PureToneSolution) -> bool:
    mags = np.abs(sol.a)
    peak = float(np.max(mags)) if np.any(mags > 0.0) else 0.0
    if peak == 0.0:
        return True
    tail = float(max(mags[-1], mags[-2]))
    sol.diagnostics["tail_fraction"] = tail / peak
    return tail <= _TAIL_TOL * peak


def _newton_loop(ws, u):
    problem, alpha, pbar, k = ws.problem, ws.alpha, ws.pbar, ws.problem.k
    others = np.arange(1, ws.m + 1) != k
    jac = ws.chord()
    r = ws.residual(u)
    wres = ws.weighted(r)
    contraction, refreshes, fresh = 0.0, 0, False
    for iters in range(1, _MAX_NEWTON + 1):
        try:
            u = u - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at alpha={alpha:g}: {exc}") from exc
        if wres < problem.newton_tol:
            break
        r_new = ws.residual(u)
        w_new = ws.weighted(r_new)
        if fresh and w_new >= wres:
            # a Jacobian taken at the last iterate no longer lowers the residual
            raise SolverError(
                f"Newton reached its residual floor at alpha={alpha:g}: weighted residual "
                f"{wres:.3e} does not fall below newton_tol {problem.newton_tol:.3e}"
            )
        contraction = max(contraction, w_new / wres)
        fresh = w_new > 0.5 * wres and refreshes < _MAX_REFRESH
        if fresh:
            jac = ws.jacobian(u, r_new)
            refreshes += 1
        r, wres = r_new, w_new
    else:
        raise SolverError(f"Newton stalled at alpha={alpha:g}: weighted residual "
                          f"{wres:.3e} after {iters} iterations")
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
        converged=True,
        k=k,
        chi=problem.chi,
        T=problem.eigen().T,
        M=ws.m,
        pbar=pbar,
        pbar_effective=pbar + z,
        diagnostics={
            "auxiliary_residual": float(aux),
            "bifurcation_residual": float(abs(r[k - 1])),
            "evolutions": ws.n_evolve,
            "contraction": float(contraction),
            "refreshes": refreshes,
        },
    )


def branch_continue(problem: BifurcationProblem, alphas=(1e-4, 2e-4, 5e-4, 1e-3)) -> BranchResult:
    """Walk the amplitude schedule with warm starts; the first typed failure
    (PureToneError) is recorded and ends the branch, any other error propagates."""
    problem.validate()
    schedule = tuple(alphas)
    if any(a2 <= a1 for a1, a2 in zip(schedule, schedule[1:])):
        raise SolverError("alpha schedule must be strictly increasing")
    solutions = []
    warm = None
    failure = None
    for alpha in schedule:
        try:
            sol = solve_at_alpha(problem, alpha, warm=warm)
        except PureToneError as exc:  # a typed numerical failure ends the branch
            failure = {
                "alpha": float(alpha),
                "error": type(exc).__name__,
                "message": str(exc),
            }
            break
        solutions.append(sol)
        warm = sol
    return BranchResult(tuple(solutions), failure, schedule)
