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

The iteration is a chord method on the quiet-state Jacobian, which the
linear theory gives in closed form: S o L = diag(delta_j) on the a_j, and
alpha times the genuine-nonlinearity pairing of `second_derivative_quiet`
on z.  A chord step costs one single-row evolution.  A step that fails to
halve the weighted residual replaces the chord matrix by a forward-difference
Jacobian at the new iterate, one batched evolution of M rows, at most
_MAX_REFRESH times per solve.  Along a branch the start is the previous
solution scaled by (alpha / alpha_prev)^2, since z and the a_j are
O(alpha^2).

A solve stops when the weighted residual is below newton_tol and the z step
is below _Z_STEP |z|, or below _Z_ULPS ulps of pbar + z: z reaches the march
only through that stored mean, so at small alpha its steps end up wandering
by a few of those ulps and cannot shrink further.  The weighted residual is the divisor-scaled norm, in
which the linearized boundary operator is an isometry, so it measures the
H^b size of the remaining correction to the a_j; its k-row is not divided by
alpha * pairing, so it leaves z loose, and the step test pins z.  The
diagnostics report `contraction`, the largest ratio of successive weighted
residuals over the steps taken from above newton_tol (below it the ratios
are roundoff), and `refreshes`, the number of Jacobians taken.
"""

from __future__ import annotations

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

#: chord iterations per solve; forward-difference Jacobians that may replace
#: the quiet chord matrix per solve, and their step relative to max(1, |u_i|)
_MAX_NEWTON, _MAX_REFRESH, _FD_STEP = 30, 3, 1e-7

#: a solve stops only once the z step is this small against z as well, or is
#: within _Z_ULPS units in the last place of the stored mean pbar + z, the
#: resolution at which z reaches the march
_Z_STEP, _Z_ULPS = 1e-7, 8

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
        """Resonance gate at j_max = cfg.M: refuse anything but a nonresonant verdict."""
        key = ("validated", self.cfg.M)
        if self._cache.get(key):
            return
        report = _spectrum.resonance_scan(self.profile, self.k, self.chi, j_max=self.cfg.M)
        if report.verdict != "nonresonant":
            raise ResonanceError(
                f"k={self.k} mode is {report.verdict} "
                f"(min divisor {report.min_divisor:.3e} at j={report.argmin_j})"
            )
        self._cache[key] = True

    def second_derivative(self):
        """Quiet second derivative; its pairing gives d r_k / d z = alpha * pairing."""
        if "d2" not in self._cache:
            self._cache["d2"] = second_derivative_quiet(
                self.profile, self.eos, self.k, self.chi, eig=self.eigen()
            )
        return self._cache["d2"]


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

    The chord matrix is the quiet-state Jacobian, refreshed by a
    forward-difference one only when a step fails to contract (module
    docstring).  If the converged tail coefficients are not small against
    max |a_j|, the cutoff M is doubled (n_quad kept >= 4 M) and the solve repeats.
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
        u = np.zeros(m) if warm is None else _resize_warm(warm, m, problem.k, alpha)
        sol = _newton_loop(problem, ws, u, alpha, eig, pbar)
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
    """Start from a solution at another alpha: z and a_j are O(alpha^2)."""
    u = np.zeros(m)
    u[0] = warm.z
    a_old = warm.a
    for pos, j in enumerate(_mode_indices(m, k)):
        if j < a_old.size:
            u[1 + pos] = a_old[j]
    return u * (alpha / warm.alpha) ** 2 if warm.alpha else u


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
    others = np.arange(1, ws.m + 1) != k
    # the quiet Jacobian is diagonal in the unknowns' order: alpha * pairing
    # at (r_k, z), delta_j at (r_j, a_j)
    rows = np.array([k] + ws.idx) - 1
    quiet = ws.table.delta[rows].copy()
    quiet[0] = alpha * problem.second_derivative().pairing
    jac = None  # a forward-difference Jacobian, once the chord has been refreshed

    r = ws.residual(u)
    wres = ws.weighted(r)
    contraction, refreshes = 0.0, 0
    for iters in range(1, _MAX_NEWTON + 1):
        if jac is None:
            du = -r[rows] / quiet
        else:
            try:
                du = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular Jacobian at alpha={alpha:g}: {exc}") from exc
        z_tol = max(_Z_STEP * abs(u[0]), _Z_ULPS * np.spacing(pbar + u[0]))
        if wres < problem.newton_tol and abs(du[0]) <= z_tol:
            break
        u = u + du
        r_new = ws.residual(u)
        w_new = ws.weighted(r_new)
        # below newton_tol the steps only pin z and the ratios are roundoff
        if wres >= problem.newton_tol:
            contraction = max(contraction, w_new / wres)
            if w_new > 0.5 * wres and refreshes < _MAX_REFRESH:
                jac = ws.jacobian(u, r_new)
                refreshes += 1
        r, wres = r_new, w_new
    else:
        raise SolverError(
            f"Newton stalled at alpha={alpha:g}: weighted residual {wres:.3e}, "
            f"z step {abs(du[0]):.3e} after {iters} iterations"
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
        converged=True,
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
            "contraction": float(contraction),
            "refreshes": refreshes,
        },
    )


def branch_continue(problem: BifurcationProblem, alphas=(1e-4, 2e-4, 5e-4, 1e-3)) -> BranchResult:
    """Walk the amplitude schedule with warm starts; stop at first failure."""
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


def dgdz_check(problem: BifurcationProblem) -> DgdzCheck:
    """Central finite differences of f(alpha, z) against the Duhamel pairing.

    f(alpha, z) is the k-th sine coefficient of S E^ell (pbar + z + alpha
    cos(k .)); the mixed partial at the origin equals the quiet-state second
    derivative pairing (auxiliary terms are higher order there).
    """
    problem.validate()
    m = problem.cfg.M
    eig = problem.eigen()
    pbar = problem.profile.pbar
    h = 3e-4  # the central-difference step in alpha and in z
    batch = np.zeros((4, m + 1))
    signs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    for row, (sa, sz) in zip(batch, signs):
        row[0] = pbar + sz * h
        row[problem.k] = sa * h
    (a_out, b_out), _ = evolve_coefficients(
        problem.profile, problem.eos, batch, np.zeros_like(batch), eig.T, problem.cfg
    )
    r = _sine_components(a_out, b_out, problem.chi)[:, problem.k - 1]
    fd = (r[0] - r[1] - r[2] + r[3]) / (4.0 * h * h)
    d2 = problem.second_derivative()
    rel = abs(fd - d2.pairing) / max(abs(d2.pairing), 1e-300)
    return DgdzCheck(
        fd_value=float(fd),
        pairing=float(d2.pairing),
        rel_diff=float(rel),
        sign_match=bool(np.sign(fd) == np.sign(d2.pairing)),
        phi_hat=d2.phi_hat,
        psi_hat=d2.psi_hat,
        b_ell=d2.b_ell,
        h_alpha=h,
        h_z=h,
    )
