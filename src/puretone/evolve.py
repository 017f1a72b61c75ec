"""Fourier-pseudospectral evolution in x of the scalar conservation law.

State y(x, t) = p + u is a T-periodic function of t carried as real
cosine/sine coefficients (a_j, b_j), j = 0..M.  Its even part is the
pressure, the odd part the velocity, and the law reads

    y_x + g(y)_t = 0,    g(y) = R_- y - v(R_+ y, s(x)),

so that the even/odd projections reproduce p_x = -u_t and u_x = +v_t.
(The flux sign is fixed by the linearized system U_x + sigma^2 P_t = 0:
spelled out in coefficients,

    da_j/dx = -j Omega b_j,
    db_j/dx = -j Omega * [cos coefficients of v(p(t), s(x))],

which at a quiet state reduces exactly to the Sturm-Liouville system.)

The nonlinear term is evaluated on an oversampled collocation grid
(n_quad >= 4 M; the gamma-law flux is not polynomial so exact dealiasing is
impossible and oversampling plus tail monitoring is the standard practice).
Only the fluctuation around the conserved mean a_0 ever passes through the
transforms, which keeps rounding noise at the 1e-16 coefficient level.  Each
transform is one product against cosine/sine matrices cached per (M, n),
cheaper than an FFT round trip at these sizes; a march folds -j Omega and the
2/n scaling into its one analysis matrix.

x-stepping is Lawson (integrating-factor) RK4.  Linearized at the mean,
the law is the SL rotation of each mode: with s^2 = -v_p(a_0, A),

    (a_j, b_j)(x + h) = [[cos th, -sin th / s], [s sin th, cos th]] (a_j, b_j)(x),
    th = j Omega s h,

which each step applies exactly; RK4 carries only the remainder
v(p) - v(a_0) - v_p(a_0) (p - a_0) in the b_j equation.  On a smooth piece
the rotation takes the step-midpoint sigma and the remainder also carries
the sigma variation.  Since the remainder is quadratic in the fluctuation,
a constant piece takes few steps, sized from the remainder's share of the
motion (EvolutionConfig).  Entropy jumps are the identity on (p, u)
coefficients.  The remainder vanishes at quiet data, so quiet states are
exact fixed points, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalError, ResonanceError, ShockProximityError
from .profile import PiecewiseConstantProfile
from . import sl_core
from . import spectrum as _spectrum


# -- coefficient <-> grid transforms (batched over leading axes) -----------------


def _sin_quarter(r, n):
    """Read-only sin(r pi / (2 n)) for integer r >= 0, folded onto [0, pi/2]."""
    r = r % (4 * n)
    sign = np.where(r > 2 * n, -1.0, 1.0)
    r = np.where(r > 2 * n, 4 * n - r, r)
    r = np.where(r > n, 2 * n - r, r)
    out = sign * np.sin(r * (np.pi / (2 * n)))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _dft_basis(m, n):
    """cos/sin(2 pi j i / n), j = 0..m, i = 0..n-1, each (m+1, n).

    The phase is the integer (j i) mod n, folded onto the first quadrant
    before it is scaled, so the tables match an FFT to roundoff at any m, are
    exactly even (cos) and odd (sin) in i, and vanish exactly where the
    phase is a multiple of pi.  n >= 2 m + 2 leaves no Nyquist term.
    """
    if n < 2 * m + 2:
        raise DomainError(f"grid of {n} points cannot carry {m} modes")
    quarters = 4 * (np.outer(np.arange(m + 1), np.arange(n)) % n)
    return _sin_quarter(quarters + n, n), _sin_quarter(quarters, n)


def coeffs_to_grid(a, b, n):
    """Values of sum a_j cos + b_j sin on the uniform grid t_i = i T / n."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cos, sin = _dft_basis(a.shape[-1] - 1, n)
    return a @ cos + b @ sin


def grid_to_coeffs(values, m):
    """Leading m+1 cosine/sine coefficients of grid samples."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    cos, sin = _dft_basis(m, n)
    a = values @ cos.T * (2.0 / n)
    a[..., 0] *= 0.5
    return a, values @ sin.T * (2.0 / n)


# -- the field type ----------------------------------------------------------------


@dataclass(frozen=True)
class FourierField:
    """Real T-periodic function y(t) = sum_j a_j cos(j 2pi t/T) + b_j sin(...)."""

    T: float
    cos: np.ndarray  # a_0..a_M
    sin: np.ndarray  # b_0 (== 0) .. b_M

    def __post_init__(self):
        cos = np.asarray(self.cos, dtype=float)
        sin = np.asarray(self.sin, dtype=float)
        if cos.shape != sin.shape or cos.ndim != 1:
            raise DomainError("coefficient arrays must be equal-length 1-D")
        if sin[0] != 0.0:
            raise DomainError("the j=0 sine coefficient must vanish")
        if not self.T > 0.0:
            raise DomainError("period must be positive")
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    @property
    def n_modes(self) -> int:
        return self.cos.size - 1

    @classmethod
    def zero(cls, T, m):
        return cls(T, np.zeros(m + 1), np.zeros(m + 1))

    @classmethod
    def constant(cls, T, value, m):
        a = np.zeros(m + 1)
        a[0] = value
        return cls(T, a, np.zeros(m + 1))

    @classmethod
    def cosine(cls, T, j, amplitude=1.0, m=None):
        m = j if m is None else m
        a = np.zeros(m + 1)
        a[j] = amplitude
        return cls(T, a, np.zeros(m + 1))

    @classmethod
    def from_grid(cls, values, T, m):
        a, b = grid_to_coeffs(values, m)
        return cls(T, a, b)

    def grid(self, n=None):
        n = n if n is not None else max(4 * self.n_modes, 8)
        return coeffs_to_grid(self.cos, self.sin, n)

    def t_grid(self, n=None):
        n = n if n is not None else max(4 * self.n_modes, 8)
        return np.arange(n) * (self.T / n)

    def __add__(self, other):
        self._compatible(other)
        return FourierField(self.T, self.cos + other.cos, self.sin + other.sin)

    def __sub__(self, other):
        self._compatible(other)
        return FourierField(self.T, self.cos - other.cos, self.sin - other.sin)

    def __mul__(self, scalar):
        return FourierField(self.T, self.cos * float(scalar), self.sin * float(scalar))

    __rmul__ = __mul__

    def _compatible(self, other):
        if abs(other.T - self.T) > 1e-14 * self.T or other.cos.size != self.cos.size:
            raise DomainError("fields live on different periods or cutoffs")

    def norm_inf(self, n=None):
        return float(np.max(np.abs(self.grid(n))))


def project_even(y: FourierField) -> FourierField:
    return FourierField(y.T, y.cos.copy(), np.zeros_like(y.sin))


def project_odd(y: FourierField) -> FourierField:
    return FourierField(y.T, np.zeros_like(y.cos), y.sin.copy())


def shift(y: FourierField, tau: float) -> FourierField:
    """Time shift (T^tau y)(t) = y(t - tau): mode j rotates by j*2pi*tau/T."""
    ang = np.arange(y.cos.size) * (2.0 * np.pi * tau / y.T)
    c, s = np.cos(ang), np.sin(ang)
    return FourierField(y.T, c * y.cos - s * y.sin, s * y.cos + c * y.sin)


def boundary_operator(y: FourierField, chi: int) -> FourierField:
    """S = R_- T^{-chi T/4}: quarter-period shift then odd projection.

    On the cosine j-mode this produces -sin(j chi pi/2) times the sine mode,
    which composed with quiet linearized evolution is exactly the divisor
    delta_j.  Quarter turns use the exact integer table.
    """
    if chi not in (0, 1):
        raise DomainError("chi must be 0 or 1")
    m = y.n_modes
    out_sin = np.zeros(m + 1)
    for j in range(1, m + 1):
        c, s = sl_core.quarter_cos_sin(j * chi)
        out_sin[j] = c * y.sin[j] - s * y.cos[j]
    return FourierField(y.T, np.zeros(m + 1), out_sin)


# -- configuration -----------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionConfig:
    """Discretization knobs for the pseudospectral x-march.

    n_quad defaults to 4*M.  dx, when given, is the step everywhere.
    Otherwise the step is the smaller of two bounds: the stability step
    1/(8 sigma omega_M eta) and the accuracy step that keeps the accumulated
    phase error of mode k_accuracy below x_error_target, relaxed by
    eta**(-1/4).  eta in [0, 1] is the size of the stepped remainder against
    the exact rotation; a smooth piece takes eta = 1 and sigma_max, a
    constant piece its own sigma and the eta of its entry state's envelope
    (eta = 0, one step, when the remainder vanishes).
    """

    M: int
    n_quad: Optional[int] = None
    dx: Optional[float] = None
    b: int = 3
    guard_factor: float = 10.0
    x_error_target: float = 1e-9
    k_accuracy: Optional[int] = None

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("mode cutoff M must be at least 1")
        if self.n_quad is not None and self.n_quad < 4 * self.M:
            raise DomainError("n_quad must be at least 4*M (oversampled dealiasing)")
        if self.dx is not None and not self.dx > 0.0:
            raise DomainError("step dx must be positive")
        if not self.x_error_target > 0.0:
            raise DomainError("x_error_target must be positive")
        if self.k_accuracy is not None and self.k_accuracy < 1:
            raise DomainError("k_accuracy must be at least 1")
        if not self.guard_factor > 0.0:
            raise DomainError("guard_factor must be positive")

    def resolved_n_quad(self) -> int:
        return self.n_quad if self.n_quad is not None else 4 * self.M

    def resolved_dx(self, profile, T, sigma=None, eta=1.0) -> float:
        if self.dx is not None:
            return self.dx
        if eta <= 0.0:
            return np.inf
        smax = profile.sigma_max if sigma is None else sigma
        omega_top = self.M * 2.0 * np.pi / T
        k_acc = self.k_accuracy if self.k_accuracy is not None else min(self.M, 16)
        omega_acc = k_acc * 2.0 * np.pi / T
        dx_stab = 1.0 / (8.0 * smax * omega_top * eta)
        dx_acc = (
            120.0 * self.x_error_target / (profile.ell * (smax * omega_acc) ** 5 * eta)
        ) ** 0.25
        return min(dx_stab, dx_acc)


# -- the x-march ----------------------------------------------------------------------


def _piece_table(profile):
    """(x0, x1, sigma_const_or_None, sigma_fn) per piece."""
    edges = profile.edges
    if isinstance(profile, PiecewiseConstantProfile):
        return [
            (edges[i], edges[i + 1], float(profile.sigma_levels[i]), None)
            for i in range(profile.n_levels)
        ]
    return [(p.x0, p.x1, None, p.sigma) for p in profile.pieces]


def _grad_bound(a, b, omega_modes):
    """l1 upper bound for max_t |d y/d t|, cheap guard monitor."""
    mags = np.abs(a) + np.abs(b)
    return np.max(np.sum(omega_modes * mags, axis=-1))


def _fluct_grid(a, n):
    """Grid values of the cosine series of a without its mean a_0."""
    fluct = a.copy()
    fluct[..., 0] = 0.0
    return coeffs_to_grid(fluct, np.zeros(fluct.shape), n)


class _Frozen(NamedTuple):
    """Equation-of-state constants at one entropy factor, on the grid of the mean."""

    A: float
    v0: np.ndarray
    vp0: np.ndarray
    vpp0: np.ndarray


def _turn(state, rot):
    """Rotate every (cos, sin) pair by the exact half-step SL transfer."""
    c, sn_over_s, s_sn = rot
    return tuple((c * a - sn_over_s * b, s_sn * a + c * b) for a, b in state)


def _kick(state, ks, h):
    return tuple((a, b + h * k) for (a, b), k in zip(state, ks))


class _Marcher:
    """Lawson (integrating-factor) RK4 walker through the profile.

    The state is a tuple of (cos, sin) coefficient pairs over the mean a0.
    Inside a step every pair turns exactly as the SL system with
    s^2 = -v_p(a0, A), mode j by j Omega s dx (the algebra of
    sl_core._pwc_piece_matrix, per batch row); RK4 carries only the
    remainder, which drives the sine coefficients and vanishes at quiet data.
    """

    def __init__(self, profile, eos, T, cfg, a0):
        self.profile = profile
        self.T = T
        self.cfg = cfg
        self.n = cfg.resolved_n_quad()
        self.omega_modes = np.arange(cfg.M + 1) * (2.0 * np.pi / T)
        # grid values -> sine-coefficient rates: -j Omega times the cosine analysis
        self.to_rates = _dft_basis(cfg.M, self.n)[0].T * (-2.0 / self.n * self.omega_modes)
        self.eos = eos if eos is not None else profile.eos
        self.pbar = profile.pbar
        if self.eos is None or self.pbar is None:
            raise DomainError("nonlinear work needs an equation of state and pbar")
        # the mean as a contiguous grid: v(p) and v(a0) then share one code path,
        # so the remainder is exactly zero at quiet data
        self.a0_grid = np.repeat(np.asarray(a0, dtype=float), self.n, axis=-1)

    def frozen(self, sigma_val):
        eos_ = self.eos
        A = eos_.factor_from_sigma(self.pbar, sigma_val)
        return _Frozen(
            A,
            eos_.volume_from_factor(self.a0_grid, A),
            eos_.dvdp_from_factor(self.a0_grid, A),
            eos_.d2vdp2_from_factor(self.a0_grid, A),
        )

    def half_turn(self, rot, h):
        s = np.sqrt(-rot.vp0[..., :1])
        theta = self.omega_modes * s * (0.5 * h)
        sn = np.sin(theta)
        return np.cos(theta), sn / s, s * sn

    def eta(self, state, remainder, rot, sized):
        """Remainder size against the rotation rate, in [0, 1].

        Both are taken on the envelope: every mode at the cosine amplitude it
        reaches during the exact turn, so eta does not depend on where in its
        rotation the piece is entered (data that enter as pure velocity have
        no remainder there, but gain one as they turn).
        """
        s = np.sqrt(-rot.vp0[..., :1])
        envelope = tuple((np.hypot(a, b / s), np.zeros_like(b)) for a, b in state)
        try:
            ks = remainder(envelope, rot, rot)[:sized]
        except ShockProximityError:
            return 1.0  # the envelope leaves positive pressure: fully nonlinear
        lin = max(float(np.max(self.omega_modes * s * s * a)) for a, _ in envelope[:sized])
        rem = max(float(np.max(np.abs(k))) for k in ks)
        return rem / (lin + rem) if rem > 0.0 else 0.0

    def walk(self, state, remainder, x_nodes=None, on_step=None, sized=None):
        """March `state` from 0 to ell; snapshots are taken exactly at x_nodes.

        remainder(state, at, rot) -> one sine derivative per pair, with `at`
        the constants at the stage's x and `rot` those of the rotation (the
        same object on a constant piece).  The step count of a constant piece
        follows the first `sized` pairs (default all).
        """
        nodes = [] if x_nodes is None else list(np.sort(np.asarray(x_nodes, dtype=float)))
        snaps = []
        eps = 1e-12 * max(self.profile.ell, 1.0)

        def take(x, state):
            while nodes and nodes[0] <= x + eps:
                nodes.pop(0)
                snaps.append(tuple((a.copy(), b.copy()) for a, b in state))

        take(0.0, state)
        for x0, x1, sig_const, sig_fn in _piece_table(self.profile):
            targets = [xn for xn in nodes if x0 - eps < xn < x1 - eps] + [x1]
            if sig_const is not None:
                const = self.frozen(sig_const)
                eta = self.eta(state, remainder, const, sized)
                dx = self.cfg.resolved_dx(self.profile, self.T, sig_const, eta)
            else:
                dx = self.cfg.resolved_dx(self.profile, self.T)
            x = x0
            for xt in targets:
                seg = xt - x
                if seg <= 0.0:
                    take(xt, state)
                    continue
                n_steps = max(1, int(np.ceil(seg / dx)))
                h = seg / n_steps
                if sig_const is not None:
                    stages = (const, const, const)
                    rot = self.half_turn(const, h)
                for _ in range(n_steps):
                    if sig_const is None:
                        xs = (x, x + 0.5 * h, x + h)
                        stages = tuple(self.frozen(float(sig_fn(xx))) for xx in xs)
                        rot = self.half_turn(stages[1], h)
                    state = self._step(remainder, state, h, rot, stages)
                    x += h
                    if on_step is not None:
                        on_step(x, state)
                x = xt
                take(x, state)
        # flush nodes that sit within rounding of ell (sum vs cumsum ulps)
        take(self.profile.ell + 2.0 * eps, state)
        return state, snaps

    @staticmethod
    def _step(remainder, state, h, rot, stages):
        """One Lawson RK4 step, E = exact half-step turn, N = remainder:

        k1 = N(u), k2 = N(E(u + h/2 k1)), k3 = N(E u + h/2 k2),
        k4 = N(E(E u + h k3)), u+ = E(E(u + h/6 k1) + h/3 (k2 + k3)) + h/6 k4.
        The turn always uses the midpoint constants.
        """
        at0, mid, at1 = stages
        k1 = remainder(state, at0, mid)
        turned = _turn(state, rot)
        k2 = remainder(_turn(_kick(state, k1, 0.5 * h), rot), mid, mid)
        k3 = remainder(_kick(turned, k2, 0.5 * h), mid, mid)
        k4 = remainder(_turn(_kick(turned, k3, h), rot), at1, mid)
        k23 = tuple(p + q for p, q in zip(k2, k3))
        out = _turn(_kick(_turn(_kick(state, k1, h / 6.0), rot), k23, h / 3.0), rot)
        return _kick(out, k4, h / 6.0)


def evolve_coefficients(profile, eos, a, b, T, cfg, x_nodes=None):
    """Batched core of nonlinear_evolve; a, b have shape (..., M+1).

    The rows of a batch share one step count, set by the largest remainder.
    """
    a = np.array(a, dtype=float, copy=True)
    b = np.array(b, dtype=float, copy=True)
    a0 = a[..., :1]
    marcher = _Marcher(profile, eos, T, cfg, a0)
    jw = marcher.omega_modes
    n = marcher.n
    to_rates = marcher.to_rates
    volume = marcher.eos.volume_from_factor

    def remainder(state, at, rot):
        ((aa, _),) = state
        dp = _fluct_grid(aa, n)
        p = a0 + dp
        if np.min(p) <= 0.0:
            raise ShockProximityError("pressure lost positivity during evolution")
        w = (volume(p, at.A) - at.v0) - rot.vp0 * dp
        return (w @ to_rates,)

    g0 = _grad_bound(a, b, jw)
    threshold = max(cfg.guard_factor * g0, 1e-8)

    def on_step(x, state):
        ((aa, bb),) = state
        if not (np.all(np.isfinite(aa)) and np.all(np.isfinite(bb))):
            raise NumericalError(f"non-finite coefficients at x={x:.6g}")
        if _grad_bound(aa, bb, jw) > threshold:
            raise ShockProximityError(
                f"time-gradient bound exceeded {cfg.guard_factor} x initial at x={x:.6g}"
            )

    ((a, b),), snaps = marcher.walk(((a, b),), remainder, x_nodes=x_nodes, on_step=on_step)
    return (a, b), [pair for (pair,) in snaps]


def nonlinear_evolve(profile, eos, y0: FourierField, cfg: EvolutionConfig, x_nodes=None):
    """Evolve data y0 from x = 0 to x = ell.

    Returns the terminal field, or (terminal, snapshots) when x_nodes is
    given; snapshots are the fields at exactly those x locations.
    """
    if y0.n_modes != cfg.M:
        raise DomainError("field cutoff must match cfg.M")
    (a, b), snaps = evolve_coefficients(profile, eos, y0.cos, y0.sin, y0.T, cfg, x_nodes)
    out = FourierField(y0.T, a, b)
    if x_nodes is None:
        return out
    return out, [FourierField(y0.T, sa, sb) for sa, sb in snaps]


def linearized_evolve(profile, eos, y0: FourierField, Y0: FourierField, cfg: EvolutionConfig):
    """First variation along the nonlinear trajectory of y0.

    The base state and the variation are advanced as one coupled system, so
    the linearization is taken along exactly the computed trajectory.  At a
    quiet base the remainder vanishes and the k-mode turns exactly by the
    transfer matrix Psi(ell; k 2pi/T).
    """
    if y0.n_modes != cfg.M or Y0.n_modes != cfg.M:
        raise DomainError("field cutoffs must match cfg.M")
    a0 = y0.cos[:1]
    marcher = _Marcher(profile, eos, y0.T, cfg, a0)
    n = marcher.n
    to_rates = marcher.to_rates
    eos_ = marcher.eos

    def remainder(state, at, rot):
        (aa, _), (AA, _) = state
        dp = _fluct_grid(aa, n)
        p = a0 + dp
        if np.min(p) <= 0.0:
            raise ShockProximityError("pressure lost positivity during evolution")
        w = (eos_.volume_from_factor(p, at.A) - at.v0) - rot.vp0 * dp
        P = coeffs_to_grid(AA, np.zeros_like(AA), n)
        dvp_P = (eos_.dvdp_from_factor(p, at.A) - rot.vp0) * P
        return (w @ to_rates, dvp_P @ to_rates)

    state = (
        (np.array(y0.cos, copy=True), np.array(y0.sin, copy=True)),
        (np.array(Y0.cos, copy=True), np.array(Y0.sin, copy=True)),
    )
    # steps follow the base trajectory alone, so the march stays linear in Y0
    (_, (AA, BB)), _ = marcher.walk(state, remainder, sized=1)
    return FourierField(y0.T, AA, BB)


# -- second derivative at the quiet state ---------------------------------------------


@dataclass(frozen=True)
class QuietSecondDerivative:
    """D^2 E(pbar)[1, cos(omega .)] boundary data and the bifurcation pairing.

    phi_hat/psi_hat are the terminal coefficients of the forced mode; pairing
    is <sin(k t 2pi/T - chi k pi/2), G> = cos(k chi pi/2) psi_hat
    - sin(k chi pi/2) phi_hat.  b_ell < 0 expresses genuine nonlinearity.
    """

    k: int
    chi: int
    omega: float
    T: float
    phi_hat: float
    psi_hat: float
    pairing: float
    a_ell: float
    b_ell: float
    fundamental: np.ndarray


def second_derivative_quiet(profile, eos, k, chi, eig=None, phase_per_step=None):
    """Duhamel path: integrate the forced SL system along [0, ell].

    In variation-of-parameters form (phi_hat, psi_hat) = Psi(x) (a, b)^T with
    a' = v_pp omega phi phi_tilde and b' = -v_pp omega phi^2 <= 0; the joint
    (Psi, a, b) system is integrated piece by piece with fixed RK4 substeps;
    v_pp is evaluated once per constant piece and at every stage of a smooth one.
    """
    if eig is None:
        eig = _spectrum.eigen_solve(profile, k, chi)
    omega = eig.omega
    eos_ = eos if eos is not None else profile.eos
    pbar = profile.pbar
    if eos_ is None or pbar is None:
        raise DomainError("second derivative needs an equation of state and pbar")
    phase = phase_per_step if phase_per_step is not None else 0.01

    def rhs(x, y, sigma, vpp):
        s2 = sigma * sigma
        p00, p01, p10, p11, a, b = y
        return np.array(
            [
                -omega * p10,
                -omega * p11,
                omega * s2 * p00,
                omega * s2 * p01,
                vpp * omega * p00 * p01,
                -vpp * omega * p00 * p00,
            ]
        )

    def vpp_at(sig):
        return float(eos_.d2vdp2_from_factor(pbar, eos_.factor_from_sigma(pbar, sig)))

    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    for x0, x1, sig_const, sig_fn in _piece_table(profile):
        if sig_const is not None:
            vpp_const = vpp_at(sig_const)

            def f(xx, yy):
                return rhs(xx, yy, sig_const, vpp_const)

            smax = sig_const
        else:

            def f(xx, yy):
                sig = float(sig_fn(xx))
                return rhs(xx, yy, sig, vpp_at(sig))

            smax = float(np.max(sig_fn(np.linspace(x0, x1, 65))))
        h_max = phase / max(omega * smax, 1e-30)
        n_steps = max(8, int(np.ceil((x1 - x0) / h_max)))
        h = (x1 - x0) / n_steps
        x = x0
        for _ in range(n_steps):
            k1 = f(x, y)
            k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(x + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h

    psi_mat = y[:4].reshape(2, 2)
    a_ell, b_ell = y[4], y[5]
    phi_hat = psi_mat[0, 0] * a_ell + psi_mat[0, 1] * b_ell
    psi_hat = psi_mat[1, 0] * a_ell + psi_mat[1, 1] * b_ell
    c, s = sl_core.quarter_cos_sin(k * chi)
    return QuietSecondDerivative(
        k=k,
        chi=chi,
        omega=omega,
        T=eig.T,
        phi_hat=float(phi_hat),
        psi_hat=float(psi_hat),
        pairing=float(c * psi_hat - s * phi_hat),
        a_ell=float(a_ell),
        b_ell=float(b_ell),
        fundamental=psi_mat,
    )


def second_derivative_quiet_spectral(profile, eos, k, chi, cfg=None, eig=None):
    """Pseudospectral cross check of the Duhamel path.

    Evolves the second-variation field Z (zero data) together with the first
    variation Y (the cosine k-mode) through the generic grid-based flux
    machinery, with the bilinear forcing assembled on the collocation grid.
    Returns a QuietSecondDerivative with phi_hat/psi_hat read off Z(ell).
    """
    if eig is None:
        eig = _spectrum.eigen_solve(profile, k, chi)
    if cfg is None:
        cfg = EvolutionConfig(M=max(2 * k, 8), k_accuracy=k, x_error_target=1e-10)
    T = 2.0 * np.pi * k / eig.omega
    marcher = _Marcher(profile, eos, T, cfg, np.array([profile.pbar]))
    n = marcher.n
    to_rates = marcher.to_rates

    def remainder(state, at, rot):
        (AA, _), (QQ, _) = state
        P = coeffs_to_grid(AA, np.zeros_like(AA), n)
        Q = coeffs_to_grid(QQ, np.zeros_like(QQ), n)
        dvp = at.vp0 - rot.vp0  # sigma variation within a step, zero on constant pieces
        # P1 = 1 (the evolved 0-mode), P2 = even part of Y: bilinear forcing
        force = dvp * Q + at.vpp0 * 1.0 * P
        return ((dvp * P) @ to_rates, force @ to_rates)

    a = np.zeros(cfg.M + 1)
    a[k] = 1.0
    z = np.zeros(cfg.M + 1)
    state = ((a, np.zeros_like(a)), (z, np.zeros_like(z)))
    (_, (QQ, VV)), _ = marcher.walk(state, remainder)
    phi_hat, psi_hat = float(QQ[k]), float(VV[k])
    c, s = sl_core.quarter_cos_sin(k * chi)
    return QuietSecondDerivative(
        k=k,
        chi=chi,
        omega=eig.omega,
        T=T,
        phi_hat=phi_hat,
        psi_hat=psi_hat,
        pairing=float(c * psi_hat - s * phi_hat),
        a_ell=np.nan,
        b_ell=np.nan,
        fundamental=np.full((2, 2), np.nan),
    )


# -- divisor-scaled norm ----------------------------------------------------------------


def weighted_norm(y, table, b=3, k=None):
    """Divisor-scaled H^b norm of an odd (sine) field.

    ||y||^2 = beta^2 + sum_{j != k} c_j^2 delta_j^{-2} j^{2b} with
    beta = c_k k^{2b}; the k-mode is the kernel direction and is not divided
    by its (vanishing) divisor.  A zero divisor at j != k is a resonance.
    """
    if k is None:
        raise DomainError("weighted_norm needs the distinguished mode k")
    sines = y.sin[1:] if isinstance(y, FourierField) else np.asarray(y, dtype=float)
    m = sines.size
    if table.j_max < m:
        raise DomainError("divisor table does not cover all modes of the field")
    delta = table.delta[:m]
    js = np.arange(1, m + 1)
    others = js != k
    bad = others & ((delta == 0.0) | ~np.isfinite(delta))
    if np.any(bad):
        raise ResonanceError(f"zero divisor at j={1 + int(np.flatnonzero(bad)[0])}")
    total = 0.0
    if k <= m:
        total += (sines[k - 1] * k ** (2 * b)) ** 2
    total += np.sum((sines[others] / delta[others]) ** 2 * js[others] ** (2 * b))
    return float(np.sqrt(total))
