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

which each step applies exactly; RK4 carries only the remainder in the b_j
equation,

    v(p) - v(a_0) - v_p(a_0) (p - a_0) = v(a_0) f((p - a_0) / a_0),
    f(x) = (1+x)^(-1/gamma) - 1 + x/gamma,

with f evaluated free of cancellation (GammaLawEos.volume_remainder): the
direct difference of O(1) terms would lose eps/x^2 of an O(x^2) result.  On
a smooth piece the rotation takes the step-midpoint sigma and the remainder
also carries the sigma variation, (v_p(a_0) at the stage's sigma minus at
the midpoint's) (p - a_0).  Since the remainder is quadratic in the
fluctuation, a constant piece takes few steps, sized from the remainder's
share of the motion (EvolutionConfig).  Entropy jumps are the identity on
(p, u) coefficients.  f(0) = 0 exactly, so quiet states are exact fixed
points, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalError, ResonanceError, ShockProximityError
from .profile import ConstantPiece
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


def _grad_bound(a, b, omega_modes):
    """l1 upper bound for max_t |d y/d t|; finite only if every coefficient is."""
    mags = np.abs(a) + np.abs(b)
    return np.max(np.sum(omega_modes * mags, axis=-1))


def _fluct_grid(a, n):
    """Grid values of the cosine series of a without its mean a_0."""
    fluct = a.copy()
    fluct[..., 0] = 0.0
    return coeffs_to_grid(fluct, np.zeros(fluct.shape), n)


class _Frozen(NamedTuple):
    """Equation-of-state constants at one entropy factor and the mean a0, one per row."""

    v0: np.ndarray
    vp0: np.ndarray


#: ShockProximityError once the time-gradient bound passes this multiple of its entry value
_GUARD_FACTOR = 10.0


class _Marcher:
    """Lawson (integrating-factor) RK4 walker through the profile.

    The state is one (a, b) pair of cos/sin coefficient arrays over the mean
    a0 whose leading axis holds the marched fields: 0 is the solution, 1 (if
    present) its first variation.  Inside a step every mode turns exactly as
    the SL system with s^2 = -v_p(a0, A), mode j by j Omega s dx (the algebra
    of sl_core._pwc_piece_matrix, per batch row); RK4 carries only the
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
        self.a0 = np.asarray(a0, dtype=float)

    def frozen(self, sigma_val):
        eos_, A = self.eos, self.eos.factor_from_sigma(self.pbar, sigma_val)
        return _Frozen(eos_.volume_from_factor(self.a0, A), eos_.dvdp_from_factor(self.a0, A))

    def half_turn(self, rot, h):
        s = np.sqrt(-rot.vp0)
        theta = self.omega_modes * s * (0.5 * h)
        sn = np.sin(theta)
        return np.cos(theta), sn / s, s * sn

    def remainder(self, a, at, rot):
        """Sine-coefficient rates of the remainder, one row per field of `a`.

        The solution's row is v0 f(x), a variation's v_p(a0) slope_increment(x) P;
        where the stage's constants `at` are not the rotation's `rot` (a smooth
        piece), each row also gets (at.vp0 - rot.vp0) times its own field.
        """
        dp = _fluct_grid(a[0], self.n)
        if np.min(self.a0 + dp) <= 0.0:
            raise ShockProximityError("pressure lost positivity during evolution")
        x = dp / self.a0
        w = at.v0 * self.eos.volume_remainder(x)
        if at is not rot:
            w = w + (at.vp0 - rot.vp0) * dp
        if a.shape[0] == 1:
            return (w @ self.to_rates)[None]
        P = coeffs_to_grid(a[1], np.zeros_like(a[1]), self.n)
        dvp_P = at.vp0 * self.eos.slope_increment(x) * P
        if at is not rot:
            dvp_P = dvp_P + (at.vp0 - rot.vp0) * P
        return np.stack((w @ self.to_rates, dvp_P @ self.to_rates))

    def eta(self, a, b, rot):
        """Remainder size against the rotation rate, in [0, 1], of field 0.

        Both are taken on the envelope: every mode at the cosine amplitude it
        reaches during the exact turn, so eta does not depend on where in its
        rotation the piece is entered (data that enter as pure velocity have
        no remainder there, but gain one as they turn).
        """
        s = np.sqrt(-rot.vp0)
        envelope = np.hypot(a[:1], b[:1] / s)
        try:
            rem = float(np.max(np.abs(self.remainder(envelope, rot, rot))))
        except ShockProximityError:
            return 1.0  # the envelope leaves positive pressure: fully nonlinear
        lin = float(np.max(self.omega_modes * s * s * envelope))
        return rem / (lin + rem) if rem > 0.0 else 0.0

    def walk(self, a, b, x_nodes=None, on_step=None):
        """March (a, b) from 0 to ell, snapshotting field 0 exactly at x_nodes.

        A constant piece's step count follows field 0 alone (eta), so a
        variation's march stays linear in its data.
        """
        nodes = [] if x_nodes is None else list(np.sort(np.asarray(x_nodes, dtype=float)))
        snaps = []
        eps = 1e-12 * max(self.profile.ell, 1.0)

        def take(x, a, b):
            while nodes and nodes[0] <= x + eps:
                nodes.pop(0)
                snaps.append((a[0].copy(), b[0].copy()))

        take(0.0, a, b)
        for piece in self.profile.pieces:
            targets = [xn for xn in nodes if piece.x0 - eps < xn < piece.x1 - eps] + [piece.x1]
            constant = isinstance(piece, ConstantPiece)
            if constant:
                const = self.frozen(piece.level)
                # an explicit cfg.dx is honoured as is, so eta is not needed
                eta = 1.0 if self.cfg.dx is not None else self.eta(a, b, const)
                dx = self.cfg.resolved_dx(self.profile, self.T, piece.level, eta)
            else:
                dx = self.cfg.resolved_dx(self.profile, self.T)
            x = piece.x0
            for xt in targets:
                seg = xt - x
                if seg <= 0.0:
                    take(xt, a, b)
                    continue
                n_steps = max(1, int(np.ceil(seg / dx)))
                h = seg / n_steps
                if constant:
                    stages = (const, const, const)
                    rot = self.half_turn(const, h)
                for _ in range(n_steps):
                    if not constant:
                        xs = (x, x + 0.5 * h, x + h)
                        stages = tuple(self.frozen(float(piece.sigma(xx))) for xx in xs)
                        rot = self.half_turn(stages[1], h)
                    a, b = self._step(self.remainder, a, b, h, rot, stages)
                    x += h
                    if on_step is not None:
                        on_step(x, a, b)
                x = xt
                take(x, a, b)
        # flush nodes that sit within rounding of ell (sum vs cumsum ulps)
        take(self.profile.ell + 2.0 * eps, a, b)
        return (a, b), snaps

    @staticmethod
    def _step(remainder, a, b, h, rot, stages):
        """One Lawson RK4 step, E = exact half-step turn, N = remainder:

        k1 = N(u), k2 = N(E(u + h/2 k1)), k3 = N(E u + h/2 k2),
        k4 = N(E(E u + h k3)), u+ = E(E(u + h/6 k1) + h/3 (k2 + k3)) + h/6 k4.
        N reads only a and drives only b, so k3 = N(E u) and k2, k4 need only
        the cosine half of their turns.  The turn uses the midpoint constants.
        """
        at0, mid, at1 = stages
        c, sn_over_s, s_sn = rot
        k1 = remainder(a, at0, mid)
        k2 = remainder(c * a - sn_over_s * (b + 0.5 * h * k1), mid, mid)
        ta, tb = c * a - sn_over_s * b, s_sn * a + c * b
        k3 = remainder(ta, mid, mid)
        k4 = remainder(c * ta - sn_over_s * (tb + h * k3), at1, mid)
        b = b + h / 6.0 * k1
        a, b = c * a - sn_over_s * b, s_sn * a + c * b
        b = b + h / 3.0 * (k2 + k3)
        a, b = c * a - sn_over_s * b, s_sn * a + c * b
        return a, b + h / 6.0 * k4


def _step_guard(a, b, omega_modes):
    """The per-step hook of a march from (a, b), every field at once.

    Non-finite entry data raise NumericalError here; after a step, a
    time-gradient bound that is not <= _GUARD_FACTOR times its entry value
    raises NumericalError if it is not finite, else ShockProximityError.
    """
    g0 = _grad_bound(a, b, omega_modes)
    if not np.isfinite(g0):
        raise NumericalError("non-finite entry coefficients")
    threshold = max(_GUARD_FACTOR * g0, 1e-8)

    def on_step(x, a, b):
        g = _grad_bound(a, b, omega_modes)
        if not g <= threshold:
            if not np.isfinite(g):
                raise NumericalError(f"non-finite coefficients at x={x:.6g}")
            raise ShockProximityError(
                f"time-gradient bound exceeded {_GUARD_FACTOR} x initial at x={x:.6g}"
            )

    return on_step


def evolve_coefficients(profile, eos, a, b, T, cfg, x_nodes=None):
    """Batched core of nonlinear_evolve; a, b have shape (..., M+1).

    The rows of a batch share one step count, set by the largest remainder.
    Non-finite coefficients raise NumericalError; a time-gradient bound past
    _GUARD_FACTOR times its entry value raises ShockProximityError.
    """
    a = np.array(a, dtype=float)[None]
    b = np.array(b, dtype=float)[None]
    marcher = _Marcher(profile, eos, T, cfg, a[0, ..., :1])
    on_step = _step_guard(a, b, marcher.omega_modes)
    (a, b), snaps = marcher.walk(a, b, x_nodes=x_nodes, on_step=on_step)
    return (a[0], b[0]), snaps


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
    transfer matrix Psi(ell; k 2pi/T).  Both fields get evolve_coefficients'
    guard: non-finite data raise NumericalError, at entry or after any step.
    """
    if y0.n_modes != cfg.M or Y0.n_modes != cfg.M:
        raise DomainError("field cutoffs must match cfg.M")
    marcher = _Marcher(profile, eos, y0.T, cfg, y0.cos[:1])
    a, b = np.stack((y0.cos, Y0.cos)), np.stack((y0.sin, Y0.sin))
    (a, b), _ = marcher.walk(a, b, on_step=_step_guard(a, b, marcher.omega_modes))
    return FourierField(y0.T, a[1], b[1])


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


def second_derivative_quiet(profile, eos, k, chi, eig=None):
    """Duhamel integrals of the forced SL system along [0, ell].

    In variation-of-parameters form (phi_hat, psi_hat) = Psi(ell) (a, b)^T
    with a = int v_pp omega phi phi_tilde and b = -int v_pp omega phi^2 <= 0,
    where (phi, phi_tilde) is the first row of Psi(x).  On a constant piece
    both are sinusoids of omega sigma x and the integrals are in closed form;
    on a smooth piece they are composite Simpson sums over the Magnus states
    at the step ends.  No stepper runs beyond the SL propagator itself.
    """
    if eig is None:
        eig = _spectrum.eigen_solve(profile, k, chi)
    omega = eig.omega
    eos_ = eos if eos is not None else profile.eos
    pbar = profile.pbar
    if eos_ is None or pbar is None:
        raise DomainError("second derivative needs an equation of state and pbar")

    def vpp(sig):
        return eos_.d2vdp2_from_factor(pbar, eos_.factor_from_sigma(pbar, sig))

    state = (np.eye(2), 0.0, 0.0)
    for piece in profile.pieces:
        duhamel = _duhamel_constant if isinstance(piece, ConstantPiece) else _duhamel_smooth
        state = duhamel(state, piece, omega, vpp)
    psi_mat, a_ell, b_ell = state
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


def _duhamel_constant(state, piece, omega, vpp):
    """(Psi, a, b) across a constant piece, in closed form.

    With theta = omega sigma x from the piece's start, phi = u.(cos, sin)
    theta and phi_tilde = w.(cos, sin) theta, u and w read off the entry
    Psi; the integrals of cos^2, sin^2 and sin cos over the piece are exact.
    """
    psi_mat, a, b = state
    sigma, width = piece.level, piece.width
    rate = omega * sigma
    turn = rate * width
    half, tilt = 0.5 * width, np.sin(2.0 * turn) / (4.0 * rate)
    cc, ss, sc = half + tilt, half - tilt, np.sin(turn) ** 2 / (2.0 * rate)
    u0, u1 = psi_mat[0, 0], -psi_mat[1, 0] / sigma
    w0, w1 = psi_mat[0, 1], -psi_mat[1, 1] / sigma
    weight = omega * float(vpp(sigma))
    a += weight * (u0 * w0 * cc + (u0 * w1 + u1 * w0) * sc + u1 * w1 * ss)
    b -= weight * (u0 * u0 * cc + 2.0 * u0 * u1 * sc + u1 * u1 * ss)
    return sl_core._piece_matrix(piece, omega) @ psi_mat, a, b


def _duhamel_smooth(state, piece, omega, vpp):
    """(Psi, a, b) across a smooth piece by composite Simpson on Magnus states.

    The integrands oscillate at 2 omega sigma whatever sigma' is, so every
    sample interval gets an even number of equal steps h with Simpson's
    relative error (2 omega sigma h)^4 / 180 within PRUFER_TOL, or more if
    the Magnus step rule asks for more; Simpson's pairs never straddle a
    sample.
    """
    psi_mat, a, b = state
    phase = np.diff(piece.x) * np.maximum(piece.sigma_samples[:-1], piece.sigma_samples[1:])
    steps = np.max(2.0 * abs(omega) * phase) / (180.0 * sl_core.PRUFER_TOL) ** 0.25
    x, psis = sl_core.magnus_states(piece, omega, min_sub=2 * max(1, int(np.ceil(0.5 * steps))))
    psis = psis @ psi_mat
    weight = omega * vpp(piece.sigma(x))
    phi, phi_t = psis[:, 0, 0], psis[:, 0, 1]

    def simpson(f):
        return np.sum((x[2::2] - x[:-1:2]) / 6.0 * (f[:-1:2] + 4.0 * f[1::2] + f[2::2]))

    a += simpson(weight * phi * phi_t)
    b -= simpson(weight * phi * phi)
    return psis[-1], a, b


# -- divisor-scaled norm ----------------------------------------------------------------


def weighted_norm(sines, table, k):
    """Divisor-scaled H^b norm, b = 3, of an odd field's sine coefficients c_1..c_m.

    ||y||^2 = beta^2 + sum_{j != k} c_j^2 delta_j^{-2} j^{2b} with
    beta = c_k k^{2b}; the k-mode is the kernel direction and is not divided
    by its (vanishing) divisor.  A zero divisor at j != k is a resonance.
    """
    sines = np.asarray(sines, dtype=float)
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
        total += (sines[k - 1] * k**6) ** 2
    total += np.sum((sines[others] / delta[others]) ** 2 * js[others] ** 6)
    return float(np.sqrt(total))
