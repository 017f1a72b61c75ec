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

which each step applies exactly by sl_core.rotation, the SL transfer of a
constant piece taken at the slowness s; RK4 carries only the remainder in
the b_j equation,

    v(p) - v(a_0) - v_p(a_0) (p - a_0) = v(a_0) f((p - a_0) / a_0),
    f(x) = (1+x)^(-1/gamma) - 1 + x/gamma,

with f evaluated free of cancellation (GammaLawEos.volume_remainder): the
direct difference of O(1) terms would lose eps/x^2 of an O(x^2) result.  On
a smooth piece the rotation takes the step-midpoint sigma and the remainder
also carries the sigma variation, (v_p(a_0) at the stage's sigma minus at
the midpoint's) (p - a_0).  Since the remainder is quadratic in the
fluctuation, a constant piece takes few steps, sized from the remainder's
share of the motion (EvolutionConfig).  With N the remainder and E the
exact half-step turn, the RK4 stages k1 = N(u) and k3 = N(E u) read only the
step's entry state, k2 only k1 and k4 only k3, and N reads only cosine
parts, which E(u + (0, k)) = E u + E(0, k) splits into a turned state and
a turned kick.  So a step is four products: one synthesis of the cosine
parts of (u, E u, E^2 u), one analysis of N on (u, E u), one synthesis of
the kicks E(0, h/2 k1) and E(0, h k3), which turn (E u, E^2 u) into the
stages of k2 and k4, and one analysis of N on those.  It closes as
u+ = E^2 (u + h/6 (0, k1)) + h/3 E(0, k2 + k3) + h/6 (0, k4), with E and
E^2 from one sl_core.rotation call per segment of a constant piece.  E^2
enters as the identity plus its increment, cos th - 1 = -2 sin^2(th/2),
so each step rounds a coefficient once, at its own scale.  Entropy jumps
are the identity on (p, u) coefficients.  f(0) = 0 exactly, so quiet
states are exact fixed points, bit for bit.
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
    """Values of sum a_j cos + b_j sin on the uniform grid t_i = i T / n; b=None is zero."""
    a = np.asarray(a, dtype=float)
    cos, sin = _dft_basis(a.shape[-1] - 1, n)
    if b is None:
        return a @ cos
    return a @ cos + np.asarray(b, dtype=float) @ sin


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
    (eta = 0, one step, when the remainder vanishes).  A BifurcationProblem
    fills an unset k_accuracy with max(4, k + 2) from its perturbed mode k;
    a bare march, which knows no k, takes min(M, 16).
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


def eos_and_pbar(profile):
    """The profile's (eos, pbar), read by all nonlinear work; a DomainError names a missing one."""
    missing = " and ".join(name for name in ("eos", "pbar") if getattr(profile, name) is None)
    if missing:
        raise DomainError(f"nonlinear work needs the profile's {missing}")
    return profile.eos, profile.pbar


class _Frozen(NamedTuple):
    """Equation-of-state constants at the mean a0, one per row (and per stage, if stacked)."""

    v0: np.ndarray
    vp0: np.ndarray


class _Turn(NamedTuple):
    """The tables of one x-step of length h, per row and mode (_Marcher._step).

    E is the half-step turn, E(0, k) = (-sn/s k, c k), and `rates` gives
    K = h/6 k.  cos3 a - sin3 b are the cosine parts of (u, E u, E^2 u), and
    kick turns (K1, K3) into those of E(0, h/2 k1) and E(0, h k3); these
    synthesis tables carry the fields' weights (_Marcher.weights).  E^2
    enters as I + (E^2 - I), whose diagonal c2 - 1 = -2 sin^2(th/2) is free
    of cancellation: a step adds to each coefficient only its increment and
    so rounds it once, where a rounded c2 would scale every amplitude by its
    rounding error on every step.
    """

    cos3: np.ndarray  # (1, c, c2): (3, fields, ..., M+1)
    sin3: np.ndarray  # (0, sn/s, sn2/s)
    kick: np.ndarray  # -(3, 6) sn/s: (2, fields, ..., M+1)
    ta: np.ndarray  # (c2 - 1, s sn2) = E^2 - I acting on a: (2, 1, ..., M+1)
    tb: np.ndarray  # (-sn2/s, c2 - 1) = E^2 - I acting on b
    tk: np.ndarray  # 2 (-sn/s, c) = h/3 E acting on (0, k), applied to K
    rates: np.ndarray  # grid values -> K: h/6 times _Marcher.to_rates

    def at_step(self, i):
        """Step i of turns stacked on a leading step axis (_Marcher._turns)."""
        return _Turn(*(t[i] for t in self[:-1]), self.rates)


#: ShockProximityError once the time-gradient bound passes this multiple of its entry
#: value, beyond what linear propagation can add (_StepGuard)
_GUARD_FACTOR = 10.0

#: a smooth piece builds the turns of at most this many (step, row, mode) entries at once
_TURN_ENTRIES = 1 << 14


class _Marcher:
    """Lawson (integrating-factor) RK4 walker through the profile.

    The state is one (a, b) pair of cos/sin coefficient arrays over the mean
    a0 whose leading axis holds the marched fields: 0 is the solution, 1 (if
    present) its first variation.  Inside a step every mode turns exactly as
    the SL system with s^2 = -v_p(a0, A), mode j by j Omega s dx, per batch
    row; RK4 carries only the remainder, which drives the sine coefficients
    and vanishes at quiet data.  A step's half and full turns come from one
    sl_core.rotation call (_turns), made once per segment of a constant
    piece and once per block of steps of a smooth one, and the step is four
    products: two syntheses and two analyses of stacked RK4 stages (_step).
    """

    def __init__(self, profile, T, cfg, a0):
        self.profile, self.T, self.cfg = profile, T, cfg
        self.n = cfg.resolved_n_quad()
        self.omega_modes = np.arange(cfg.M + 1) * (2.0 * np.pi / T)
        # grid values -> sine-coefficient rates: -j Omega times the cosine analysis
        self.to_rates = _dft_basis(cfg.M, self.n)[0].T * (-2.0 / self.n * self.omega_modes)
        self.eos, self.pbar = eos_and_pbar(profile)
        self.a0 = np.asarray(a0, dtype=float)
        # synthesis weights per field: the solution enters as its relative
        # fluctuation x = (p - a0) / a0, a variation as itself, with its mean
        self.weights = np.ones((2,) + self.a0.shape[:-1] + (cfg.M + 1,))
        self.weights[0] /= self.a0
        self.weights[0, ..., 0] = 0.0

    def frozen(self, sigma):
        """EOS constants at sigma; an array of sigmas stacks them on new leading axes."""
        eos_, shape = self.eos, np.shape(sigma) + (1,) * self.a0.ndim
        A = eos_.factor_from_sigma(self.pbar, np.reshape(sigma, shape))
        return _Frozen(eos_.volume_from_factor(self.a0, A), eos_.dvdp_from_factor(self.a0, A))

    def remainder(self, grid, at, rot):
        """Grid values of the remainder at the stages' synthesized grid values.

        Both are (stages, fields, ..., n); `rates` or to_rates turns the
        result into sine-coefficient rates.  `at` holds the stages'
        constants, stacked on the stage axis or one set that every stage
        shares.  The solution's row is v0 f(x), a variation's
        v_p(a0) slope_increment(x) P; where the stage's constants `at` are
        not the rotation's `rot` (a smooth piece), each row also gets
        (at.vp0 - rot.vp0) times its own field, p - a0 = a0 x for the
        solution.
        """
        x = grid[:, 0]
        if x.min() <= -1.0:  # the pressure a0 (1 + x) is no longer positive
            raise ShockProximityError("pressure lost positivity during evolution")
        dvp = None if at is rot else at.vp0 - rot.vp0
        w = at.v0 * self.eos.volume_remainder(x)
        if dvp is not None:
            w = w + dvp * self.a0 * x
        if grid.shape[1] == 1:
            return w[:, None]
        P = grid[:, 1]
        dvp_P = at.vp0 * self.eos.slope_increment(x) * P
        if dvp is not None:
            dvp_P = dvp_P + dvp * P
        return np.stack((w, dvp_P), axis=1)

    def eta(self, a, b, rot):
        """Remainder size against the rotation rate, in [0, 1], of field 0.

        Both are taken on the envelope: every mode at the cosine amplitude it
        reaches during the exact turn, so eta does not depend on where in its
        rotation the piece is entered (data that enter as pure velocity have
        no remainder there, but gain one as they turn).
        """
        s = np.sqrt(-rot.vp0)
        envelope = np.hypot(a[:1], b[:1] / s)
        grid = coeffs_to_grid(envelope[None] * self.weights[:1], None, self.n)
        try:
            rem = float(np.max(np.abs(self.remainder(grid, rot, rot) @ self.to_rates)))
        except ShockProximityError:
            return 1.0  # the envelope leaves positive pressure: fully nonlinear
        lin = float(np.max(self.omega_modes * s * s * envelope))
        return rem / (lin + rem) if rem > 0.0 else 0.0

    def _turns(self, s, h, fields):
        """The _Turn of steps of length h at sound slownesses s, (steps,) + a0.shape.

        Each table gets that leading step axis (_Turn.at_step picks one step).
        One sl_core.rotation call at the angles 0, h/2 and h gives (1, E, E^2)
        of every step, row and mode.
        """
        dx = np.array((0.0, 0.5 * h, h)).reshape((3, 1) + (1,) * self.a0.ndim)
        c, sn_s, s_sn = sl_core.rotation(
            np.reshape(s, (-1, 1, 1) + self.a0.shape), self.omega_modes, dx
        )
        weights = self.weights[:fields]
        sin3 = sn_s * weights
        dc2 = -2.0 * sn_s[:, 1] * s_sn[:, 1]  # cos th - 1 = -2 sin^2(th/2)
        return _Turn(
            cos3=c * weights,
            sin3=sin3,
            kick=sin3[:, 1:2] * np.array((-3.0, -6.0)).reshape(dx[1:].shape),
            ta=np.stack((dc2, s_sn[:, 2]), axis=1),
            tb=np.stack((-sn_s[:, 2], dc2), axis=1),
            tk=np.stack((-sn_s[:, 1], c[:, 1]), axis=1) * 2.0,
            rates=self.to_rates * (h / 6.0),
        )

    def _segment(self, piece, const, x, h, n_steps, fields, memo):
        """(x after the step, _Turn, mid, stage pairs) of n_steps steps of length h from x.

        A constant piece (const, its constants) shares one set of constants
        and one turn, which memo keeps per h for the piece's other segments
        (x_nodes split a piece into segments of mostly equal steps).  A
        smooth piece takes sigma and the EOS constants at every step's
        (x, x + h/2, x + h) in one frozen call, the step starts summed as
        x += h, and the turns at the midpoint constants `mid`, for at most
        _TURN_ENTRIES (step, row, mode) entries at once; its stage pairs are
        (x, x + h/2) and (x + h/2, x + h).
        """
        if const is not None:
            turn = memo.get(h)
            if turn is None:
                turn = memo[h] = self._turns(np.sqrt(-const.vp0), h, fields).at_step(0)
            for _ in range(n_steps):
                x += h
                yield x, turn, const, (const, const)
            return
        starts = np.cumsum(np.concatenate(([x], np.full(n_steps - 1, h))))
        at = self.frozen(piece.sigma(starts[:, None] + np.array([0.0, 0.5 * h, h])))
        block = max(1, _TURN_ENTRIES // (self.a0.size * self.omega_modes.size))
        for lo in range(0, n_steps, block):
            turns = self._turns(np.sqrt(-at.vp0[lo : lo + block, 1]), h, fields)
            for i in range(lo, min(lo + block, n_steps)):
                v0, vp0 = at.v0[i], at.vp0[i]
                pairs = (_Frozen(v0[:2], vp0[:2]), _Frozen(v0[1:], vp0[1:]))
                yield starts[i] + h, turns.at_step(i - lo), _Frozen(v0[1], vp0[1]), pairs

    def walk(self, a, b, x_nodes=None, on_step=None):
        """March (a, b) from 0 to ell, snapshotting field 0 exactly at x_nodes.

        A node outside [0, ell] by more than the march's rounding allowance
        raises DomainError.  A constant piece's step count follows field 0
        alone (eta), so a variation's march stays linear in its data.
        on_step(x, a, b, piece) runs after every step.
        """
        nodes = [] if x_nodes is None else list(np.sort(np.asarray(x_nodes, dtype=float)))
        snaps = []
        eps = 1e-12 * max(self.profile.ell, 1.0)
        # the walk ends at the last edge, which a pwc ell (a sum) may miss by ulps
        if nodes and not (nodes[0] >= -eps and nodes[-1] <= self.profile.pieces[-1].x1 + eps):
            raise DomainError(f"x_nodes must lie in [0, {self.profile.ell!r}]")

        def take(x, a, b):
            while nodes and nodes[0] <= x + eps:
                nodes.pop(0)
                snaps.append((a[0].copy(), b[0].copy()))

        take(0.0, a, b)
        for piece in self.profile.pieces:
            targets = [xn for xn in nodes if piece.x0 - eps < xn < piece.x1 - eps] + [piece.x1]
            constant = isinstance(piece, ConstantPiece)
            const = self.frozen(piece.level) if constant else None
            memo = {}
            if constant:
                # an explicit cfg.dx is honoured as is, so eta is not needed
                eta = 1.0 if self.cfg.dx is not None else self.eta(a, b, const)
                dx = self.cfg.resolved_dx(self.profile, self.T, piece.level, eta)
            else:
                dx = self.cfg.resolved_dx(self.profile, self.T)
            x = piece.x0
            for xt in targets:
                # a constant piece spans its width, as in its SL transfer (x1 - x0 may not)
                seg = piece.width - (x - piece.x0) if constant and xt == piece.x1 else xt - x
                if seg <= 0.0:
                    take(xt, a, b)
                    continue
                n_steps = max(1, int(np.ceil(seg / dx)))
                h = seg / n_steps
                segment = self._segment(piece, const, x, h, n_steps, a.shape[0], memo)
                for x, turn, mid, pairs in segment:
                    a, b = self._step(a, b, turn, mid, pairs)
                    if on_step is not None:
                        on_step(x, a, b, piece)
                x = xt
                take(x, a, b)
        return (a, b), snaps

    def _step(self, a, b, turn, mid, pairs):
        """One Lawson RK4 step, E = exact half-step turn, N = remainder:

        k1 = N(u), k2 = N(E(u + h/2 k1)), k3 = N(E u), k4 = N(E(E u + h k3)),
        u+ = E^2 (u + h/6 (0, k1)) + h/3 E(0, k2 + k3) + h/6 (0, k4).
        N reads only cosine parts and drives only sine rates, and
        E(u + (0, k)) = E u + (-sn/s k, c k).  So the stages' cosine parts are
        those of (u, E u, E^2 u), synthesized in one product, plus the kicks
        E(0, h/2 k1) and E(0, h k3), synthesized in a second.  k1 and k3 read
        only the entry state, k2 only k1 and k4 only k3, so N runs on two
        stacked stage pairs, each with one analysis product: (u, E u) at
        pairs[0], the constants at (x, x + h/2), then the kicked pair at
        pairs[1], at (x + h/2, x + h).  The turns use the midpoint constants
        `mid`; the analyses give K = h/6 k (_Turn).
        """
        cos3, sin3, kick, ta, tb, tk, rates = turn
        grid = coeffs_to_grid(cos3 * a - sin3 * b, None, self.n)
        k13 = self.remainder(grid[:2], pairs[0], mid) @ rates
        kicked = grid[1:] + coeffs_to_grid(kick * k13, None, self.n)
        k24 = self.remainder(kicked, pairs[1], mid) @ rates
        bk = b + k13[0]
        out = ta * a + tb * bk + tk * (k13[1] + k24[0])
        out[1] += k24[1]
        out[0] += a  # the identity part of E^2 last: one rounding at the state's scale
        out[1] += bk
        return out[0], out[1]


def _guard_sigma(piece):
    """The sigma of a piece's guard norm and the most the linear march grows that norm across it.

    The linear law moves a^2 + b^2 / sigma(x)^2 by at most exp(2 TV(log sigma)),
    and measuring at the piece's smallest sigma costs one more max/min ratio;
    PCHIP adds no variation beyond its samples'.  A constant piece, whose exact
    turn keeps hypot(a_j, b_j / sigma) of every mode, gets exactly (level, 1).
    """
    log_s = np.log(piece.sigma_samples)
    gain = np.exp(np.ptp(log_s) + np.sum(np.abs(np.diff(log_s))))
    return float(np.min(piece.sigma_samples)), float(gain)


class _StepGuard:
    """The per-step check of a march from (a, b), every field at once.

    It bounds max_t |dy/dt| in the energy norm of the current piece,
    max over rows of sum_j j Omega hypot(a_j, b_j / sigma), which the exact
    linear turn of a constant piece keeps mode by mode.  The threshold is
    _GUARD_FACTOR times the entry value, times the most the linear march
    can grow the norm up to the current piece: max(1, sigma_before /
    sigma_after) at each jump ((a, b) are continuous there) and _guard_sigma's
    gain across each piece.  Linear growth through a sigma contrast thus never
    trips it; past the threshold, steepening raises ShockProximityError and a
    bound that is not finite NumericalError (also at entry).  hypot, unlike a
    root of squares, stays finite on large finite coefficients.
    """

    def __init__(self, a, b, omega_modes, piece):
        self.omega_modes = omega_modes
        self.piece = piece
        self.sigma, gain = _guard_sigma(piece)
        g0 = self.bound(a, b)
        if not np.isfinite(g0):
            raise NumericalError("non-finite entry coefficients")
        self.threshold = max(_GUARD_FACTOR * g0, 1e-8) * gain

    def bound(self, a, b):
        """Energy-norm bound of max_t |dy/dt|; finite only if every coefficient is."""
        return np.dot(np.hypot(a, b / self.sigma), self.omega_modes).max()

    def __call__(self, x, a, b, piece):
        if piece is not self.piece:
            sigma, gain = _guard_sigma(piece)
            self.threshold *= max(1.0, self.sigma / sigma) * gain
            self.piece, self.sigma = piece, sigma
        g = self.bound(a, b)
        if not g <= self.threshold:
            if not np.isfinite(g):
                raise NumericalError(f"non-finite coefficients at x={x:.6g}")
            raise ShockProximityError(
                f"time-gradient bound exceeded {_GUARD_FACTOR} x its linear growth at x={x:.6g}"
            )


def evolve_coefficients(profile, a, b, T, cfg, x_nodes=None):
    """Batched core of nonlinear_evolve; a, b have shape (..., M+1).

    The rows of a batch share one step count, set by the largest remainder.
    Non-finite coefficients raise NumericalError; a time-gradient bound past
    _GUARD_FACTOR times what linear propagation of the entry data can reach
    raises ShockProximityError (_StepGuard).
    """
    a = np.array(a, dtype=float)[None]
    b = np.array(b, dtype=float)[None]
    (a, b), snaps = _guarded_walk(profile, T, cfg, a, b, x_nodes)
    return (a[0], b[0]), snaps


def _guarded_walk(profile, T, cfg, a, b, x_nodes=None):
    """_Marcher.walk of the stacked fields (a, b), (fields, ..., M+1), under _StepGuard."""
    marcher = _Marcher(profile, T, cfg, a[0, ..., :1])
    on_step = _StepGuard(a, b, marcher.omega_modes, profile.pieces[0])
    return marcher.walk(a, b, x_nodes=x_nodes, on_step=on_step)


def nonlinear_evolve(profile, y0: FourierField, cfg: EvolutionConfig, x_nodes=None):
    """Evolve data y0 from x = 0 to x = ell under the profile's eos and pbar.

    Returns the terminal field, or (terminal, snapshots) when x_nodes is
    given; snapshots are the fields at exactly those x locations.
    """
    if y0.n_modes != cfg.M:
        raise DomainError("field cutoff must match cfg.M")
    (a, b), snaps = evolve_coefficients(profile, y0.cos, y0.sin, y0.T, cfg, x_nodes)
    out = FourierField(y0.T, a, b)
    if x_nodes is None:
        return out
    return out, [FourierField(y0.T, sa, sb) for sa, sb in snaps]


def linearized_evolve(profile, y0: FourierField, Y0: FourierField, cfg: EvolutionConfig):
    """First variation along the nonlinear trajectory of y0.

    The base state and the variation are advanced as one coupled system, so
    the linearization is taken along exactly the computed trajectory.  At a
    quiet base the remainder vanishes and the k-mode turns exactly by the
    transfer matrix Psi(ell; k 2pi/T).  Both fields get evolve_coefficients'
    guard: non-finite data raise NumericalError, at entry or after any step.
    """
    if y0.n_modes != cfg.M or Y0.n_modes != cfg.M:
        raise DomainError("field cutoffs must match cfg.M")
    a, b = np.stack((y0.cos, Y0.cos)), np.stack((y0.sin, Y0.sin))
    (a, b), _ = _guarded_walk(profile, y0.T, cfg, a, b)
    return FourierField(y0.T, a[1], b[1])


# -- second variation at the quiet state ---------------------------------------------


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


def second_derivative_quiet(profile, k, chi):
    """The z column of the quiet second variation (_second_variation, i = 0).

    In variation-of-parameters form (phi_hat, psi_hat) = Psi(ell) (a, b)^T
    with a = int v_pp omega phi phi_tilde and b = -int v_pp omega phi^2 <= 0,
    where (phi, phi_tilde) is the first row of Psi(x).
    """
    eig = _spectrum.eigen_solve(profile, k, chi)
    psis, a, b = _second_variation(profile, k, 2.0 * np.pi / eig.T, k)[1:]
    psi_mat = psis[k]
    phi_hat, psi_hat = psi_mat @ (a[0], b[0])
    return QuietSecondDerivative(
        k=k,
        chi=chi,
        omega=eig.omega,
        T=eig.T,
        phi_hat=float(phi_hat),
        psi_hat=float(psi_hat),
        pairing=float(sl_core.boundary_sine(k * chi, phi_hat, psi_hat)),
        a_ell=float(a[0]),
        b_ell=float(b[0]),
        fundamental=psi_mat,
    )


def quiet_second_variation(profile, k, chi, T, m):
    """J1 = S D^2 E(pbar)[cos k, .], the O(alpha) part of the bifurcation Jacobian.

    Shape (m, m + 1): row j - 1 is the sine r_j, column i the data cos(i t
    2pi/T), column 0 the mean shift z, whose one entry, at row k, is the
    pairing of second_derivative_quiet.  Only the rows j = i + k and
    |i - k| of column i are nonzero (_band); column k, the prescribed mode,
    is zero.
    """
    (rows, cols, _), psis, a, b = _second_variation(profile, k, 2.0 * np.pi / T, m)
    hat = psis[rows] @ np.stack((a, b), axis=-1)[..., None]
    table = np.zeros((m, m + 1))
    table[rows - 1, cols] = sl_core.boundary_sine(rows * chi, hat[:, 0, 0], hat[:, 1, 0])
    return table


def _band(k, m):
    """(rows j, columns i, weights) of the nonzero entries of D^2 E(pbar)[cos k, cos i].

    cos(k t') cos(i t') = (cos((i + k) t') + cos((i - k) t')) / 2 feeds the
    modes j = i + k and |i - k| with weight 1/2 each; for i = 0 the two
    halves meet at j = k, the first entry.  Rows above m and column k are
    left out.
    """
    cols = np.array([i for i in range(1, m + 1) if i != k], dtype=int)
    rows = np.concatenate(([k], cols + k, np.abs(cols - k)))
    cols = np.concatenate(([0], cols, cols))
    keep = rows <= m
    return rows[keep], cols[keep], np.where(cols[keep] == 0, 1.0, 0.5)


def _second_variation(profile, k, unit, m):
    """Duhamel integrals of D^2 E(pbar)[cos k, cos i] along [0, ell], on the band of _band(k, m).

    The quiet first variation of cos(n unit t) data has pressure
    phi_n(x) cos(n unit t), with (phi_n, phi_tilde_n) the first row of
    Psi(x; n unit).  Entry (j, i) of weight w is mode j's SL response to the
    forcing w v_pp phi_k phi_i: (phi_hat, psi_hat) = Psi_j(ell) (a, b)^T with
    a = w j unit int v_pp phi_k phi_i phi_tilde_j and
    b = -w j unit int v_pp phi_k phi_i phi_j.  On a constant piece the
    integrals of three sinusoids are in closed form, on a smooth piece
    composite Boole sums over the Magnus states at the step ends; no
    stepper runs beyond the SL propagator itself.  Returns (band, Psi_n(ell)
    for n = 0..m, a, b), a and b one entry per band entry.
    """
    eos, pbar = eos_and_pbar(profile)

    def vpp(sig):
        return eos.d2vdp2_from_factor(pbar, eos.factor_from_sigma(pbar, sig))

    band = rows, cols, weights = _band(k, m)
    state = (np.broadcast_to(np.eye(2), (m + 1, 2, 2)), 0.0, 0.0)
    for piece in profile.pieces:
        duhamel = _duhamel_constant if isinstance(piece, ConstantPiece) else _duhamel_smooth
        state = duhamel(state, piece, unit, vpp, (k, cols, rows))
    psis, a, b = state
    scale = weights * rows * unit
    return band, psis, scale * a, -scale * b


def _duhamel_constant(state, piece, unit, vpp, modes):
    """(Psi, a, b) across a constant piece, in closed form, b without its minus sign.

    With theta_n = n unit sigma x from the piece's start, phi_n =
    Re(c_n e^(i theta_n)) and phi_tilde_n = Re(d_n e^(i theta_n)), c_n and
    d_n read off the entry Psi_n.  A product of three such cosines is a
    quarter of the real part of the sum over the signs (s, t) of
    c_k c_i^s g_j^t e^(i theta), g = d for a and c for b, c^- the
    conjugate and theta the phase at
    the rate (k + s i + t j) unit sigma, and e^(i rho x) integrates over the
    width w to w e^(i rho w/2) sinc(rho w/2).  That form has no cancellation
    at small rates and is the width itself at the rate that vanishes (j =
    i + k or |i - k|).
    """
    psi, a, b = state
    k, cols, rows = modes
    sigma, width = piece.level, piece.width
    c = psi[:, 0, 0] + 1j * psi[:, 1, 0] / sigma
    d = psi[:, 0, 1] + 1j * psi[:, 1, 1] / sigma
    sign = np.array([1.0, -1.0])
    half = (0.5 * unit * sigma * width) * (k + sign[:, None, None] * cols + sign[:, None] * rows)
    pair = c[k] * np.stack((c[cols], np.conj(c[cols])))[:, None] * (
        width * np.exp(1j * half) * np.sinc(half / np.pi)
    )

    def integral(g):
        return 0.25 * np.sum(pair * np.stack((g[rows], np.conj(g[rows]))), axis=(0, 1)).real

    weight = float(vpp(sigma))
    a = a + weight * integral(d)
    b = b + weight * integral(c)
    return sl_core._piece_matrix(piece, np.arange(psi.shape[0]) * unit) @ psi, a, b


def _duhamel_smooth(state, piece, unit, vpp, modes):
    """(Psi, a, b) across a smooth piece by composite Boole on Magnus states.

    The integrands oscillate at up to (k + i + j) unit sigma whatever sigma'
    is, so every sample interval gets a multiple of four equal steps h with
    Boole's relative error 2 (top rate h)^6 / 945 within PRUFER_TOL, or more
    if the Magnus step rule asks for more at the top mode; Boole's panels
    never straddle a sample.  All modes share one grid, walked in runs of
    sample intervals of at most sl_core._MAX_BATCH steps times modes.
    """
    psi, a, b = state
    k, cols, rows = modes
    omegas = np.arange(psi.shape[0]) * unit
    phase = np.diff(piece.x) * np.maximum(piece.sigma_samples[:-1], piece.sigma_samples[1:])
    top = np.max(k + cols + rows) * unit
    steps = np.max(top * phase) / (472.5 * sl_core.PRUFER_TOL) ** (1.0 / 6.0)
    sub = 4 * max(1, int(np.ceil(0.25 * steps)))
    run = max(1, sl_core._MAX_BATCH // (sub * omegas.size))
    for lo in range(0, piece.x.size - 1, run):
        x, psis = sl_core.magnus_states(piece, omegas, piece.x[lo : lo + run + 1], min_sub=sub)
        psis = psis @ psi
        forcing = vpp(piece.sigma(x))[:, None] * psis[:, k, 0, :1] * psis[:, cols, 0, 0]
        width = (x[4::4] - x[:-1:4])[:, None] / 90.0

        def boole(f):
            return np.sum(
                width * (7.0 * (f[:-1:4] + f[4::4]) + 32.0 * (f[1::4] + f[3::4]) + 12.0 * f[2::4]),
                axis=0,
            )

        a = a + boole(forcing * psis[:, rows, 0, 1])
        b = b + boole(forcing * psis[:, rows, 0, 0])
        psi = psis[-1]
    return psi, a, b


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
