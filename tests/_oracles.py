"""Brute-force reference implementations, independent of the library paths.

These deliberately avoid the Prüfer/rotation algebra: the transfer-matrix
oracle is plain fixed-step RK4 of the first-order system
Psi' = omega [[0, -1], [sigma^2, 0]] Psi, stepped piece by piece so no step
straddles a jump.  The march oracle is plain fixed-step RK4 of the
coefficient law itself, with its own transforms; the FFT transforms are the
reference for the library's dense DFT products.  The prefix-product Magnus
routines reduce the library's own Magnus steps the long way, as the
reference for its tree reduction: every intermediate state, the winding
summed from per-step angle slips and the slope from an adjugate sum.  The
quiet second derivative has two references: fixed-step RK4 of the joint
(Psi, a, b) Duhamel system, and the pseudospectral march of the second
variation through the library's Lawson walker, which shares neither the SL
algebra nor the quadrature of the library's closed-form path.  The same
march of (Y_k, Y_i, Z), all columns i in one batch, is a reference for the
whole banded table J1, and central differences of the batched boundary map
give (J(alpha) - J(0)) / alpha = J1 + O(alpha) as a second one.  The
four-evaluation Lawson step, one remainder call per RK4 stage and two half
turns where the library takes one full turn, is the reference for the
library's stage-paired, closed-form step.  The
boundary residual of the bifurcation system at one assembled point, one
unbatched evolution, probes S E^ell directly; the dual-path derivative
check holds the closed-form quiet pairing against central differences of
that map.  The field operators (parity
projections, time shift and the boundary operator S = R_- T^{-chi T/4})
act on FourierField coefficients by their definitions, as the reference S
of S o L = diag(delta_j); its quarter turns are rounded libm values, not
the library's table.  The SL residual checks sampled solutions with
fourth-order differences.  The winding-split jump map, with one cos/sin
per point, is the reference for the library's tan form.  The full-array
safeguarded Newton evaluates
the angle chain on every point in every pass, as the reference for the
library's active-set, blocked root solve, and the loop over k of the
frequency-ratio residual is the reference for its blocked one-pass form.
The per-row np.roll extension is the reference for the tile extension's
gathers.  scipy's PchipInterpolator
through a piece's samples is the reference for SmoothPiece's numpy PCHIP:
its values, derivatives and integral.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from puretone import spectrum
from puretone.bifurcate import _boundary_sines
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    QuietSecondDerivative,
    _Marcher,
    coeffs_to_grid,
    second_derivative_quiet,
)
from puretone.profile import ConstantPiece
from puretone.sl_core import (
    _angle_chain,
    _magnus_steps,
    _prefix_products,
    _step_groups,
    jump_angle,
)


def reference_pchip(piece):
    """scipy's PCHIP through a SmoothPiece's samples, extrapolating as the piece does."""
    return PchipInterpolator(piece.x, piece.sigma_samples, extrapolate=True)


def rounded_quarter(n):
    """(cos, sin) of n pi/2: libm values rounded to the exact 0 and +-1, apart from
    the library's quarter table."""
    ang = np.asarray(n) * (0.5 * np.pi)
    return np.rint(np.cos(ang)), np.rint(np.sin(ang))


def rk4_step_matrix(omega, sigma, h):
    """One RK4 step matrix for the constant-coefficient SL system."""
    a_mat = omega * np.array([[0.0, -1.0], [sigma**2, 0.0]])
    ha = h * a_mat
    term = np.eye(2)
    out = np.eye(2)
    for fact in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / fact
        out = out + term
    return out


def dense_transfer_pwc(profile, omega, n_total=10_000, literal=False):
    """Fixed-step RK4 transfer matrix for a piecewise constant profile.

    Steps are allocated to pieces proportionally to width.  Within a piece
    the per-step matrix is constant, so the n-fold sequential product equals
    a matrix power; `literal=True` forces the explicit step loop.
    """
    psi = np.eye(2)
    ell = profile.ell
    for sigma, width in zip(profile.sigma_levels, profile.widths):
        n = max(1, int(round(n_total * width / ell)))
        h = width / n
        k_step = rk4_step_matrix(omega, float(sigma), h)
        if literal:
            for _ in range(n):
                psi = k_step @ psi
        else:
            psi = np.linalg.matrix_power(k_step, n) @ psi
    return psi


def dense_transfer_smooth(profile, omega, n_total=4000):
    """Fixed-step RK4 for smooth profiles, sigma evaluated at the stages."""
    psi = np.eye(2).reshape(2, 2)
    ell = profile.ell
    for piece in profile.pieces:
        width = piece.x1 - piece.x0
        n = max(8, int(round(n_total * width / ell)))
        h = width / n
        sig = piece.sigma(_stage_points(piece.x0, h, n))
        for s0, s_half, s1 in sig:
            m_half = _mat(omega, s_half)
            k1 = _mat(omega, s0) @ psi
            k2 = m_half @ (psi + 0.5 * h * k1)
            k3 = m_half @ (psi + 0.5 * h * k2)
            k4 = _mat(omega, s1) @ (psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def _stage_points(x0, h, n):
    """(x, x + h/2, x + h) of n RK4 steps, x accumulated step by step; shape (n, 3)."""
    pts = np.empty((n, 3))
    x = x0
    for i in range(n):
        pts[i] = x, x + 0.5 * h, x + h
        x += h
    return pts


def _mat(omega, sigma):
    return omega * np.array([[0.0, -1.0], [float(sigma) ** 2, 0.0]])


def dense_prufer_angle(piece, omega, theta0, n=20_000):
    """Fixed-step RK4 for the scalar angle ODE on one smooth piece."""
    h = (piece.x1 - piece.x0) / n
    theta = theta0
    pts = _stage_points(piece.x0, h, n)
    sig, dsig = piece.sigma(pts), piece.dsigma(pts)

    def f(s, ds, th):
        return omega * float(s) - 0.5 * (float(ds) / float(s)) * np.sin(2.0 * th)

    for (s0, s_half, s1), (d0, d_half, d1) in zip(sig, dsig):
        k1 = f(s0, d0, theta)
        k2 = f(s_half, d_half, theta + 0.5 * h * k1)
        k3 = f(s_half, d_half, theta + 0.5 * h * k2)
        k4 = f(s1, d1, theta + h * k3)
        theta += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta


def dense_march_pwc(profile, eos, a, b, T, n_total=4000, n_quad=None):
    """Fixed-step RK4 of the coefficient law on a piecewise constant profile.

    da_j/dx = -j Omega b_j,  db_j/dx = -j Omega [cos coefficients of
    v(p(t), A)]_j,  p the even part of the state on a uniform grid of
    n_quad >= 4 M points; a, b have shape (..., M+1).  Steps are allocated to
    pieces proportionally to width.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    m = a.shape[-1] - 1
    n = 4 * m if n_quad is None else n_quad
    jw = np.arange(m + 1) * (2.0 * np.pi / T)
    cos_t = np.cos(np.outer(np.arange(m + 1), np.arange(n) * (2.0 * np.pi / n)))

    def rhs(aa, bb, A):
        p = aa @ cos_t
        spec = np.fft.rfft(eos.volume_from_factor(p, A), axis=-1)[..., : m + 1].real
        v_cos = spec * (2.0 / n)
        return -jw * bb, -jw * v_cos

    for sigma, width in zip(profile.sigma_levels, profile.widths):
        A = eos.factor_from_sigma(profile.pbar, float(sigma))
        steps = max(1, int(round(n_total * width / profile.ell)))
        h = width / steps
        for _ in range(steps):
            k1 = rhs(a, b, A)
            k2 = rhs(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1], A)
            k3 = rhs(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1], A)
            k4 = rhs(a + h * k3[0], b + h * k3[1], A)
            a = a + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            b = b + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return a, b


def fft_coeffs_to_grid(a, b, n):
    """FFT synthesis of sum a_j cos + b_j sin on t_i = i T / n (n >= 2 m + 2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[-1] - 1
    spec = np.zeros(a.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spec[..., 0] = a[..., 0] * n
    spec[..., 1 : m + 1] = (a[..., 1:] - 1j * b[..., 1:]) * (n / 2.0)
    return np.fft.irfft(spec, n=n, axis=-1)


def fft_grid_to_coeffs(values, m):
    """FFT analysis: the leading m+1 cosine/sine coefficients of grid samples."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1)
    a = np.empty(values.shape[:-1] + (m + 1,))
    b = np.zeros_like(a)
    a[..., 0] = spec[..., 0].real / n
    a[..., 1:] = spec[..., 1 : m + 1].real * (2.0 / n)
    b[..., 1:] = spec[..., 1 : m + 1].imag * (-2.0 / n)
    return a, b


def prefix_magnus_angle(piece, knots, omega, theta, zeta):
    """Prüfer (theta, zeta or None) across knots[0]..knots[-1] from prefix products.

    theta is unwrapped in the fixed frame (sigma_0 phi, psi): a step is an
    elliptic rotation by nu seen through a fixed linear map, so it turns that
    angle by nu plus a slip of less than pi.  zeta = d theta/d omega comes
    from d p[-1]/d omega = p[-1] sum_k adj(p[k]) de[k] p[k-1].
    """
    s0, s1 = piece.sigma(np.array([knots[0], knots[-1]]))
    rs0 = np.sqrt(s0)
    y0 = np.stack((np.cos(theta) / rs0, rs0 * np.sin(theta)), axis=-1)
    turn, y_end, v_end = np.empty_like(omega), np.empty_like(y0), np.empty_like(y0)
    for idx, _, terms in _step_groups(piece, knots, omega):
        e, nu, *de = _magnus_steps(terms, omega[idx], slope=zeta is not None)
        p = _prefix_products(e)
        ys = np.concatenate((y0[None, idx], (p @ y0[idx, :, None])[..., 0]))
        slip = np.diff(np.arctan2(ys[..., 1], s0 * ys[..., 0]), axis=0) - nu
        turn[idx] = np.sum(nu + slip - 2.0 * np.pi * np.round(slip / (2.0 * np.pi)), axis=0)
        y_end[idx] = ys[-1]
        if de:
            u = (de[0] @ ys[:-1, :, :, None])[..., 0]
            adj_u = np.stack((p[..., 1, 1] * u[..., 0] - p[..., 0, 1] * u[..., 1],
                              p[..., 0, 0] * u[..., 1] - p[..., 1, 0] * u[..., 0]), axis=-1)
            v0 = zeta[idx, None] * np.stack((-y0[idx, 1] / s0, s0 * y0[idx, 0]), axis=-1)
            v_end[idx] = (p[-1] @ (v0 + np.sum(adj_u, axis=0))[..., None])[..., 0]
    phi, psi = y_end[:, 0], y_end[:, 1]
    theta_end = jump_angle(s0 / s1, theta + turn)
    if zeta is None:
        return theta_end, None
    return theta_end, s1 * (phi * v_end[:, 1] - psi * v_end[:, 0]) / (s1 * s1 * phi * phi + psi * psi)


def prefix_piece_matrix(piece, omega):
    """Transfer matrix of one smooth piece as the last prefix product; 1-D omega."""
    out = np.empty(omega.shape + (2, 2))
    for idx, _, terms in _step_groups(piece, piece.x, omega):
        out[idx] = _prefix_products(_magnus_steps(terms, omega[idx])[0])[-1]
    return out


def dense_second_derivative(profile, eos, k, chi, phase_per_step):
    """Fixed-step RK4 of the joint (Psi, a, b) Duhamel system along [0, ell].

    a' = v_pp omega phi phi_tilde and b' = -v_pp omega phi^2, with each piece
    cut into equal steps of at most `phase_per_step` radians of omega sigma
    (and at least 8); v_pp is evaluated once per constant piece and at every
    stage of a smooth one.
    """
    eig = spectrum.eigen_solve(profile, k, chi)
    omega = eig.omega
    eos_ = eos if eos is not None else profile.eos
    pbar = profile.pbar

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
    for piece in profile.pieces:
        x0, x1 = piece.x0, piece.x1
        if isinstance(piece, ConstantPiece):
            sig_const = piece.level
            vpp_const = vpp_at(sig_const)

            def f(xx, yy):
                return rhs(xx, yy, sig_const, vpp_const)

            smax = sig_const
        else:

            def f(xx, yy):
                sig = float(piece.sigma(xx))
                return rhs(xx, yy, sig, vpp_at(sig))

            smax = float(np.max(piece.sigma(np.linspace(x0, x1, 65))))
        h_max = phase_per_step / max(omega * smax, 1e-30)
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
    c, s = rounded_quarter(k * chi)
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


class _SecondVariationMarcher(_Marcher):
    """The library walker on (Y_k, Y_i, Z): two first variations and the second.

    At the quiet base the first variations are linear, and Z is forced by
    v_pp P_k P_i on the collocation grid, P the pressures of Y_k and Y_i
    (Y_0 = 1, the evolved 0-mode, is marched like the others).  All fields
    carry the sigma variation within a step, and all size the step count.
    All are variations, so all are synthesized as themselves, with their
    means.  Like the library's, the remainder maps the grid values of a stack
    of stages on its leading axis.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.weights = np.ones((3,) + self.weights.shape[1:])

    def remainder(self, grid, at, rot):
        P, Pi, Q = grid[:, 0], grid[:, 1], grid[:, 2]
        dvp = at.vp0 - rot.vp0  # sigma variation within a step, zero on constant pieces
        g = 1.0 / self.eos.gamma
        vpp = g * (g + 1.0) * at.v0 / self.a0**2
        return np.stack((dvp * P, dvp * Pi, dvp * Q + vpp * P * Pi), axis=1)

    def eta(self, a, b, rot):
        s = np.sqrt(-rot.vp0)
        envelope = np.hypot(a, b / s)
        grid = coeffs_to_grid(envelope[None], None, self.n)
        rem = float(np.max(np.abs(self.remainder(grid, rot, rot) @ self.to_rates)))
        lin = float(np.max(self.omega_modes * s * s * envelope))
        return rem / (lin + rem) if rem > 0.0 else 0.0


def _second_variation_march(profile, k, T, cfg, cols):
    """Z(ell) of the second variation D^2 E(pbar)[cos k, cos i], one batch row per
    column i in cols: (cosine, sine) coefficients, each (len(cols), M + 1)."""
    cols = np.asarray(cols)
    marcher = _SecondVariationMarcher(profile, T, cfg, np.full((cols.size, 1), profile.pbar))
    a = np.zeros((3, cols.size, cfg.M + 1))
    a[0, :, k] = 1.0
    a[1, np.arange(cols.size), cols] = 1.0
    (a, b), _ = marcher.walk(a, np.zeros_like(a))
    return a[2], b[2]


def second_variation_spectral(profile, k, chi, T, cfg):
    """J1 by the pseudospectral march of (Y_k, Y_i, Z), all columns i = 0..M in
    one batch; column k, which carries no unknown, is zero like the library's."""
    m = cfg.M
    a, b = _second_variation_march(profile, k, T, cfg, np.arange(m + 1))
    c, s = rounded_quarter(np.arange(1, m + 1) * chi)
    table = (c * b[:, 1:] - s * a[:, 1:]).T
    table[:, k] = 0.0
    return table


def second_variation_fd(problem, alpha, h=1e-6):
    """(J(alpha) - J(0)) / alpha at u = 0 by central differences of the batched
    boundary map, J(0) the march's own quiet Jacobian: J1 + O(alpha).

    Columns i = 0..M in the library table's order (0 is z, k is zero).
    """
    m, k, pbar = problem.cfg.M, problem.k, problem.profile.pbar

    def jacobian(amp):
        batch = np.zeros((2, m + 1, m + 1))
        batch[:, :, 0] = pbar
        batch[:, :, k] = amp
        idx = np.arange(m + 1)
        batch[0, idx, idx] += h
        batch[1, idx, idx] -= h
        r = _boundary_sines(problem, batch.reshape(-1, m + 1)).reshape(2, m + 1, m)
        jac = ((r[0] - r[1]) / (2.0 * h)).T
        jac[:, k] = 0.0
        return jac

    return (jacobian(alpha) - jacobian(0.0)) / alpha


def reference_lawson_step(marcher, a, b, h, turn, stages):
    """One Lawson RK4 step that evaluates the remainder once per stage.

    The four-evaluation form of `_Marcher._step`, with the half turn applied
    twice where the step takes E^2 in closed form: E = exact half-step turn,
    N = the marcher's synthesis, remainder and analysis of a single stage,
    k1 = N(u) at stages[0], k2 = N(E(u + h/2 k1)) and k3 = N(E u) at
    stages[1], the midpoint, k4 = N(E(E u + h k3)) at stages[2], and
    u+ = E(E(u + h/6 k1) + h/3 (k2 + k3)) + h/6 k4.  stages holds the
    constants at x, x + h/2 and x + h; the midpoint set is also the turn's.
    """
    at0, mid, at1 = stages
    c, sn_over_s, s_sn = turn
    weights = marcher.weights[: a.shape[0]]

    def rates(a_stage, at):
        grid = coeffs_to_grid(weights * a_stage, None, marcher.n)
        return (marcher.remainder(grid[None], at, mid) @ marcher.to_rates)[0]

    k1 = rates(a, at0)
    k2 = rates(c * a - sn_over_s * (b + 0.5 * h * k1), mid)
    ta, tb = c * a - sn_over_s * b, s_sn * a + c * b
    k3 = rates(ta, mid)
    k4 = rates(c * ta - sn_over_s * (tb + h * k3), at1)
    b = b + h / 6.0 * k1
    a, b = c * a - sn_over_s * b, s_sn * a + c * b
    b = b + h / 3.0 * (k2 + k3)
    a, b = c * a - sn_over_s * b, s_sn * a + c * b
    return a, b + h / 6.0 * k4


def second_derivative_quiet_spectral(profile, k, chi, cfg=None, eig=None):
    """Pseudospectral cross check of the Duhamel path.

    Evolves the second-variation field Z (zero data) together with the first
    variations Y_k (the cosine k-mode) and Y_0 = 1 through the library's
    Lawson walker, with the bilinear forcing assembled on the collocation
    grid.  Returns a QuietSecondDerivative with phi_hat/psi_hat read off
    Z(ell).
    """
    if eig is None:
        eig = spectrum.eigen_solve(profile, k, chi)
    if cfg is None:
        cfg = EvolutionConfig(M=max(2 * k, 8), k_accuracy=k, x_error_target=1e-10)
    T = 2.0 * np.pi * k / eig.omega
    a, b = _second_variation_march(profile, k, T, cfg, [0])
    phi_hat, psi_hat = float(a[0, k]), float(b[0, k])
    c, s = rounded_quarter(k * chi)
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


def residual(problem, z, a_vec, alpha):
    """Boundary residual r_1..r_M of the assembled data, one unbatched evolution.

    a_vec holds M+1 cosine coefficients; its entries 0 and k are replaced by
    pbar + z and alpha.
    """
    cos = np.asarray(a_vec, dtype=float).copy()
    assert cos.size == problem.cfg.M + 1
    cos[0] = problem.profile.pbar + z
    cos[problem.k] = alpha
    return _boundary_sines(problem, cos)


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


def dgdz_check(problem):
    """Central finite differences of f(alpha, z) against the Duhamel pairing.

    f(alpha, z) is the k-th sine coefficient of S E^ell (pbar + z + alpha
    cos(k .)); the mixed partial at the origin equals the quiet-state second
    derivative pairing (auxiliary terms are higher order there).
    """
    problem.validate()
    pbar = problem.profile.pbar
    h = 3e-4  # the central-difference step in alpha and in z
    batch = np.zeros((4, problem.cfg.M + 1))
    signs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    for row, (sa, sz) in zip(batch, signs):
        row[0] = pbar + sz * h
        row[problem.k] = sa * h
    r = _boundary_sines(problem, batch)[:, problem.k - 1]
    fd = (r[0] - r[1] - r[2] + r[3]) / (4.0 * h * h)
    d2 = second_derivative_quiet(problem.profile, problem.k, problem.chi)
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


def project_even(y):
    return FourierField(y.T, y.cos.copy(), np.zeros_like(y.sin))


def project_odd(y):
    return FourierField(y.T, np.zeros_like(y.cos), y.sin.copy())


def shift(y, tau):
    """Time shift (T^tau y)(t) = y(t - tau): mode j rotates by j*2pi*tau/T."""
    ang = np.arange(y.cos.size) * (2.0 * np.pi * tau / y.T)
    c, s = np.cos(ang), np.sin(ang)
    return FourierField(y.T, c * y.cos - s * y.sin, s * y.cos + c * y.sin)


def boundary_operator(y, chi):
    """S = R_- T^{-chi T/4}: quarter-period shift then odd projection, chi in {0, 1}.

    On the cosine j-mode this produces -sin(j chi pi/2) times the sine mode,
    which composed with quiet linearized evolution is exactly the divisor
    delta_j.  Quarter turns are rounded from libm cos/sin.
    """
    c, s = rounded_quarter(np.arange(y.n_modes + 1) * chi)
    out_sin = c * y.sin - s * y.cos
    out_sin[0] = 0.0
    return FourierField(y.T, np.zeros_like(out_sin), out_sin)


def rolled_extension(p, u, chi):
    """The reflection extension of a tile's (p, u) rows, one np.roll per row.

    Row i of the period copies a tile row, time-shifted by chi nt/2 on the two
    middle regions and with u negated on the reflected ones, as in the
    region table of the linwave module docstring.
    """
    nx, nt = p.shape[0] - 1, p.shape[1]
    s = (nt // 2) * chi
    n_ext = (4 if chi == 1 else 2) * nx
    p_ext, u_ext = np.empty((n_ext + 1, nt)), np.empty((n_ext + 1, nt))
    p_ext[: nx + 1], u_ext[: nx + 1] = p, u
    for i in range(nx + 1, 2 * nx + 1):
        p_ext[i] = np.roll(p[2 * nx - i], -s)
        u_ext[i] = -np.roll(u[2 * nx - i], -s)
    if chi == 1:
        for i in range(2 * nx + 1, 3 * nx + 1):
            p_ext[i] = np.roll(p[i - 2 * nx], -s)
            u_ext[i] = np.roll(u[i - 2 * nx], -s)
        for i in range(3 * nx + 1, 4 * nx + 1):
            p_ext[i] = p[4 * nx - i]
            u_ext[i] = -u[4 * nx - i]
    return p_ext, u_ext


def sl_residual(profile, omega, x, vals):
    """Max residual of the first-order SL system for (phi, psi) = vals on a uniform x.

    Derivatives are fourth-order central differences restricted to points at
    least two grid cells inside each smooth piece (one-sided stencils across
    a jump would see the discontinuity).
    """
    phi, psi = vals
    h = x[1] - x[0]
    sigma = profile.sigma_at(x)

    def d4(f):
        return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)

    interior = np.zeros(x.size, dtype=bool)
    interior[2:-2] = True
    for edge in profile.edges[1:-1]:
        interior &= np.abs(x - edge) > 2.5 * h
    sel = interior[2:-2]
    r1 = d4(phi) + omega * psi[2:-2]
    r2 = d4(psi) - omega * sigma[2:-2] ** 2 * phi[2:-2]
    if not np.any(sel):
        return np.nan
    return float(max(np.max(np.abs(r1[sel])), np.max(np.abs(r2[sel]))))


def reference_jump_map(J, z, with_slope=False):
    """(h(J, z), dh/dz or None) by the winding split m = floor(z/pi + 1/2) and one cos/sin.

    The reference for the tan form's values.  Its rounded m pi makes h step
    back by up to an ulp of z at some cuts (m + 1/2) pi and m pi, which the
    tan form does not.
    """
    z = np.asarray(z, dtype=float)
    m = np.floor(z / np.pi + 0.5)
    w = z - m * np.pi
    c, s = np.cos(w), np.sin(w)
    h = m * np.pi + np.arctan2(J * s, c)
    return h, (J / (c * c + J * J * s * s) if with_slope else None)


def full_array_solve_targets(angle_and_slope, total, wiggle, targets, tol, max_iter=80):
    """Safeguarded Newton for theta(ell, omega) = target over the whole array each pass.

    `angle_and_slope(omega)` returns (theta, d theta/d omega) at every omega
    at once; theta(ell, omega) lies within `wiggle` of omega * `total`, which
    brackets each root.  Returns (omega, converged mask).
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.maximum((targets - wiggle) / total, 0.0)
    hi = (targets + wiggle) / total
    om = targets / total
    om = np.clip(om, lo + 1e-30, hi)
    tol_theta = tol * (np.pi / 2.0)
    for _ in range(max_iter):
        th, dth = angle_and_slope(om)
        f = th - targets
        done = np.abs(f) <= tol_theta
        if np.all(done):
            return om, done
        hi = np.where(f > 0.0, np.minimum(hi, om), hi)
        lo = np.where(f < 0.0, np.maximum(lo, om), lo)
        cand = om - f / dth
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        om = np.where(done, om, np.where(bad, 0.5 * (lo + hi), cand))
    th, _ = angle_and_slope(om)
    return om, np.abs(th - targets) <= 10.0 * tol_theta


def full_array_pwc_solve_targets(jumps, angles, targets, tol=spectrum.KAPPA_TOL, max_iter=80):
    """Roots of the pwc chain by full_array_solve_targets; shapes as for spectrum._pwc_solve_targets."""
    targets = np.asarray(targets, dtype=float)
    total = np.broadcast_to(np.sum(angles, axis=-1), targets.shape)
    wiggle = jumps.shape[-1] * (np.pi / 2.0)
    jumps, angles = np.asarray(jumps, dtype=float), np.asarray(angles, dtype=float)
    jump_cols = [jumps[..., i] for i in range(jumps.shape[-1])]
    angle_cols = [angles[..., i] for i in range(angles.shape[-1])]
    chain = lambda om: _angle_chain(jump_cols, angle_cols, om, True)
    return full_array_solve_targets(chain, total, wiggle, targets, tol, max_iter)


def reference_min_ratio_residual(om, k_max, l_max, j_max):
    """Per ladder, the smallest ratio residual and its (k, j, l), one k at a time.

    The loop over k keeps a strictly smaller residual only, so ties go to
    the smallest k, and within a k argmin takes the smallest l.  Once a k
    holds a residual below EXACT_TOL, the row's triple is its first such l
    and no later k moves it.  The reference for
    spectrum._min_ratio_residual's blocked one-pass form.
    """
    samples = om.shape[0]
    min_res = np.full(samples, np.inf)
    argmin = np.zeros((samples, 3), dtype=int)
    exact = np.zeros(samples, dtype=bool)
    ls = np.arange(1, l_max + 1)
    rows = np.arange(samples)
    for k in range(1, k_max + 1):
        om_k = om[:, k - 1][:, None]
        om_l = om[:, :l_max]
        with np.errstate(invalid="ignore", divide="ignore"):
            j_star = np.rint(k * om_l / om_k)
            res = np.abs(k * om_l - j_star * om_k) / (k * om_l)
        valid = (ls[None, :] != k) & (j_star >= 1) & (j_star <= j_max) & (j_star != k)
        res = np.where(valid, res, np.inf)
        best_l = np.argmin(res, axis=1)
        best = res[rows, best_l]
        better = best < min_res
        min_res = np.where(better, best, min_res)
        first_l = np.argmax(res < spectrum.EXACT_TOL, axis=1)
        new_exact = ~exact & (res[rows, first_l] < spectrum.EXACT_TOL)
        pick = np.where(new_exact, first_l, best_l)
        take = new_exact | (better & ~exact)
        exact |= new_exact
        argmin[take, 0] = k
        argmin[take, 1] = j_star[rows, pick][take].astype(int)
        argmin[take, 2] = pick[take] + 1
    return min_res, argmin


def random_pwc(rng, n_max=5, pbar=None, eos=None):
    """Seeded random piecewise constant profile used across the oracles."""
    from puretone.profile import PiecewiseConstantProfile

    n = int(rng.integers(1, n_max + 1))
    sigma = rng.uniform(0.3, 3.0, n)
    widths = rng.uniform(0.1, 1.0, n)
    return PiecewiseConstantProfile(sigma, widths, pbar=pbar, eos=eos)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
