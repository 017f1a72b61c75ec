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
algebra nor the quadrature of the library's closed-form path.  The
boundary residual of the bifurcation system at one assembled point, one
unbatched evolution, probes S E^ell directly.  The field operators (parity
projections, time shift and the boundary operator S = R_- T^{-chi T/4})
act on FourierField coefficients by their definitions, as the reference S
of S o L = diag(delta_j).  The SL residual checks sampled solutions with
fourth-order differences.  The full-array safeguarded Newton evaluates
the angle chain on every point in every pass, as the reference for the
library's active-set, blocked root solve.
"""

import numpy as np

from puretone import spectrum
from puretone.bifurcate import _sine_components
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    QuietSecondDerivative,
    _Marcher,
    coeffs_to_grid,
    evolve_coefficients,
)
from puretone.profile import ConstantPiece
from puretone.sl_core import (
    _angle_chain,
    _magnus_steps,
    _prefix_products,
    _step_groups,
    jump_angle,
    quarter_cos_sin,
)


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
    for idx, _, grid in _step_groups(piece, knots, omega):
        e, nu, *de = _magnus_steps(grid, omega[idx], slope=zeta is not None)
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
    for idx, _, grid in _step_groups(piece, piece.x, omega):
        out[idx] = _prefix_products(_magnus_steps(grid, omega[idx])[0])[-1]
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
    c, s = quarter_cos_sin(k * chi)
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
    """The library walker on (Y, Z): Y the first variation, Z the second.

    At the quiet base P1 = 1 (the evolved 0-mode), so Z is forced by v_pp Y
    on the collocation grid; both fields carry the sigma variation within a
    step, and both size the step count.
    """

    def remainder(self, a, at, rot):
        P = coeffs_to_grid(a[0], np.zeros_like(a[0]), self.n)
        Q = coeffs_to_grid(a[1], np.zeros_like(a[1]), self.n)
        dvp = at.vp0 - rot.vp0  # sigma variation within a step, zero on constant pieces
        g = 1.0 / self.eos.gamma
        vpp = g * (g + 1.0) * at.v0 / self.a0**2
        return np.stack(((dvp * P) @ self.to_rates, (dvp * Q + vpp * P) @ self.to_rates))

    def eta(self, a, b, rot):
        s = np.sqrt(-rot.vp0)
        envelope = np.hypot(a, b / s)
        rem = float(np.max(np.abs(self.remainder(envelope, rot, rot))))
        lin = float(np.max(self.omega_modes * s * s * envelope))
        return rem / (lin + rem) if rem > 0.0 else 0.0


def second_derivative_quiet_spectral(profile, eos, k, chi, cfg=None, eig=None):
    """Pseudospectral cross check of the Duhamel path.

    Evolves the second-variation field Z (zero data) together with the first
    variation Y (the cosine k-mode) through the library's Lawson walker,
    with the bilinear forcing assembled on the collocation grid.  Returns a
    QuietSecondDerivative with phi_hat/psi_hat read off Z(ell).
    """
    if eig is None:
        eig = spectrum.eigen_solve(profile, k, chi)
    if cfg is None:
        cfg = EvolutionConfig(M=max(2 * k, 8), k_accuracy=k, x_error_target=1e-10)
    T = 2.0 * np.pi * k / eig.omega
    marcher = _SecondVariationMarcher(profile, eos, T, cfg, np.array([profile.pbar]))
    a = np.zeros((2, cfg.M + 1))
    a[0, k] = 1.0
    (a, b), _ = marcher.walk(a, np.zeros_like(a))
    phi_hat, psi_hat = float(a[1, k]), float(b[1, k])
    c, s = quarter_cos_sin(k * chi)
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
    (a_out, b_out), _ = evolve_coefficients(
        problem.profile, problem.eos, cos, np.zeros_like(cos), problem.eigen().T, problem.cfg
    )
    return _sine_components(a_out, b_out, problem.chi)


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
    delta_j.  Quarter turns use the exact integer table.
    """
    c, s = quarter_cos_sin(np.arange(y.n_modes + 1) * chi)
    out_sin = c * y.sin - s * y.cos
    out_sin[0] = 0.0
    return FourierField(y.T, np.zeros_like(out_sin), out_sin)


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
    chain = lambda om: _angle_chain(jumps, angles, om, with_slope=True)
    return full_array_solve_targets(chain, total, wiggle, targets, tol, max_iter)


def random_pwc(rng, n_max=5, pbar=None, eos=None):
    """Seeded random piecewise constant profile used across the oracles."""
    from puretone.profile import PiecewiseConstantProfile

    n = int(rng.integers(1, n_max + 1))
    sigma = rng.uniform(0.3, 3.0, n)
    widths = rng.uniform(0.1, 1.0, n)
    return PiecewiseConstantProfile(sigma, widths, pbar=pbar, eos=eos)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
