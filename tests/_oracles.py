"""Brute-force reference implementations, independent of the library paths.

These deliberately avoid the Prüfer/rotation algebra: the transfer-matrix
oracle is plain fixed-step RK4 of the first-order system
Psi' = omega [[0, -1], [sigma^2, 0]] Psi, stepped piece by piece so no step
straddles a jump.  The march oracle is plain fixed-step RK4 of the
coefficient law itself, with its own transforms; the FFT transforms are the
reference for the library's dense DFT products.
"""

import numpy as np


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
        x = piece.x0
        for _ in range(n):
            k1 = _mat(omega, piece.sigma(x)) @ psi
            k2 = _mat(omega, piece.sigma(x + 0.5 * h)) @ (psi + 0.5 * h * k1)
            k3 = _mat(omega, piece.sigma(x + 0.5 * h)) @ (psi + 0.5 * h * k2)
            k4 = _mat(omega, piece.sigma(x + h)) @ (psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
    return psi


def _mat(omega, sigma):
    return omega * np.array([[0.0, -1.0], [float(sigma) ** 2, 0.0]])


def dense_prufer_angle(piece, omega, theta0, n=20_000):
    """Fixed-step RK4 for the scalar angle ODE on one smooth piece."""
    h = (piece.x1 - piece.x0) / n
    theta = theta0
    x = piece.x0

    def f(xx, th):
        s = float(piece.sigma(xx))
        ds = float(piece.dsigma(xx))
        return omega * s - 0.5 * (ds / s) * np.sin(2.0 * th)

    for _ in range(n):
        k1 = f(x, theta)
        k2 = f(x + 0.5 * h, theta + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, theta + 0.5 * h * k2)
        k4 = f(x + h, theta + h * k3)
        theta += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
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


def random_pwc(rng, n_max=5, pbar=None, eos=None):
    """Seeded random piecewise constant profile used across the oracles."""
    from puretone.profile import PiecewiseConstantProfile

    n = int(rng.integers(1, n_max + 1))
    sigma = rng.uniform(0.3, 3.0, n)
    widths = rng.uniform(0.1, 1.0, n)
    return PiecewiseConstantProfile(sigma, widths, pbar=pbar, eos=eos)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
