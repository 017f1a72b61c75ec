"""Sturm-Liouville engine: Prüfer angles and transfer matrices.

The first-order SL system for a mode of frequency omega,

    phi' = -omega * psi,      psi' = omega * sigma(x)**2 * phi,

is propagated across [0, ell] by its fundamental matrix Psi(x; omega) with
Psi(0) = I and det Psi = 1.  Angles are modified Prüfer angles

    tan(theta) = psi / (sigma * phi),

which on C1 intervals obey theta' = omega*sigma - (sigma'/2 sigma) sin 2*theta.
At a jump of size J = sigma_-/sigma_+ continuity of (phi, psi) gives the
angle map theta_+ = h(J, theta_-).  The Prüfer radius is never carried: the
angle chain is closed on its own, and amplitudes come from Psi.

The angle h carries an explicit integer winding m = floor(z/pi + 1/2), so
theta is continuous and unbounded in omega; eigenfrequencies are the roots of
theta(ell, omega) = k*pi/2 with theta(0) = 0.

Every routine walks `profile.pieces` once and chooses its method per piece.
Across a profile.ConstantPiece theta turns by exactly omega*sigma_i*L_i, and
the transfer matrix is the rotation R(omega*sigma_i*L_i) conjugated by the
aspect matrix M(sigma_i) = diag(1/sqrt(sigma_i), sqrt(sigma_i)).
A smooth piece is stepped by the fourth-order Magnus method with two Gauss
points (Iserles 2002, BIT 42:561), vectorized over omega: every step is the
exponential of a traceless 2x2 matrix in closed form, so det = 1 holds step
by step, and on a constant stretch one step is the exact rotation.  Transfer
matrices and end states are ordered products of the steps, formed by
pairwise tree reduction in O(steps) 2x2 products.  The winding of theta
comes from the phase integral, which fixes it wherever half the
log-variation of sigma is at most pi/2, and d theta/d omega, carried
through the same tree, is the exact derivative of the discrete angle.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, IntegrationError
from .profile import ConstantPiece, SmoothPiece

#: maximum |det(Psi) - 1| tolerated after any composition
PSI_DET_TOL = 1e-12

#: error target of the Magnus step rule on one smooth piece
PRUFER_TOL = 1e-11


# -- exact quarter turns -------------------------------------------------------


#: exact (cos, sin) of n pi/2, indexed by n mod 4
_QUARTER = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def quarter_cos_sin(n):
    """Exact (cos, sin) of n*pi/2 for an integer or an integer array n.

    Table lookup, so axis hits are exactly 0 and +-1, free of pi roundoff.
    """
    cs = _QUARTER[np.asarray(n) % 4]
    return cs[..., 0], cs[..., 1]


# -- jump maps -----------------------------------------------------------------


def _check_jump(J):
    J = np.asarray(J, dtype=float)
    if np.any(J <= 0.0) or not np.all(np.isfinite(J)):
        raise DomainError("jump ratio J must be positive and finite")
    return J


def _split_winding(z):
    z = np.asarray(z, dtype=float)
    m = np.floor(z / np.pi + 0.5)
    return m, z - m * np.pi


def _jump_map(J, z, with_slope=False):
    """(h(J, z), dh/dz or None) from one winding split and one cos/sin; J unchecked.

    dh/dz = J / (cos^2 w + J^2 sin^2 w) lies in [min(J,1/J), max(J,1/J)].
    """
    m, w = _split_winding(z)
    c, s = np.cos(w), np.sin(w)
    h = m * np.pi + np.arctan2(J * s, c)
    return h, (J / (c * c + J * J * s * s) if with_slope else None)


def jump_angle(J, z):
    """h(J, z): post-jump Prüfer angle; same quadrant as z, fixes axes."""
    return _jump_map(_check_jump(J), z)[0]


# -- Magnus propagation of smooth pieces ----------------------------------------

#: Gauss points of the two-point rule, as offsets from the step midpoint
_GAUSS = np.sqrt(3.0) / 6.0

#: error constants of the Magnus step rule (see _step_groups): the largest
#: commutator constant fitted on smooth test pieces (they range 0.01-0.12),
#: and the two-point Gauss quadrature constant
_ERR_COMM = 0.1
_ERR_QUAD = 1.0 / 4320.0

#: largest number of Magnus steps on one piece, and of steps x omegas at once
#: (building the steps and their omega-derivatives peaks at about 35 doubles
#: per step and omega; the tree reduction needs less)
_MAX_STEPS, _MAX_BATCH = 2**17, 2**12


def _step_groups(piece, knots, omega, min_sub=1):
    """Yield (omega indices, steps per interval, (h, s1^2, s2^2) at the Gauss points).

    With steps h = dx / 2**level on sample intervals of width dx, the global
    error on the piece is about sum h^4 (C_c |omega|^3 I_c + C_q |omega| I_q),
    I_c the integral of sigma sigma'^2 (the commutator term, dominant at
    large omega) and I_q that of |(sigma^2)''''| (the quadrature term), both
    from sigma' at the ends and midpoint of the cubic interval.  Each omega
    gets the smallest level that meets PRUFER_TOL, so its value does not
    depend on the batch; knot intervals lie inside sample intervals.  Every knot
    interval holds max(2**level, min_sub) equal steps.
    """
    x, samples = piece.x, piece.sigma_samples
    dx = np.diff(x)
    d0, d1, dm = np.split(piece.dsigma(np.concatenate((x[:-1], x[1:], x[:-1] + 0.5 * dx))), 3)
    d2, d3 = (d1 - d0) / dx, 4.0 * (d0 - 2.0 * dm + d1) / (dx * dx)  # sigma'' (midpoint), sigma'''
    comm = np.sum(dx**5 * np.maximum(samples[:-1], samples[1:]) * (d0**2 + 4.0 * dm**2 + d1**2) / 6.0)
    quad = np.sum(dx**5 * np.abs(8.0 * dm * d3 + 6.0 * d2 * d2))
    w = np.abs(omega)
    need = (_ERR_COMM * w**3 * comm + _ERR_QUAD * w * quad) / PRUFER_TOL
    level = np.ceil(0.25 * np.log2(np.maximum(need, 1.0))).astype(int)
    subs = np.maximum(2**level, int(min_sub))
    for sub in np.unique(subs):
        n = (knots.size - 1) * sub
        if n > _MAX_STEPS:
            raise IntegrationError(f"Magnus steps {n} above {_MAX_STEPS}")
        h = np.repeat(np.diff(knots) / sub, sub)
        mid = np.repeat(knots[:-1], sub) + (np.tile(np.arange(sub), knots.size - 1) + 0.5) * h
        sq = piece.sigma(np.concatenate((mid - _GAUSS * h, mid + _GAUSS * h))) ** 2
        idx = np.flatnonzero(subs == sub)
        for chunk in np.array_split(idx, min(idx.size, -(-n * idx.size // _MAX_BATCH))):
            yield chunk, sub, (h, sq[:n], sq[n:])


def _traceless(d, a, b, c):
    """[[d + a, b], [c, d - a]] on the last two axes."""
    d, a, b, c = np.broadcast_arrays(d, a, b, c)
    return np.stack((np.stack((d + a, b), axis=-1), np.stack((c, d - a), axis=-1)), axis=-2)


def _magnus_steps(grid, omega, slope=False):
    """Steps exp(Omega) of the two-point Gauss Magnus method on a grid of _step_groups.

    With s1^2, s2^2 the values of sigma^2 at the Gauss points of a step h and
    m = (s1^2 + s2^2)/2, Omega = omega h [[0, -1], [m, 0]] + omega^2 h^2
    (sqrt(3)/12) (s2^2 - s1^2) diag(1, -1).  Omega is traceless, so
    exp(Omega) = cos(nu) I + sin(nu)/nu Omega with nu^2 = det(Omega), and
    det exp(Omega) = 1.  Returns (e, nu[, de = d e/d omega]); e and de have
    shape (steps, omegas, 2, 2), nu (signed like omega) (steps, omegas).
    """
    h, s1, s2 = (v[:, None] for v in grid)
    w = omega[None, :]
    mean = 0.5 * (s1 + s2)
    comm = (np.sqrt(3.0) / 12.0) * (s2 - s1) * h * h
    a, b, c = w * w * comm, -w * h, w * h * mean
    det = -a * a - b * c
    if np.any(det < 0.0):
        raise IntegrationError("Magnus step is not oscillatory; the step rule is too coarse")
    nu = np.copysign(np.sqrt(det), w)
    cos, sinc = np.cos(nu), np.sinc(nu / np.pi)
    e = _traceless(cos, sinc * a, sinc * b, sinc * c)
    if not slope:
        return e, nu
    da, db, dc = 2.0 * w * comm, -h, h * mean
    ddet = -2.0 * a * da + 2.0 * w * h * h * mean
    # d sinc/d det = (cos - sinc) / (2 det), by its series near det = 0
    small = det < 1e-2
    dsinc = ddet * np.where(small, -1.0 / 6.0 + det / 60.0 - det**2 / 1680.0 + det**3 / 90720.0,
                            (cos - sinc) / (2.0 * np.where(small, 1.0, det)))
    de = _traceless(-0.5 * sinc * ddet, dsinc * a + sinc * da, dsinc * b + sinc * db,
                    dsinc * c + sinc * dc)
    return e, nu, de


def _prefix_products(e):
    """p[k] = e[k] @ ... @ e[0] along the first axis, in log2(steps) doubling sweeps."""
    p = e.copy()
    d = 1
    while d < p.shape[0]:
        p[d:] = p[d:] @ p[:-d]
        d *= 2
    return p


def _tree_product(e, de=None):
    """(e[-1] @ ... @ e[0], its omega-derivative or None) by pairwise reduction.

    O(steps) 2x2 products; a derivative pair combines as (B, B')(A, A') =
    (BA, B'A + BA').
    """
    while e.shape[0] > 1:
        n = e.shape[0] // 2 * 2
        lo, hi = e[0:n:2], e[1:n:2]
        if de is not None:
            de = np.concatenate((de[1:n:2] @ lo + hi @ de[0:n:2], de[n:]))
        e = np.concatenate((hi @ lo, e[n:]))
    return e[0], None if de is None else de[0]


def _spans(piece, knots, sig, sub):
    """Step indices cutting a grid of `sub` steps per knot interval into spans,
    and sigma at the cuts.

    A span's half log-variation of sigma is at most pi/2, unless it is a
    single step (the step rule makes steps far finer than that).  PCHIP is
    monotone on each sample interval, so the variation is exact from sigma
    at the cuts.  Spans end at knots where they can; a knot interval above
    the bound is cut at its step boundaries.
    """
    pos = np.arange(knots.size) * sub
    half = 0.5 * np.abs(np.diff(np.log(sig)))
    if np.sum(half) <= 0.5 * np.pi:
        return pos[[0, -1]], sig[[0, -1]]
    wide = np.flatnonzero(half > 0.5 * np.pi)
    if wide.size and sub > 1:
        inner = np.arange(1, sub)
        x = (knots[wide, None] + np.diff(knots)[wide, None] * (inner / sub)).ravel()
        pos = np.concatenate((pos, (pos[wide, None] + inner).ravel()))
        sig = np.concatenate((sig, piece.sigma(x)))
        order = np.argsort(pos)
        pos, sig = pos[order], sig[order]
        half = 0.5 * np.abs(np.diff(np.log(sig)))
    total = np.concatenate(([0.0], np.cumsum(half)))
    cuts = [0]
    for j in range(2, total.size):
        if total[j] - total[cuts[-1]] > 0.5 * np.pi and cuts[-1] < j - 1:
            cuts.append(j - 1)
    cuts.append(total.size - 1)
    return pos[cuts], sig[cuts]


def _magnus_angle(piece, omega, theta, zeta):
    """(theta, zeta or None) carried across one smooth piece; 1-D omega.

    The state goes through each span of steps as one tree-reduced product.
    The winding comes from the phase: in the local frame (sigma phi, psi)
    theta' = omega sigma - (sigma'/2 sigma) sin 2 theta, so across a span
    theta moves by its phase (the sum of the steps' nu, ~ omega int sigma)
    to within half the log-variation of sigma.  Spans are cut (_spans) until
    that is at most pi/2, and the end angle is taken on the branch nearest
    the start angle plus the phase; this needs steps that resolve the
    solution, which the step rule gives.  zeta =
    d theta/d omega is the exact derivative of the discrete angle, from
    v = d(phi, psi)/d omega carried with the (product, derivative) pairs.
    """
    knots = piece.x
    sig = piece.sigma(knots)
    rs0 = np.sqrt(sig[0])
    y = np.stack((np.cos(theta) / rs0, rs0 * np.sin(theta)), axis=-1)
    v = None if zeta is None else zeta[:, None] * np.stack((-y[:, 1] / sig[0], sig[0] * y[:, 0]), axis=-1)
    theta = theta.copy()
    for idx, sub, grid in _step_groups(piece, knots, omega):
        e, nu, *de = _magnus_steps(grid, omega[idx], slope=zeta is not None)
        yi, th = y[idx, :, None], theta[idx]
        vi = None if zeta is None else v[idx, :, None]
        cut, s_cut = _spans(piece, knots, sig, sub)
        for a, b, s_end in zip(cut[:-1], cut[1:], s_cut[1:]):
            p, dp = _tree_product(e[a:b], de[0][a:b] if de else None)
            if dp is not None:
                vi = dp @ yi + p @ vi
            yi = p @ yi
            # the angle of (s_end phi, psi) on the branch nearest th + phase
            ang = np.arctan2(yi[:, 1, 0], s_end * yi[:, 0, 0])
            th = ang + 2.0 * np.pi * np.round((th + np.sum(nu[a:b], axis=0) - ang) / (2.0 * np.pi))
        y[idx], theta[idx] = yi[..., 0], th
        if vi is not None:
            v[idx] = vi[..., 0]
    if zeta is None:
        return theta, None
    s1 = sig[-1]
    phi, psi = y[:, 0], y[:, 1]
    return theta, s1 * (phi * v[:, 1] - psi * v[:, 0]) / (s1 * s1 * phi * phi + psi * psi)


def prufer_advance(piece: SmoothPiece, omega, theta, zeta=None):
    """Advance theta across one smooth piece; vectorized over omega.

    The piece is stepped by the fourth-order Magnus method on 2**level
    equal steps per sample interval, the level chosen per omega from
    PRUFER_TOL (see _step_groups), so a value at one omega does not depend
    on the other omegas of the batch.  theta, and zeta = d theta/d omega when given,
    broadcast against omega.  Returns (theta, zeta), zeta None when not given.
    """
    shape = np.shape(omega)
    flat = lambda v: np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(-1)
    out = lambda v: v.reshape(shape) if shape else float(v[0])
    th, ze = _magnus_angle(piece, flat(omega), flat(theta), None if zeta is None else flat(zeta))
    return out(th), None if zeta is None else out(ze)


# -- angle across the whole profile ---------------------------------------------


def _angle_chain(jumps, pieces, omega, with_slope=False):
    """theta(ell), or (theta, d theta/d omega), from theta(0) = 0 across N pieces, N-1 jumps.

    `jumps` has shape (..., N-1).  `pieces` is a profile's N pieces, or a
    batch of pwc angles of shape (..., N).  A SmoothPiece is advanced by
    prufer_advance; a ConstantPiece or a batch's piece turns theta by
    exactly omega times its angle.  Vectorized over omega, which broadcasts
    against the batch shape.  The jumps are validated once per call.
    """
    jumps = _check_jump(jumps)
    if isinstance(pieces, np.ndarray):
        pieces = [pieces[..., i] for i in range(pieces.shape[-1])]
    omega = np.asarray(omega, dtype=float)
    z = np.zeros(omega.shape)
    dz = np.zeros_like(z) if with_slope else None
    for i, piece in enumerate(pieces):
        if isinstance(piece, SmoothPiece):
            z, dz = prufer_advance(piece, omega, z, zeta=dz)
        else:
            angle = piece.angle if isinstance(piece, ConstantPiece) else piece
            z = z + omega * angle
            if with_slope:
                dz = dz + angle
        if i < jumps.shape[-1]:
            z, dh = _jump_map(jumps[..., i], z, with_slope)
            if with_slope:
                dz = dh * dz
    return (z, dz) if with_slope else z


def angle_at_ell(profile, omega):
    """Prüfer angle theta(ell, omega) from theta(0) = 0, the reflection condition u(0) = 0.

    Strictly increasing in omega; accepts vector omega.  Exact across
    constant pieces; smooth pieces are stepped by the Magnus propagator.
    """
    return _angle_chain(profile.jumps, profile.pieces, omega)


def angle_and_slope_at_ell(profile, omega):
    """(theta(ell), d theta(ell)/d omega) from theta(0) = 0; the slope is positive."""
    return _angle_chain(profile.jumps, profile.pieces, omega, with_slope=True)


# -- fundamental (transfer) matrices --------------------------------------------


def _pwc_piece_matrix(sigma, omega, dx):
    """M(sigma) R(omega sigma dx) M(1/sigma), the exact constant-sigma transfer;
    vectorized over omega, shape omega.shape + (2, 2)."""
    ang = np.asarray(omega, dtype=float) * (sigma * dx)
    c, s = np.cos(ang), np.sin(ang)
    return _traceless(c, 0.0, -s / sigma, sigma * s)


def _piece_matrix(piece, omega):
    """Transfer matrix of one piece, exact if constant, else the ordered product
    of its Magnus steps; vectorized over omega, shape omega.shape + (2, 2)."""
    if isinstance(piece, ConstantPiece):
        return _pwc_piece_matrix(piece.level, omega, piece.width)
    om = np.asarray(omega, dtype=float).reshape(-1)
    out = np.empty(om.shape + (2, 2))
    for idx, _, grid in _step_groups(piece, piece.x, om):
        out[idx] = _tree_product(_magnus_steps(grid, om[idx])[0])[0]
    return out.reshape(np.shape(omega) + (2, 2))


def fundamental_matrix(profile, omega) -> np.ndarray:
    """Psi(ell; omega) with Psi(0) = I and det = 1.

    Continuity of (phi, psi) makes the jump transfer the identity, so the
    full matrix is just the ordered product of per-piece matrices.  Vector
    omega gives shape omega.shape + (2, 2); a scalar gives (2, 2).
    """
    omega = np.asarray(omega, dtype=float)
    psi_mat = np.broadcast_to(np.eye(2), omega.shape + (2, 2))
    for piece in profile.pieces:
        psi_mat = _piece_matrix(piece, omega) @ psi_mat
    return psi_mat


def sample_sl_solution(profile, omega, x_grid) -> np.ndarray:
    """Propagate the SL vector (phi, psi)(0) = (1, 0) to every point of x_grid.

    Returns an array of shape (2, len(x_grid)).  x_grid may be in any order
    and must lie inside [0, ell] (to within 1e-14), else DomainError; values
    at interior jumps are continuous so either side gives the same answer.
    A pwc ell (a sum of widths) may lie ulps past the last edge (a cumsum);
    the last piece takes the points up to either.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    edges = profile.edges
    top = max(profile.ell, edges[-1]) + 1e-14
    if not np.all((x_grid >= -1e-14) & (x_grid <= top)):
        raise DomainError(f"sample points must lie in [0, {profile.ell!r}]")
    out = np.empty((2, x_grid.size))
    v = np.array([1.0, 0.0])
    om = np.array([float(omega)])
    for i, piece in enumerate(profile.pieces):
        x0, x1 = edges[i], edges[i + 1]
        sel = (x_grid >= x0 - 1e-14) & ((x_grid <= top) if i == edges.size - 2 else (x_grid < x1))
        targets = np.clip(x_grid[sel], x0, x1)
        if isinstance(piece, ConstantPiece):
            out[:, sel] = (_pwc_piece_matrix(piece.level, om[0], targets - x0) @ v).T
            v = _pwc_piece_matrix(piece.level, om[0], x1 - x0) @ v
            continue
        # the targets join the sample knots, so every target ends a step
        knots = np.union1d(piece.x, targets)
        x, psis = magnus_states(piece, om[0], knots)
        at_knot = (psis @ v)[:: (x.size - 1) // (knots.size - 1)]
        out[:, sel] = at_knot[np.searchsorted(knots, targets)].T
        v = at_knot[-1]
    return out


def magnus_states(piece: SmoothPiece, omega, knots=None, min_sub=1):
    """(x, Psi(x)) at every Magnus step end of one smooth piece, Psi(x0) = I.

    knots (default the samples) must contain the samples; every knot
    interval holds the same number of equal steps, at least min_sub and as
    many as the step rule needs.  x has one more entry than there are steps
    and psis has shape (x.size, 2, 2).
    """
    knots = piece.x if knots is None else knots
    om = np.array([float(omega)])
    (_, sub, grid), = _step_groups(piece, knots, om, min_sub)
    x = np.repeat(knots[:-1], sub) + np.tile(np.arange(1, sub + 1), knots.size - 1) * grid[0]
    p = _prefix_products(_magnus_steps(grid, om)[0])[:, 0]
    return np.concatenate((knots[:1], x)), np.concatenate((np.eye(2)[None], p))
