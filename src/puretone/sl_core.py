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

The angle map moves theta by less than pi/2 and keeps its winding, so
theta is continuous and unbounded in omega; eigenfrequencies are the roots of
theta(ell, omega) = k*pi/2 with theta(0) = 0.

Every routine walks `profile.pieces` once and chooses its method per piece.
Across a profile.ConstantPiece theta turns by exactly omega*sigma_i*L_i, and
the transfer matrix is the rotation R(omega*sigma_i*L_i) conjugated by the
aspect matrix M(sigma_i) = diag(1/sqrt(sigma_i), sqrt(sigma_i)), from
`rotation`, the one constant-slowness turn (evolve's march takes it too).
A smooth piece is stepped by the sixth-order Magnus method on three Gauss
points (Blanes, Casas & Ros 2000, BIT 40:434; Iserles 2002, BIT 42:561),
vectorized over omega: every step is the exponential of a traceless 2x2
matrix in closed form, so det = 1 holds step by step, and on a constant
stretch one step is the exact rotation.  The omega-polynomial coefficients
of the steps on a piece's own knots are formed once per step level and kept
on the piece, so repeated solves on one profile build each table once.  Transfer
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


# -- the boundary operator S ----------------------------------------------------


#: exact (cos, sin) of n pi/2, indexed by n mod 4
_QUARTER = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def boundary_sine(n, cos_part, sin_part):
    """The boundary operator S: cos(n pi/2) sin_part - sin(n pi/2) cos_part, n = j chi.

    S = R_- T^{-chi T/4} maps mode j's (cosine, sine) parts to one sine
    coefficient; the exact quarter table keeps axis hits free of pi roundoff.
    """
    cs = _QUARTER[np.asarray(n) % 4]
    return cs[..., 0] * sin_part - cs[..., 1] * cos_part


# -- jump maps -----------------------------------------------------------------


def _check_jump(J):
    J = np.asarray(J, dtype=float)
    if np.any(J <= 0.0) or not np.all(np.isfinite(J)):
        raise DomainError("jump ratio J must be positive and finite")
    return J


def _jump_map(J, z, with_slope=False):
    """(h(J, z), dh/dz or None) from t = tan z and one arctan; J unchecked.

    h = z + arctan((J - 1) t / (1 + J t^2)): h - z is pi-periodic with
    |h - z| < pi/2, so the principal arctan holds at and next to the cuts
    (m + 1/2) pi.  dh/dz = J (1 + t^2) / (1 + J^2 t^2) is in [min(J,1/J), max(J,1/J)].
    """
    t = np.tan(z)
    t2 = t * t
    jt2 = J * t2
    h = z + np.arctan((J - 1.0) * t / (1.0 + jt2))
    return h, (J * (1.0 + t2) / (1.0 + J * jt2) if with_slope else None)


def jump_angle(J, z):
    """h(J, z), tan h = J tan z: post-jump Prüfer angle; same quadrant as z, fixes axes."""
    return _jump_map(_check_jump(J), z)[0]


# -- Magnus propagation of smooth pieces ----------------------------------------

#: Gauss-Legendre nodes of the three-point rule, as offsets from the step
#: midpoint in units of the step
_GAUSS = np.sqrt(15.0) / 10.0

#: error constants of the Magnus step rule (see _step_groups): the largest
#: omega^5 constant fitted on smooth test pieces (they range 0.0005-0.012),
#: and the three-point Gauss quadrature constant (fits 3.3e-7 to 4.1e-7)
_ERR_HIGH = 0.012
_ERR_QUAD = 1.0 / 2016000.0

#: largest number of Magnus steps on one piece, and of steps x omegas at once
#: (building the steps and their omega-derivatives peaks at about 26 doubles
#: per step and omega, as traced by tracemalloc; the tree reduction needs 6)
_MAX_STEPS, _MAX_BATCH = 2**17, 2**12


def _omega_terms(piece, knots, sub):
    """Omega_p of `sub` equal steps per knot interval, as stacks (a, b, c).

    With s1, s2, s3 the values of sigma^2 at the Gauss nodes of a step h,
    alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1) and alpha3 = (10 h/3)
    (A3 - 2 A2 + A1) for A = omega [[0, -1], [sigma^2, 0]], the sixth-order
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240,
    C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60 (Blanes, Casas &
    Ros 2000), is a polynomial sum_p omega^p Omega_p in omega.  A commutator
    of two off-diagonal matrices is diagonal, and of a diagonal and an
    off-diagonal one off-diagonal, so Omega_p = [[a, b], [c, -a]] has a = 0
    for odd p and b = c = 0 for even p: a stacks p = 2, 4 and b, c stack
    p = 1, 3, 5, each of shape (powers, steps).
    """
    h = np.repeat(np.diff(knots) / sub, sub)
    mid = np.repeat(knots[:-1], sub) + (np.tile(np.arange(sub), knots.size - 1) + 0.5) * h
    s1, s2, s3 = np.split(piece.sigma(np.concatenate((mid - _GAUSS * h, mid, mid + _GAUSS * h))) ** 2, 3)
    p = (np.sqrt(15.0) / 3.0) * h * (s3 - s1)
    q = (10.0 / 3.0) * h * (s3 - 2.0 * s2 + s1)
    hh, pp = h * h, p * p
    a = np.stack((h * p / 12.0, hh * p * (h * s2 / 180.0 + q / 7200.0)))
    b = np.stack((-h, -hh * q / 180.0, -hh * h * pp / 3600.0))
    c = np.stack((h * s2 + q / 12.0, h * (pp / 120.0 - q * (h * s2 / 180.0 + q / 3600.0)),
                  hh * h * s2 * pp / 3600.0))
    return a, b, c


def _own_terms(piece, sub):
    """_omega_terms on the piece's own knots, built once per step level.

    The tables are kept read-only on the piece, keyed by `sub`, so every
    later solve on the piece reads the same arrays.
    """
    tables = piece.__dict__.setdefault("_sl_core_omega_terms", {})
    terms = tables.get(sub)
    if terms is None:
        terms = _omega_terms(piece, piece.x, sub)
        for v in terms:
            v.flags.writeable = False
        tables[sub] = terms
    return terms


def _step_groups(piece, knots, omega, min_sub=1):
    """Yield (omega indices, steps per interval, Omega_p stacks of _omega_terms).

    With steps h = dx / 2**level on sample intervals of width dx, the global
    error on the piece is about sum h^6 (C_h |omega|^5 I_h + C_q |omega| I_q),
    I_h the integral of sigma^3 sigma'^2 (dominant at large omega) and I_q
    that of |(sigma^2)^(6)| = 20 sigma'''^2 on a cubic (the quadrature term,
    dominant at small omega on a wiggly piece), both from sigma' at the
    ends and midpoint of the cubic interval.  Each omega gets the
    smallest level that meets PRUFER_TOL, so its value does not depend on the
    batch; knot intervals lie inside sample intervals.  Every knot interval
    holds max(2**level, min_sub) equal steps.  On the piece's own knots
    (`knots is piece.x`) the terms are those of _own_terms.
    """
    x, samples = piece.x, piece.sigma_samples
    dx = np.diff(x)
    d0, d1, dm = np.split(piece.dsigma(np.concatenate((x[:-1], x[1:], x[:-1] + 0.5 * dx))), 3)
    d3 = 4.0 * (d0 - 2.0 * dm + d1) / (dx * dx)  # sigma''' of the cubic
    smax = np.maximum(samples[:-1], samples[1:])
    high = np.sum(dx**7 * smax**3 * (d0**2 + 4.0 * dm**2 + d1**2) / 6.0)
    quad = np.sum(dx**7 * 20.0 * d3**2)
    w = np.abs(omega)
    need = (_ERR_HIGH * w**5 * high + _ERR_QUAD * w * quad) / PRUFER_TOL
    level = np.ceil(np.log2(np.maximum(need, 1.0)) / 6.0).astype(int)
    subs = np.maximum(2**level, int(min_sub))
    for sub in np.unique(subs):
        n = (knots.size - 1) * sub
        if n > _MAX_STEPS:
            raise IntegrationError(f"Magnus steps {n} above {_MAX_STEPS}")
        terms = _own_terms(piece, sub) if knots is piece.x else _omega_terms(piece, knots, sub)
        idx = np.flatnonzero(subs == sub)
        for chunk in np.array_split(idx, min(idx.size, -(-n * idx.size // _MAX_BATCH))):
            yield chunk, sub, terms


def _traceless(d, a, b, c):
    """[[d + a, b], [c, d - a]] on the last two axes."""
    out = np.empty(np.broadcast_shapes(np.shape(d), np.shape(a), np.shape(b), np.shape(c)) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = d + a, b, c, d - a
    return out


def _magnus_steps(terms, omega, slope=False):
    """Steps exp(Omega) of the sixth-order Magnus method on the terms of _step_groups.

    Omega = [[a, b], [c, -a]] with a = omega^2 a_2 + omega^4 a_4 and b, c
    summed alike over omega, omega^3, omega^5 (see _omega_terms).  Omega is
    traceless, so exp(Omega) = cos(nu) I + sin(nu)/nu Omega with nu^2 =
    det(Omega), and det exp(Omega) = 1; d exp(Omega)/d omega follows from the
    exact omega-derivatives of the polynomials.  Returns (e, nu[, de = d e/d
    omega]); e and de have shape (steps, omegas, 2, 2), nu (signed like
    omega) (steps, omegas).
    """
    ap, bp, cp = (v[..., None] for v in terms)
    w = omega[None, :]
    w2 = w * w
    a = w2 * (ap[0] + w2 * ap[1])
    b = w * (bp[0] + w2 * (bp[1] + w2 * bp[2]))
    c = w * (cp[0] + w2 * (cp[1] + w2 * cp[2]))
    det = -a * a - b * c
    if np.any(det < 0.0):
        raise IntegrationError("Magnus step is not oscillatory; the step rule is too coarse")
    nu = np.copysign(np.sqrt(det), w)
    cos, sinc = np.cos(nu), np.sinc(nu / np.pi)
    e = _traceless(cos, sinc * a, sinc * b, sinc * c)
    if not slope:
        return e, nu
    da = w * (2.0 * ap[0] + 4.0 * w2 * ap[1])
    db = bp[0] + w2 * (3.0 * bp[1] + 5.0 * w2 * bp[2])
    dc = cp[0] + w2 * (3.0 * cp[1] + 5.0 * w2 * cp[2])
    ddet = -2.0 * a * da - db * c - b * dc
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
    for idx, sub, terms in _step_groups(piece, knots, omega):
        e, nu, *de = _magnus_steps(terms, omega[idx], slope=zeta is not None)
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

    The piece is stepped by the sixth-order Magnus method on 2**level
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
    """theta(ell), or (theta, d theta/d omega), from theta(0) = 0 across N pieces; jumps unchecked.

    `jumps` holds the N-1 jump ratios.  A piece is a SmoothPiece, advanced
    by prufer_advance, or the angle theta_i = sigma_i L_i of a constant
    piece, which turns theta by exactly omega theta_i.  Jumps and angles are
    numbers or per-point arrays that broadcast against omega.
    """
    head, *rest = pieces
    if isinstance(head, SmoothPiece):
        z, dz = prufer_advance(head, omega, 0.0, 0.0 if with_slope else None)
    else:
        z, dz = omega * head, head
    for J, piece in zip(jumps, rest):
        z, dh = _jump_map(J, z, with_slope)
        if isinstance(piece, SmoothPiece):
            z, dz = prufer_advance(piece, omega, z, dh * dz if with_slope else None)
        else:
            z = z + omega * piece
            if with_slope:
                dz = dh * dz + piece
    return (z, dz) if with_slope else z


def _profile_chain(profile, omega, with_slope):
    """_angle_chain on a profile's own pieces, constant ones as their angles."""
    pieces = [p if isinstance(p, SmoothPiece) else p.angle for p in profile.pieces]
    return _angle_chain(_check_jump(profile.jumps), pieces, np.asarray(omega, dtype=float), with_slope)


def angle_at_ell(profile, omega):
    """Prüfer angle theta(ell, omega) from theta(0) = 0, the reflection condition u(0) = 0.

    Strictly increasing in omega; accepts vector omega.  Exact across
    constant pieces; smooth pieces are stepped by the Magnus propagator.
    """
    return _profile_chain(profile, omega, False)


def angle_and_slope_at_ell(profile, omega):
    """(theta(ell), d theta(ell)/d omega) from theta(0) = 0; the slope is positive."""
    theta, zeta = _profile_chain(profile, omega, True)
    if np.shape(zeta) != np.shape(theta):  # a lone constant piece leaves zeta its angle
        zeta = np.full(np.shape(theta), zeta)
    return theta, zeta


# -- fundamental (transfer) matrices --------------------------------------------


def rotation(sigma, omega, dx):
    """(cos th, sin th / sigma, sigma sin th), th = omega (sigma dx): the exact
    constant-sigma turn, which the constant piece transfer and the x-march share."""
    ang = np.asarray(omega, dtype=float) * (sigma * dx)
    c, s = np.cos(ang), np.sin(ang)
    return c, s / sigma, sigma * s


def _piece_matrix(piece, omega, x=None):
    """Transfer matrix of one piece from x0 to x1, vectorized over omega, or with
    points x and a scalar omega from x0 to each point (shape x.shape + (2, 2)):
    the exact rotation if constant, else the ordered (prefix) product of the
    Magnus steps, the points joined to the knots so that each ends a step."""
    if isinstance(piece, ConstantPiece):
        dx = piece.width if x is None else x - piece.x0
        c, sn_over_s, s_sn = rotation(piece.level, omega, dx)
        return _traceless(c, 0.0, -sn_over_s, s_sn)
    if x is not None:
        knots = np.union1d(piece.x, x)
        ends, psis = magnus_states(piece, omega, knots)
        return psis[:: (ends.size - 1) // (knots.size - 1)][np.searchsorted(knots, x)]
    om = np.asarray(omega, dtype=float).reshape(-1)
    out = np.empty(om.shape + (2, 2))
    for idx, _, terms in _step_groups(piece, piece.x, om):
        out[idx] = _tree_product(_magnus_steps(terms, om[idx])[0])[0]
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
    for i, piece in enumerate(profile.pieces):
        x0, x1 = edges[i], edges[i + 1]
        sel = (x_grid >= x0 - 1e-14) & ((x_grid <= top) if i == edges.size - 2 else (x_grid < x1))
        # the last row is the transfer across the whole piece
        psis = _piece_matrix(piece, omega, np.append(np.clip(x_grid[sel], x0, x1), x1))
        out[:, sel] = (psis[:-1] @ v).T
        v = psis[-1] @ v
    return out


def magnus_states(piece: SmoothPiece, omega, knots=None, min_sub=1):
    """(x, Psi(x)) at every Magnus step end of one smooth piece, Psi(knots[0]) = I.

    knots (default the samples) must contain the samples between its ends;
    every knot interval holds the same number of equal steps, at least
    min_sub and as many as the step rule needs at the largest |omega|, so a
    1-D omega puts every frequency on one grid.  x has one more entry than
    there are steps and psis has shape (x.size, 2, 2), or (x.size, omegas,
    2, 2) for a 1-D omega.
    """
    knots = piece.x if knots is None else knots
    om = np.asarray(omega, dtype=float)
    (_, sub, terms), = _step_groups(piece, knots, np.array([np.max(np.abs(om))]), min_sub)
    h = np.repeat(np.diff(knots) / sub, sub)
    x = np.repeat(knots[:-1], sub) + np.tile(np.arange(1, sub + 1), knots.size - 1) * h
    p = _prefix_products(_magnus_steps(terms, om.reshape(-1))[0]).reshape((-1,) + om.shape + (2, 2))
    start = np.broadcast_to(np.eye(2), (1,) + om.shape + (2, 2))
    return np.concatenate((knots[:1], x)), np.concatenate((start, p))
