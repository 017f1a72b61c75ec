"""Linear k-mode fields, space-time tiles, and the reflection extension.

A tile is the fundamental solution patch on [0, ell] x [0, T).  The global
periodic solution is generated from it by one reflection at x = 0 (u odd)
and a shifted reflection at x = ell, giving period 4*ell for the periodic
boundary condition (chi = 1) and 2*ell for the acoustic one (chi = 0):

    p(x) for x in [ell, 2 ell]  <-  p(2 ell - x, t + chi T/2)
    p(x) for x in [2 ell, 3 ell] <- p(x - 2 ell, t + chi T/2)
    p(x) for x in [3 ell, 4 ell] <- p(4 ell - x, t)

and likewise for u with a sign flip on the two reflected regions.  All maps
are pure index operations on the grid (time shifts are rolls by nt/2), so
the extended field is periodic to the bit; the nontrivial seam conditions
p(ell, t) = p(ell, t + T/2), u(ell, t) = -u(ell, t + T/2) and u(0, .) = 0
hold only to the accuracy with which the tile satisfies the boundary
conditions, and are reported as diagnostics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryResidualError, DomainError
from . import sl_core
from .evolve import EvolutionConfig, FourierField, coeffs_to_grid, nonlinear_evolve

_TILE_MAGIC = b"PTTILE01"


@dataclass(frozen=True)
class LinearMode:
    """Sampled SL eigenfunctions with phi(0) = 1, psi(0) = 0."""

    k: int
    chi: int
    omega: float
    x: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def T(self) -> float:
        return 2.0 * np.pi * self.k / self.omega

    def boundary_value(self) -> float:
        """|phi(ell)| for odd k with chi=1, else |psi(ell)|; zero at eigenfrequencies."""
        if self.chi == 1 and self.k % 2 == 1:
            return abs(float(self.phi[-1]))
        return abs(float(self.psi[-1]))


def eigenfunction_profiles(profile, eig, nx: int = 512) -> LinearMode:
    """Integrate the SL system at omega_k from (1, 0) over an nx+1 point grid."""
    x = _x_grid(profile, nx)
    vals = sl_core.sample_sl_solution(profile, eig.omega, x)
    return LinearMode(k=eig.k, chi=eig.chi, omega=eig.omega, x=x, phi=vals[0], psi=vals[1])


@dataclass(frozen=True)
class TileField:
    """p, u sampled on [0, x_period] x [0, T): x has n+1 rows, t has nt columns."""

    x: np.ndarray
    t: np.ndarray
    p: np.ndarray
    u: np.ndarray
    chi: int
    T: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p.shape != (self.x.size, self.t.size) or self.u.shape != self.p.shape:
            raise DomainError("field arrays must be (len(x), len(t))")

    @property
    def nx(self) -> int:
        return self.x.size - 1

    @property
    def nt(self) -> int:
        return self.t.size

    @property
    def x_period(self) -> float:
        return float(self.x[-1])


def _check_nt(nt, chi):
    if nt % 2 or (chi == 1 and nt % 4):
        raise DomainError("nt must be even, and divisible by 4 when chi = 1")


def _x_grid(profile, nx):
    """The nx + 1 uniform rows x_i = i ell / nx; nx >= 1."""
    if nx < 1:
        raise DomainError(f"nx must be at least 1 (got {nx})")
    return np.linspace(0.0, profile.ell, nx + 1)


def mode_field(mode: LinearMode, nt: int, meta=None) -> TileField:
    """Separated-variables mode P = cos(omega t) phi(x), U = sin(omega t) psi(x)."""
    _check_nt(nt, mode.chi)
    T = mode.T
    t = np.arange(nt) * (T / nt)
    # omega * t_j = 2 pi k j / nt: grid-exact phases
    phase = 2.0 * np.pi * mode.k * np.arange(nt) / nt
    p = np.outer(mode.phi, np.cos(phase))
    u = np.outer(mode.psi, np.sin(phase))
    return TileField(mode.x, t, p, u, chi=mode.chi, T=T, meta=dict(meta or {}))


def quiet_tile(profile, pbar, T, nx, nt, chi, meta=None) -> TileField:
    _check_nt(nt, chi)
    x = _x_grid(profile, nx)
    t = np.arange(nt) * (T / nt)
    p = np.full((nx + 1, nt), float(pbar))
    u = np.zeros_like(p)
    return TileField(x, t, p, u, chi=chi, T=T, meta=dict(meta or {}))


def nonlinear_tile(profile, eos, y0: FourierField, cfg: EvolutionConfig, nx, nt, chi,
                   meta=None) -> TileField:
    """Tile of the nonlinear solution with data y0 (p rows even, u rows odd)."""
    _check_nt(nt, chi)
    x = _x_grid(profile, nx)
    _, snaps = nonlinear_evolve(profile, eos, y0, cfg, x_nodes=x)
    if len(snaps) != nx + 1:
        raise DomainError(f"trajectory returned {len(snaps)} of {nx + 1} requested rows")
    p = np.empty((nx + 1, nt))
    u = np.empty((nx + 1, nt))
    zeros = np.zeros(cfg.M + 1)
    for i, f in enumerate(snaps):
        p[i] = coeffs_to_grid(f.cos, zeros, nt)
        u[i] = coeffs_to_grid(zeros, f.sin, nt)
    t = np.arange(nt) * (y0.T / nt)
    return TileField(x, t, p, u, chi=chi, T=y0.T, meta=dict(meta or {}))


# -- boundary residuals -----------------------------------------------------------


def _odd_part_grid(row):
    """Odd projection on the periodic grid: (w(t) - w(-t)) / 2."""
    reflected = np.roll(row[::-1], 1)
    return 0.5 * (row - reflected)


def tile_boundary_residual(tile: TileField):
    """(max |u(0,.)|, max |R_- T^{-chi T/4} y(ell,.)|) read off the tile's grid rows."""
    nt = tile.nt
    _check_nt(nt, tile.chi)
    r0 = float(np.max(np.abs(_odd_part_grid(tile.p[0] + tile.u[0]))))
    row = tile.p[-1] + tile.u[-1]
    if tile.chi == 1:
        row = np.roll(row, -(nt // 4))
    rell = float(np.max(np.abs(_odd_part_grid(row))))
    return r0, rell


# -- reflection extension -----------------------------------------------------------

#: largest boundary residual of a tile that extend_tile accepts
_EXTEND_TOL = 1e-6


def extend_tile(tile: TileField) -> TileField:
    """Extend a [0, ell] tile to its full spatial period by index maps.

    Refuses (BoundaryResidualError) when the tile's boundary residual exceeds
    _EXTEND_TOL.  Seam mismatches and the u(0,.) line are reported in
    meta['seam_max'] and meta['u0_max']; joint periodicity of the result is
    exact by construction.
    """
    chi, nt = tile.chi, tile.nt
    _check_nt(nt, chi)
    r0, rell = tile_boundary_residual(tile)
    if max(r0, rell) > _EXTEND_TOL:
        raise BoundaryResidualError(
            f"boundary residual ({r0:.3e}, {rell:.3e}) exceeds {_EXTEND_TOL:.1e}"
        )
    nx = tile.nx
    s = (nt // 2) * chi
    p, u = tile.p, tile.u

    def shifted(row):
        return np.roll(row, -s)

    seam_p = float(np.max(np.abs(p[nx] - shifted(p[nx]))))
    seam_u = float(np.max(np.abs(u[nx] + shifted(u[nx]))))
    u0_max = float(np.max(np.abs(u[0])))

    n_regions = 4 if chi == 1 else 2
    n_ext = n_regions * nx
    p_ext = np.empty((n_ext + 1, nt))
    u_ext = np.empty((n_ext + 1, nt))
    p_ext[: nx + 1] = p
    u_ext[: nx + 1] = u
    for i in range(nx + 1, 2 * nx + 1):
        p_ext[i] = shifted(p[2 * nx - i])
        u_ext[i] = -shifted(u[2 * nx - i])
    if chi == 1:
        for i in range(2 * nx + 1, 3 * nx + 1):
            p_ext[i] = shifted(p[i - 2 * nx])
            u_ext[i] = shifted(u[i - 2 * nx])
        for i in range(3 * nx + 1, 4 * nx + 1):
            p_ext[i] = p[4 * nx - i]
            u_ext[i] = -u[4 * nx - i]

    ell = tile.x_period
    x_ext = np.concatenate([tile.x[:-1] + r * ell for r in range(n_regions)] + [[n_regions * ell]])
    meta = dict(tile.meta)
    meta.update(
        {
            "seam_max": max(seam_p, seam_u, u0_max),
            "seam_p": seam_p,
            "seam_u": seam_u,
            "u0_max": u0_max,
            "boundary_residual": (r0, rell),
            "x_period": n_regions * ell,
        }
    )
    return TileField(x_ext, tile.t, p_ext, u_ext, chi=chi, T=tile.T, meta=meta)


# -- serialization -----------------------------------------------------------------


def tile_to_csv(tile: TileField, path):
    """Long-format CSV with header x,t,p,u."""
    # tolist() gives Python floats, whose repr is that of float(np.float64);
    # converting row by row keeps one row of them alive at a time
    ts = [repr(tv) for tv in np.asarray(tile.t, dtype=float).tolist()]
    p = np.asarray(tile.p, dtype=float)
    u = np.asarray(tile.u, dtype=float)
    with open(path, "w") as fh:
        fh.write("x,t,p,u\n")
        for i, xv in enumerate(np.asarray(tile.x, dtype=float).tolist()):
            xs = repr(xv)
            rows = zip(ts, p[i].tolist(), u[i].tolist())
            fh.write("".join(f"{xs},{tv},{pv!r},{uv!r}\n" for tv, pv, uv in rows))


def tile_to_binary(tile: TileField, path):
    """Compact binary: magic 'PTTILE01', int64 (n_x_rows, nt, chi), float64
    (T, x_period), then x, t, p, u as float64 row-major."""
    with open(path, "wb") as fh:
        fh.write(_TILE_MAGIC)
        fh.write(struct.pack("<qqq", tile.x.size, tile.t.size, tile.chi))
        fh.write(struct.pack("<dd", tile.T, tile.x_period))
        for arr in (tile.x, tile.t, tile.p, tile.u):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def tile_from_binary(path) -> TileField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _TILE_MAGIC:
            raise DomainError(f"not a tile file (magic {magic!r})")
        n_rows, nt, chi = struct.unpack("<qqq", fh.read(24))
        T, _xp = struct.unpack("<dd", fh.read(16))
        x = np.frombuffer(fh.read(8 * n_rows), dtype="<f8")
        t = np.frombuffer(fh.read(8 * nt), dtype="<f8")
        p = np.frombuffer(fh.read(8 * n_rows * nt), dtype="<f8").reshape(n_rows, nt)
        u = np.frombuffer(fh.read(8 * n_rows * nt), dtype="<f8").reshape(n_rows, nt)
    return TileField(x.copy(), t.copy(), p.copy(), u.copy(), chi=int(chi), T=float(T))
