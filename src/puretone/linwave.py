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
p(ell, t) = p(ell, t + chi T/2), u(ell, t) = -u(ell, t + chi T/2) and
u(0, .) = 0 hold only to the accuracy with which the tile satisfies the
boundary conditions.  They are the extension's gate and are reported as
diagnostics.
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
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise DomainError(f"period T must be finite and positive (got {self.T!r})")
        check_grid(self.nx, self.nt, self.chi)

    @property
    def nx(self) -> int:
        return self.x.size - 1

    @property
    def nt(self) -> int:
        return self.t.size

    @property
    def x_period(self) -> float:
        return float(self.x[-1])


def check_grid(nx, nt, chi):
    """Refuse (DomainError) a tile grid of nx + 1 rows and nt columns that no
    tile can have: chi 0 or 1, nx >= 1, and nt even, because the extension
    reflects rows and shifts time by a roll of nt/2 columns, and divisible
    by 4 when chi = 1, so that the quarter period T/4 of the periodic
    boundary condition is a grid column.  The CLI checks its arguments with
    it before any solve."""
    if chi not in (0, 1):
        raise DomainError(f"chi must be 0 or 1 (got {chi})")
    if nx < 1:
        raise DomainError(f"nx must be at least 1 (got {nx})")
    if nt % 2 or (chi == 1 and nt % 4):
        raise DomainError("nt must be even, and divisible by 4 when chi = 1")


def _x_grid(profile, nx):
    """The nx + 1 uniform rows x_i = i ell / nx; nx >= 1."""
    if nx < 1:
        raise DomainError(f"nx must be at least 1 (got {nx})")
    return np.linspace(0.0, profile.ell, nx + 1)


def _tile(x, a, b, T, nt, chi, meta):
    """The tile whose row i is p = sum_j a[i, j] cos(j 2 pi t/T), u = sum_j b[i, j] sin(...).

    One synthesis of all rows on t_i = i T / nt, from the march's exact DFT
    tables, which need nt >= 2 M + 2 for coefficients up to mode M.
    """
    p = coeffs_to_grid(a, None, nt)
    u = coeffs_to_grid(np.zeros_like(b), b, nt)
    return TileField(x, np.arange(nt) * (T / nt), p, u, chi=chi, T=T, meta=dict(meta or {}))


def mode_field(mode: LinearMode, nt: int, meta=None) -> TileField:
    """Separated-variables mode P = cos(omega t) phi(x), U = sin(omega t) psi(x)."""
    a = np.zeros((mode.x.size, mode.k + 1))
    b = np.zeros_like(a)
    a[:, mode.k], b[:, mode.k] = mode.phi, mode.psi
    return _tile(mode.x, a, b, mode.T, nt, mode.chi, meta)


def quiet_tile(profile, T, nx, nt, chi, meta=None) -> TileField:
    """The quiet state p = profile.pbar, u = 0; it needs no eos."""
    if profile.pbar is None:
        raise DomainError("a quiet tile needs the profile's pbar")
    x = _x_grid(profile, nx)
    a = np.full((x.size, 1), float(profile.pbar))
    return _tile(x, a, np.zeros_like(a), T, nt, chi, meta)


def nonlinear_tile(profile, y0: FourierField, cfg: EvolutionConfig, nx, nt, chi,
                   meta=None) -> TileField:
    """Tile of the nonlinear solution with data y0 (p rows even, u rows odd)."""
    x = _x_grid(profile, nx)
    _, snaps = nonlinear_evolve(profile, y0, cfg, x_nodes=x)
    a = np.array([f.cos for f in snaps])
    b = np.array([f.sin for f in snaps])
    return _tile(x, a, b, y0.T, nt, chi, meta)


# -- reflection extension -----------------------------------------------------------

#: largest seam mismatch of a tile that extend_tile accepts
_EXTEND_TOL = 1e-6


def extend_tile(tile: TileField) -> TileField:
    """Extend a [0, ell] tile to its full spatial period by index maps.

    The gate checks the seams that the reflections join, and only those:
    seam_p = max |p(ell, t) - p(ell, t + chi T/2)|, seam_u = max |u(ell, t)
    + u(ell, t + chi T/2)| and u0_max = max |u(0, t)|.  Unless each is at
    most _EXTEND_TOL the tile is refused (BoundaryResidualError); a NaN on
    a seam row makes its mismatch NaN, which refuses too.  The three and
    their largest, meta['seam_max'], are reported in the meta; joint
    periodicity of the result is exact by construction.
    """
    chi, nt, nx = tile.chi, tile.nt, tile.nx
    p, u = tile.p, tile.u
    # the time shift t -> t + chi T/2 is the column permutation of np.roll(., -nt chi/2)
    shift = np.roll(np.arange(nt), -(nt // 2) * chi)

    seam_p = float(np.max(np.abs(p[nx] - p[nx, shift])))
    seam_u = float(np.max(np.abs(u[nx] + u[nx, shift])))
    u0_max = float(np.max(np.abs(u[0])))
    if not (seam_p <= _EXTEND_TOL and seam_u <= _EXTEND_TOL and u0_max <= _EXTEND_TOL):
        raise BoundaryResidualError(
            f"seam mismatch (p {seam_p:.3e}, u {seam_u:.3e}, u(0) {u0_max:.3e}) "
            f"exceeds {_EXTEND_TOL:.1e}"
        )

    # the regions of the period: (tile rows, time-shifted, u reflected)
    back = np.arange(nx - 1, -1, -1)
    regions = [(np.arange(nx + 1), False, False), (back, True, True)]
    if chi == 1:
        regions += [(np.arange(1, nx + 1), True, False), (back, False, True)]
    n_regions = len(regions)
    rows = np.concatenate([r for r, _, _ in regions])
    shifted = np.concatenate([np.full(r.size, sh) for r, sh, _ in regions])
    reflected = np.concatenate([np.full(r.size, fl) for r, _, fl in regions])
    p_ext, u_ext = p[rows], u[rows]
    p_ext[shifted] = p_ext[shifted][:, shift]
    u_ext[shifted] = u_ext[shifted][:, shift]
    u_ext[reflected] = -u_ext[reflected]

    ell = tile.x_period
    x_ext = np.concatenate([tile.x[:-1] + r * ell for r in range(n_regions)] + [[n_regions * ell]])
    meta = dict(tile.meta)
    meta.update(
        {
            "seam_max": max(seam_p, seam_u, u0_max),
            "seam_p": seam_p,
            "seam_u": seam_u,
            "u0_max": u0_max,
            "x_period": n_regions * ell,
        }
    )
    return TileField(x_ext, tile.t, p_ext, u_ext, chi=chi, T=tile.T, meta=meta)


# -- serialization -----------------------------------------------------------------


def tile_to_csv(tile: TileField, path):
    """Long-format CSV with header x,t,p,u; every number is Python's shortest
    round-trip repr, so the file parses back bit-exact."""
    ts = np.asarray(tile.t, dtype=float).tolist()
    p_strs, p_idx = _distinct_reprs(tile.p, ",")
    u_strs, u_idx = _distinct_reprs(tile.u, "\n")
    # a row's lines are the strings x ",t," "p," "u\n" in turn; its p and u
    # strings are references into the tables, gathered through the index
    line = [None] * (4 * len(ts))
    line[1::4] = [f",{tv!r}," for tv in ts]
    with open(path, "w") as fh:
        fh.write("x,t,p,u\n")
        for i, xv in enumerate(np.asarray(tile.x, dtype=float).tolist()):
            line[0::4] = [repr(xv)] * len(ts)
            line[2::4] = p_strs[p_idx[i]].tolist()
            line[3::4] = u_strs[u_idx[i]].tolist()
            fh.write("".join(line))


def _distinct_reprs(values, suffix):
    """(strings, index): repr + suffix of each distinct float64 bit pattern in
    values, as an object array, and the index of each entry's string in
    values' shape.

    An extended tile repeats its base tile up to sign, so most values recur;
    keying on the bits keeps 0.0 and -0.0 apart and never merges NaN payloads.
    """
    v = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(v.ravel().view(np.int64), return_inverse=True)
    strings = np.array([f"{f!r}{suffix}" for f in bits.view(np.float64).tolist()], dtype=object)
    return strings, inverse.reshape(v.shape)


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
    """Read a tile_to_binary file; a wrong magic, a cut header, negative counts,
    a size that the counts do not give, a chi other than 0 or 1 and any other
    grid that check_grid refuses raise DomainError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _TILE_MAGIC:
        raise DomainError(f"not a tile file (magic {data[:8]!r})")
    if len(data) < 48:
        raise DomainError(f"tile file of {len(data)} bytes ends inside its header")
    n_rows, nt, chi, T, _xp = struct.unpack_from("<qqqdd", data, 8)
    if n_rows < 0 or nt < 0 or len(data) != 48 + 8 * (n_rows + nt + 2 * n_rows * nt):
        raise DomainError(f"tile file of {len(data)} bytes does not hold counts ({n_rows}, {nt})")
    values = np.frombuffer(data, "<f8", offset=48).copy()
    x, t, p, u = np.split(values, np.cumsum((n_rows, nt, n_rows * nt)))
    return TileField(x, t, p.reshape(n_rows, nt), u.reshape(n_rows, nt), chi=int(chi), T=float(T))
