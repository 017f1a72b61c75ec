"""Entropy / wavespeed profiles on [0, ell], as tuples of contiguous pieces.

Each piece has ends x0 < x1, sigma(x) and sigma_samples, whose first and last
entries are sigma at its ends; jumps are allowed between pieces.

* :class:`ConstantPiece` : sigma = level over a width; its SL transfer
  algebra is exact.  A :class:`PiecewiseConstantProfile` holds N of them,
  levels sigma_1..sigma_N of widths L_1..L_N.
* :class:`SmoothPiece` : C1 sigma(x) sampled on an x grid with monotone cubic
  (PCHIP) interpolation.  A :class:`SmoothProfile` holds any number of them.

Both profile kinds read edges, jumps, sigma_max, log_sigma_variation and
sigma_at off their pieces.  A profile may carry an equation of state and
ambient pressure, in which case it supports the nonlinear machinery; sigma
alone is enough for the linear (SL) machinery.  Both kinds serialize to the
same JSON schema with a "kind" discriminator, see :func:`profile_to_dict`.

The even 2*ell-periodic extension implied by the tiling construction is never
stored here; only the fundamental interval [0, ell] is represented.  Jumps
exactly at x = 0 or x = ell are not representable, which matches the
continuity required of the extension at those points.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .eos import GammaLawEos
from .errors import DomainError

#: relative tolerance for checking sum(L_i) == ell
ELL_RTOL = 1e-12


def _as_positive_array(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be finite and positive")
    return arr


@dataclass(frozen=True)
class ConstantPiece:
    """One constant level of a pwc profile: sigma = level on [x0, x1].

    width is the profile's own L_i; x0 and x1 are edges, cumulative sums
    of the widths, so x1 - x0 may differ from width in the last bits.
    """

    x0: float
    x1: float
    level: float
    width: float
    sigma_samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma_samples", np.array([self.level, self.level]))

    @property
    def angle(self) -> float:
        """Evolution angle theta_i = sigma_i * L_i."""
        return self.level * self.width

    def sigma(self, x):
        return np.full(np.shape(x), self.level)


class _PieceProfile:
    """Profile properties shared by both kinds, read off `pieces`."""

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Piece edges x_0 = 0 < x_1 < ... < x_N; read-only, built once."""
        edges = np.array([p.x0 for p in self.pieces] + [self.pieces[-1].x1])
        edges.flags.writeable = False
        return edges

    @functools.cached_property
    def jumps(self) -> np.ndarray:
        """J_i = sigma(x_i-) / sigma(x_i+) at the N-1 interior edges; read-only, built once."""
        pairs = zip(self.pieces[:-1], self.pieces[1:])
        jumps = np.array([left.sigma_samples[-1] / right.sigma_samples[0] for left, right in pairs])
        jumps.flags.writeable = False
        return jumps

    @property
    def sigma_max(self) -> float:
        return float(max(np.max(p.sigma_samples) for p in self.pieces))

    def log_sigma_variation(self) -> float:
        """Total variation of log sigma inside the pieces (PCHIP is monotone
        between samples, so the sample-based sum is exact for the interpolant)."""
        return float(sum(np.sum(np.abs(np.diff(np.log(p.sigma_samples)))) for p in self.pieces))

    def sigma_at(self, x):
        """sigma(x), taking the right limit at interior edges."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.n_pieces - 1)
        out = np.empty(x.shape)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = piece.sigma(x[mask])
        return out if x.ndim else float(out)

    def require_eos(self):
        if self.eos is None or self.pbar is None:
            raise DomainError("profile carries no equation of state / ambient pressure")
        return self.eos, self.pbar


@dataclass(frozen=True)
class PiecewiseConstantProfile(_PieceProfile):
    """N wavespeed levels sigma_i on consecutive intervals of width L_i."""

    sigma_levels: np.ndarray
    widths: np.ndarray
    pbar: Optional[float] = None
    eos: Optional[GammaLawEos] = None
    pieces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sig = _as_positive_array(self.sigma_levels, "sigma_levels")
        wid = _as_positive_array(self.widths, "widths")
        if sig.shape != wid.shape:
            raise DomainError("sigma_levels and widths must have equal length")
        if self.pbar is not None and not self.pbar > 0.0:
            raise DomainError("pbar must be positive")
        object.__setattr__(self, "sigma_levels", sig)
        object.__setattr__(self, "widths", wid)
        edges = np.concatenate(([0.0], np.cumsum(wid))).tolist()
        pieces = map(ConstantPiece, edges[:-1], edges[1:], sig.tolist(), wid.tolist())
        object.__setattr__(self, "pieces", tuple(pieces))

    @property
    def n_levels(self) -> int:
        return self.sigma_levels.size

    @property
    def ell(self) -> float:
        return float(np.sum(self.widths))

    @property
    def angles(self) -> np.ndarray:
        """Evolution angles theta_i = sigma_i * L_i."""
        return self.sigma_levels * self.widths

    def entropy_factors(self) -> np.ndarray:
        """Per-level entropy factors A_i (requires eos and pbar)."""
        eos, pbar = self.require_eos()
        return eos.factor_from_sigma(pbar, self.sigma_levels)


@dataclass(frozen=True)
class JumpAngleParams:
    """(J, Theta) parameterization of a piecewise constant profile.

    J_i = sigma_i / sigma_{i+1} are the N-1 interface jumps and
    theta_i = sigma_i * L_i the N evolution angles; together with sigma_1
    these determine the profile exactly.
    """

    jumps: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        ang = _as_positive_array(self.angles, "angles")
        if np.size(self.jumps) == 0:
            jmp = np.empty(0, dtype=float)
        else:
            jmp = _as_positive_array(self.jumps, "jumps")
        if jmp.size != ang.size - 1:
            raise DomainError("need exactly one angle more than jumps")
        object.__setattr__(self, "jumps", jmp)
        object.__setattr__(self, "angles", ang)


def from_jump_angles(jumps, angles, sigma_1=1.0, pbar=None, eos=None) -> PiecewiseConstantProfile:
    """Profile from (J, Theta): sigma_{i+1} = sigma_i / J_i, L_i = theta_i / sigma_i."""
    params = JumpAngleParams(np.asarray(jumps, dtype=float).reshape(-1), angles)
    if not sigma_1 > 0.0:
        raise DomainError("sigma_1 must be positive")
    sigma = sigma_1 * np.concatenate(([1.0], np.cumprod(1.0 / params.jumps)))
    widths = params.angles / sigma
    return PiecewiseConstantProfile(sigma, widths, pbar=pbar, eos=eos)


def to_jump_angles(profile: PiecewiseConstantProfile) -> JumpAngleParams:
    return JumpAngleParams(profile.jumps, profile.angles)


class SmoothPiece:
    """One C1 piece of a smooth profile: sigma sampled on an x grid."""

    def __init__(self, x, sigma):
        x = np.asarray(x, dtype=float)
        sigma = _as_positive_array(sigma, "sigma samples")
        if x.ndim != 1 or x.size < 2:
            raise DomainError("a smooth piece needs at least two x samples")
        if x.size != sigma.size:
            raise DomainError("x and sigma sample arrays must have equal length")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("x samples must be strictly increasing")
        self.x = x
        self.sigma_samples = sigma
        self._interp = PchipInterpolator(x, sigma, extrapolate=True)
        self._dinterp = self._interp.derivative()

    @property
    def x0(self) -> float:
        return float(self.x[0])

    @property
    def x1(self) -> float:
        return float(self.x[-1])

    def sigma(self, x):
        return self._interp(x)

    def dsigma(self, x):
        return self._dinterp(x)

    def __eq__(self, other):
        return (
            isinstance(other, SmoothPiece)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.sigma_samples, other.sigma_samples)
        )


@dataclass(frozen=True)
class SmoothProfile(_PieceProfile):
    """Piecewise C1 profile: contiguous smooth pieces with jumps in between."""

    pieces: tuple
    pbar: Optional[float] = None
    eos: Optional[GammaLawEos] = None

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise DomainError("profile needs at least one piece")
        if abs(pieces[0].x0) > 0.0:
            raise DomainError("first piece must start at x = 0")
        for left, right in zip(pieces[:-1], pieces[1:]):
            if abs(left.x1 - right.x0) > ELL_RTOL * max(1.0, abs(left.x1)):
                raise DomainError("pieces must cover [0, ell] contiguously")
        if self.pbar is not None and not self.pbar > 0.0:
            raise DomainError("pbar must be positive")
        object.__setattr__(self, "pieces", pieces)

    @property
    def ell(self) -> float:
        return self.pieces[-1].x1


def constant_profile(sigma, ell, pbar=None, eos=None) -> PiecewiseConstantProfile:
    """Single-level profile, the completely resonant baseline."""
    return PiecewiseConstantProfile([sigma], [ell], pbar=pbar, eos=eos)


def reversed_profile(profile):
    """The profile traversed backwards: sigma_rev(x) = sigma(ell - x).

    Time reflection conjugates forward evolution with evolution through the
    reversed profile, which is what the x-reflection of the tile construction
    uses (the extended entropy is even).
    """
    if isinstance(profile, PiecewiseConstantProfile):
        levels, widths = profile.sigma_levels[::-1].copy(), profile.widths[::-1].copy()
        return PiecewiseConstantProfile(levels, widths, pbar=profile.pbar, eos=profile.eos)
    ell = profile.ell
    pieces = tuple(
        SmoothPiece((ell - p.x[::-1]), p.sigma_samples[::-1].copy())
        for p in reversed(profile.pieces)
    )
    return SmoothProfile(pieces, pbar=profile.pbar, eos=profile.eos)


# -- quadrature --------------------------------------------------------------


def sigma_integral(profile) -> float:
    """integral of sigma over [0, ell]; equals sum(theta_i) for pwc profiles.

    Smooth pieces are integrated exactly, as the piecewise cubic they are.
    """
    if isinstance(profile, PiecewiseConstantProfile):
        return float(np.sum(profile.angles))
    return float(sum(piece._interp.integrate(piece.x0, piece.x1) for piece in profile.pieces))


# -- serialization ------------------------------------------------------------


def profile_to_dict(profile) -> dict:
    """JSON-ready description; numbers are plain decimal doubles."""
    doc = {"ell": profile.ell}
    if profile.pbar is not None:
        doc["pbar"] = profile.pbar
    if profile.eos is not None:
        doc["eos"] = {"gamma": profile.eos.gamma, "k_ref": profile.eos.k_ref}
    if isinstance(profile, PiecewiseConstantProfile):
        doc["kind"] = "pwc"
        doc["levels"] = [
            {"sigma": float(s), "L": float(w)}
            for s, w in zip(profile.sigma_levels, profile.widths)
        ]
    elif isinstance(profile, SmoothProfile):
        doc["kind"] = "smooth"
        doc["pieces"] = [
            {"x": [float(v) for v in p.x], "sigma": [float(v) for v in p.sigma_samples]}
            for p in profile.pieces
        ]
    else:
        raise DomainError(f"unknown profile type {type(profile)!r}")
    return doc


def _field(obj, key, name, kind="a number"):
    """obj[key] of a profile document: "a number", "a list of numbers" or "a list".

    DomainError naming the field if obj is not an object, lacks the key or
    holds a value of another kind.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"profile {name.rpartition('.')[0]} must be a JSON object")
    if key not in obj:
        raise DomainError(f"profile field {name!r} is missing")
    value = obj[key]
    items = [value] if kind == "a number" else value
    if not isinstance(items, (list, tuple, np.ndarray)) or kind != "a list" and any(
        isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items
    ):
        raise DomainError(f"profile field {name!r} must be {kind} (got {value!r})")
    return value


def profile_from_dict(doc: dict):
    """Inverse of profile_to_dict; DomainError names a missing or malformed field."""
    if not isinstance(doc, dict):
        raise DomainError("profile document must be a JSON object")
    kind = doc.get("kind")
    pbar = None if doc.get("pbar") is None else _field(doc, "pbar", "pbar")
    eos = None
    if "eos" in doc:
        gamma = _field(doc["eos"], "gamma", "eos.gamma")
        k_ref = _field(doc["eos"], "k_ref", "eos.k_ref") if "k_ref" in doc["eos"] else 1.0
        eos = GammaLawEos(gamma=gamma, k_ref=k_ref)
    if kind == "pwc":
        levels = _field(doc, "levels", "levels", "a list")
        widths = [_field(lv, "L", f"levels[{i}].L") for i, lv in enumerate(levels)]
        widths = np.array(widths, dtype=float)
        sigma = np.empty(widths.size)
        for i, lv in enumerate(levels):
            if "sigma" in lv:
                sigma[i] = _field(lv, "sigma", f"levels[{i}].sigma")
            elif "A" in lv:
                if eos is None or pbar is None:
                    raise DomainError("entropy-factor levels need eos and pbar in the file")
                sigma[i] = eos.sigma_from_factor(pbar, _field(lv, "A", f"levels[{i}].A"))
            else:
                raise DomainError(f"profile field 'levels[{i}].sigma' (or 'A') is missing")
        profile = PiecewiseConstantProfile(sigma, widths, pbar=pbar, eos=eos)
    elif kind == "smooth":
        pieces = tuple(
            SmoothPiece(_field(p, "x", f"pieces[{i}].x", "a list of numbers"),
                        _field(p, "sigma", f"pieces[{i}].sigma", "a list of numbers"))
            for i, p in enumerate(_field(doc, "pieces", "pieces", "a list"))
        )
        profile = SmoothProfile(pieces, pbar=pbar, eos=eos)
    else:
        raise DomainError(f"unknown profile kind {kind!r}")
    if "ell" in doc:
        ell = float(_field(doc, "ell", "ell"))
        if abs(profile.ell - ell) > ELL_RTOL * max(1.0, abs(ell)) * 1e3:
            raise DomainError(f"declared ell={ell} does not match pieces (got {profile.ell})")
    return profile


def save_profile(profile, path):
    with open(path, "w") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path):
    with open(path) as fh:
        return profile_from_dict(json.load(fh))


def profile_hash(profile) -> str:
    """Stable content hash used in run manifests."""
    blob = json.dumps(profile_to_dict(profile), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
