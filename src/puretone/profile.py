"""Entropy / wavespeed profiles on [0, ell], as tuples of contiguous pieces.

Each piece has ends x0 < x1, sigma(x) and sigma_samples, whose first and last
entries are sigma at its ends; jumps are allowed between pieces.

* :class:`ConstantPiece` : sigma = level over a width; its SL transfer
  algebra is exact.  A :class:`PiecewiseConstantProfile` holds N of them,
  levels sigma_1..sigma_N of widths L_1..L_N.
* :class:`SmoothPiece` : C1 sigma(x) sampled on an x grid with monotone cubic
  (PCHIP) interpolation.  A :class:`SmoothProfile` holds any number of them.
  The PCHIP is this module's own numpy port of Fritsch & Carlson (SIAM J.
  Numer. Anal. 17:238, 1980) with Moler's one-sided end slopes (*Numerical
  Computing with MATLAB*, 2004, ch. 3); it reproduces scipy's
  ``PchipInterpolator`` bit for bit, so the package needs numpy alone.

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


def from_jump_angles(jumps, angles, sigma_1=1.0, pbar=None, eos=None) -> PiecewiseConstantProfile:
    """Profile from (J, Theta): sigma_{i+1} = sigma_i / J_i, L_i = theta_i / sigma_i.

    J_i = sigma_i / sigma_{i+1} are the N-1 interface jumps and theta_i = sigma_i L_i
    the N evolution angles; the profile's `jumps` and `angles` give them back.
    """
    angles = _as_positive_array(angles, "angles")
    jumps = np.asarray(jumps, dtype=float).reshape(-1)
    jumps = _as_positive_array(jumps, "jumps") if jumps.size else jumps
    if jumps.size != angles.size - 1:
        raise DomainError("need exactly one angle more than jumps")
    if not sigma_1 > 0.0:
        raise DomainError("sigma_1 must be positive")
    sigma = sigma_1 * np.concatenate(([1.0], np.cumprod(1.0 / jumps)))
    return PiecewiseConstantProfile(sigma, angles / sigma, pbar=pbar, eos=eos)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept shape preserving: 0 if its
    sign is not the end secant's, 3 m0 if the secants change sign and it
    exceeds that."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h, m):
    """PCHIP knot slopes from the interval widths h and secants m.

    Interior knots take the weighted harmonic mean of the two secants, or 0
    where either is 0 or their signs differ; two samples give a line.
    """
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    return np.concatenate(([_end_slope(h[0], h[1], m[0], m[1])], d,
                           [_end_slope(h[-1], h[-2], m[-1], m[-2])]))


class SmoothPiece:
    """One C1 piece of a smooth profile: sigma sampled on an x grid.

    sigma is the PCHIP interpolant of the samples, held as a 4 x (n-1) table
    of cubic coefficients in the local power basis s = x - x_k (highest power
    first); dsigma reads the differentiated table.  Both extrapolate with the
    end cubics.
    """

    def __init__(self, x, sigma):
        x = np.asarray(x, dtype=float)
        sigma = _as_positive_array(sigma, "sigma samples")
        if x.ndim != 1:
            raise DomainError("x samples must be a 1-D sequence")
        if x.size < 2:
            raise DomainError("a smooth piece needs at least two x samples")
        if x.size != sigma.size:
            raise DomainError("x and sigma sample arrays must have equal length")
        if not np.all(np.isfinite(x)):
            raise DomainError("x samples must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("x samples must be strictly increasing")
        self.x = x
        self.sigma_samples = sigma
        h = np.diff(x)
        m = np.diff(sigma) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._coef = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], sigma[:-1]))
        self._dcoef = self._coef[:3] * np.array([[3.0], [2.0], [1.0]])

    @property
    def x0(self) -> float:
        return float(self.x[0])

    @property
    def x1(self) -> float:
        return float(self.x[-1])

    def _evaluate(self, coef, x):
        """The cubic table at points x, summed constant term first in rising
        powers of s (scipy's PPoly order, so the bits match it).

        Interval k holds x_k <= x < x_{k+1}; the end intervals extend past
        the ends, so searching the interior knots alone finds it.
        """
        x = np.asarray(x, dtype=float)
        k = np.searchsorted(self.x[1:-1], x, side="right")
        s = x - self.x[k]
        out, z = coef[-1][k], 1.0
        for row in coef[-2::-1]:
            z = z * s
            out = out + row[k] * z
        return out

    def sigma(self, x):
        return self._evaluate(self._coef, x)

    def dsigma(self, x):
        return self._evaluate(self._dcoef, x)

    def integral(self) -> float:
        """integral of sigma over [x0, x1], exact for the cubics; each term
        takes scipy's rounded 1/(p+1) and the intervals add in order."""
        h = np.diff(self.x)
        c0, c1, c2, c3 = self._coef
        v = c3 * h + c2 * (h * h) * 0.5 + c1 * (h * h * h) * (1.0 / 3.0) + c0 * (h * h * h * h) * 0.25
        return float(np.cumsum(v)[-1])

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
    return float(sum(piece.integral() for piece in profile.pieces))


# -- serialization ------------------------------------------------------------


def profile_to_dict(profile) -> dict:
    """JSON-ready description; numbers are plain decimal doubles."""
    doc = {"ell": profile.ell}
    if profile.pbar is not None:
        doc["pbar"] = profile.pbar
    if profile.eos is not None:
        doc["eos"] = {"gamma": profile.eos.gamma}
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
        eos = GammaLawEos(gamma=_field(doc["eos"], "gamma", "eos.gamma"))
        # A = exp(s/gamma) fixes the entropy scale; another k_ref would be ignored
        if "k_ref" in doc["eos"] and _field(doc["eos"], "k_ref", "eos.k_ref") != 1.0:
            raise DomainError(f"profile field 'eos.k_ref' must be 1.0 (got {doc['eos']['k_ref']!r})")
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
