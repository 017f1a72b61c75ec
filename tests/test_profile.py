import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import reference_pchip
from puretone.eos import GammaLawEos
from puretone.errors import DomainError
from puretone.profile import (
    PiecewiseConstantProfile,
    SmoothPiece,
    SmoothProfile,
    constant_profile,
    from_jump_angles,
    load_profile,
    profile_from_dict,
    profile_hash,
    profile_to_dict,
    reversed_profile,
    save_profile,
    sigma_integral,
)


def test_single_level_identity():
    prof = from_jump_angles([], [0.7], sigma_1=1.0)
    assert prof.n_levels == 1
    assert_allclose(prof.sigma_levels, [1.0])
    assert_allclose(prof.widths, [0.7])


def test_two_level_inversion():
    prof = from_jump_angles([0.5], [0.5, 1.0], sigma_1=1.0)
    assert_allclose(prof.sigma_levels, [1.0, 2.0])
    assert_allclose(prof.widths, [0.5, 0.5])


def test_jump_angle_round_trip(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        sigma = rng.uniform(0.2, 5.0, n)
        widths = rng.uniform(0.05, 2.0, n)
        prof = PiecewiseConstantProfile(sigma, widths)
        back = from_jump_angles(prof.jumps, prof.angles, sigma_1=sigma[0])
        assert_allclose(back.sigma_levels, prof.sigma_levels, rtol=1e-14)
        assert_allclose(back.widths, prof.widths, rtol=1e-14)


def test_angles_and_jumps():
    prof = PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5])
    assert_allclose(prof.angles, [0.5, 1.0])
    assert_allclose(prof.jumps, [0.5])
    assert_allclose(prof.edges, [0.0, 0.5, 1.0])


def test_edges_and_jumps_are_built_once(two_level, smooth_jumpy):
    # the angle chain reads jumps on every evaluation: one read-only array per profile
    for prof in (two_level, smooth_jumpy):
        for name in ("edges", "jumps"):
            arr = getattr(prof, name)
            assert getattr(prof, name) is arr
            assert not arr.flags.writeable


def test_pwc_pieces_keep_cumulative_edges_and_own_widths():
    # with twelve widths the pairwise np.sum (ell) and the running cumsum
    # (the edges) may differ in the last bit; each keeps its own rounding
    widths = np.random.default_rng(0).uniform(0.05, 1.0, 12)
    prof = PiecewiseConstantProfile(np.linspace(1.0, 2.0, 12), widths)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    assert prof.ell == np.sum(widths)
    assert np.array_equal(prof.edges, edges)
    assert [(p.x0, p.x1, p.width) for p in prof.pieces] == list(zip(edges[:-1], edges[1:], widths))
    assert np.array_equal([p.angle for p in prof.pieces], prof.angles)


def test_sigma_integral_pwc():
    prof = PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5])
    assert_allclose(sigma_integral(prof), 1.5, rtol=1e-15)
    assert_allclose(sigma_integral(constant_profile(2.5, 3.0)), 7.5, rtol=1e-15)


def test_sigma_integral_smooth():
    x = np.linspace(0.0, 1.0, 41)
    prof = SmoothProfile((SmoothPiece(x, 1.0 + x),))
    assert abs(sigma_integral(prof) - 1.5) < 1e-10


def test_sigma_integral_smooth_matches_dense_simpson(smooth_jumpy):
    # the pieces are not linear, so this checks the exact cubic integration
    from scipy.integrate import simpson

    dense = 0.0
    for piece in smooth_jumpy.pieces:
        x = np.linspace(piece.x0, piece.x1, 2**14 + 1)
        dense += simpson(piece.sigma(x), x=x)
    assert abs(sigma_integral(smooth_jumpy) - dense) < 1e-12


@st.composite
def _pchip_draws(draw):
    """1-3 contiguous pieces from x = 0, each of 2-70 unevenly spaced samples
    whose sigma mixes a few repeated levels (flat segments) with free draws
    (secant sign changes), and query points in and beyond each piece, knots
    included, as a scalar or an N-d array."""
    pieces, x0 = [], 0.0
    level = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 10.0))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=2, max_value=70))
        gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
        x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
        pieces.append(SmoothPiece(x, draw(st.lists(level, min_size=n, max_size=n))))
        x0 = x[-1]
    shape = draw(st.sampled_from([(), (5,), (2, 3)]))
    queries = []
    for piece in pieces:
        width = piece.x1 - piece.x0
        point = st.one_of(st.floats(piece.x0 - width, piece.x1 + width),
                          st.sampled_from(piece.x.tolist()))
        pts = draw(st.lists(point, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        queries.append(pts[0] if shape == () else np.reshape(pts, shape))
    return SmoothProfile(tuple(pieces)), queries


@given(_pchip_draws())
@settings(max_examples=100, deadline=None)
def test_pchip_is_bit_identical_to_scipy(draw):
    # values, derivatives and the integral equal scipy's PchipInterpolator
    # exactly (==), in range and extrapolated, in the query's own shape
    prof, queries = draw
    for piece, q in zip(prof.pieces, queries):
        ref = reference_pchip(piece)
        for got, want in ((piece.sigma(q), ref(q)), (piece.dsigma(q), ref.derivative()(q))):
            assert np.shape(got) == np.shape(q)
            assert np.all(got == want)
    want = float(sum(reference_pchip(p).integrate(p.x0, p.x1) for p in prof.pieces))
    assert sigma_integral(prof) == want


@pytest.mark.parametrize(
    "sigma, zeroed",
    [
        ([1.0, 1.1, 3.0], True),  # the one-sided estimate's sign is not the secant's: d = 0
        ([1.0, 1.1, 0.1], False),  # secants change sign and |d| > 3|m0|: d = 3 m0
    ],
)
def test_pchip_end_slope_branches(sigma, zeroed):
    piece = SmoothPiece([0.0, 1.0, 2.0], sigma)
    m0 = sigma[1] - sigma[0]
    assert piece.dsigma(0.0) == (0.0 if zeroed else 3.0 * m0)
    assert piece.dsigma(0.0) == reference_pchip(piece).derivative()(0.0)


def test_sigma_at_lookup(smooth_jumpy, two_level):
    assert_allclose(two_level.sigma_at([0.1, 0.75]), [1.0, 2.0])
    # right limit at the jump
    assert_allclose(two_level.sigma_at(0.5), 2.0)
    assert_allclose(smooth_jumpy.sigma_at(0.2), 1.0 + 0.5 * np.sin(0.4), rtol=1e-12)


def test_entropy_factor_consistency(two_level, gamma2):
    a_levels = gamma2.factor_from_sigma(two_level.pbar, two_level.sigma_levels)
    sig = gamma2.sigma_from_factor(1.0, a_levels)
    assert_allclose(sig, two_level.sigma_levels, rtol=1e-14)


def test_validation_errors():
    with pytest.raises(DomainError):
        PiecewiseConstantProfile([1.0, -2.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        PiecewiseConstantProfile([1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        from_jump_angles([0.5], [1.0], sigma_1=1.0)  # wrong lengths
    for jumps, angles, sigma_1, message in (
        ([-1.0], [1.0, 1.0], 1.0, "jumps must be finite and positive"),
        ([np.inf], [1.0, 1.0], 1.0, "jumps must be finite and positive"),
        ([2.0], [1.0, 0.0], 1.0, "angles must be finite and positive"),
        ([], [], 1.0, "angles must be a non-empty 1-D sequence"),
        ([2.0, 3.0], [1.0, 1.0], 1.0, "need exactly one angle more than jumps"),
        ([2.0], [1.0, 1.0], 0.0, "sigma_1 must be positive"),
    ):
        with pytest.raises(DomainError, match=message):
            from_jump_angles(jumps, angles, sigma_1=sigma_1)
    with pytest.raises(DomainError):
        SmoothPiece([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="x samples must be a 1-D sequence"):
        SmoothPiece([[0.0, 0.5, 1.0]], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        SmoothProfile((SmoothPiece([0.1, 0.5], [1.0, 1.0]),))  # must start at 0


def test_json_round_trip(two_level, tmp_path):
    path = tmp_path / "prof.json"
    save_profile(two_level, path)
    again = load_profile(path)
    assert profile_hash(again) == profile_hash(two_level)
    assert again.eos.gamma == 2.0
    assert again.pbar == 1.0


def test_json_k_ref_only_as_one(two_level, tmp_path):
    # entropy enters as A = exp(s/gamma) alone: k_ref 1.0 loads, any other
    # value would be ignored, so it fails typed
    path = tmp_path / "prof.json"
    save_profile(two_level, path)
    doc = json.loads(path.read_text())
    assert doc["eos"] == {"gamma": 2.0}
    for k_ref in (2.0, 0.5, -1.0, float("nan")):
        with pytest.raises(DomainError, match="'eos.k_ref' must be 1.0"):
            profile_from_dict({**doc, "eos": {"gamma": 2.0, "k_ref": k_ref}})
    for eos in ({"gamma": 2.0, "k_ref": 1.0}, {"gamma": 2.0, "k_ref": 1}, {"gamma": 2.0}):
        prof = profile_from_dict({**doc, "eos": eos})
        assert prof.eos == two_level.eos and profile_hash(prof) == profile_hash(two_level)


def test_json_entropy_factor_levels(gamma2):
    # levels may carry A instead of sigma; conversion needs eos + pbar
    a_levels = gamma2.factor_from_sigma(1.0, np.array([1.0, 2.0]))
    doc = {
        "ell": 1.0,
        "pbar": 1.0,
        "eos": {"gamma": 2.0},
        "kind": "pwc",
        "levels": [
            {"A": float(a_levels[0]), "L": 0.5},
            {"A": float(a_levels[1]), "L": 0.5},
        ],
    }
    prof = profile_from_dict(doc)
    assert_allclose(prof.sigma_levels, [1.0, 2.0], rtol=1e-14)
    doc_no_eos = {k: v for k, v in doc.items() if k not in ("eos", "pbar")}
    with pytest.raises(DomainError):
        profile_from_dict(doc_no_eos)


def test_json_smooth_round_trip(smooth_jumpy, tmp_path):
    path = tmp_path / "smooth.json"
    save_profile(smooth_jumpy, path)
    again = load_profile(path)
    assert profile_hash(again) == profile_hash(smooth_jumpy)
    x = np.linspace(0.0, 1.0, 37)
    assert_allclose(again.sigma_at(x), smooth_jumpy.sigma_at(x), rtol=1e-14)


def test_json_bad_kind():
    with pytest.raises(DomainError):
        profile_from_dict({"kind": "nope", "ell": 1.0})


_LEVEL = {"sigma": 1.0, "L": 1.0}
_PIECE = {"x": [0.0, 1.0], "sigma": [1.0, 2.0]}


def _pwc(**extra):
    return {"kind": "pwc", "levels": [_LEVEL], **extra}


def _smooth(*pieces):
    return {"kind": "smooth", "pieces": list(pieces)}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_LEVEL], "document must be a JSON object"),
        ({"kind": "pwc"}, "'levels' is missing"),
        (_pwc(levels=_LEVEL), "'levels' must be a list"),
        (_pwc(levels=[1.0]), "levels[0] must be a JSON object"),
        (_pwc(levels=[{"sigma": 1.0}]), "'levels[0].L' is missing"),
        (_pwc(levels=[_LEVEL, {"L": 1.0}]), "'levels[1].sigma' (or 'A') is missing"),
        (_pwc(levels=[{"sigma": "abc", "L": 1.0}]), "'levels[0].sigma' must be a number"),
        (_pwc(levels=[{"sigma": 1.0, "L": None}]), "'levels[0].L' must be a number"),
        (_pwc(eos={}), "'eos.gamma' is missing"),
        (_pwc(eos=2.0), "eos must be a JSON object"),
        (_pwc(eos={"gamma": "2"}), "'eos.gamma' must be a number"),
        (_pwc(eos={"gamma": 2.0, "k_ref": [1.0]}), "'eos.k_ref' must be a number"),
        (_pwc(pbar=True), "'pbar' must be a number"),
        (_pwc(ell="1"), "'ell' must be a number"),
        ({"kind": "smooth"}, "'pieces' is missing"),
        (_smooth({"sigma": [1.0, 2.0]}), "'pieces[0].x' is missing"),
        (_smooth({"x": [0.0, 1.0]}), "'pieces[0].sigma' is missing"),
        (_smooth(_PIECE, "p"), "pieces[1] must be a JSON object"),
        (_smooth({"x": [0.0, 1.0], "sigma": "abc"}), "'pieces[0].sigma' must be a list of numbers"),
        (_smooth({"x": [0, "1"], "sigma": [1, 2]}), "'pieces[0].x' must be a list of numbers"),
        (_smooth({"x": [0.0, float("nan"), 1.0], "sigma": [1, 2, 3]}), "x samples must be finite"),
        (_smooth({"x": [0.0, 1.0, float("inf")], "sigma": [1, 2, 3]}), "x samples must be finite"),
    ],
)
def test_json_malformed_fields_fail_typed(doc, message):
    with pytest.raises(DomainError) as info:
        profile_from_dict(doc)
    assert message in str(info.value)


def test_json_ell_mismatch():
    doc = {"ell": 2.0, "kind": "pwc", "levels": [{"sigma": 1.0, "L": 0.5}]}
    with pytest.raises(DomainError):
        profile_from_dict(doc)


def test_declared_ell_consistency(two_level):
    doc = profile_to_dict(two_level)
    assert doc["ell"] == 1.0
    assert json.dumps(doc, sort_keys=True)  # serializable


def test_reversed_profile(two_level, smooth_jumpy):
    rev = reversed_profile(two_level)
    assert_allclose(rev.sigma_levels, [2.0, 1.0])
    assert_allclose(rev.widths, [0.5, 0.5])
    rev2 = reversed_profile(smooth_jumpy)
    # avoid the breakpoint itself: one-sided limits swap under reversal
    x = np.linspace(0.013, 0.987, 97)
    assert_allclose(rev2.sigma_at(x), smooth_jumpy.sigma_at(1.0 - x), rtol=1e-12)


def test_log_sigma_variation(smooth_ramp):
    assert_allclose(smooth_ramp.log_sigma_variation(), np.log(2.0), rtol=1e-12)
