import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import (
    dense_prufer_angle,
    dense_transfer_pwc,
    dense_transfer_smooth,
    prefix_magnus_angle,
    prefix_piece_matrix,
    random_pwc,
    reference_jump_map,
    sl_residual,
)
from puretone import sl_core
from puretone.eos import GammaLawEos
from puretone.errors import DomainError, IntegrationError
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    linearized_evolve,
    nonlinear_evolve,
    second_derivative_quiet,
)
from puretone.profile import (
    PiecewiseConstantProfile,
    SmoothPiece,
    SmoothProfile,
    from_jump_angles,
    reversed_profile,
)
from puretone.sl_core import (
    PSI_DET_TOL,
    _jump_map,
    _piece_matrix,
    angle_and_slope_at_ell,
    angle_at_ell,
    boundary_sine,
    fundamental_matrix,
    jump_angle,
    prufer_advance,
    sample_sl_solution,
)
from puretone.spectrum import DEFAULT_MC_BOX, eigen_solve, resonance_scan

jumps = st.floats(min_value=1e-3, max_value=1e3)
angles = st.floats(min_value=-30.0, max_value=30.0)


# -- jump maps ------------------------------------------------------------------


def test_jump_angle_axis_identities():
    for J in (0.1, 0.5, 1.0, 2.0, 10.0):
        # h(J, m pi/2) = m pi/2 on every coordinate axis
        for m in range(-6, 7):
            assert abs(jump_angle(J, m * np.pi / 2) - m * np.pi / 2) < 1e-12
    # identity jump
    z = np.linspace(-7.0, 7.0, 101)
    assert_allclose(jump_angle(1.0, z), z, atol=1e-14)


def test_jump_angle_value():
    assert_allclose(jump_angle(2.0, np.pi / 4), np.arctan(2.0), rtol=1e-14)


@given(jumps, angles)
@settings(max_examples=300, deadline=None)
def test_jump_angle_quadrant_preservation(J, z):
    h = float(jump_angle(J, z))
    lo = np.floor(z / (np.pi / 2))
    # never crosses a multiple of pi/2
    assert lo * np.pi / 2 - 1e-9 <= h <= (lo + 1) * np.pi / 2 + 1e-9


@given(jumps, angles, st.floats(min_value=1e-4, max_value=0.3))
@settings(max_examples=200, deadline=None)
def test_jump_angle_monotone_in_z(J, z, dz):
    assert jump_angle(J, z + dz) > jump_angle(J, z) - 1e-12


def _jump_slope(J, z):
    return _jump_map(np.asarray(J, dtype=float), z, with_slope=True)[1]


def test_jump_angle_derivative_values():
    for J in (0.3, 2.5):
        assert_allclose(_jump_slope(J, 0.0), J, rtol=1e-14)
        assert_allclose(_jump_slope(J, np.pi / 2), 1.0 / J, rtol=1e-14)


def test_jump_angle_derivative_bounds(rng):
    J = rng.uniform(0.05, 20.0, 200)
    z = rng.uniform(-20.0, 20.0, 200)
    dz = _jump_slope(J, z)
    assert np.all(dz >= np.minimum(J, 1.0 / J) - 1e-12)
    assert np.all(dz <= np.maximum(J, 1.0 / J) + 1e-12)


def test_jump_angle_derivatives_match_fd(rng):
    h = 1e-5
    for _ in range(50):
        J = rng.uniform(0.2, 5.0)
        z = rng.uniform(-6.0, 6.0)
        fd_z = (jump_angle(J, z + h) - jump_angle(J, z - h)) / (2 * h)
        assert abs(fd_z - _jump_slope(J, z)) < 1e-7


@given(jumps, angles)
@settings(max_examples=300, deadline=None)
def test_fused_jump_map_matches_jump_angle(J, z):
    # one tan and one arctan give jump_angle's h bit for bit, and
    # a slope in [min(J, 1/J), max(J, 1/J)] up to the rounding of its quotient
    h, dh = _jump_map(np.asarray(J), z, with_slope=True)
    assert h == jump_angle(J, z)
    eps = 4.0 * np.finfo(float).eps
    assert min(J, 1.0 / J) * (1.0 - eps) <= dh <= max(J, 1.0 / J) * (1.0 + eps)


def _cut_neighbourhoods(rng, j_lo, j_hi):
    """z at m pi and (m + 1/2) pi, |m| <= 2000, with 2 ulps on either side, and one
    log-uniform J per cut; z has shape (cuts, 5), in increasing order."""
    m = np.arange(-2000, 2001)
    cuts = np.concatenate([m * np.pi, (m + 0.5) * np.pi])
    below, above = np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)
    z = [np.nextafter(below, -np.inf), below, cuts, above, np.nextafter(above, np.inf)]
    z = np.stack(z, axis=1)
    J = np.exp(rng.uniform(np.log(j_lo), np.log(j_hi), cuts.size))[:, None]
    return J, z


def test_jump_map_does_not_step_back_at_its_cuts():
    J, z = _cut_neighbourhoods(np.random.default_rng(25), 1e-3, 1e3)
    h, dh = _jump_map(J, z, with_slope=True)
    assert np.all(np.diff(h, axis=1) >= 0.0) and np.all(dh > 0.0)
    # the winding split's rounded m pi makes h step back at some of these cuts
    assert np.any(np.diff(reference_jump_map(J, z)[0], axis=1) < 0.0)
    # a split form m pi + arctan(J tan(z - m pi)) jumps by pi at this cut
    z = 4839.623482855076
    h = _jump_map(0.635, np.array([np.nextafter(z, 0.0), z, np.nextafter(z, 1e4)]))[0]
    assert np.all(np.diff(h) >= 0.0) and np.all(np.abs(h - z) < 1e-9)


def test_jump_map_matches_winding_split_oracle():
    # on the genericity box's jumps, at uniform z and at the cuts: within
    # 8 ulp of h (4 measured), and the slopes to 1e-14 relative (5.3e-15)
    rng = np.random.default_rng(26)
    (j_lo, j_hi), _ = DEFAULT_MC_BOX
    J_cut, z_cut = _cut_neighbourhoods(rng, j_lo, j_hi)
    J = np.concatenate([rng.uniform(j_lo, j_hi, 20_000), np.repeat(J_cut, 5)])
    z = np.concatenate([rng.uniform(-30.0, 30.0, 20_000), z_cut.ravel()])
    h, dh = _jump_map(J, z, with_slope=True)
    ref_h, ref_dh = reference_jump_map(J, z, with_slope=True)
    assert np.max(np.abs(h - ref_h) / np.spacing(np.abs(ref_h))) <= 8.0
    assert_allclose(dh, ref_dh, rtol=1e-14)


def test_jump_domain_errors():
    with pytest.raises(DomainError):
        jump_angle(0.0, 1.0)
    with pytest.raises(DomainError):
        jump_angle(-1.0, 1.0)


# -- Prüfer advance ----------------------------------------------------------------


def test_constant_piece_is_exact_rotation():
    # a constant piece turns theta by omega * sigma * L: exact arithmetic, no integration
    prof = PiecewiseConstantProfile([1.0], [1.0])
    assert angle_at_ell(prof, np.pi / 2) == np.pi / 2
    assert angle_and_slope_at_ell(prof, np.pi / 2) == (np.pi / 2, 1.0)


def test_smooth_piece_matches_dense_reference(smooth_ramp):
    piece = smooth_ramp.pieces[0]
    theta, zeta = prufer_advance(piece, 1.0, 0.0)
    ref = dense_prufer_angle(piece, 1.0, 0.0, n=40_000)
    assert abs(theta - ref) < 1e-9
    assert zeta is None


def test_zeta_positive_along_integration(smooth_ramp):
    piece = smooth_ramp.pieces[0]
    _, zeta = prufer_advance(piece, 2.0, 0.0, zeta=0.0)
    assert zeta > 0.0


def test_step_underflow_raises(smooth_ramp):
    # at omega 1e5 the step rule asks for more than _MAX_STEPS Magnus steps
    piece = smooth_ramp.pieces[0]
    with pytest.raises(IntegrationError, match="above"):
        prufer_advance(piece, 1e5, 0.0)


def test_magnus_step_is_sixth_order(smooth_ramp, monkeypatch):
    # with the tolerance raised until the step rule takes one step per knot
    # interval, knots refined r-fold give r steps per sample interval; the
    # error against a 4x-finer solve falls about 64x per step doubling (a
    # fourth-order step gives 16x)
    piece = smooth_ramp.pieces[0]
    monkeypatch.setattr(sl_core, "PRUFER_TOL", 1.0)

    def across(w, r):
        return _piece_matrix(piece, w, np.linspace(piece.x0, piece.x1, (piece.x.size - 1) * r + 1))[-1]

    for w in (3.0, 17.0, 40.0):
        err = [np.max(np.abs(across(w, r) - across(w, 4 * r))) for r in (1, 2)]
        assert err[0] / err[1] >= 40.0


def test_magnus_states_share_the_top_frequency_grid(smooth_ramp):
    # a 1-D omega walks every frequency on the grid that the largest |omega|
    # needs: each column is the scalar call on that grid, bit for bit, and a
    # run of samples starts from the identity
    piece = smooth_ramp.pieces[0]
    omegas = np.array([0.0, 2.5, -7.0, 30.0])
    x, psis = sl_core.magnus_states(piece, omegas, min_sub=4)
    x_top, _ = sl_core.magnus_states(piece, 30.0, min_sub=4)
    assert psis.shape == (x.size, 4, 2, 2)
    assert np.array_equal(x, x_top)
    sub = (x.size - 1) // (piece.x.size - 1)
    for i, w in enumerate(omegas):
        _, one = sl_core.magnus_states(piece, w, min_sub=sub)
        assert np.array_equal(psis[:, i], one)
    x_run, run = sl_core.magnus_states(piece, omegas, piece.x[3:6], min_sub=sub)
    assert np.array_equal(x_run, x[3 * sub : 5 * sub + 1])
    assert np.array_equal(run[0], np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_smooth_scan_magnus_work(smooth_ramp, monkeypatch):
    # the step rule's work on the ramp scan: 33,984 step-omega evaluations
    # (253,440 with the fourth-order step), a quarter of the latter at most
    counts = []
    magnus_steps = sl_core._magnus_steps

    def counted(terms, omega, slope=False):
        out = magnus_steps(terms, omega, slope)
        counts.append(out[1].size)  # nu: one entry per step and omega
        return out

    monkeypatch.setattr(sl_core, "_magnus_steps", counted)
    resonance_scan(smooth_ramp, 1, j_max=16)
    assert 0 < sum(counts) <= 64_000


# -- angle across the profile ---------------------------------------------------------


def test_angle_constant_profile():
    prof = PiecewiseConstantProfile([2.0], [3.0])
    for w in (0.3, 1.7):
        assert_allclose(angle_at_ell(prof, w), w * 6.0, rtol=1e-14)


def test_angle_two_level_closed_form(two_level):
    # theta(ell) = omega + h(1/2, omega/2); at omega ~ 1.231 it sits near pi/2
    val = angle_at_ell(two_level, 1.231)
    assert abs(val - np.pi / 2) < 1e-3
    w = 0.9
    assert_allclose(
        angle_at_ell(two_level, w),
        w + np.arctan(0.5 * np.tan(0.5 * w)),
        rtol=1e-14,
    )


def test_angle_monotone_in_omega(rng):
    for _ in range(20):
        prof = random_pwc(rng)
        w = np.sort(rng.uniform(0.05, 20.0, 8))
        th = angle_at_ell(prof, w)
        assert np.all(np.diff(th) > 0.0)


def test_angle_slope_matches_fd(two_level, smooth_jumpy):
    # h large enough that the adaptive integrator's evaluation noise
    # (~1e-9) does not dominate the difference quotient
    h = 1e-3
    for prof in (two_level, smooth_jumpy):
        for w in (0.8, 2.9):
            th, zeta = angle_and_slope_at_ell(prof, w)
            fd = (angle_at_ell(prof, w + h) - angle_at_ell(prof, w - h)) / (2 * h)
            assert abs(zeta - fd) < 1e-5
            assert zeta > 0.0


# -- fundamental matrices ----------------------------------------------------------


def test_single_level_is_pure_rotation():
    prof = PiecewiseConstantProfile([1.0], [1.0])
    for w in (0.37, 2.0, 11.3):
        rotation = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        assert_allclose(fundamental_matrix(prof, w), rotation, atol=1e-15)


def test_determinant_property(rng):
    for _ in range(300):
        prof = random_pwc(rng)
        w = rng.uniform(0.05, 30.0)
        psi = fundamental_matrix(prof, w)
        assert abs(np.linalg.det(psi) - 1.0) < 1e-12


def test_pwc_matches_dense_oracle(rng):
    for _ in range(20):
        prof = random_pwc(rng)
        for w in rng.uniform(0.1, 15.0, 3):
            psi = fundamental_matrix(prof, w)
            ref = dense_transfer_pwc(prof, w)
            assert np.max(np.abs(psi - ref)) < 1e-8


def test_matrix_power_equals_literal_loop(rng):
    prof = random_pwc(rng)
    w = 3.7
    assert_allclose(
        dense_transfer_pwc(prof, w, literal=True),
        dense_transfer_pwc(prof, w),
        atol=1e-13,
    )


def test_smooth_matches_dense_oracle(smooth_ramp, smooth_jumpy):
    for prof in (smooth_ramp, smooth_jumpy):
        for w in (0.7, 3.1):
            psi = fundamental_matrix(prof, w)
            ref = dense_transfer_smooth(prof, w, n_total=20_000)
            assert np.max(np.abs(psi - ref)) < 1e-8
            assert abs(np.linalg.det(psi) - 1.0) < 1e-12


def test_composition_consistency_pwc(two_level):
    # split the profile at an interior point of the first level
    left = PiecewiseConstantProfile([1.0], [0.3])
    right = PiecewiseConstantProfile([1.0, 2.0], [0.2, 0.5])
    for w in (0.9, 4.2):
        whole = fundamental_matrix(two_level, w)
        split = fundamental_matrix(right, w) @ fundamental_matrix(left, w)
        assert np.max(np.abs(whole - split)) < 1e-13


def test_composition_consistency_smooth():
    x = np.linspace(0.0, 1.0, 81)
    whole = SmoothProfile((SmoothPiece(x, 1.0 + x),))
    xl = np.linspace(0.0, 0.4, 41)
    xr = np.linspace(0.4, 1.0, 49)
    left = SmoothProfile((SmoothPiece(xl, 1.0 + xl),))
    right_piece = SmoothPiece(xr, 1.0 + xr)
    for w in (1.3, 5.2):
        whole_m = fundamental_matrix(whole, w)
        split = _piece_matrix(right_piece, w) @ fundamental_matrix(left, w)
        assert np.max(np.abs(whole_m - split)) < 1e-8


def test_sample_solution_continuity(two_level, smooth_jumpy):
    # values at interior jumps are continuous; column matches Psi at ell
    for prof in (two_level, smooth_jumpy):
        x = np.linspace(0.0, 1.0, 257)
        vals = sample_sl_solution(prof, 2.3, x)
        assert np.all(np.isfinite(vals))
        psi = fundamental_matrix(prof, 2.3)
        assert_allclose(vals[:, -1], psi[:, 0], atol=1e-8)
        assert_allclose(vals[:, 0], [1.0, 0.0], atol=1e-14)
        # no visible discontinuity across the jump at grid resolution
        jump_idx = np.argmin(np.abs(x - 0.5)) if prof is two_level else np.argmin(np.abs(x - 0.4))
        step = np.abs(np.diff(vals, axis=1))
        assert step[:, jump_idx].max() < 10 * np.median(step.max(axis=0))


def test_sample_solution_refuses_points_outside(two_level, smooth_jumpy):
    # points past the 1e-14 slack were never written; the grid may be unsorted
    for prof in (two_level, smooth_jumpy):
        for bad in ([0.2, 1.5], [2.0], [-1e-3, 0.5], [np.nan]):
            with pytest.raises(DomainError):
                sample_sl_solution(prof, 2.3, bad)
        x = np.array([0.7, 1.0 + 5e-15, 0.1, -5e-15, 0.45])
        order = np.argsort(x)
        vals = sample_sl_solution(prof, 2.3, x)
        assert np.array_equal(vals[:, order], sample_sl_solution(prof, 2.3, x[order]))


def test_sample_solution_reaches_ell_past_the_last_edge():
    # with these widths ell = np.sum lies 2.8e-14 past the last edge, a
    # cumsum; the row at ell was left unwritten (nan, 1e152) before
    widths = [24.984, 25.353, 24.95, 25.783, 24.931, 14.803, 21.201, 23.092, 12.652, 20.9,
              27.52, 6.603]
    prof = PiecewiseConstantProfile(np.linspace(1.0, 2.0, 12), widths)
    vals = sample_sl_solution(prof, 0.05, np.linspace(0.0, prof.ell, 17))
    assert np.max(np.abs(vals[:, -1] - fundamental_matrix(prof, 0.05)[:, 0])) < 1e-12


def test_prufer_reconstruction_satisfies_sl(smooth_ramp):
    # the sampled solution satisfies the first-order SL system (4th-order
    # differences), and its Prüfer angle at ell is the chain's theta(ell)
    omega = 3.0
    x = np.linspace(0.0, 1.0, 801)
    vals = sample_sl_solution(smooth_ramp, omega, x)
    assert sl_residual(smooth_ramp, omega, x, vals) < 1e-7
    theta = angle_at_ell(smooth_ramp, omega)
    ang = np.arctan2(vals[1, -1], smooth_ramp.sigma_at(1.0) * vals[0, -1])
    assert abs(np.remainder(theta - ang + np.pi, 2.0 * np.pi) - np.pi) < 1e-9


def test_quarter_table():
    # S takes (cos, sin) of n pi/2 exactly: its factors are 0 or +-1 to the bit
    n = np.arange(-3, 9)
    c, s = boundary_sine(n, 0.0, 1.0), -boundary_sine(n, 1.0, 0.0)
    assert_allclose([c, s], [np.cos(n * np.pi / 2), np.sin(n * np.pi / 2)], atol=1e-15)
    assert np.all(np.isin(c, (-1.0, 0.0, 1.0)) & np.isin(s, (-1.0, 0.0, 1.0)))


# -- omega-batched Magnus propagator ----------------------------------------------------


def test_batch_matches_scalar_calls(smooth_ramp, smooth_jumpy, rng):
    # each omega gets its own step count, so a batch gives the scalar values
    w = np.array([0.3, 1.1, 2.9, 7.5, 16.0, 33.3])
    for prof in (smooth_ramp, smooth_jumpy, *(random_pwc(rng) for _ in range(5))):
        th, zeta = angle_and_slope_at_ell(prof, w)
        psi = fundamental_matrix(prof, w)
        assert psi.shape == (w.size, 2, 2)
        for i, wi in enumerate(w):
            th1, zeta1 = angle_and_slope_at_ell(prof, float(wi))
            assert abs(th1 - th[i]) < 1e-13
            assert abs(zeta1 - zeta[i]) < 1e-13
            assert np.max(np.abs(fundamental_matrix(prof, float(wi)) - psi[i])) < 1e-13


def test_constant_samples_reproduce_pwc_rotation():
    smooth = SmoothProfile((SmoothPiece(np.linspace(0.0, 1.0, 17), np.full(17, 1.7)),))
    pwc = PiecewiseConstantProfile([1.7], [1.0])
    for w in (0.4, 3.3, 40.0, 211.0):
        th_s, zeta_s = angle_and_slope_at_ell(smooth, w)
        th_p, zeta_p = angle_and_slope_at_ell(pwc, w)
        assert abs(th_s - th_p) < 1e-13
        assert abs(zeta_s - zeta_p) < 1e-13
        assert np.max(np.abs(fundamental_matrix(smooth, w) - fundamental_matrix(pwc, w))) < 1e-13


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_chain_on_per_point_columns_matches_profile_calls(levels):
    # the root solve feeds _angle_chain each jump and angle as a per-point
    # column; every point gives the profile's own angle and slope bit for bit
    rng = np.random.default_rng(levels)
    profiles = [from_jump_angles(rng.uniform(*_J_BOX, levels - 1), rng.uniform(*_THETA_BOX, levels))
                for _ in range(3)]
    for w in (np.array([0.05, 0.7, 3.1, 12.0, 47.5]), np.array(2.3)):
        cols = lambda name: [np.stack([np.full(w.shape, getattr(p, name)[i]) for p in profiles])
                             for i in range(getattr(profiles[0], name).size)]
        th, zeta = sl_core._angle_chain(cols("jumps"), cols("angles"), np.stack([w] * 3), True)
        for prof, th_p, zeta_p in zip(profiles, th, zeta):
            th_ref, zeta_ref = angle_and_slope_at_ell(prof, w)
            assert np.shape(zeta_ref) == w.shape
            assert np.array_equal(th_p, th_ref) and np.array_equal(zeta_p, zeta_ref)


_J_BOX, _THETA_BOX = DEFAULT_MC_BOX


@st.composite
def _jump_angle_draws(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    jumps = draw(st.lists(st.floats(*_J_BOX), min_size=n - 1, max_size=n - 1))
    thetas = draw(st.lists(st.floats(*_THETA_BOX), min_size=n, max_size=n))
    return jumps, thetas


@given(_jump_angle_draws())
@settings(max_examples=100, deadline=None)
def test_constant_pieces_match_their_smooth_twin(draw):
    # a pwc profile and the SmoothProfile of two-sample constant pieces built
    # from the same levels share every piece property and the SL outputs
    pwc = from_jump_angles(*draw)
    twin = SmoothProfile(tuple(SmoothPiece([p.x0, p.x1], [p.level] * 2) for p in pwc.pieces))
    assert np.array_equal(pwc.edges, twin.edges)
    assert np.array_equal(pwc.jumps, twin.jumps)
    assert pwc.sigma_max == twin.sigma_max
    assert pwc.log_sigma_variation() == twin.log_sigma_variation() == 0.0
    x = np.linspace(0.0, pwc.ell, 41)
    assert np.array_equal(pwc.sigma_at(x), twin.sigma_at(x))
    # to 1e-12 relative to the largest entry: theta, its slope and Psi reach
    # 10-100 here, and the twin's Magnus rotation rounds differently
    w = np.array([0.05, 0.7, 3.1, 12.0])
    for pwc_out, twin_out in (
        (fundamental_matrix(pwc, w), fundamental_matrix(twin, w)),
        (np.array(angle_and_slope_at_ell(pwc, w)), np.array(angle_and_slope_at_ell(twin, w))),
    ):
        assert np.max(np.abs(pwc_out - twin_out)) <= 1e-12 * max(1.0, np.max(np.abs(twin_out)))
    assert np.max(np.abs(np.linalg.det(fundamental_matrix(pwc, w)) - 1.0)) <= PSI_DET_TOL


@st.composite
def _smooth_profile_draws(draw):
    """1-2 PCHIP pieces of 2-9 samples (sigma in [0.3, 3], widths in [0.1, 1]),
    a gamma-law EOS and pbar <= 3."""
    pieces, x0 = [], 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        n = draw(st.integers(min_value=2, max_value=9))
        sigma = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
        x = np.linspace(x0, x0 + draw(st.floats(0.1, 1.0)), n)
        pieces.append(SmoothPiece(x, sigma))
        x0 = x[-1]
    gamma = draw(st.sampled_from([1.4, 5.0 / 3.0, 2.0, 3.0]))
    return SmoothProfile(tuple(pieces), pbar=draw(st.floats(0.1, 3.0)), eos=GammaLawEos(gamma))


@given(_smooth_profile_draws())
@settings(max_examples=50, deadline=None)
def test_random_smooth_profiles_keep_unit_determinant(prof):
    w = np.array([0.05, 0.7, 3.1, 12.0, 40.0])
    assert np.max(np.abs(np.linalg.det(fundamental_matrix(prof, w)) - 1.0)) <= PSI_DET_TOL


@given(_smooth_profile_draws())
@settings(max_examples=6, deadline=None)
def test_random_smooth_profiles_keep_quiet_fixed_point(prof):
    # marched at the k = 1 period, as a pure-tone solve marches it; a smooth
    # march takes 0.3-0.6 s here, so few examples keep Tier-1 time in bound
    y0 = FourierField.constant(eigen_solve(prof, 1).T, prof.pbar, 4)
    out = nonlinear_evolve(prof, y0, EvolutionConfig(M=4))
    assert np.array_equal(out.cos, y0.cos)
    assert np.array_equal(out.sin, y0.sin)


@given(_smooth_profile_draws())
@settings(max_examples=6, deadline=None)
def test_random_smooth_profiles_reflect_evolve_round_trip(prof):
    # a small tone marched through the profile at the k = 1 period, reflected
    # (u -> -u) and marched back through the reversed profile returns to its
    # data, within the bounds of test_random_pwc_march_invariants
    m = 8
    T = eigen_solve(prof, 1).T
    cfg = EvolutionConfig(M=m)
    y0 = FourierField.constant(T, prof.pbar, m) + 1e-3 * prof.pbar * FourierField.cosine(T, 1, 1.0, m=m)
    mid = nonlinear_evolve(prof, y0, cfg)
    back = nonlinear_evolve(reversed_profile(prof), FourierField(T, mid.cos, -mid.sin), cfg)
    assert np.max(np.abs(back.cos - y0.cos)) < 1e-10
    assert np.max(np.abs(back.sin)) < 1e-10


def test_pwc_work_stays_out_of_smooth_machinery(two_level, monkeypatch):
    # a constant piece is never sampled as a SmoothPiece nor sent through
    # prufer_advance, so pwc work records no calls to either
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((SmoothPiece, "sigma"), (SmoothPiece, "dsigma"), (sl_core, "prufer_advance")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    eig = eigen_solve(two_level, 1)
    resonance_scan(two_level, 1, j_max=16)
    fundamental_matrix(two_level, np.array([0.5, 4.0]))
    second_derivative_quiet(two_level, 1, 1)
    cfg = EvolutionConfig(M=8)
    cos, sin = np.zeros(9), np.zeros(9)
    cos[0], cos[1], sin[2] = 1.0, 1e-3, 5e-4
    y0 = FourierField(eig.T, cos, sin)
    nonlinear_evolve(two_level, y0, cfg)
    linearized_evolve(two_level, y0, FourierField(eig.T, np.eye(9)[1], np.eye(9)[2]), cfg)
    assert calls == []


def test_smooth_high_frequency_matches_dense_oracle(smooth_jumpy):
    psi = fundamental_matrix(smooth_jumpy, 40.0)
    ref = dense_transfer_smooth(smooth_jumpy, 40.0, n_total=20_000)
    assert np.max(np.abs(psi - ref)) < 1e-8
    assert abs(np.linalg.det(psi) - 1.0) < 1e-12


def test_smooth_slope_is_derivative_of_discrete_angle(smooth_ramp, smooth_jumpy):
    # zeta carries the closed-form omega-derivative of every Magnus step, so
    # it matches a fine difference quotient of the discrete angle itself
    h = 1e-5
    for prof in (smooth_ramp, smooth_jumpy):
        for w in (0.8, 2.9, 13.0):
            _, zeta = angle_and_slope_at_ell(prof, w)
            fd = (angle_at_ell(prof, w + h) - angle_at_ell(prof, w - h)) / (2 * h)
            assert abs(zeta - fd) < 1e-8


# -- tree-reduced products against the prefix-product reference ------------------------


def _tree_test_pieces(smooth_ramp, smooth_jumpy):
    x = np.linspace(0.0, 1.0, 65)
    xo = np.linspace(0.0, 1.0, 129)
    xr = np.linspace(0.0, 1.0, 257)
    return (
        *smooth_ramp.pieces,
        *smooth_jumpy.pieces,
        # sigma_max/sigma_min = 100 > e^pi: the span splits at sample knots
        SmoothPiece(x, 100.0**x),
        # half log-variation of sigma 4.1 and 13.5: several spans, on both
        # slopes; on the second, parametric resonance moves theta up to 5.5
        # away from its phase (at omega 12.6 and 25.1 among others), so a
        # winding taken from the whole piece's phase would be off by 2 pi
        SmoothPiece(xo, 1.0 + 0.8 * np.sin(12.0 * xo)),
        SmoothPiece(xr, 1.0 + 0.8 * np.sin(40.0 * xr)),
        # one sample interval above the bound: it splits at step boundaries,
        # and at omega 1e-6 it is a single step
        SmoothPiece([0.0, 1.0], [1.0, 100.0]),
    )


def test_tree_matches_prefix_products(smooth_ramp, smooth_jumpy):
    # the phase-integral winding and the tree-carried slope give the windings
    # and slopes of the per-step prefix-product reduction of the same steps
    omegas = np.concatenate(([1e-6], np.geomspace(0.05, 200.0, 13)))
    checked = 0
    for piece in _tree_test_pieces(smooth_ramp, smooth_jumpy):
        for w in omegas:
            om = np.array([w])
            try:
                ref_th, ref_zeta = prefix_magnus_angle(
                    piece, piece.x, om, np.array([0.3]), np.array([0.7])
                )
            except IntegrationError:  # more steps than the step rule allows
                with pytest.raises(IntegrationError):
                    prufer_advance(piece, w, 0.3, zeta=0.7)
                continue
            theta, zeta = prufer_advance(piece, w, 0.3, zeta=0.7)
            assert abs(theta - ref_th[0]) < 1e-9
            assert abs(zeta / ref_zeta[0] - 1.0) < 1e-10
            psi = _piece_matrix(piece, w)
            assert np.max(np.abs(psi - prefix_piece_matrix(piece, om)[0])) < 1e-13
            checked += 1
    assert checked >= 60


def test_tree_profiles_match_prefix_products(smooth_ramp, smooth_jumpy):
    # whole profiles, omega batched: the transfer matrix is the ordered
    # product of the reference piece matrices
    w = np.geomspace(0.05, 200.0, 9)
    for prof in (smooth_ramp, smooth_jumpy):
        ref = np.broadcast_to(np.eye(2), w.shape + (2, 2))
        for piece in prof.pieces:
            ref = prefix_piece_matrix(piece, w) @ ref
        assert np.max(np.abs(fundamental_matrix(prof, w) - ref)) < 1e-13
