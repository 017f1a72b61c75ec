from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import (
    boundary_operator,
    fft_grid_to_coeffs,
    project_even,
    project_odd,
    reference_lawson_step,
    second_derivative_quiet_spectral,
    second_variation_fd,
    second_variation_spectral,
    shift,
)
from puretone.eos import GammaLawEos
from puretone.errors import DomainError, NumericalError, ResonanceError, ShockProximityError
from puretone.profile import PiecewiseConstantProfile, from_jump_angles, reversed_profile
from puretone.sl_core import fundamental_matrix
from puretone.spectrum import DEFAULT_MC_BOX, DivisorTable, divisors, eigen_solve
from puretone import evolve, sl_core
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    coeffs_to_grid,
    evolve_coefficients,
    linearized_evolve,
    nonlinear_evolve,
    quiet_second_variation,
    second_derivative_quiet,
    weighted_norm,
)


@pytest.fixture(scope="module")
def eig1(two_level):
    return eigen_solve(two_level, 1)


@pytest.fixture(scope="module")
def cfg16():
    return EvolutionConfig(M=16)


def _rand_field(rng, T, m):
    cos = rng.normal(size=m + 1)
    sin = rng.normal(size=m + 1)
    sin[0] = 0.0
    return FourierField(T, cos, sin)


# -- field plumbing ---------------------------------------------------------------


def test_grid_round_trip(rng):
    y = _rand_field(rng, 2.0, 12)
    vals = coeffs_to_grid(y.cos, y.sin, 64)
    a, b = fft_grid_to_coeffs(vals, 12)
    assert_allclose(a, y.cos, atol=1e-13)
    assert_allclose(b, y.sin, atol=1e-13)


def _transform_sizes():
    return [(m, n) for m in (1, 8, 16, 32, 128) for n in sorted({2 * m + 2, 4 * m, 4 * m + 3})]


@pytest.mark.parametrize("m,n", _transform_sizes())
def test_dense_transforms_match_fft(m, n):
    from _oracles import fft_coeffs_to_grid

    rng = np.random.default_rng(1000 * m + n)
    for shape in ((m + 1,), (33, m + 1)):
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        b[..., 0] = 0.0
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        err = np.max(np.abs(coeffs_to_grid(a, b, n) - fft_coeffs_to_grid(a, b, n)))
        assert err <= 2e-14 * scale
        # a sine series vanishes exactly at t = 0 and t = T/2
        odd = coeffs_to_grid(np.zeros_like(a), b, n)
        assert np.all(odd[..., 0] == 0.0) and (n % 2 or np.all(odd[..., n // 2] == 0.0))


def test_dft_tables_exactly_symmetric():
    for m, n in _transform_sizes():
        cos, sin = evolve._dft_basis(m, n)
        assert np.array_equal(cos[:, 1:], cos[:, :0:-1])
        assert np.array_equal(sin[:, 1:], -sin[:, :0:-1])
        assert np.all(sin[:, 0] == 0.0) and np.all(cos[:, 0] == 1.0)
        if n % 2 == 0:
            assert np.all(sin[:, n // 2] == 0.0)
            assert np.array_equal(cos[:, n // 2], (-1.0) ** np.arange(m + 1))


@pytest.mark.parametrize("m", (8, 32))
def test_march_rate_matrix_matches_fft(two_level, eig1, m):
    # the remainders' one analysis product: -j Omega times the cosine coefficients
    rng = np.random.default_rng(m)
    for n in (4 * m, 4 * m + 3):
        cfg = EvolutionConfig(M=m, n_quad=n)
        marcher = evolve._Marcher(two_level, eig1.T, cfg, np.array([1.0]))
        values = rng.normal(size=(33, n))
        ref = -marcher.omega_modes * fft_grid_to_coeffs(values, m)[0]
        scale = np.max(np.abs(values)) * marcher.omega_modes[-1]
        assert np.max(np.abs(values @ marcher.to_rates - ref)) <= 1e-15 * scale


def test_transforms_refuse_too_few_points():
    for m in (1, 8, 32):
        with pytest.raises(DomainError):
            coeffs_to_grid(np.ones(m + 1), np.ones(m + 1), 2 * m + 1)


def test_projections(rng):
    y = _rand_field(rng, 3.0, 8)
    even = project_even(y)
    odd = project_odd(y)
    assert np.all(even.sin == 0.0)
    assert np.all(odd.cos == 0.0)
    assert_allclose((even + odd).cos, y.cos)
    assert_allclose((even + odd).sin, y.sin)
    # even part is symmetric on the grid
    vals = coeffs_to_grid(even.cos, even.sin, 32)
    assert_allclose(vals, np.roll(vals[::-1], 1), atol=1e-13)


def test_shift_identity_and_group(rng):
    y = _rand_field(rng, 2.5, 10)
    full = shift(y, 2.5)
    assert_allclose(full.cos, y.cos, atol=1e-12)
    assert_allclose(full.sin, y.sin, atol=1e-12)
    two_steps = shift(shift(y, 0.3), 0.9)
    assert_allclose(two_steps.cos, shift(y, 1.2).cos, atol=1e-12)


def test_reflection_shift_commutation(rng):
    # R T^tau = T^{-tau} R at the coefficient level
    y = _rand_field(rng, 2.0, 9)
    tau = 0.37

    def reflect(f):
        return FourierField(f.T, f.cos.copy(), -f.sin)

    lhs = reflect(shift(y, tau))
    rhs = shift(reflect(y), -tau)
    assert_allclose(lhs.cos, rhs.cos, atol=1e-13)
    assert_allclose(lhs.sin, rhs.sin, atol=1e-13)


def test_boundary_operator_acoustic_is_odd_projection(rng):
    y = _rand_field(rng, 2.0, 7)
    s0 = boundary_operator(y, 0)
    assert_allclose(s0.sin, project_odd(y).sin)
    assert np.all(s0.cos == 0.0)


def test_boundary_operator_kills_constants():
    y = FourierField.constant(2.0, 5.0, 6)
    for chi in (0, 1):
        out = boundary_operator(y, chi)
        assert np.all(out.sin == 0.0)


def test_boundary_operator_quarter_shift(rng):
    # S = R_- T^{-T/4} assembled from the generic shift agrees with the table
    y = _rand_field(rng, 4.0, 9)
    direct = boundary_operator(y, 1)
    via_ops = project_odd(shift(y, -1.0))  # T/4 = 1
    assert_allclose(direct.sin, via_ops.sin, atol=1e-12)


# -- nonlinear evolution -------------------------------------------------------------


def _quiet_batch(m):
    """Quiet rows that differ in their means, the forward-difference Jacobian's
    batch shape: every row turns at its own sound slowness."""
    a = np.zeros((5, m + 1))
    a[:, 0] = (0.8, 0.95, 1.0, 1.05, 1.25)
    return a, np.zeros_like(a)


def test_quiet_state_exact_fixed_point(two_level, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16)
    out = nonlinear_evolve(two_level, y0, cfg16)
    assert np.array_equal(out.cos, y0.cos)
    assert np.array_equal(out.sin, y0.sin)
    # a batch of quiet rows with distinct means, and the quiet family's
    # tangent (a variation of the mean) along each of them: in the solution
    # march, in the two-field march that linearized_evolve runs, and in
    # linearized_evolve itself
    a, b = _quiet_batch(16)
    out, _ = evolve_coefficients(two_level, a, b, eig1.T, cfg16)
    assert np.array_equal(out[0], a) and np.array_equal(out[1], b)
    tangent = np.zeros_like(a)
    tangent[:, 0] = 1.0
    fields = np.stack((a, tangent))
    both, _ = evolve._guarded_walk(two_level, eig1.T, cfg16, fields, np.stack((b, b)))
    assert np.array_equal(both[0], fields) and np.all(both[1] == 0.0)
    unit = FourierField.constant(eig1.T, 1.0, 16)
    for mean in a[:, 0]:
        quiet = FourierField.constant(eig1.T, mean, 16)
        Y = linearized_evolve(two_level, quiet, unit, cfg16)
        assert np.array_equal(Y.cos, np.eye(17)[0]) and np.all(Y.sin == 0.0)


def test_smooth_turn_blocks_leave_the_bits(smooth_jumpy, monkeypatch):
    # a smooth piece builds its turns _TURN_ENTRIES (step, row, mode) entries
    # at a time; one step per block gives the same bits as the default blocks
    m = 8
    T = eigen_solve(smooth_jumpy, 1).T
    a, b = _march_batch(1e-3, m)
    cfg = EvolutionConfig(M=m)
    ref, _ = evolve_coefficients(smooth_jumpy, a, b, T, cfg)
    monkeypatch.setattr(evolve, "_TURN_ENTRIES", 1)
    out, _ = evolve_coefficients(smooth_jumpy, a, b, T, cfg)
    assert np.array_equal(out[0], ref[0]) and np.array_equal(out[1], ref[1])
    assert np.max(np.abs(ref[1])) > 1e-4  # the batch moved


def test_mean_conserved_along_trajectory(two_level, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 1e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    out, snaps = nonlinear_evolve(
        two_level, y0, cfg16, x_nodes=np.linspace(0, 1, 11)
    )
    means = [f.cos[0] for f in snaps]
    assert np.all(np.array(means) == means[0])


@pytest.mark.parametrize("nodes", ([0.25, 0.5, 1.5], [-0.2, 0.25, 0.5]), ids=("past-ell", "below-0"))
def test_snapshot_nodes_outside_profile_refused(two_level, eig1, nodes):
    # a node past ell was dropped and one below 0 was taken at x = 0
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1e-3 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    with pytest.raises(DomainError):
        nonlinear_evolve(two_level, y0, EvolutionConfig(M=8), x_nodes=nodes)


def test_reflect_evolve_round_trip(two_level, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 1e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    mid = nonlinear_evolve(two_level, y0, cfg16)
    refl = FourierField(mid.T, mid.cos, -mid.sin)
    back = nonlinear_evolve(reversed_profile(two_level), refl, cfg16)
    assert np.max(np.abs(back.cos - y0.cos)) < 1e-10
    assert np.max(np.abs(back.sin)) < 1e-10  # y0 even: reflected return is itself


def test_linearization_limit_richardson(two_level, eig1, cfg16):
    # (E(pbar + eps c_k) - pbar)/eps deviates from the transfer-matrix mode
    # at O(eps), carried by the quadratically generated 0- and 2k-modes
    psi = fundamental_matrix(two_level, 2 * np.pi / eig1.T)
    base = FourierField.constant(eig1.T, 1.0, 16)
    lin_cos = np.zeros(17)
    lin_sin = np.zeros(17)
    lin_cos[1], lin_sin[1] = psi[0, 0], psi[1, 0]
    errs = []
    for eps in (1e-4, 5e-5):
        y0 = base + eps * FourierField.cosine(eig1.T, 1, 1.0, m=16)
        out = nonlinear_evolve(two_level, y0, cfg16)
        d_cos = (out.cos - base.cos) / eps - lin_cos
        d_sin = out.sin / eps - lin_sin
        errs.append(np.max(np.abs(np.concatenate([d_cos, d_sin]))))
    ratio = errs[0] / errs[1]
    assert 1.9 < ratio < 2.1


def test_composition_consistency(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 5e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    whole = nonlinear_evolve(two_level, y0, cfg16)
    left = PiecewiseConstantProfile([1.0], [0.3], pbar=1.0, eos=gamma2)
    right = PiecewiseConstantProfile([1.0, 2.0], [0.2, 0.5], pbar=1.0, eos=gamma2)
    mid = nonlinear_evolve(left, y0, cfg16)
    out = nonlinear_evolve(right, mid, cfg16)
    assert np.max(np.abs(out.cos - whole.cos)) < 1e-9
    assert np.max(np.abs(out.sin - whole.sin)) < 1e-9


def test_positivity_guard(two_level, eig1):
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1.5 * FourierField.cosine(
        eig1.T, 1, 1.0, m=8
    )
    with pytest.raises(ShockProximityError):
        nonlinear_evolve(two_level, y0, cfg)


def test_gradient_guard_triggers_near_shock(gamma2):
    # strong data over a long isentropic run steepens toward a shock: the
    # gradient bound passes 10x its entry value near x = 15 of 40, while the
    # pressure is still positive
    prof = PiecewiseConstantProfile([1.0], [40.0], pbar=1.0, eos=gamma2)
    cfg = EvolutionConfig(M=24)
    y0 = FourierField.constant(8.0, 1.0, 24) + 0.2 * FourierField.cosine(8.0, 1, 1.0, m=24)
    with pytest.raises(ShockProximityError, match="time-gradient"):
        nonlinear_evolve(prof, y0, cfg)


def test_gradient_guard_forgives_linear_growth(gamma2):
    # sigma 1, 4, 16, 16, 16: a linear wave gains more than 10x in its l1
    # time-gradient bound through the contrast alone, which is no steepening;
    # both the quiet linearization and a small nonlinear tone pass the guard
    prof = from_jump_angles([0.25, 0.25, 1.0, 1.0], [1.0] * 5, pbar=1.0, eos=gamma2)
    T, m = eigen_solve(prof, 1).T, 8
    cfg = EvolutionConfig(M=m)
    quiet = FourierField.constant(T, 1.0, m)
    Y = linearized_evolve(prof, quiet, FourierField.cosine(T, 1, 1.0, m=m), cfg)
    psi = fundamental_matrix(prof, 2.0 * np.pi / T)
    assert abs(Y.cos[1] - psi[0, 0]) < 1e-11 and abs(Y.sin[1] - psi[1, 0]) < 1e-11
    assert abs(Y.cos[1]) + abs(Y.sin[1]) > 10.0
    out = nonlinear_evolve(prof, quiet + 1e-3 * FourierField.cosine(T, 1, 1.0, m=m), cfg)
    assert abs(out.cos[1]) + abs(out.sin[1]) > 1e-2


def test_non_finite_entry_data_refused(two_level, eig1):
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    cos = y0.cos.copy()
    cos[3] = np.nan
    bad = FourierField(eig1.T, cos, y0.sin)
    with pytest.raises(NumericalError):
        nonlinear_evolve(two_level, bad, EvolutionConfig(M=8))


def test_march_turning_non_finite_refused(two_level, eig1, monkeypatch):
    # a NaN remainder from the third call on (the kicked stage pair (k2, k4)
    # of the first step) reaches the closed-form combination unchecked, since
    # the positivity check reads only the stages' own grid values; the step
    # guard must catch it
    calls = []
    volume_remainder = GammaLawEos.volume_remainder

    def spoiled(self, x):
        calls.append(1)
        out = volume_remainder(self, x)
        return out * np.nan if len(calls) >= 3 else out

    monkeypatch.setattr(GammaLawEos, "volume_remainder", spoiled)
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    with pytest.raises(NumericalError):
        nonlinear_evolve(two_level, y0, EvolutionConfig(M=8))
    assert len(calls) == 3  # the eta evaluation and the two stage pairs of one step


_J_BOX, _THETA_BOX = DEFAULT_MC_BOX


@st.composite
def _pwc_draws(draw):
    """(profile, k, chi): 2-5 levels from (J, Theta) in the genericity box, a gamma
    law with gamma in {1.4, 5/3, 2, 3}, pbar in [0.5, 2], and a mode k <= 3 of
    either boundary condition (k even when chi = 0)."""
    n = draw(st.integers(min_value=2, max_value=5))
    jumps = draw(st.lists(st.floats(*_J_BOX), min_size=n - 1, max_size=n - 1))
    thetas = draw(st.lists(st.floats(*_THETA_BOX), min_size=n, max_size=n))
    gamma = draw(st.sampled_from((1.4, 5.0 / 3.0, 2.0, 3.0)))
    pbar = draw(st.floats(0.5, 2.0))
    chi = draw(st.sampled_from((0, 1)))
    k = draw(st.integers(1, 3)) if chi == 1 else 2
    return from_jump_angles(jumps, thetas, pbar=pbar, eos=GammaLawEos(gamma)), k, chi


@given(_pwc_draws())
@settings(max_examples=25, deadline=None)
def test_random_pwc_march_invariants(draw):
    # at the period of mode k: the quiet state and the tangent of the quiet
    # family (a variation of the mean) are bit-exact fixed points, the quiet
    # linearization turns every mode j by Psi(ell; j Omega), so that S o L is
    # diag(delta_j) with its signs (the march turns at the sound slowness, the
    # SL transfer at sigma), and reflection undoes the march through the
    # reversed profile
    prof, k, chi = draw
    m = 8
    T = eigen_solve(prof, k, chi).T
    cfg = EvolutionConfig(M=m)
    quiet = FourierField.constant(T, prof.pbar, m)
    out = nonlinear_evolve(prof, quiet, cfg)
    assert np.array_equal(out.cos, quiet.cos) and np.array_equal(out.sin, quiet.sin)
    tangent = linearized_evolve(prof, quiet, FourierField.constant(T, 1.0, m), cfg)
    assert np.array_equal(tangent.cos, np.eye(m + 1)[0]) and np.array_equal(tangent.sin, quiet.sin)
    psi = fundamental_matrix(prof, np.arange(1, m + 1) * (2.0 * np.pi / T))
    table = divisors(prof, T, chi, m)
    for j in range(1, m + 1):
        Y = linearized_evolve(prof, quiet, FourierField.cosine(T, j, 1.0, m=m), cfg)
        scale = max(1.0, np.max(np.abs(psi[j - 1])))
        assert abs(Y.cos[j] - psi[j - 1, 0, 0]) <= 1e-12 * scale
        assert abs(Y.sin[j] - psi[j - 1, 1, 0]) <= 1e-12 * scale
        assert abs(boundary_operator(Y, chi).sin[j] - table.delta[j - 1]) <= 1e-12 * scale
    y0 = quiet + 1e-3 * prof.pbar * FourierField.cosine(T, 1, 1.0, m=m)
    mid = nonlinear_evolve(prof, y0, cfg)
    refl = FourierField(T, mid.cos, -mid.sin)
    back = nonlinear_evolve(reversed_profile(prof), refl, cfg)
    assert np.max(np.abs(back.cos - y0.cos)) < 1e-10
    assert np.max(np.abs(back.sin)) < 1e-10


def test_cutoff_mismatch_rejected(two_level, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 8)
    with pytest.raises(DomainError):
        nonlinear_evolve(two_level, y0, cfg16)


@pytest.mark.parametrize("missing", ["eos", "pbar"])
def test_nonlinear_work_reads_the_profile_closure(two_level, eig1, missing):
    # the march and the quiet second variation take eos and pbar from the
    # profile alone, and name the one it lacks
    prof = replace(two_level, **{missing: None})
    y0 = FourierField.constant(eig1.T, 1.0, 8)
    with pytest.raises(DomainError, match=f"needs the profile's {missing}$"):
        nonlinear_evolve(prof, y0, EvolutionConfig(M=8))
    with pytest.raises(DomainError, match=f"needs the profile's {missing}$"):
        quiet_second_variation(prof, 1, 1, eig1.T, 8)


def test_spectral_convergence_under_mode_doubling(two_level, eig1):
    # terminal-state discrepancy vs a fine reference shrinks faster than
    # any fixed power when M doubles
    amp = 0.05
    outs = {}
    for m in (8, 16, 48):
        cfg = EvolutionConfig(M=m, dx=2e-4)
        y0 = FourierField.constant(eig1.T, 1.0, m) + amp * FourierField.cosine(
            eig1.T, 1, 1.0, m=m
        )
        outs[m] = nonlinear_evolve(two_level, y0, cfg)
    ref = outs[48]

    def disc(m):
        d_cos = outs[m].cos - ref.cos[: m + 1]
        d_sin = outs[m].sin - ref.sin[: m + 1]
        return np.max(np.abs(np.concatenate([d_cos, d_sin])))

    assert disc(8) / disc(16) > 10.0


def _march_batch(alpha, m=16):
    # the k = 1 mode, the same with a shifted mean, a mixed even/odd row and
    # a pure velocity row (no pressure fluctuation, so no remainder, at x = 0)
    a = np.zeros((4, m + 1))
    a[:, 0] = 1.0
    a[1, 0] = 1.0 + 2e-3
    a[:3, 1] = alpha
    a[2, 2], a[2, 3] = 0.3 * alpha, -0.1 * alpha
    b = np.zeros_like(a)
    b[2, 1] = 0.5 * alpha
    b[3, 1] = alpha
    return a, b


@pytest.fixture(scope="module")
def dense_oracle(two_level, gamma2, eig1):
    from _oracles import dense_march_pwc

    return {
        alpha: dense_march_pwc(two_level, gamma2, *_march_batch(alpha), eig1.T, n_total=8000)
        for alpha in (1e-3, 1e-2)
    }


def _march_error(out, ref):
    return np.max(np.abs(np.concatenate([out[0] - ref[0], out[1] - ref[1]], axis=-1)))


def test_default_march_matches_dense_oracle(two_level, eig1, cfg16, dense_oracle):
    a, b = _march_batch(1e-3)
    ref = dense_oracle[1e-3]
    out, _ = evolve_coefficients(two_level, a, b, eig1.T, cfg16)
    assert _march_error(out, ref) < 1e-11
    # a row marched alone sizes its own steps
    for i in range(a.shape[0]):
        row, _ = evolve_coefficients(two_level, a[i], b[i], eig1.T, cfg16)
        assert _march_error(row, (ref[0][i], ref[1][i])) < 1e-11


def test_lawson_step_is_fourth_order(two_level, eig1, dense_oracle):
    errs = []
    for n in (16, 32, 64):
        cfg = EvolutionConfig(M=16, dx=two_level.ell / n)
        out, _ = evolve_coefficients(two_level, *_march_batch(1e-2), eig1.T, cfg)
        errs.append(_march_error(out, dense_oracle[1e-2]))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def _counting_march(monkeypatch):
    """Per-step counts of coeffs_to_grid and remainder calls, and the totals.

    Every synthesis goes through the module-level coeffs_to_grid, so counting
    its calls counts syntheses.
    """
    calls = {"synth": 0, "remainder": 0}
    per_step = []
    synth, remainder = evolve.coeffs_to_grid, evolve._Marcher.remainder
    step = evolve._Marcher._step

    def counting_synth(a, b, n):
        calls["synth"] += 1
        return synth(a, b, n)

    def counting_remainder(self, *args):
        calls["remainder"] += 1
        return remainder(self, *args)

    def counting_step(self, *args):
        before = dict(calls)
        out = step(self, *args)
        per_step.append(tuple(calls[k] - before[k] for k in ("synth", "remainder")))
        return out

    monkeypatch.setattr(evolve, "coeffs_to_grid", counting_synth)
    monkeypatch.setattr(evolve._Marcher, "remainder", counting_remainder)
    monkeypatch.setattr(evolve._Marcher, "_step", counting_step)
    return calls, per_step


def test_one_synthesis_per_rhs(two_level, eig1, cfg16, monkeypatch):
    # a step synthesizes twice, the cosine parts of (u, E u, E^2 u) and then
    # the stage-2 kicks, and evaluates the remainder twice, once per stacked
    # pair of RK4 stages (each one RHS evaluation of two stages)
    calls, per_step = _counting_march(monkeypatch)
    evolve_coefficients(two_level, *_march_batch(1e-3), eig1.T, cfg16)
    assert len(per_step) > 2 and set(per_step) == {(2, 2)}
    # outside the steps: one envelope evaluation per constant piece sizes its steps
    assert calls["synth"] == 2 * len(per_step) + two_level.n_levels
    assert calls["remainder"] == 2 * len(per_step) + two_level.n_levels


@pytest.mark.parametrize("fields", (1, 2))
@pytest.mark.parametrize("smooth", (False, True), ids=("constant", "smooth"))
def test_paired_step_matches_reference_step(two_level, eig1, fields, smooth):
    # the stage-paired, closed-form step against the four-evaluation Lawson
    # step on random states of a 3-row batch with distinct means, so that
    # every row turns at its own slowness; smooth stages take three distinct
    # sigmas, so the remainder also carries the sigma variation at x and x + h
    rng = np.random.default_rng(10 * fields + smooth)
    m, rows, h = 16, 3, 0.03
    a0 = 1.0 + 0.1 * rng.random((rows, 1))
    marcher = evolve._Marcher(two_level, eig1.T, EvolutionConfig(M=m), a0)
    a = 1e-2 * rng.normal(size=(fields, rows, m + 1))
    b = 1e-2 * rng.normal(size=(fields, rows, m + 1))
    a[0, :, :1] = a0
    b[..., 0] = 0.0
    if smooth:
        at = marcher.frozen(np.array([1.2, 1.5, 1.9]))
        stages = tuple(evolve._Frozen(*(v[i] for v in at)) for i in range(3))
        pairs = (evolve._Frozen(*(v[:2] for v in at)), evolve._Frozen(*(v[1:] for v in at)))
    else:
        const = marcher.frozen(1.5)
        stages, pairs = (const,) * 3, (const, const)
    s = np.sqrt(-stages[1].vp0)
    turn = marcher._turns(s, h, fields).at_step(0)
    got = marcher._step(a, b, turn, stages[1], pairs)
    half = sl_core.rotation(s, marcher.omega_modes, 0.5 * h)
    ref = reference_lawson_step(marcher, a, b, h, half, stages)
    for g, r in zip(got, ref):
        assert g.shape == r.shape == a.shape
        assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
    # the step moved the state by more than roundoff
    assert np.max(np.abs(got[1] - b)) > 1e-6


def test_explicit_dx_skips_eta(two_level, eig1, monkeypatch):
    # with cfg.dx given, the step count does not depend on eta, so no
    # envelope remainder is evaluated: every synthesis and every remainder
    # call belongs to a step, two of each
    calls, per_step = _counting_march(monkeypatch)
    evolve_coefficients(two_level, *_march_batch(1e-3), eig1.T, EvolutionConfig(M=16, dx=0.05))
    assert len(per_step) == 20 and set(per_step) == {(2, 2)}
    assert calls == {"synth": 40, "remainder": 40}


# -- linearized evolution -------------------------------------------------------------


def test_linearized_quiet_matches_transfer_matrix(two_level, eig1):
    cfg = EvolutionConfig(M=16)
    base = FourierField.constant(eig1.T, 1.0, 16)
    for k in (1, 3, 8):
        Y0 = FourierField.cosine(eig1.T, k, 1.0, m=16)
        Y = linearized_evolve(two_level, base, Y0, cfg)
        psi = fundamental_matrix(two_level, k * 2 * np.pi / eig1.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-8
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-8


def test_quiet_linearization_is_exact_rotation(two_level, eig1):
    # at a quiet base the remainder vanishes: one exact turn per piece
    cfg = EvolutionConfig(M=64)
    base = FourierField.constant(eig1.T, 1.0, 64)
    for k in range(1, 17):
        Y0 = FourierField.cosine(eig1.T, k, 1.0, m=64)
        Y = linearized_evolve(two_level, base, Y0, cfg)
        psi = fundamental_matrix(two_level, k * 2 * np.pi / eig1.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-12
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-12


def test_many_step_quiet_linearization_keeps_the_transfer(two_level, eig1):
    # 4000 steps of the quiet linearization turn each mode by E^2 and add
    # nothing else.  A step adds to every coefficient only its increment
    # (E^2 - I) u, with cos th - 1 = -2 sin^2(th/2), so the rounding stays
    # near 1e-15; a rounded cos th on the diagonal would scale every
    # amplitude by its rounding error on every step, about 4e-13 here
    m = 8
    cfg = EvolutionConfig(M=m, dx=two_level.ell / 4000)
    base = FourierField.constant(eig1.T, 1.0, m)
    for k in (1, 4, 8):
        Y0 = FourierField.cosine(eig1.T, k, 1.0, m=m)
        Y = linearized_evolve(two_level, base, Y0, cfg)
        psi = fundamental_matrix(two_level, k * 2 * np.pi / eig1.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-14 and abs(Y.sin[k] - psi[1, 0]) < 1e-14


def test_linearized_is_linear(two_level, eig1, rng):
    cfg = EvolutionConfig(M=8)
    base = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(
        eig1.T, 1, 1.0, m=8
    )
    Y1 = _rand_field(rng, eig1.T, 8)
    Y2 = _rand_field(rng, eig1.T, 8)
    lhs = linearized_evolve(two_level, base, 2.0 * Y1 + 3.0 * Y2, cfg)
    r1 = linearized_evolve(two_level, base, Y1, cfg)
    r2 = linearized_evolve(two_level, base, Y2, cfg)
    assert np.max(np.abs(lhs.cos - 2 * r1.cos - 3 * r2.cos)) < 1e-11
    assert np.max(np.abs(lhs.sin - 2 * r1.sin - 3 * r2.sin)) < 1e-11


def test_linearized_non_finite_entry_refused(two_level, eig1):
    base = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    cos = FourierField.cosine(eig1.T, 1, 1.0, m=8).cos.copy()
    cos[2] = np.nan
    with pytest.raises(NumericalError, match="non-finite entry"):
        linearized_evolve(two_level, base, FourierField(eig1.T, cos, np.zeros(9)), EvolutionConfig(M=8))


def test_linearized_march_turning_non_finite_refused(two_level, eig1, monkeypatch):
    # a NaN remainder from the third call on (the kicked stage pair (k2, k4)
    # of the first step, both fields) must be caught by the step guard, not
    # surface later as a FourierField domain error
    calls = []
    volume_remainder = GammaLawEos.volume_remainder

    def spoiled(self, x):
        calls.append(1)
        out = volume_remainder(self, x)
        return out * np.nan if len(calls) >= 3 else out

    monkeypatch.setattr(GammaLawEos, "volume_remainder", spoiled)
    base = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    Y0 = FourierField.cosine(eig1.T, 2, 1.0, m=8)
    with pytest.raises(NumericalError, match="non-finite coefficients at x="):
        linearized_evolve(two_level, base, Y0, EvolutionConfig(M=8))
    assert len(calls) == 3  # the eta evaluation and the two stage pairs of one step


def test_smooth_profile_evolution_paths(smooth_jumpy):
    # the smooth-sigma path: quiet state stays a bit-exact fixed point, and
    # the pseudospectral linearization agrees with the adaptive-Prüfer
    # transfer matrix (two fully independent routes through sigma(x))
    eig = eigen_solve(smooth_jumpy, 1)
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig.T, 1.0, 8)
    out = nonlinear_evolve(smooth_jumpy, y0, cfg)
    assert np.array_equal(out.cos, y0.cos)
    assert np.array_equal(out.sin, y0.sin)
    # so is a batch of quiet rows with distinct means (not the tangent: its
    # sigma-variation term is a constant in t, whose cosine coefficients
    # j >= 1 the DFT tables give at 1e-22, not 0)
    a, b = _quiet_batch(8)
    out, _ = evolve_coefficients(smooth_jumpy, a, b, eig.T, cfg)
    assert np.array_equal(out[0], a) and np.array_equal(out[1], b)
    for k in (1, 2):
        Y0 = FourierField.cosine(eig.T, k, 1.0, m=8)
        Y = linearized_evolve(smooth_jumpy, y0, Y0, cfg)
        psi = fundamental_matrix(smooth_jumpy, k * 2 * np.pi / eig.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-8
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-8


def test_boundary_of_linearized_reproduces_divisors(two_level, eig1):
    # S applied to the quiet linearized evolution of the cosine j-mode gives
    # exactly the divisor table entries
    cfg = EvolutionConfig(M=12)
    base = FourierField.constant(eig1.T, 1.0, 12)
    table = divisors(two_level, eig1.T, 1, 12)
    for j in range(1, 13):
        Yj = FourierField.cosine(eig1.T, j, 1.0, m=12)
        out = boundary_operator(linearized_evolve(two_level, base, Yj, cfg), 1)
        assert abs(out.sin[j] - table.delta[j - 1]) < 1e-9


def test_directional_derivative_consistency(two_level, eig1):
    # (E(y0 + eps Y) - E(y0))/eps -> DE(y0)[Y], first order in eps,
    # along a genuinely nonquiet base
    cfg = EvolutionConfig(M=12)
    base = FourierField.constant(eig1.T, 1.0, 12) + 2e-2 * FourierField.cosine(
        eig1.T, 1, 1.0, m=12
    )
    Y0 = FourierField.cosine(eig1.T, 2, 1.0, m=12)
    DY = linearized_evolve(two_level, base, Y0, cfg)
    errs = []
    for eps in (1e-4, 5e-5):
        pert = nonlinear_evolve(two_level, base + eps * Y0, cfg)
        ref = nonlinear_evolve(two_level, base, cfg)
        d_cos = (pert.cos - ref.cos) / eps - DY.cos
        d_sin = (pert.sin - ref.sin) / eps - DY.sin
        errs.append(np.max(np.abs(np.concatenate([d_cos, d_sin]))))
    assert 1.8 < errs[0] / errs[1] < 2.2


# -- second derivative at the quiet state ----------------------------------------------


def test_duhamel_b_negative_random_profiles(rng, gamma2):
    from _oracles import random_pwc

    for _ in range(20):
        prof = random_pwc(rng, pbar=1.0, eos=gamma2)
        k = int(rng.integers(1, 4))
        d2 = second_derivative_quiet(prof, k, 1)
        assert d2.b_ell < 0.0
        assert d2.pairing != 0.0


def test_duhamel_vs_spectral_paths(two_level):
    for k, chi in ((1, 1), (2, 1), (2, 0)):
        d2a = second_derivative_quiet(two_level, k, chi)
        d2b = second_derivative_quiet_spectral(two_level, k, chi)
        assert abs(d2a.pairing - d2b.pairing) < 1e-7 * max(1.0, abs(d2a.pairing))
        assert abs(d2a.phi_hat - d2b.phi_hat) < 1e-7
        assert abs(d2a.psi_hat - d2b.psi_hat) < 1e-7


def test_duhamel_vs_spectral_smooth(smooth_jumpy):
    d2a = second_derivative_quiet(smooth_jumpy, 1, 1)
    d2b = second_derivative_quiet_spectral(smooth_jumpy, 1, 1)
    assert d2a.b_ell < 0.0
    assert abs(d2a.pairing - d2b.pairing) < 1e-6 * max(1.0, abs(d2a.pairing))


def test_second_derivative_matches_dense_duhamel(two_level, smooth_ramp, smooth_jumpy, gamma2, rng):
    # closed form (constant pieces) and Simpson on Magnus states (smooth pieces)
    # against fixed-step RK4 of the joint (Psi, a, b) system at 0.002 rad
    from _oracles import dense_second_derivative, random_pwc
    from puretone.profile import SmoothPiece, SmoothProfile

    cases = [(two_level, k, chi, 1e-11) for k in (1, 2, 3) for chi in (0, 1) if chi or k % 2 == 0]
    for _ in range(10):
        cases.append((random_pwc(rng, pbar=1.0, eos=gamma2), int(rng.integers(1, 4)), 1, 1e-11))
    # a gently varying piece: the Magnus rule alone would take few steps
    x = np.linspace(0.0, 1.0, 33)
    gentle = SmoothProfile((SmoothPiece(x, 1.0 + 0.01 * x),), pbar=1.0, eos=gamma2)
    cases += [(prof, k, 1, 1e-10) for prof in (smooth_ramp, smooth_jumpy, gentle) for k in (1, 4)]
    refs = [dense_second_derivative(prof, gamma2, k, chi, 0.002) for prof, k, chi, _ in cases]
    # constant samples: the Magnus rule takes one step per interval, the
    # closed form of the equal constant profile is the reference
    flat = SmoothProfile((SmoothPiece(np.linspace(0.0, 1.0, 17), np.full(17, 1.7)),), pbar=1.0, eos=gamma2)
    level = PiecewiseConstantProfile([1.7], [1.0], pbar=1.0, eos=gamma2)
    for k in (1, 4):
        cases.append((flat, k, 1, 1e-10))
        refs.append(second_derivative_quiet(level, k, 1))
    for (prof, k, chi, tol), ref in zip(cases, refs):
        got = second_derivative_quiet(prof, k, chi)
        for name in ("pairing", "phi_hat", "psi_hat", "a_ell", "b_ell"):
            want = getattr(ref, name)
            assert abs(getattr(got, name) - want) <= tol * max(1.0, abs(want)), (k, chi, name)


def test_pairing_identity_with_fundamental(two_level):
    # at the eigenfrequency, phi(ell) = 0 (k odd) so phi_hat = phi_tilde * b
    d2 = second_derivative_quiet(two_level, 1, 1)
    psi_mat = d2.fundamental
    assert abs(psi_mat[0, 0]) < 1e-9  # phi(ell)
    assert_allclose(d2.phi_hat, psi_mat[0, 1] * d2.b_ell, rtol=1e-9)
    # pairing for k = 1, chi = 1 is -phi_hat
    assert_allclose(d2.pairing, -d2.phi_hat, rtol=1e-14)


# -- the quiet second variation J1 -----------------------------------------------------

# today's pairing of the two-level profile, chi = 1, from the one-frequency
# Duhamel path that the banded table replaced: k = 1 and k = 2
PAIRING_TWO_LEVEL = {1: -1.0660421264448023, 2: -3.5219436871492227}


def _j1_band(k, m):
    band = np.zeros((m, m + 1), dtype=bool)
    for i in range(m + 1):
        for j in (i + k, abs(i - k)):
            if i != k and 1 <= j <= m:
                band[j - 1, i] = True
    return band


@pytest.mark.parametrize("k", [1, 2])
def test_j1_z_column_and_band(two_level, k):
    # the z column is the quiet pairing, and J1 is exactly zero off the band
    # j = i +- k of cos(k t') cos(i t')
    m = 16
    table = quiet_second_variation(two_level, k, 1, eigen_solve(two_level, k).T, m)
    band = _j1_band(k, m)
    assert np.all(table[~band] == 0.0)
    assert np.all(table[band] != 0.0)
    z = table[:, 0]
    assert_allclose(z[k - 1], PAIRING_TWO_LEVEL[k], rtol=1e-13)
    assert_allclose(z[k - 1], second_derivative_quiet(two_level, k, 1).pairing, rtol=1e-13)


@pytest.mark.parametrize("name, k", [("two_level", 1), ("two_level", 2), ("smooth_jumpy", 1)])
def test_j1_closed_form_against_spectral_march(name, k, request):
    # the Duhamel table against the pseudospectral march of (Y_k, Y_i, Z),
    # which shares neither its SL algebra nor its quadrature
    prof = request.getfixturevalue(name)
    m = 8
    T = eigen_solve(prof, k).T
    table = quiet_second_variation(prof, k, 1, T, m)
    cfg = EvolutionConfig(M=m, k_accuracy=m, x_error_target=1e-10)
    ref = second_variation_spectral(prof, k, 1, T, cfg)
    scale = np.max(np.abs(table))
    assert np.max(np.abs(table - ref)) < 1e-10 * scale  # measured 2e-13 to 1.1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_j1_flat_smooth_piece_matches_the_constant_closed_form(gamma2, k):
    # on constant samples the Magnus rule takes its lowest level, yet the
    # integrands still turn at (k + i + j) Omega sigma; the smooth table must
    # keep its own quadrature bound to meet the closed form of the equal level
    # (measured 1.9e-12 at max |J1| = 16; the Magnus grid alone is 0.36 off)
    from puretone.profile import SmoothPiece, SmoothProfile

    flat = SmoothProfile((SmoothPiece(np.linspace(0.0, 1.0, 17), np.full(17, 1.7)),), pbar=1.0, eos=gamma2)
    level = PiecewiseConstantProfile([1.7], [1.0], pbar=1.0, eos=gamma2)
    T = eigen_solve(level, k).T
    ref = quiet_second_variation(level, k, 1, T, 32)
    table = quiet_second_variation(flat, k, 1, T, 32)
    assert np.max(np.abs(table - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name, k", [("two_level", 1), ("two_level", 2), ("smooth_jumpy", 2)])
def test_j1_against_fd_jacobian(name, k, request, gamma2):
    # (J(alpha) - J(0)) / alpha from central differences of the boundary map is
    # J1 + O(alpha) on the band: its error falls at least with alpha, and the
    # Richardson combination meets the table
    from puretone.bifurcate import BifurcationProblem

    prof = request.getfixturevalue(name)
    problem = BifurcationProblem(profile=prof, eos=gamma2, k=k, cfg=EvolutionConfig(M=8))
    table = problem.second_variation()
    band = _j1_band(k, 8)
    fd = {alpha: second_variation_fd(problem, alpha) for alpha in (1e-3, 5e-4)}
    scale = np.max(np.abs(table))
    errs = [np.max(np.abs(fd[alpha] - table)[band]) / scale for alpha in (1e-3, 5e-4)]
    assert errs[0] < 0.2 * 1e-3  # measured 7.9e-6 to 8.4e-5
    assert errs[0] / errs[1] > 1.8  # 2 where the O(alpha) term is on the band, else 4
    richardson = 2.0 * fd[5e-4] - fd[1e-3]
    assert np.max(np.abs(richardson - table)[band]) < 2e-5 * scale  # measured 1.3e-6 to 4.6e-6


# -- weighted norm ---------------------------------------------------------------------


def test_weighted_norm_single_mode():
    table = DivisorTable(T=4.0, chi=1, delta=np.array([0.5, 0.25, 2.0, 1.0]))
    sines = np.array([0.0, 3.0, 0.0, 0.0])  # single j = 2 mode
    val = weighted_norm(sines, table, k=1)
    assert_allclose(val, 3.0 * 2**3 / 0.25, rtol=1e-14)


def test_weighted_norm_zero_field(two_level, eig1):
    table = divisors(two_level, eig1.T, 1, 8)
    assert weighted_norm(np.zeros(8), table, k=1) == 0.0


def test_weighted_norm_dominates_hb(two_level, eig1, rng):
    table = divisors(two_level, eig1.T, 1, 16)
    c_delta = np.max(np.abs(table.delta))
    for _ in range(20):
        sines = rng.normal(size=16)
        wn = weighted_norm(sines, table, k=1)
        js = np.arange(1, 17)
        hb = np.sqrt(np.sum(sines**2 * js**6))
        assert hb <= max(1.0, c_delta) * wn * (1 + 1e-12)


def test_weighted_norm_resonance_error():
    table = DivisorTable(T=4.0, chi=1, delta=np.array([0.5, 0.0, 2.0]))
    with pytest.raises(ResonanceError):
        weighted_norm(np.array([0.1, 0.1, 0.1]), table, k=1)


def test_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(M=0)
    with pytest.raises(DomainError):
        EvolutionConfig(M=8, n_quad=16)  # below 4*M
    cfg = EvolutionConfig(M=8)
    assert cfg.resolved_n_quad() == 32


@pytest.mark.parametrize(
    "knobs",
    [
        {"dx": -0.1},
        {"dx": 0.0},
        {"dx": float("nan")},
        {"x_error_target": 0.0},
        {"x_error_target": -1e-9},
        {"k_accuracy": 0},
        {"k_accuracy": -2},
    ],
)
def test_config_rejects_invalid_knobs(knobs):
    with pytest.raises(DomainError):
        EvolutionConfig(M=8, **knobs)
