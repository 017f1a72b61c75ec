import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    boundary_operator,
    fft_grid_to_coeffs,
    project_even,
    project_odd,
    second_derivative_quiet_spectral,
    shift,
)
from puretone.eos import GammaLawEos
from puretone.errors import DomainError, NumericalError, ResonanceError, ShockProximityError
from puretone.profile import PiecewiseConstantProfile, reversed_profile
from puretone.sl_core import fundamental_matrix
from puretone.spectrum import DivisorTable, divisors, eigen_solve
from puretone import evolve
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    coeffs_to_grid,
    evolve_coefficients,
    linearized_evolve,
    nonlinear_evolve,
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
def test_march_rate_matrix_matches_fft(two_level, gamma2, eig1, m):
    # the remainders' one analysis product: -j Omega times the cosine coefficients
    rng = np.random.default_rng(m)
    for n in (4 * m, 4 * m + 3):
        cfg = EvolutionConfig(M=m, n_quad=n)
        marcher = evolve._Marcher(two_level, gamma2, eig1.T, cfg, np.array([1.0]))
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


def test_quiet_state_exact_fixed_point(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16)
    out = nonlinear_evolve(two_level, gamma2, y0, cfg16)
    assert np.array_equal(out.cos, y0.cos)
    assert np.array_equal(out.sin, y0.sin)


def test_mean_conserved_along_trajectory(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 1e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    out, snaps = nonlinear_evolve(
        two_level, gamma2, y0, cfg16, x_nodes=np.linspace(0, 1, 11)
    )
    means = [f.cos[0] for f in snaps]
    assert np.all(np.array(means) == means[0])


def test_reflect_evolve_round_trip(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 1e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    mid = nonlinear_evolve(two_level, gamma2, y0, cfg16)
    refl = FourierField(mid.T, mid.cos, -mid.sin)
    back = nonlinear_evolve(reversed_profile(two_level), gamma2, refl, cfg16)
    assert np.max(np.abs(back.cos - y0.cos)) < 1e-10
    assert np.max(np.abs(back.sin)) < 1e-10  # y0 even: reflected return is itself


def test_linearization_limit_richardson(two_level, gamma2, eig1, cfg16):
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
        out = nonlinear_evolve(two_level, gamma2, y0, cfg16)
        d_cos = (out.cos - base.cos) / eps - lin_cos
        d_sin = out.sin / eps - lin_sin
        errs.append(np.max(np.abs(np.concatenate([d_cos, d_sin]))))
    ratio = errs[0] / errs[1]
    assert 1.9 < ratio < 2.1


def test_composition_consistency(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 16) + 5e-3 * FourierField.cosine(
        eig1.T, 1, 1.0, m=16
    )
    whole = nonlinear_evolve(two_level, gamma2, y0, cfg16)
    left = PiecewiseConstantProfile([1.0], [0.3], pbar=1.0, eos=gamma2)
    right = PiecewiseConstantProfile([1.0, 2.0], [0.2, 0.5], pbar=1.0, eos=gamma2)
    mid = nonlinear_evolve(left, gamma2, y0, cfg16)
    out = nonlinear_evolve(right, gamma2, mid, cfg16)
    assert np.max(np.abs(out.cos - whole.cos)) < 1e-9
    assert np.max(np.abs(out.sin - whole.sin)) < 1e-9


def test_positivity_guard(two_level, gamma2, eig1):
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1.5 * FourierField.cosine(
        eig1.T, 1, 1.0, m=8
    )
    with pytest.raises(ShockProximityError):
        nonlinear_evolve(two_level, gamma2, y0, cfg)


def test_gradient_guard_triggers_near_shock(gamma2):
    # strong data over a long isentropic run steepens toward a shock: the
    # gradient bound passes 10x its entry value near x = 15 of 40, while the
    # pressure is still positive
    prof = PiecewiseConstantProfile([1.0], [40.0], pbar=1.0, eos=gamma2)
    cfg = EvolutionConfig(M=24)
    y0 = FourierField.constant(8.0, 1.0, 24) + 0.2 * FourierField.cosine(8.0, 1, 1.0, m=24)
    with pytest.raises(ShockProximityError, match="time-gradient"):
        nonlinear_evolve(prof, gamma2, y0, cfg)


def test_non_finite_entry_data_refused(two_level, gamma2, eig1):
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    cos = y0.cos.copy()
    cos[3] = np.nan
    bad = FourierField(eig1.T, cos, y0.sin)
    with pytest.raises(NumericalError):
        nonlinear_evolve(two_level, gamma2, bad, EvolutionConfig(M=8))


def test_march_turning_non_finite_refused(two_level, gamma2, eig1, monkeypatch):
    # a NaN remainder from the third call on (inside the first step) passes the
    # positivity check, since NaN <= 0 is false; the step guard must catch it
    calls = []
    volume_remainder = GammaLawEos.volume_remainder

    def spoiled(self, x):
        calls.append(1)
        out = volume_remainder(self, x)
        return out * np.nan if len(calls) >= 3 else out

    monkeypatch.setattr(GammaLawEos, "volume_remainder", spoiled)
    y0 = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    with pytest.raises(NumericalError):
        nonlinear_evolve(two_level, gamma2, y0, EvolutionConfig(M=8))
    assert len(calls) == 5  # the eta evaluation and the four stages of one step


def test_cutoff_mismatch_rejected(two_level, gamma2, eig1, cfg16):
    y0 = FourierField.constant(eig1.T, 1.0, 8)
    with pytest.raises(DomainError):
        nonlinear_evolve(two_level, gamma2, y0, cfg16)


def test_spectral_convergence_under_mode_doubling(two_level, gamma2, eig1):
    # terminal-state discrepancy vs a fine reference shrinks faster than
    # any fixed power when M doubles
    amp = 0.05
    outs = {}
    for m in (8, 16, 48):
        cfg = EvolutionConfig(M=m, dx=2e-4)
        y0 = FourierField.constant(eig1.T, 1.0, m) + amp * FourierField.cosine(
            eig1.T, 1, 1.0, m=m
        )
        outs[m] = nonlinear_evolve(two_level, gamma2, y0, cfg)
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


def test_default_march_matches_dense_oracle(two_level, gamma2, eig1, cfg16, dense_oracle):
    a, b = _march_batch(1e-3)
    ref = dense_oracle[1e-3]
    out, _ = evolve_coefficients(two_level, gamma2, a, b, eig1.T, cfg16)
    assert _march_error(out, ref) < 1e-11
    # a row marched alone sizes its own steps
    for i in range(a.shape[0]):
        row, _ = evolve_coefficients(two_level, gamma2, a[i], b[i], eig1.T, cfg16)
        assert _march_error(row, (ref[0][i], ref[1][i])) < 1e-11


def test_lawson_step_is_fourth_order(two_level, gamma2, eig1, dense_oracle):
    errs = []
    for n in (16, 32, 64):
        cfg = EvolutionConfig(M=16, dx=two_level.ell / n)
        out, _ = evolve_coefficients(two_level, gamma2, *_march_batch(1e-2), eig1.T, cfg)
        errs.append(_march_error(out, dense_oracle[1e-2]))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_one_synthesis_per_rhs(two_level, gamma2, eig1, cfg16, monkeypatch):
    # each RHS evaluation synthesizes the grid once through the module-level
    # coeffs_to_grid, so counting its calls counts RHS evaluations
    calls = []
    synth = evolve.coeffs_to_grid

    def counting_synth(a, b, n):
        calls.append(n)
        return synth(a, b, n)

    per_step = []
    step = evolve._Marcher._step

    def counting_step(*args):
        before = len(calls)
        out = step(*args)
        per_step.append(len(calls) - before)
        return out

    monkeypatch.setattr(evolve, "coeffs_to_grid", counting_synth)
    monkeypatch.setattr(evolve._Marcher, "_step", staticmethod(counting_step))
    evolve_coefficients(two_level, gamma2, *_march_batch(1e-3), eig1.T, cfg16)
    assert len(per_step) > 2 and set(per_step) == {4}
    # outside the steps: one envelope evaluation per constant piece sizes its steps
    assert len(calls) == 4 * len(per_step) + two_level.n_levels


def test_explicit_dx_skips_eta(two_level, gamma2, eig1, monkeypatch):
    # with cfg.dx given, the step count does not depend on eta, so no
    # envelope remainder is evaluated: every synthesis belongs to a step
    calls = []
    synth = evolve.coeffs_to_grid

    def counting_synth(a, b, n):
        calls.append(n)
        return synth(a, b, n)

    steps = []
    step = evolve._Marcher._step

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(evolve, "coeffs_to_grid", counting_synth)
    monkeypatch.setattr(evolve._Marcher, "_step", staticmethod(counting_step))
    evolve_coefficients(two_level, gamma2, *_march_batch(1e-3), eig1.T, EvolutionConfig(M=16, dx=0.05))
    assert len(steps) == 20
    assert len(calls) == 4 * len(steps)


# -- linearized evolution -------------------------------------------------------------


def test_linearized_quiet_matches_transfer_matrix(two_level, gamma2, eig1):
    cfg = EvolutionConfig(M=16)
    base = FourierField.constant(eig1.T, 1.0, 16)
    for k in (1, 3, 8):
        Y0 = FourierField.cosine(eig1.T, k, 1.0, m=16)
        Y = linearized_evolve(two_level, gamma2, base, Y0, cfg)
        psi = fundamental_matrix(two_level, k * 2 * np.pi / eig1.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-8
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-8


def test_quiet_linearization_is_exact_rotation(two_level, gamma2, eig1):
    # at a quiet base the remainder vanishes: one exact turn per piece
    cfg = EvolutionConfig(M=64)
    base = FourierField.constant(eig1.T, 1.0, 64)
    for k in range(1, 17):
        Y0 = FourierField.cosine(eig1.T, k, 1.0, m=64)
        Y = linearized_evolve(two_level, gamma2, base, Y0, cfg)
        psi = fundamental_matrix(two_level, k * 2 * np.pi / eig1.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-12
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-12


def test_linearized_is_linear(two_level, gamma2, eig1, rng):
    cfg = EvolutionConfig(M=8)
    base = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(
        eig1.T, 1, 1.0, m=8
    )
    Y1 = _rand_field(rng, eig1.T, 8)
    Y2 = _rand_field(rng, eig1.T, 8)
    lhs = linearized_evolve(two_level, gamma2, base, 2.0 * Y1 + 3.0 * Y2, cfg)
    r1 = linearized_evolve(two_level, gamma2, base, Y1, cfg)
    r2 = linearized_evolve(two_level, gamma2, base, Y2, cfg)
    assert np.max(np.abs(lhs.cos - 2 * r1.cos - 3 * r2.cos)) < 1e-11
    assert np.max(np.abs(lhs.sin - 2 * r1.sin - 3 * r2.sin)) < 1e-11


def test_linearized_non_finite_entry_refused(two_level, gamma2, eig1):
    base = FourierField.constant(eig1.T, 1.0, 8) + 1e-2 * FourierField.cosine(eig1.T, 1, 1.0, m=8)
    cos = FourierField.cosine(eig1.T, 1, 1.0, m=8).cos.copy()
    cos[2] = np.nan
    with pytest.raises(NumericalError, match="non-finite entry"):
        linearized_evolve(two_level, gamma2, base, FourierField(eig1.T, cos, np.zeros(9)), EvolutionConfig(M=8))


def test_linearized_march_turning_non_finite_refused(two_level, gamma2, eig1, monkeypatch):
    # a NaN remainder from the third call on (inside the first step) must be
    # caught by the step guard, not surface later as a FourierField domain error
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
        linearized_evolve(two_level, gamma2, base, Y0, EvolutionConfig(M=8))
    assert len(calls) == 5  # the eta evaluation and the four stages of one step


def test_smooth_profile_evolution_paths(smooth_jumpy, gamma2):
    # the smooth-sigma path: quiet state stays a bit-exact fixed point, and
    # the pseudospectral linearization agrees with the adaptive-Prüfer
    # transfer matrix (two fully independent routes through sigma(x))
    eig = eigen_solve(smooth_jumpy, 1)
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig.T, 1.0, 8)
    out = nonlinear_evolve(smooth_jumpy, gamma2, y0, cfg)
    assert np.array_equal(out.cos, y0.cos)
    assert np.array_equal(out.sin, y0.sin)
    for k in (1, 2):
        Y0 = FourierField.cosine(eig.T, k, 1.0, m=8)
        Y = linearized_evolve(smooth_jumpy, gamma2, y0, Y0, cfg)
        psi = fundamental_matrix(smooth_jumpy, k * 2 * np.pi / eig.T)
        assert abs(Y.cos[k] - psi[0, 0]) < 1e-8
        assert abs(Y.sin[k] - psi[1, 0]) < 1e-8


def test_boundary_of_linearized_reproduces_divisors(two_level, gamma2, eig1):
    # S applied to the quiet linearized evolution of the cosine j-mode gives
    # exactly the divisor table entries
    cfg = EvolutionConfig(M=12)
    base = FourierField.constant(eig1.T, 1.0, 12)
    table = divisors(two_level, eig1.T, 1, 12)
    for j in range(1, 13):
        Yj = FourierField.cosine(eig1.T, j, 1.0, m=12)
        out = boundary_operator(linearized_evolve(two_level, gamma2, base, Yj, cfg), 1)
        assert abs(out.sin[j] - table.delta[j - 1]) < 1e-9


def test_directional_derivative_consistency(two_level, gamma2, eig1):
    # (E(y0 + eps Y) - E(y0))/eps -> DE(y0)[Y], first order in eps,
    # along a genuinely nonquiet base
    cfg = EvolutionConfig(M=12)
    base = FourierField.constant(eig1.T, 1.0, 12) + 2e-2 * FourierField.cosine(
        eig1.T, 1, 1.0, m=12
    )
    Y0 = FourierField.cosine(eig1.T, 2, 1.0, m=12)
    DY = linearized_evolve(two_level, gamma2, base, Y0, cfg)
    errs = []
    for eps in (1e-4, 5e-5):
        pert = nonlinear_evolve(two_level, gamma2, base + eps * Y0, cfg)
        ref = nonlinear_evolve(two_level, gamma2, base, cfg)
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
        d2 = second_derivative_quiet(prof, gamma2, k, 1)
        assert d2.b_ell < 0.0
        assert d2.pairing != 0.0


def test_duhamel_vs_spectral_paths(two_level, gamma2):
    for k, chi in ((1, 1), (2, 1), (2, 0)):
        d2a = second_derivative_quiet(two_level, gamma2, k, chi)
        d2b = second_derivative_quiet_spectral(two_level, gamma2, k, chi)
        assert abs(d2a.pairing - d2b.pairing) < 1e-7 * max(1.0, abs(d2a.pairing))
        assert abs(d2a.phi_hat - d2b.phi_hat) < 1e-7
        assert abs(d2a.psi_hat - d2b.psi_hat) < 1e-7


def test_duhamel_vs_spectral_smooth(smooth_jumpy, gamma2):
    d2a = second_derivative_quiet(smooth_jumpy, gamma2, 1, 1)
    d2b = second_derivative_quiet_spectral(smooth_jumpy, gamma2, 1, 1)
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
        refs.append(second_derivative_quiet(level, gamma2, k, 1))
    for (prof, k, chi, tol), ref in zip(cases, refs):
        got = second_derivative_quiet(prof, gamma2, k, chi)
        for name in ("pairing", "phi_hat", "psi_hat", "a_ell", "b_ell"):
            want = getattr(ref, name)
            assert abs(getattr(got, name) - want) <= tol * max(1.0, abs(want)), (k, chi, name)


def test_pairing_identity_with_fundamental(two_level, gamma2):
    # at the eigenfrequency, phi(ell) = 0 (k odd) so phi_hat = phi_tilde * b
    d2 = second_derivative_quiet(two_level, gamma2, 1, 1)
    psi_mat = d2.fundamental
    assert abs(psi_mat[0, 0]) < 1e-9  # phi(ell)
    assert_allclose(d2.phi_hat, psi_mat[0, 1] * d2.b_ell, rtol=1e-9)
    # pairing for k = 1, chi = 1 is -phi_hat
    assert_allclose(d2.pairing, -d2.phi_hat, rtol=1e-14)


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
