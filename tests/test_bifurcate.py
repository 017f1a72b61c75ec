import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import residual
from puretone.errors import ResonanceError, SolverError
from puretone.eos import GammaLawEos
from puretone.profile import PiecewiseConstantProfile, constant_profile
from puretone.spectrum import divisors, eigen_solve
from puretone.evolve import EvolutionConfig, second_derivative_quiet
from puretone.bifurcate import (
    BifurcationProblem,
    branch_continue,
    dgdz_check,
    solve_at_alpha,
)

# golden values from the first converged solve at these exact settings
# (two-level profile, k = 1, chi = 1, M = 16, n_quad = 64, k_accuracy = 6)
GOLD_Z = -2.3519457218335364e-07
GOLD_A2 = 2.0070365618452245e-06
GOLD_A3 = 3.5610485946344754e-09


@pytest.fixture()
def problem(two_level, gamma2):
    cfg = EvolutionConfig(M=16, n_quad=64, k_accuracy=6)
    return BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1, cfg=cfg)


@pytest.fixture()
def quick_problem(two_level, gamma2):
    cfg = EvolutionConfig(M=8, n_quad=32, k_accuracy=4)
    return BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1, cfg=cfg)


def test_m_doubling_regates_the_doubled_cutoff(two_level, gamma2, monkeypatch):
    # at alpha 1e-2 the M = 4 tail is large, so the solve doubles M once; the
    # resonance gate must then cover the new divisors j in (4, 8] too
    from puretone import bifurcate

    gated = []
    scan = bifurcate._spectrum.resonance_scan

    def recording_scan(*args, **kwargs):
        gated.append(kwargs["j_max"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(bifurcate._spectrum, "resonance_scan", recording_scan)
    problem = BifurcationProblem(
        profile=two_level, eos=gamma2, k=1, chi=1, cfg=EvolutionConfig(M=4, k_accuracy=4)
    )
    sol = solve_at_alpha(problem, 1e-2)
    assert sol.M == problem.cfg.M == 8
    assert sol.converged
    assert gated == [4, 8]


def test_m_doubling_raises_explicit_n_quad(two_level, gamma2):
    # an explicit n_quad = 4 M is raised with M on doubling, so the solve
    # matches the one with n_quad left to its default
    def solve(n_quad):
        cfg = EvolutionConfig(M=4, n_quad=n_quad)
        problem = BifurcationProblem(profile=two_level, eos=gamma2, k=1, cfg=cfg)
        return problem, solve_at_alpha(problem, 1e-3)

    problem, sol = solve(16)
    _, ref = solve(None)
    assert sol.M == ref.M == 8
    assert problem.cfg.n_quad == 32
    assert sol.z == ref.z and np.array_equal(sol.a, ref.a)


def test_alpha_zero_trivial(problem):
    sol = solve_at_alpha(problem, 0.0)
    assert sol.z == 0.0
    assert np.all(sol.a == 0.0)
    assert sol.newton_iters == 0
    assert sol.converged


def test_quiet_family_residual_exact(problem):
    # quiet states at shifted pressure solve exactly: r(z, 0, 0) = 0
    m = problem.cfg.M
    for z in (0.0, 1e-3, -2e-2):
        r = residual(problem, z, np.zeros(m + 1), 0.0)
        assert np.all(r == 0.0)


def test_first_order_response_matches_divisors(problem, two_level):
    # d r_j / d a_j at the origin is the divisor delta_j (Richardson in eps)
    eig = problem.eigen()
    table = divisors(two_level, eig.T, 1, problem.cfg.M)
    m = problem.cfg.M
    for j in (2, 5):
        errs = []
        for eps in (1e-5, 5e-6):
            a = np.zeros(m + 1)
            a[j] = eps
            r = residual(problem, 0.0, a, 0.0)
            errs.append(abs(r[j - 1] / eps - table.delta[j - 1]))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0]


def test_solve_regression_golden(problem):
    sol = solve_at_alpha(problem, 1e-3)
    assert sol.converged
    assert sol.residual_weighted < 1e-10
    assert_allclose(sol.z, GOLD_Z, rtol=1e-6)
    assert_allclose(sol.a[2], GOLD_A2, rtol=1e-6)
    assert_allclose(sol.a[3], GOLD_A3, rtol=1e-4)
    assert sol.pbar_effective == sol.pbar + sol.z
    assert sol.diagnostics["bifurcation_residual"] < 1e-12


def test_tight_tolerance_converges(two_level, gamma2):
    # the cancellation-free march remainder leaves no floor near 1e-12
    problem = BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1, newton_tol=1e-12)
    for alpha in (1e-4, 1e-3):
        sol = solve_at_alpha(problem, alpha)
        assert sol.converged
        assert sol.residual_weighted < 1e-12


def test_small_amplitude_pins_z_at_mean_resolution(two_level, gamma2):
    # at alpha 1e-5 z ~ 2e-11 moves the stored mean pbar + z by whole ulps,
    # so the z-step stop must accept steps of that size
    problem = BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1)
    ref = solve_at_alpha(problem, 1e-4)
    sol = solve_at_alpha(problem, 1e-5)
    assert sol.converged
    assert sol.residual_weighted < problem.newton_tol
    assert_allclose(sol.z / 1e-5**2, ref.z / 1e-4**2, rtol=1e-3)


def test_default_branch_at_large_mean(gamma2):
    # pbar = 10 puts alpha / pbar = 1e-5 at the start of the default schedule
    prof = PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5], pbar=10.0, eos=gamma2)
    problem = BifurcationProblem(profile=prof, eos=gamma2, k=1, chi=1)
    branch = branch_continue(problem)
    assert branch.failure is None
    assert len(branch.solutions) == len(branch.alphas_requested) == 4
    ratios = [sol.z / sol.alpha**2 for sol in branch.solutions]
    assert_allclose(ratios, ratios[-1], rtol=1e-3)


def test_default_branch_keeps_quiet_chord(two_level, gamma2):
    # the quiet Jacobian contracts on the default schedule: no FD refresh
    problem = BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1)
    branch = branch_continue(problem)
    assert branch.failure is None
    for sol in branch.solutions:
        assert sol.diagnostics["refreshes"] == 0
        assert 0.0 < sol.diagnostics["contraction"] < 0.5
        # one single-row evolution per chord iteration
        assert sol.diagnostics["evolutions"] == sol.newton_iters


def test_chord_refresh_at_large_alpha(two_level, gamma2):
    # k = 2 at alpha 5e-2: the quiet chord stalls and one FD Jacobian rescues it
    problem = BifurcationProblem(profile=two_level, eos=gamma2, k=2, chi=1)
    sol = solve_at_alpha(problem, 5e-2)
    assert sol.converged
    assert sol.residual_weighted < problem.newton_tol
    assert sol.diagnostics["refreshes"] >= 1
    assert sol.diagnostics["contraction"] > 0.5


def test_quadratic_amplitude_scaling(quick_problem):
    sol_a = solve_at_alpha(quick_problem, 1e-3)
    sol_b = solve_at_alpha(quick_problem, 5e-4)
    assert 3.5 < sol_a.z / sol_b.z < 4.5
    assert 3.5 < np.max(np.abs(sol_a.a)) / np.max(np.abs(sol_b.a)) < 4.5


def test_auxiliary_smallness(quick_problem):
    # max_j |a_j| / alpha shrinks with alpha (the W = o(alpha) estimate)
    fracs = []
    for alpha in (1e-3, 2.5e-4):
        sol = solve_at_alpha(quick_problem, alpha)
        fracs.append(np.max(np.abs(sol.a)) / alpha)
    assert fracs[1] < fracs[0] / 2.0


def test_branch_continuation(quick_problem):
    branch = branch_continue(quick_problem, alphas=(1e-4, 2e-4, 5e-4))
    assert branch.failure is None
    assert len(branch.solutions) == 3
    assert branch.largest_alpha == 5e-4
    assert all(s.converged for s in branch.solutions)
    # warm-started branch is deterministic
    branch2 = branch_continue(quick_problem, alphas=(1e-4, 2e-4, 5e-4))
    for s1, s2 in zip(branch.solutions, branch2.solutions):
        assert s1.z == s2.z
        assert np.array_equal(s1.a, s2.a)


def test_branch_schedule_validation(quick_problem):
    with pytest.raises(SolverError):
        branch_continue(quick_problem, alphas=(1e-3, 1e-4))


def test_resonant_profile_refused(gamma2):
    prof = constant_profile(1.0, 1.0, pbar=1.0, eos=gamma2)
    problem = BifurcationProblem(
        profile=prof, eos=gamma2, k=1, chi=1, cfg=EvolutionConfig(M=8, n_quad=32)
    )
    with pytest.raises(ResonanceError):
        problem.validate()
    with pytest.raises(ResonanceError):
        solve_at_alpha(problem, 1e-4)


def test_k3_two_level_also_refused(two_level, gamma2):
    # omega_6 = 2 omega_3 exactly: the k = 3 mode is resonant
    problem = BifurcationProblem(
        profile=two_level, eos=gamma2, k=3, chi=1, cfg=EvolutionConfig(M=8, n_quad=32)
    )
    with pytest.raises(ResonanceError):
        problem.validate()


def test_dgdz_dual_path(problem):
    chk = dgdz_check(problem)
    assert chk.rel_diff < 1e-4
    assert chk.sign_match
    assert chk.b_ell < 0.0
    # k odd, chi = 1: pairing reduces to -phi_hat
    assert_allclose(chk.pairing, -chk.phi_hat, rtol=1e-12)


def test_pairing_scales_linearly_in_vpp(two_level):
    # gamma-law with matched sigma: v_pp = (1/gamma + 1) sigma^2 / pbar,
    # so the pairing scales by (1/5 + 1)/(1/2 + 1) = 0.8 between gamma 2 and 5
    d2_gamma2 = second_derivative_quiet(two_level, GammaLawEos(2.0), 1, 1)
    prof5 = PiecewiseConstantProfile(
        two_level.sigma_levels, two_level.widths, pbar=1.0, eos=GammaLawEos(5.0)
    )
    d2_gamma5 = second_derivative_quiet(prof5, GammaLawEos(5.0), 1, 1)
    assert_allclose(d2_gamma5.pairing / d2_gamma2.pairing, 0.8, rtol=1e-9)


def test_sign_structure(problem):
    # sign(pairing) agrees with the parity/chi case built from phi_tilde * b
    d2 = second_derivative_quiet(problem.profile, problem.eos, 1, 1)
    phi_tilde_ell = d2.fundamental[0, 1]
    assert np.sign(d2.pairing) == -np.sign(phi_tilde_ell * d2.b_ell)


def test_pde_residual_decreases_under_refinement(two_level, gamma2):
    # reconstructed (p, u) satisfies p_x + u_t = 0 to grid accuracy, and the
    # defect shrinks under joint (M, nx) refinement
    from puretone.linwave import nonlinear_tile

    def tile_residual(m, nx):
        cfg = EvolutionConfig(M=m, n_quad=4 * m, k_accuracy=4)
        prob = BifurcationProblem(profile=two_level, eos=gamma2, k=1, chi=1, cfg=cfg)
        sol = solve_at_alpha(prob, 1e-3)
        nt = 4 * m
        tile = nonlinear_tile(two_level, gamma2, sol.y0_field(), cfg, nx, nt, chi=1)
        hx = tile.x[1] - tile.x[0]
        # 4th-order x-derivative, spectral (exact) t-derivative of the rows
        p_x = (-tile.p[4:] + 8 * tile.p[3:-1] - 8 * tile.p[1:-3] + tile.p[:-4]) / (12 * hx)
        dt_mult = 2j * np.pi * np.fft.rfftfreq(nt, d=tile.T / nt)
        u_t = np.fft.irfft(np.fft.rfft(tile.u, axis=1) * dt_mult, n=nt, axis=1)
        resid = p_x + u_t[2:-2]
        x_in = tile.x[2:-2]
        interior = (np.abs(x_in - 0.5) > 3 * hx) & (x_in > 3 * hx) & (x_in < 1 - 3 * hx)
        return float(np.max(np.abs(resid[interior])))

    coarse = tile_residual(8, 64)
    fine = tile_residual(16, 128)
    assert fine < coarse / 4.0
