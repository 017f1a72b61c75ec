"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 11 is implemented exactly as stated; see the
assertion message (and the README) for the analysis of why its zero-count
expectation is not attainable for this residual measure.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import dense_transfer_pwc, random_pwc
from puretone.cli import main as cli_main
from puretone.eos import GammaLawEos
from puretone.profile import (
    PiecewiseConstantProfile,
    constant_profile,
    save_profile,
)
from puretone.sl_core import fundamental_matrix
from puretone.spectrum import (
    asymptotic_slope,
    divisors,
    eigen_ladder,
    eigen_solve,
    genericity_mc,
    resonance_scan,
)
from puretone.evolve import (
    EvolutionConfig,
    FourierField,
    linearized_evolve,
    nonlinear_evolve,
    second_derivative_quiet,
)
from puretone.linwave import eigenfunction_profiles, extend_tile, nonlinear_tile
from puretone.bifurcate import BifurcationProblem, branch_continue, dgdz_check


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def eos2():
    return GammaLawEos(2.0)


@pytest.fixture(scope="module")
def two(eos2):
    return PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5], pbar=1.0, eos=eos2)


@pytest.fixture(scope="module")
def branch9(two, eos2):
    """Criterion 9 branch, shared with criterion 10."""
    cfg = EvolutionConfig(M=32, n_quad=256, k_accuracy=6)
    problem = BifurcationProblem(
        profile=two, eos=eos2, k=1, chi=1, cfg=cfg, newton_tol=1e-10,
    )
    t0 = time.perf_counter()
    branch = branch_continue(problem)
    elapsed = time.perf_counter() - t0
    return problem, branch, elapsed


def test_criterion_01_closed_form_spectrum():
    t0 = time.perf_counter()
    prof = constant_profile(1.0, 1.0)
    om, _ = eigen_ladder(prof, 50)
    ks = np.arange(1, 51)
    err_omega = float(np.max(np.abs(om - ks * np.pi / 2)))
    err_T = float(np.max(np.abs(2 * np.pi * ks / om - 4.0)))
    elapsed = time.perf_counter() - t0
    _report(
        1, "constant-profile closed-form spectrum",
        err_omega < 1e-10 and err_T < 1e-10 and elapsed < 1.0,
        f"max|omega-k pi/2|={err_omega:.2e} max|T-4|={err_T:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_02_transfer_matrix_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # the matrix-power shortcut is bit-compatible with the literal step loop
    prof0 = random_pwc(rng)
    w0 = 3.0
    shortcut_err = np.max(
        np.abs(dense_transfer_pwc(prof0, w0, literal=True) - dense_transfer_pwc(prof0, w0))
    )
    worst_entry = 0.0
    worst_det = 0.0
    for _ in range(100):
        prof = random_pwc(rng, n_max=5)
        # keep the total phase omega*sigma*ell below ~55 so the 1e4-step
        # oracle's own RK4 truncation ((omega sigma h)^5/120 per step) stays
        # under 1e-9 and the 1e-8 comparison is meaningful
        w_hi = min(12.0, 55.0 / (prof.sigma_max * prof.ell))
        for w in rng.uniform(0.1, w_hi, 10):
            psi = fundamental_matrix(prof, float(w))
            ref = dense_transfer_pwc(prof, float(w), n_total=10_000)
            worst_entry = max(worst_entry, float(np.max(np.abs(psi - ref))))
            worst_det = max(worst_det, abs(float(np.linalg.det(psi)) - 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        2, "transfer-matrix product vs dense RK4 oracle",
        shortcut_err < 1e-12 and worst_entry < 1e-8 and worst_det < 1e-12 and elapsed < 30.0,
        f"entry={worst_entry:.2e} det={worst_det:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_03_divisor_consistency(two):
    eig = eigen_solve(two, 1)
    table = divisors(two, eig.T, 1, 64)
    d1 = abs(float(table.delta[0]))
    min_rest = float(np.min(np.abs(table.delta[1:])))
    # equivalence cross-check at tolerance 1e-8 / 1e-7 in both directions
    rep = resonance_scan(two, 1, j_max=64)
    div_events = {j + 1 for j, d in enumerate(table.delta) if abs(d) < 1e-8 and j + 1 != 1}
    ratio_events = {j for (_, j, r) in rep.ratio_checks if r < 1e-7}
    _report(
        3, "divisor consistency and nonresonance gate",
        d1 < 1e-9 and min_rest > 1e-6 and div_events == ratio_events == set(),
        f"delta_1={d1:.2e} min_(j>=2)|delta_j|={min_rest:.3e} events={div_events}",
    )


def test_criterion_04_eigenfrequency_growth(two):
    t0 = time.perf_counter()
    om, _ = eigen_ladder(two, 200)
    ks = np.arange(1, 201)
    lam = asymptotic_slope(two)
    dev = np.abs(om / ks - lam)
    increasing = bool(np.all(np.diff(om) > 0.0))
    # |omega_k/k - pi/3| is not pointwise monotone (it has exact zeros at
    # multiples of 3); "decreasing" is checked as a dyadic-window envelope
    edges = [1, 2, 4, 8, 16, 32, 64, 128, 201]
    block_max = [np.max(dev[lo - 1 : hi - 1]) for lo, hi in zip(edges[:-1], edges[1:])]
    envelope_dec = bool(np.all(np.diff(block_max) < 0.0))
    elapsed = time.perf_counter() - t0
    _report(
        4, "eigenfrequency growth toward Lambda = pi/3",
        increasing and envelope_dec and dev[-1] < 2e-2 and elapsed < 10.0,
        f"dev(200)={dev[-1]:.3e} envelope={np.array2string(np.array(block_max), precision=2)} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_05_resonant_gate(tmp_path, eos2):
    path = tmp_path / "const.json"
    save_profile(constant_profile(1.0, 1.0, pbar=1.0, eos=eos2), path)
    rc = cli_main(
        ["perturb", "--profile", str(path), "--k", "1", "--modes", "8", "--nt", "32",
         "--alpha", "1e-4", "--out-dir", str(tmp_path)]
    )
    _report(5, "completely-resonant profile refused with exit code 3", rc == 3,
            f"exit={rc}")


def test_criterion_06_quiet_fixed_point(two, eos2):
    eig = eigen_solve(two, 1)
    cfg = EvolutionConfig(M=16, dx=two.ell / 1000.0)  # exactly 1e3 x-steps
    y0 = FourierField.constant(eig.T, 1.0, 16)
    out = nonlinear_evolve(two, eos2, y0, cfg)
    err = float(np.max(np.abs(out.cos - y0.cos)) + np.max(np.abs(out.sin)))
    _report(6, "quiet state fixed point over 1e3 steps", err < 1e-13, f"err={err:.2e}")


def test_criterion_07_linearization_consistency(two, eos2):
    t0 = time.perf_counter()
    eig = eigen_solve(two, 1)
    cfg = EvolutionConfig(M=64)
    base = FourierField.constant(eig.T, 1.0, 64)
    worst = 0.0
    for k in range(1, 17):
        Y0 = FourierField.cosine(eig.T, k, 1.0, m=64)
        Y = linearized_evolve(two, eos2, base, Y0, cfg)
        psi = fundamental_matrix(two, k * 2.0 * np.pi / eig.T)
        err = max(abs(Y.cos[k] - psi[0, 0]), abs(Y.sin[k] - psi[1, 0]))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    _report(
        7, "pseudospectral linearization matches transfer matrix (k<=16, M=64)",
        worst < 1e-8, f"worst={worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_08_genuine_nonlinearity(two, eos2):
    rng = np.random.default_rng(21)
    worst_b = -np.inf
    for _ in range(100):
        gamma = float(rng.uniform(1.2, 3.0))
        eos = GammaLawEos(gamma)
        prof = random_pwc(rng, pbar=1.0, eos=eos)
        k = int(rng.integers(1, 4))
        d2 = second_derivative_quiet(prof, eos, k, 1)
        worst_b = max(worst_b, d2.b_ell)
    cfg = EvolutionConfig(M=16, n_quad=64, k_accuracy=6)
    problem = BifurcationProblem(profile=two, eos=eos2, k=1, chi=1, cfg=cfg)
    chk = dgdz_check(problem)
    _report(
        8, "b(ell) < 0 on 100 random profiles; dual-path dgdz agreement",
        worst_b < 0.0 and chk.rel_diff < 1e-4 and chk.sign_match,
        f"max b(ell)={worst_b:.3e} rel={chk.rel_diff:.2e}",
    )


def test_criterion_09_bifurcation_branch(two, eos2, branch9):
    problem, branch, elapsed = branch9
    sols = {s.alpha: s for s in branch.solutions}
    ok_all = branch.failure is None and len(branch.solutions) == 4
    ok_res = ok_all and all(
        s.converged and s.residual_weighted < 1e-10 for s in branch.solutions
    )
    detail = f"time={elapsed:.0f}s"
    ok_orders = False
    ok_limit = False
    if ok_res:
        rz1 = sols[2e-4].z / sols[1e-4].z
        rz2 = sols[1e-3].z / sols[5e-4].z
        ra1 = np.max(np.abs(sols[2e-4].a)) / np.max(np.abs(sols[1e-4].a))
        ra2 = np.max(np.abs(sols[1e-3].a)) / np.max(np.abs(sols[5e-4].a))
        ok_orders = all(3.5 < r < 4.5 for r in (rz1, rz2, ra1, ra2))
        # small-amplitude limit against the linear mode shape
        eig = eigen_solve(two, 1)
        nx, nt = 128, 256
        mode = eigenfunction_profiles(two, eig, nx=nx)
        phase = 2.0 * np.pi * np.arange(nt) / nt  # omega_1 t on the tile grid
        lin = np.outer(mode.phi, np.cos(phase))
        discrepancy = {}
        for alpha in (1e-4, 2e-4):
            tile = nonlinear_tile(
                two, eos2, sols[alpha].y0_field(), problem.cfg, nx, nt, chi=1
            )
            discrepancy[alpha] = float(np.max(np.abs((tile.p - 1.0) / alpha - lin)))
        ratio_limit = discrepancy[2e-4] / discrepancy[1e-4]
        ok_limit = 1.5 < ratio_limit < 2.5
        detail = (
            f"wres_max={max(s.residual_weighted for s in branch.solutions):.2e} "
            f"z-ratios=({rz1:.3f},{rz2:.3f}) a-ratios=({ra1:.3f},{ra2:.3f}) "
            f"limit-ratio={ratio_limit:.3f} time={elapsed:.0f}s"
        )
    _report(
        9, "bifurcation branch: convergence, O(alpha^2) orders, linear limit",
        ok_res and ok_orders and ok_limit and elapsed < 300.0,
        detail,
    )


def test_criterion_10_tile_integrity(two, eos2, branch9):
    problem, branch, _ = branch9
    sol = [s for s in branch.solutions if s.alpha == 1e-3][0]
    tile = nonlinear_tile(two, eos2, sol.y0_field(), problem.cfg, 128, 256, chi=1)
    ext = extend_tile(tile)
    periodic = np.array_equal(ext.p[0], ext.p[-1]) and np.array_equal(ext.u[0], ext.u[-1])
    seam = float(max(ext.meta["seam_p"], ext.meta["seam_u"]))
    u0_exact = bool(np.all(tile.u[0] == 0.0))
    _report(
        10, "tile periodicity, seam continuity, u(0,.) = 0",
        periodic and seam < 1e-9 and u0_exact,
        f"seam={seam:.2e} periodic={periodic} u0-exact={u0_exact}",
    )


def test_criterion_11_genericity_monte_carlo():
    t0 = time.perf_counter()
    result = genericity_mc(2, 10_000, seed=0, k_max=12, l_max=12, j_max=24)
    again = genericity_mc(2, 10_000, seed=0, k_max=12, l_max=12, j_max=24)
    deterministic = np.array_equal(result.min_residual, again.min_residual, equal_nan=True)
    histogram_ok = int(np.sum(result.hist_counts)) == 10_000 - result.n_failed
    elapsed = time.perf_counter() - t0
    hits = np.flatnonzero(
        np.isfinite(result.min_residual) & (result.min_residual < result.exact_tol)
    )
    triples = [tuple(map(int, result.argmin_triple[i])) for i in hits]
    _report(
        11, "genericity MC: zero sub-1e-12 residuals, histogram, determinism",
        result.n_exact == 0 and histogram_ok and deterministic and elapsed < 600.0,
        f"n_exact={result.n_exact} hits(k,j,l)={triples} det={deterministic} "
        f"({elapsed:.1f}s). Known limitation, documented in the README: the "
        "frequency-ratio residual degenerates cubically in the distance to "
        "resonant-manifold sheets (e.g. theta_2 = 2 theta_1 gives "
        "omega_9 = 3 omega_3 exactly for any J), so samples landing within "
        "~1e-4 of such a sheet produce residuals below 1e-12 with positive "
        "probability; the hits listed are manifold neighbors, not exact "
        "resonances.",
    )
