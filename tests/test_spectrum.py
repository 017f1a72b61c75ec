import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import random_pwc
from puretone.errors import DomainError
from puretone.profile import PiecewiseConstantProfile, constant_profile, from_jump_angles
from puretone.sl_core import angle_and_slope_at_ell
from puretone.spectrum import (
    DEFAULT_MC_BOX,
    asymptotic_slope,
    divisors,
    eigen_ladder,
    eigen_solve,
    genericity_mc,
    kappa,
    resonance_scan,
)

# independent root for the two-level profile's implicit equation,
# omega + arctan(tan(omega/2)/2) = pi/2, frozen from deep bisection
OMEGA_1_TWO_LEVEL = 1.2309594173407743


def _bisect_two_level_omega1():
    f = lambda w: w + np.arctan(0.5 * np.tan(0.5 * w)) - np.pi / 2
    lo, hi = 1e-9, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_frozen_oracle_value():
    assert abs(_bisect_two_level_omega1() - OMEGA_1_TWO_LEVEL) < 1e-14


def test_constant_profile_closed_form(const_profile):
    for k in (1, 2, 7, 50):
        eig = eigen_solve(const_profile, k)
        assert_allclose(eig.omega, k * np.pi / 2, rtol=1e-12)
        assert_allclose(eig.T, 4.0, rtol=1e-12)


def test_two_level_omega1(two_level):
    eig = eigen_solve(two_level, 1)
    assert abs(eig.omega - OMEGA_1_TWO_LEVEL) < 1e-12
    assert eig.kappa_residual < 1e-10


def test_kappa_definitions(const_profile, two_level):
    # constant sigma0, ell: kappa = 2 sigma0 ell omega / pi
    for w in (0.5, 3.3):
        assert_allclose(kappa(const_profile, w), 2.0 * w / np.pi, rtol=1e-14)
    eig = eigen_solve(two_level, 4)
    assert abs(kappa(two_level, eig.omega) - 4.0) < 1e-10


def test_kappa_slope_positive(rng):
    for _ in range(20):
        prof = random_pwc(rng)
        w = rng.uniform(0.1, 10.0)
        slope = (2.0 / np.pi) * angle_and_slope_at_ell(prof, w)[1]
        h = 1e-6
        fd = (kappa(prof, w + h) - kappa(prof, w - h)) / (2 * h)
        assert slope > 0.0
        assert abs(slope - fd) < 1e-6


def test_parity_gate(two_level):
    with pytest.raises(DomainError):
        eigen_solve(two_level, 3, chi=0)
    eig = eigen_solve(two_level, 4, chi=0)
    # same frequency as the periodic labeling
    assert_allclose(eig.omega, eigen_solve(two_level, 4, chi=1).omega, rtol=1e-13)
    with pytest.raises(DomainError):
        eigen_solve(two_level, 0)
    with pytest.raises(DomainError):
        eigen_solve(two_level, 1, chi=2)


def test_ladder_monotone(two_level):
    om, res = eigen_ladder(two_level, 50)
    assert np.all(np.diff(om) > 0.0)
    assert np.max(res) < 1e-10


def test_growth_toward_asymptote(two_level):
    lam = asymptotic_slope(two_level)
    assert_allclose(lam, np.pi / 3, rtol=1e-14)
    om, _ = eigen_ladder(two_level, 120)
    ks = np.arange(1, 121)
    dev = np.abs(om / ks - lam)
    assert dev[-1] < 5e-3
    # omega_k / k stays within the Lambda estimate +- 50%
    assert np.all(om / ks > lam / 1.5)
    assert np.all(om / ks < lam * 1.5)


def test_divisors_constant_profile(const_profile):
    # T = 4: every mode meets the boundary condition, delta_j = sin(j pi) = 0
    table = divisors(const_profile, 4.0, 1, 32)
    assert np.max(np.abs(table.delta)) < 1e-12


def test_divisor_vanishes_at_own_mode(two_level):
    for k in (1, 2, 4, 5):
        eig = eigen_solve(two_level, k)
        table = divisors(two_level, eig.T, 1, max(8, k))
        assert abs(table.delta[k - 1]) < 1e-9


def test_divisor_bound_scan(rng):
    # |delta_j| <= C_delta from the radius chain, over long scans
    from puretone.spectrum import divisor_bound

    for _ in range(10):
        prof = random_pwc(rng)
        table = divisors(prof, 5.0, 1, 512)
        assert np.max(np.abs(table.delta)) <= divisor_bound(prof) * (1 + 1e-12)


def test_resonance_scan_two_level(two_level):
    rep = resonance_scan(two_level, 1, j_max=64)
    assert rep.verdict == "nonresonant"
    assert rep.min_divisor > 1e-6
    assert rep.argmin_j == 23


def test_resonance_scan_constant(const_profile):
    rep = resonance_scan(const_profile, 1, j_max=16)
    assert rep.verdict == "resonant"
    # verdict is stable when the scan is widened
    rep2 = resonance_scan(const_profile, 1, j_max=64)
    assert rep2.verdict == "resonant"


def test_two_level_k3_exact_resonance(two_level):
    # omega_3 = pi and omega_6 = 2 pi exactly: the (k, j, l) = (3, 6, 6)
    # relation makes the k = 3 mode resonant
    eig = eigen_solve(two_level, 3)
    assert_allclose(eig.omega, np.pi, rtol=1e-12)
    rep = resonance_scan(two_level, 3, j_max=16)
    assert rep.verdict == "resonant"
    assert rep.min_ratio_residual < 1e-12


def test_divisor_frequency_equivalence(two_level):
    # both directions of the resonance equivalence on the k = 3 period
    rep = resonance_scan(two_level, 3, j_max=24)
    small_j = {j + 1 for j, d in enumerate(rep.divisor_table.delta) if abs(d) < 1e-8 and j + 1 != 3}
    ratio_j = {j for (l, j, r) in rep.ratio_checks if r < 1e-7}
    assert small_j  # there are genuine zeros
    assert small_j == ratio_j
    # and on the nonresonant k = 1 period neither side fires
    rep1 = resonance_scan(two_level, 1, j_max=64)
    assert not any(abs(d) < 1e-8 for j, d in enumerate(rep1.divisor_table.delta) if j != 0)
    assert not any(r < 1e-7 for (_, _, r) in rep1.ratio_checks)


def test_pwc_roots_do_not_depend_on_batch():
    # genericity's (samples, 1, N-1) batch through the angle chain gives each
    # sample's own roots bit for bit, and eigen_ladder on the rebuilt profile
    from puretone.spectrum import _pwc_solve_targets

    rng = np.random.default_rng(21)
    samples, levels, k_top = 300, 3, 12
    (j_lo, j_hi), (t_lo, t_hi) = DEFAULT_MC_BOX
    jumps = rng.uniform(j_lo, j_hi, size=(samples, levels - 1))
    angles = rng.uniform(t_lo, t_hi, size=(samples, levels))
    targets = np.arange(1, k_top + 1) * np.pi / 2.0
    om, ok = _pwc_solve_targets(
        jumps[:, None, :], angles[:, None, :], np.broadcast_to(targets, (samples, k_top))
    )
    assert np.all(ok)
    for i in range(samples):
        om_i, ok_i = _pwc_solve_targets(jumps[i], angles[i], targets)
        assert np.all(ok_i) and np.array_equal(om_i, om[i])
        ladder, _ = eigen_ladder(from_jump_angles(jumps[i], angles[i]), k_top)
        assert np.max(np.abs(ladder / om[i] - 1.0)) <= 1e-14

def test_genericity_deterministic():
    g1 = genericity_mc(2, 400, seed=11)
    g2 = genericity_mc(2, 400, seed=11)
    assert np.array_equal(g1.min_residual, g2.min_residual, equal_nan=True)
    assert np.array_equal(g1.argmin_triple, g2.argmin_triple)
    g3 = genericity_mc(2, 400, seed=12)
    assert not np.array_equal(g1.min_residual, g3.min_residual, equal_nan=True)


def test_genericity_degenerate_box_fully_resonant():
    # all J = 1 is the isentropic limit: every sample completely resonant
    g = genericity_mc(2, 100, seed=5, box=((1.0, 1.0), (0.1, 3.0)))
    assert g.n_exact == 100


def test_genericity_minima_shrink_with_bound():
    g_small = genericity_mc(2, 800, seed=9, k_max=4, l_max=4, j_max=6)
    g_large = genericity_mc(2, 800, seed=9, k_max=12, l_max=12, j_max=24)
    ok = np.isfinite(g_small.min_residual)
    assert np.median(g_large.min_residual[ok]) < np.median(g_small.min_residual[ok])
    # more relations can only tighten the per-sample minimum
    assert np.all(g_large.min_residual[ok] <= g_small.min_residual[ok] + 1e-15)


def test_genericity_summary_and_box(two_level):
    g = genericity_mc(3, 50, seed=2)
    s = g.summary()
    assert s["samples"] == 50 and s["n_levels"] == 3
    assert s["box"] == [list(b) for b in DEFAULT_MC_BOX]
    assert sum(s["hist_counts"]) == 50 - g.n_failed
    with pytest.raises(DomainError):
        genericity_mc(1, 10)
    with pytest.raises(DomainError):
        genericity_mc(2, 0)


def test_smooth_profile_eigen(smooth_jumpy):
    eig = eigen_solve(smooth_jumpy, 2)
    assert eig.kappa_residual < 1e-10
    om, res = eigen_ladder(smooth_jumpy, 5)
    assert np.all(np.diff(om) > 0)
    assert np.max(res) < 1e-9
