import numpy as np
import pytest
from numpy.testing import assert_allclose

from types import SimpleNamespace

from _oracles import (
    full_array_pwc_solve_targets,
    random_pwc,
    reference_jump_map,
    reference_min_ratio_residual,
)
from puretone import sl_core, spectrum
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


def test_ladder_monotone(two_level, smooth_ramp, smooth_jumpy):
    # the residuals come from the Newton evaluation that accepted each root,
    # equal to a fresh kappa propagation at the returned omegas bit for bit
    for profile, k_max in ((two_level, 50), (smooth_ramp, 18), (smooth_jumpy, 18)):
        om, res = eigen_ladder(profile, k_max)
        assert np.all(np.diff(om) > 0.0)
        assert np.max(res) < 1e-10
        assert np.array_equal(res, np.abs(kappa(profile, om) - np.arange(1.0, k_max + 1.0)))


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


def test_resonance_scan_borderline(two_level):
    # min divisor 0.0377 lies between BORDERLINE_TOL and tol = 1
    rep = resonance_scan(two_level, 1, tol=1.0)
    assert rep.verdict == "borderline"
    assert rep.borderline < rep.min_divisor <= rep.tol


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_resonance_tol_must_be_finite_and_positive(two_level, tol):
    # min_div <= nan is false: a NaN tol would pass every profile as nonresonant
    with pytest.raises(DomainError, match="tol"):
        resonance_scan(two_level, 1, tol=tol)


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
    om, _, ok = _pwc_solve_targets(
        jumps[:, None, :], angles[:, None, :], np.broadcast_to(targets, (samples, k_top))
    )
    assert np.all(ok)
    for i in range(samples):
        om_i, _, ok_i = _pwc_solve_targets(jumps[i], angles[i], targets)
        assert np.all(ok_i) and np.array_equal(om_i, om[i])
        ladder, _ = eigen_ladder(from_jump_angles(jumps[i], angles[i]), k_top)
        assert np.max(np.abs(ladder / om[i] - 1.0)) <= 1e-14


@pytest.mark.parametrize("max_iter", [1, 2, 3, 80])
def test_active_set_solve_matches_full_array_oracle(max_iter):
    # below 80 passes some points are still moving and meet the 10x final check
    rng = np.random.default_rng(31)
    samples, levels, k_top = 300, 3, 12
    (j_lo, j_hi), (t_lo, t_hi) = DEFAULT_MC_BOX
    jumps = rng.uniform(j_lo, j_hi, size=(samples, 1, levels - 1))
    angles = rng.uniform(t_lo, t_hi, size=(samples, 1, levels))
    targets = np.broadcast_to(np.arange(1, k_top + 1) * np.pi / 2.0, (samples, k_top))
    om, theta, ok = spectrum._pwc_solve_targets(jumps, angles, targets, max_iter=max_iter)
    ref_om, ref_ok = full_array_pwc_solve_targets(jumps, angles, targets, max_iter=max_iter)
    assert np.array_equal(om, ref_om) and np.array_equal(ok, ref_ok)
    # theta is the chain at each returned omega, converged or not
    n = levels - 1
    chain = sl_core._angle_chain([jumps[..., i] for i in range(n)],
                                 [angles[..., i] for i in range(n + 1)], om)
    assert np.array_equal(theta, chain)
    if max_iter < 80:
        assert not np.all(ok)


def test_active_set_solve_without_jumps(const_profile):
    # one level: zero jumps, so the gathered jump arrays have no columns
    for targets in (np.arange(1, 13) * np.pi / 2.0, np.array([5 * np.pi / 2.0])):
        om, _, ok = spectrum._pwc_solve_targets(const_profile.jumps, const_profile.angles, targets)
        ref = full_array_pwc_solve_targets(const_profile.jumps, const_profile.angles, targets)
        assert om.shape == targets.shape and np.all(ok)
        assert np.array_equal(om, ref[0]) and np.array_equal(ok, ref[1])


@pytest.mark.parametrize("block", [1, 7, 40 * 12 + 1])
def test_genericity_does_not_depend_on_block(block, monkeypatch):
    base = genericity_mc(3, 40, seed=17)
    monkeypatch.setattr(spectrum, "_BLOCK", block)
    g = genericity_mc(3, 40, seed=17)
    assert np.array_equal(g.min_residual, base.min_residual, equal_nan=True)
    assert np.array_equal(g.argmin_triple, base.argmin_triple)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_bad_jump_refused_before_any_pass(bad, two_level, monkeypatch):
    # the pwc solve checks its jumps once, up front; no chain pass runs first
    calls = []
    monkeypatch.setattr(sl_core, "_angle_chain", lambda *args: calls.append(args))
    jumps = np.array([[[2.0]], [[bad]]])
    angles = np.ones((2, 1, 2))
    with pytest.raises(DomainError):
        spectrum._pwc_solve_targets(jumps, angles, np.ones((2, 3)))
    assert not calls
    # angle_at_ell keeps its own check
    fake = SimpleNamespace(jumps=np.array([bad]), pieces=two_level.pieces)
    with pytest.raises(DomainError):
        sl_core.angle_at_ell(fake, 1.0)


def test_roots_match_winding_split_jump_map(monkeypatch):
    # the tan-form jump map moves the roots at roundoff only (1.3e-15 on this batch)
    rng = np.random.default_rng(41)
    samples, levels, k_top = 300, 3, 12
    (j_lo, j_hi), (t_lo, t_hi) = DEFAULT_MC_BOX
    jumps = rng.uniform(j_lo, j_hi, size=(samples, 1, levels - 1))
    angles = rng.uniform(t_lo, t_hi, size=(samples, 1, levels))
    targets = np.broadcast_to(np.arange(1, k_top + 1) * np.pi / 2.0, (samples, k_top))
    om, _, ok = spectrum._pwc_solve_targets(jumps, angles, targets)
    runs = [genericity_mc(2, 2000, seed=s) for s in range(4)]
    monkeypatch.setattr(sl_core, "_jump_map", reference_jump_map)
    ref_om, _, ref_ok = spectrum._pwc_solve_targets(jumps, angles, targets)
    assert np.all(ok) and np.all(ref_ok)
    assert_allclose(om, ref_om, rtol=1e-13, atol=0.0)
    # below EXACT_TOL a residual is roundoff and may change bin (seed 2: one at
    # 1e-15 crosses 10^-15); n_exact counts those bins together
    counts = lambda r: (r.n_exact, r.n_no_triple, r.n_failed)
    for s, g in enumerate(runs):
        ref = genericity_mc(2, 2000, seed=s)
        assert np.array_equal(g.argmin_triple, ref.argmin_triple)
        assert counts(g) == counts(ref)
        resolved = ref.hist_edges[:-1] >= np.log10(spectrum.EXACT_TOL)
        assert np.array_equal(g.hist_counts[resolved], ref.hist_counts[resolved])


def test_genericity_root_work(monkeypatch):
    # pwc chain point-evaluations per root of genericity_mc's 2-level solve
    # (one jump per chain, so one _jump_map point per evaluation); the
    # active-set Newton takes 4.58-4.59 on 10^4 samples
    jump_map, points = sl_core._jump_map, [0]

    def counted(J, z, with_slope=False):
        points[0] += np.size(z)
        return jump_map(J, z, with_slope)

    monkeypatch.setattr(sl_core, "_jump_map", counted)
    samples = 10_000
    g = genericity_mc(2, samples, seed=0)
    assert g.n_failed == 0
    per_root = points[0] / (samples * max(g.k_max, g.l_max))
    assert 1.0 <= per_root <= 4.7


def _ratio_ladders(rng, samples, k_top):
    """Positive ladders with NaN entries, rows with no admissible pair and exact ties."""
    om = np.sort(rng.uniform(0.2, 30.0, size=(samples, k_top)), axis=1)
    om[rng.random(samples) < 0.1, rng.integers(0, k_top)] = np.nan
    om[-12:] = 1000.0 ** np.arange(k_top)  # every ratio is 0 or far above j_max
    om[-24:-12] = rng.uniform(0.5, 2.0, size=(12, 1)) * np.arange(1, k_top + 1)  # all residuals 0
    return om


@pytest.mark.parametrize(
    "k_max, l_max, j_max", [(12, 12, 24), (5, 9, 3), (9, 4, 12), (1, 3, 2), (3, 1, 5), (7, 7, 1)]
)
@pytest.mark.parametrize("res_block", [7, 512])
def test_ratio_residual_matches_k_loop_oracle(k_max, l_max, j_max, res_block, monkeypatch):
    monkeypatch.setattr(spectrum, "_RES_BLOCK", res_block)
    rng = np.random.default_rng(100 * k_max + 10 * l_max + j_max)
    om = _ratio_ladders(rng, 300, max(k_max, l_max))
    res, triple = spectrum._min_ratio_residual(om, k_max, l_max, j_max)
    ref_res, ref_triple = reference_min_ratio_residual(om, k_max, l_max, j_max)
    assert np.array_equal(res, ref_res) and np.array_equal(triple, ref_triple)
    assert not np.any(np.isnan(res))
    none = ~np.isfinite(res)
    assert np.all(triple[none] == 0) and np.all(triple[~none, 0] >= 1)
    assert np.all(none[-12:])


def test_ratio_residual_ties_on_the_isentropic_box():
    # J = 1: omega_k = k omega_1, every admissible residual is 0, and the
    # first admissible (k, l) in k-major order wins
    g = genericity_mc(2, 64, seed=4, box=((1.0, 1.0), (0.1, 3.0)), k_max=5, l_max=7, j_max=9)
    assert np.all(g.min_residual == 0.0)
    assert np.all(g.argmin_triple == (1, 2, 2))
    # the ladder from the solve itself, through both residual forms
    targets = np.broadcast_to(np.arange(1, 8) * np.pi / 2.0, (64, 7))
    rng = np.random.default_rng(4)
    om, _, ok = spectrum._pwc_solve_targets(
        np.ones((64, 1, 1)), rng.uniform(0.1, 3.0, size=(64, 1, 2)), targets
    )
    assert np.all(ok)
    for got, ref in zip(spectrum._min_ratio_residual(om, 7, 5, 3),
                        reference_min_ratio_residual(om, 7, 5, 3)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("res_block", [7, 512])
def test_exact_resonances_report_their_first_pair(res_block, monkeypatch):
    # harmonic ladders with relative noise of a few ulps: every admissible
    # residual is roundoff below EXACT_TOL, so the triple is the first pair,
    # (k, j, l) = (1, 2, 2), while min_residual keeps the smallest residual
    monkeypatch.setattr(spectrum, "_RES_BLOCK", res_block)
    rng = np.random.default_rng(3)
    om = np.arange(1, 13) * (1.0 + rng.uniform(-4e-16, 4e-16, size=(300, 12)))
    res, triple = spectrum._min_ratio_residual(om, 12, 12, 24)
    ref_res, ref_triple = reference_min_ratio_residual(om, 12, 12, 24)
    assert np.array_equal(res, ref_res) and np.array_equal(triple, ref_triple)
    assert np.all(res < spectrum.EXACT_TOL) and np.all(triple == (1, 2, 2))
    first = np.abs(om[:, 1] - 2.0 * om[:, 0]) / om[:, 1]
    assert np.all(res <= first) and np.sum(res < first) > 100


def test_genericity_exact_triple_does_not_follow_roundoff():
    # seed 200894, sample 4856 holds 12 pairs below 1e-15; (6, 2, 2) is the
    # smallest, one ulp under (2, 6, 6), the first in (k, l) order
    g = genericity_mc(2, 10_000, seed=200894)
    assert g.n_exact == 4
    assert g.min_residual[4856] == 1.1889324133602684e-16
    assert tuple(g.argmin_triple[4856]) == (2, 6, 6)


def test_samples_without_a_triple_leave_the_histogram():
    # k_max 1, l_max 2, j_max 2 admits only (k, j, l) = (1, 2, 2)
    g = genericity_mc(2, 2000, seed=0, k_max=1, l_max=2, j_max=2)
    assert g.n_no_triple == 1074 and g.n_failed == 0
    assert int(np.sum(g.hist_counts)) + g.n_no_triple == g.samples - g.n_failed
    assert int(np.sum(np.isinf(g.min_residual))) == g.n_no_triple
    assert g.summary()["n_no_triple"] == 1074
    # a box where no sample has one: an empty histogram
    g = genericity_mc(2, 50, seed=0, k_max=1, l_max=2, j_max=2, box=((4.9, 5.0), (2.9, 3.0)))
    assert g.n_no_triple == 50 and not np.any(g.hist_counts)
    assert np.all(g.argmin_triple == 0)
    s = g.summary()
    assert s["n_no_triple"] == 50 and s["min_residual"] is None


def test_smooth_roots_do_not_depend_on_batch(smooth_jumpy):
    # the Magnus level is chosen per omega, so a smooth ladder solved as one
    # batch gives every target's single solve bit for bit
    targets = np.arange(1, 13) * np.pi / 2.0
    om, _, ok = spectrum._solve_profile_targets(smooth_jumpy, targets)
    assert np.all(ok)
    for t, om_t in zip(targets, om):
        one, _, ok_one = spectrum._solve_profile_targets(smooth_jumpy, np.array([t]))
        assert ok_one[0] and one[0] == om_t


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


@pytest.mark.parametrize(
    "knobs",
    [
        {"k_max": 0},
        {"l_max": 0},
        {"j_max": 0},
        {"k_max": 1, "l_max": 1},  # no pair l != k
        {"k_max": 1, "j_max": 1},  # no j != k
        {"box": ((2.0, 1.0), (0.1, 3.0))},
        {"box": ((0.2, 5.0), (3.0, 0.1))},
        {"box": ((0.0, 5.0), (0.1, 3.0))},
        {"box": ((0.2, 5.0), (-1.0, 3.0))},
        {"box": ((0.2, float("nan")), (0.1, 3.0))},
    ],
)
def test_genericity_refuses_degenerate_inputs(knobs):
    with pytest.raises(DomainError):
        genericity_mc(2, 10, **knobs)


def test_smooth_profile_eigen(smooth_jumpy):
    eig = eigen_solve(smooth_jumpy, 2)
    assert eig.kappa_residual < 1e-10
    om, res = eigen_ladder(smooth_jumpy, 5)
    assert np.all(np.diff(om) > 0)
    assert np.max(res) < 1e-9
