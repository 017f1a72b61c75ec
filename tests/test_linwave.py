import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import sl_residual
from puretone.errors import BoundaryResidualError, DomainError
from puretone.profile import constant_profile
from puretone.sl_core import fundamental_matrix
from puretone.spectrum import eigen_solve
from puretone.evolve import EvolutionConfig, FourierField, coeffs_to_grid
from puretone.linwave import (
    TileField,
    eigenfunction_profiles,
    extend_tile,
    mode_field,
    nonlinear_tile,
    quiet_tile,
    tile_boundary_residual,
    tile_from_binary,
    tile_to_binary,
    tile_to_csv,
)


@pytest.fixture(scope="module")
def mode1(two_level):
    eig = eigen_solve(two_level, 1)
    return eigenfunction_profiles(two_level, eig, nx=512)


# -- eigenfunctions ----------------------------------------------------------------


def test_constant_profile_eigenfunctions(gamma2):
    prof = constant_profile(1.0, 1.0, pbar=1.0, eos=gamma2)
    eig = eigen_solve(prof, 3)
    mode = eigenfunction_profiles(prof, eig, nx=200)
    assert_allclose(mode.phi, np.cos(eig.omega * mode.x), atol=1e-12)
    assert_allclose(mode.psi, np.sin(eig.omega * mode.x), atol=1e-12)


def test_normalization_and_boundary(mode1, two_level):
    assert mode1.phi[0] == 1.0
    assert mode1.psi[0] == 0.0
    # k odd, chi = 1: phi(ell) = 0
    assert mode1.boundary_value() < 1e-8


def test_even_mode_acoustic_boundary(two_level):
    eig = eigen_solve(two_level, 2, chi=0)
    mode = eigenfunction_profiles(two_level, eig, nx=256)
    # psi(ell) = 0 for the acoustic condition
    assert mode.boundary_value() < 1e-8


def test_sl_residual_small(two_level, smooth_ramp):
    for k in (1, 2):
        eig = eigen_solve(two_level, k)
        mode = eigenfunction_profiles(two_level, eig, nx=1024)
        assert sl_residual(two_level, mode.omega, mode.x, (mode.phi, mode.psi)) < 1e-7
    eig = eigen_solve(smooth_ramp, 2)
    mode = eigenfunction_profiles(smooth_ramp, eig, nx=1024)
    assert sl_residual(smooth_ramp, mode.omega, mode.x, (mode.phi, mode.psi)) < 1e-7


def test_orthogonality_weighted(two_level):
    # Orthogonality in the sigma^2-weighted L2 holds within each parity
    # family (odd and even k satisfy different conditions at x = ell and
    # belong to different self-adjoint problems).  The weight must be taken
    # per piece: at the jump the one-sided values of sigma^2 differ.
    from scipy.integrate import simpson

    nx = 1024
    modes = {}
    for k in (1, 2, 3, 4, 5):
        eig = eigen_solve(two_level, k)
        modes[k] = eigenfunction_profiles(two_level, eig, nx=nx)
    x = modes[1].x

    def weighted_inner(f, g):
        total = 0.0
        for (lo, hi), sig in (((0, nx // 2), 1.0), ((nx // 2, nx), 2.0)):
            total += sig**2 * simpson((f * g)[lo : hi + 1], x=x[lo : hi + 1])
        return total

    for j, k in ((1, 3), (3, 5), (1, 5), (2, 4)):
        val = weighted_inner(modes[j].phi, modes[k].phi)
        norm = np.sqrt(
            weighted_inner(modes[j].phi, modes[j].phi)
            * weighted_inner(modes[k].phi, modes[k].phi)
        )
        assert abs(val) / norm < 1e-9
    # mixed parity pairs are not orthogonal on the half interval
    assert abs(weighted_inner(modes[1].phi, modes[2].phi)) > 0.1


# -- mode fields and tiles ---------------------------------------------------------


def test_mode_field_slices(mode1):
    tile = mode_field(mode1, nt=64)
    assert_allclose(tile.p[:, 0], mode1.phi)  # t = 0 row
    assert_allclose(tile.u[:, 0], np.zeros_like(mode1.psi))
    # time mean of U vanishes (pure sine)
    assert np.max(np.abs(tile.u.mean(axis=1))) < 1e-14


def test_mode_field_wave_equation_residual(two_level):
    # P_xx - sigma^2 P_tt = 0 interior to the smooth pieces
    eig = eigen_solve(two_level, 1)
    mode = eigenfunction_profiles(two_level, eig, nx=1024)
    tile = mode_field(mode, nt=256)
    hx = mode.x[1] - mode.x[0]
    ht = tile.t[1] - tile.t[0]

    def d2(arr, h, axis):
        a = np.moveaxis(arr, axis, 0)
        out = (
            -a[4:] + 16 * a[3:-1] - 30 * a[2:-2] + 16 * a[1:-3] - a[:-4]
        ) / (12 * h * h)
        return np.moveaxis(out, 0, axis)

    p_xx = d2(tile.p, hx, 0)[:, 2:-2]
    p_tt = d2(tile.p, ht, 1)[2:-2, :]
    sig2 = two_level.sigma_at(mode.x[2:-2]) ** 2
    resid = p_xx - sig2[:, None] * p_tt
    x_in = mode.x[2:-2]
    interior = (np.abs(x_in - 0.5) > 3 * hx) & (x_in > 3 * hx) & (x_in < 1 - 3 * hx)
    assert np.max(np.abs(resid[interior])) < 1e-6


def test_quiet_tile_constant_extension(two_level):
    tile = quiet_tile(two_level, 1.0, 4.0, nx=16, nt=16, chi=1)
    ext = extend_tile(tile, chi=1)
    assert np.all(ext.p == 1.0)
    assert np.all(ext.u == 0.0)
    assert ext.x[-1] == 4.0


def test_linear_mode_tile_extension(mode1):
    tile = mode_field(mode1, nt=64)
    ext = extend_tile(tile)
    assert ext.meta["seam_max"] < 1e-8
    # joint periodicity is grid-exact
    assert np.array_equal(ext.p[0], ext.p[-1])
    assert np.array_equal(ext.u[0], ext.u[-1])
    # x-reflection symmetry of the extension: p even, u odd about x = 0
    n = ext.x.size - 1
    for i in (1, n // 4, n // 3):
        assert np.array_equal(ext.p[n - i], ext.p[i]) or np.max(
            np.abs(ext.p[n - i] - ext.p[i])
        ) < 1e-12
        assert np.max(np.abs(ext.u[n - i] + ext.u[i])) < 1e-12
    # t-evenness of p rows on the periodic grid
    assert np.max(np.abs(ext.p - np.roll(ext.p[:, ::-1], 1, axis=1))) < 1e-12
    # u = 0 on the x = 0 line exactly
    assert np.all(tile.u[0] == 0.0)


def test_acoustic_mode_tile(two_level):
    eig = eigen_solve(two_level, 2, chi=0)
    mode = eigenfunction_profiles(two_level, eig, nx=128)
    tile = mode_field(mode, nt=64)
    ext = extend_tile(tile)
    # chi = 0: period 2 ell, u vanishes on both walls
    assert ext.x[-1] == 2.0
    assert np.all(tile.u[0] == 0.0)
    assert np.max(np.abs(tile.u[-1])) < 1e-8


def test_extension_refuses_bad_tile(mode1):
    tile = mode_field(mode1, nt=64)
    # constants are invisible to the residuals; inject genuine odd content
    spoil = 0.5 * np.sin(2 * np.pi * np.arange(tile.nt) / tile.nt)
    bad = type(tile)(
        tile.x, tile.t, tile.p, tile.u + spoil[None, :], chi=tile.chi, T=tile.T, meta={}
    )
    with pytest.raises(BoundaryResidualError):
        extend_tile(bad, check_tol=1e-6)


def test_nt_divisibility():
    with pytest.raises(DomainError):
        quiet_tile(constant_profile(1.0, 1.0), 1.0, 4.0, nx=4, nt=10, chi=1)


# -- boundary residuals ------------------------------------------------------------


def test_boundary_residual_exact_mode(two_level, mode1):
    tile = mode_field(mode1, nt=64)
    assert np.all(tile.u[0] == 0.0)  # u(0, .) vanishes identically
    r0, rell = tile_boundary_residual(tile)
    assert r0 < 1e-14  # p-row symmetrization leaves only cos() roundoff
    assert rell < 1e-8


def test_boundary_residual_detuned_period(two_level):
    eig = eigen_solve(two_level, 1)
    m = 4
    for detune, expect_small in ((0.0, True), (1e-3, False)):
        T = eig.T * (1.0 + detune)
        psi = fundamental_matrix(two_level, 2 * np.pi / T)
        cos = np.zeros(m + 1)
        sin = np.zeros(m + 1)
        cos[1], sin[1] = psi[0, 0], psi[1, 0]
        # rows x = 0 (the cosine 1-mode) and x = ell (its linear evolution)
        n, zeros = 4 * m, np.zeros(m + 1)
        p = np.stack((coeffs_to_grid(np.eye(m + 1)[1], zeros, n), coeffs_to_grid(cos, zeros, n)))
        u = np.stack((np.zeros(n), coeffs_to_grid(zeros, sin, n)))
        tile = TileField(np.array([0.0, two_level.ell]), np.arange(n) * (T / n), p, u, chi=1, T=T)
        r0, rell = tile_boundary_residual(tile)
        assert r0 == 0.0
        if expect_small:
            assert rell < 1e-8
        else:
            assert rell > 1e-4


def test_boundary_residual_quiet(two_level):
    r0, rell = tile_boundary_residual(quiet_tile(two_level, 1.0, 4.0, nx=4, nt=16, chi=1))
    assert (r0, rell) == (0.0, 0.0)


# -- nonlinear tiles and serialization ----------------------------------------------


def test_nonlinear_tile_quiet_rows(two_level, gamma2):
    eig = eigen_solve(two_level, 1)
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig.T, 1.0, 8)
    tile = nonlinear_tile(two_level, gamma2, y0, cfg, nx=8, nt=32, chi=1)
    assert np.all(tile.p == 1.0)
    assert np.all(tile.u == 0.0)


def test_tile_binary_round_trip(mode1, tmp_path):
    tile = mode_field(mode1, nt=32, meta={"kind": "linear-mode"})
    path = tmp_path / "tile.bin"
    tile_to_binary(tile, path)
    again = tile_from_binary(path)
    assert np.array_equal(again.p, tile.p)
    assert np.array_equal(again.u, tile.u)
    assert np.array_equal(again.x, tile.x)
    assert again.chi == tile.chi and again.T == tile.T


def test_tile_csv_round_trip(mode1, tmp_path):
    tile = mode_field(mode1, nt=8)
    path = tmp_path / "tile.csv"
    tile_to_csv(tile, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.size == tile.x.size * tile.t.size
    p_back = data["p"].reshape(tile.x.size, tile.t.size)
    assert np.array_equal(p_back, tile.p)


def _per_value_csv(tile, path):
    # the one-value-at-a-time formatter that tile_to_csv replaced
    with open(path, "w") as fh:
        fh.write("x,t,p,u\n")
        for i, xv in enumerate(tile.x):
            for j, tv in enumerate(tile.t):
                fh.write(
                    f"{float(xv)!r},{float(tv)!r},"
                    f"{float(tile.p[i, j])!r},{float(tile.u[i, j])!r}\n"
                )


def test_tile_csv_bytes_match_per_value_formatter(tmp_path):
    rng = np.random.default_rng(2024)
    x = np.linspace(0.0, 1.0, 9)
    t = np.arange(8) * (3.0 / 8)
    p = rng.normal(size=(9, 8)) * 10.0 ** rng.integers(-300, 300, size=(9, 8))
    u = rng.normal(size=(9, 8))
    p[0, 0], p[1, 1], p[2, 2] = 5e-324, -0.0, 1e300
    u[3, 3], u[4, 4], u[5, 5] = -2.5e-310, -0.0, -1e300
    tile = TileField(x, t, p, u, chi=1, T=3.0)
    tile_to_csv(tile, tmp_path / "tile.csv")
    _per_value_csv(tile, tmp_path / "ref.csv")
    assert (tmp_path / "tile.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_binary_magic_check(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTATILE" + b"\0" * 64)
    with pytest.raises(DomainError):
        tile_from_binary(path)
