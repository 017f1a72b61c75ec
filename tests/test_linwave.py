import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import rolled_extension, sl_residual
from puretone import linwave
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
    assert abs(mode1.phi[-1]) < 1e-8


def test_even_mode_acoustic_boundary(two_level):
    eig = eigen_solve(two_level, 2, chi=0)
    mode = eigenfunction_profiles(two_level, eig, nx=256)
    # psi(ell) = 0 for the acoustic condition
    assert abs(mode.psi[-1]) < 1e-8


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
    tile = quiet_tile(two_level, 4.0, nx=16, nt=16, chi=1)
    ext = extend_tile(tile)
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


@pytest.mark.parametrize("chi", [0, 1])
def test_extension_matches_per_row_rolls(monkeypatch, chi):
    # the row gather and column permutation copy the bits of the per-row
    # np.roll loops; random rows leave no symmetry to hide a wrong index
    monkeypatch.setattr(linwave, "_EXTEND_TOL", np.inf)
    rng = np.random.default_rng(7)
    nx, nt = 5, 12
    p, u = rng.standard_normal((2, nx + 1, nt))
    u[0, 3] = -0.0
    tile = TileField(np.linspace(0.0, 1.0, nx + 1), np.arange(nt) / nt, p, u, chi=chi, T=1.0)
    ext = extend_tile(tile)
    p_ref, u_ref = rolled_extension(p, u, chi)
    assert ext.p.tobytes() == p_ref.tobytes()
    assert ext.u.tobytes() == u_ref.tobytes()


def test_extension_refuses_bad_tile(mode1):
    tile = mode_field(mode1, nt=64)
    # constants are invisible to the residuals; inject genuine odd content
    spoil = 0.5 * np.sin(2 * np.pi * np.arange(tile.nt) / tile.nt)
    bad = type(tile)(
        tile.x, tile.t, tile.p, tile.u + spoil[None, :], chi=tile.chi, T=tile.T, meta={}
    )
    with pytest.raises(BoundaryResidualError):
        extend_tile(bad)


def test_nt_divisibility():
    with pytest.raises(DomainError, match="nt must be"):
        quiet_tile(constant_profile(1.0, 1.0, pbar=1.0), 4.0, nx=4, nt=10, chi=1)


def test_quiet_tile_reads_pbar_and_needs_no_eos():
    # the quiet tile's mean is the profile's own pbar; without it the tile is refused
    tile = quiet_tile(constant_profile(1.0, 1.0, pbar=2.5), 4.0, nx=4, nt=8, chi=1)
    assert np.all(tile.p == 2.5) and np.all(tile.u == 0.0)
    with pytest.raises(DomainError, match="pbar"):
        quiet_tile(constant_profile(1.0, 1.0), 4.0, nx=4, nt=8, chi=1)


# -- the seam gate ------------------------------------------------------------------


def test_boundary_residual_exact_mode(two_level, mode1):
    tile = mode_field(mode1, nt=64)
    assert np.all(tile.u[0] == 0.0)  # u(0, .) vanishes identically
    meta = extend_tile(tile).meta
    assert meta["u0_max"] == 0.0
    assert meta["seam_max"] < 1e-8  # measured 4.3e-15
    acoustic = eigenfunction_profiles(two_level, eigen_solve(two_level, 2, chi=0), nx=64)
    assert extend_tile(mode_field(acoustic, nt=64)).meta["u0_max"] == 0.0


def test_boundary_residual_detuned_period(two_level, monkeypatch):
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
        if expect_small:
            meta = extend_tile(tile).meta
            assert meta["u0_max"] == 0.0
            assert meta["seam_max"] < 1e-8
        else:
            with pytest.raises(BoundaryResidualError):
                extend_tile(tile)
            with monkeypatch.context() as patch:
                patch.setattr(linwave, "_EXTEND_TOL", np.inf)
                assert extend_tile(tile).meta["seam_max"] > 1e-4  # measured 2.8e-3


def test_boundary_residual_quiet(two_level):
    meta = extend_tile(quiet_tile(two_level, 4.0, nx=4, nt=16, chi=1)).meta
    assert (meta["seam_p"], meta["seam_u"], meta["u0_max"], meta["seam_max"]) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("row, field", [(-1, "p"), (0, "u")], ids=["p-at-ell", "u-at-0"])
def test_extension_refuses_nan_on_a_seam(mode1, row, field):
    # a NaN on a seam row makes its mismatch NaN, which no tolerance accepts
    tile = mode_field(mode1, nt=64)
    arrays = {"p": tile.p.copy(), "u": tile.u.copy()}
    arrays[field][row, 5] = np.nan
    bad = TileField(tile.x, tile.t, arrays["p"], arrays["u"], chi=tile.chi, T=tile.T)
    with pytest.raises(BoundaryResidualError):
        extend_tile(bad)


# -- nonlinear tiles and serialization ----------------------------------------------


def test_nonlinear_tile_quiet_rows(two_level):
    eig = eigen_solve(two_level, 1)
    cfg = EvolutionConfig(M=8)
    y0 = FourierField.constant(eig.T, 1.0, 8)
    tile = nonlinear_tile(two_level, y0, cfg, nx=8, nt=32, chi=1)
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


# values whose bits differ only in sign, in the last ulp, or in a NaN's payload and sign
_NEAR_TWINS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, np.nextafter(1e-310, 1.0),
     1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, -np.nextafter(1.0, 2.0)],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0x7FF8000000000123, 0xFFF00000000ABCDE], dtype=np.uint64).view(np.float64),
])


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 32),
    nt=st.sampled_from([4, 8, 12, 16, 32, 64]),
    chi=st.sampled_from([0, 1]),
    quiet=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    twin_frac=st.floats(0.0, 0.5),
)
def test_tile_csv_bytes_match_per_value_formatter_on_extended_tiles(
    tmp_path_factory, nx, nt, chi, quiet, seed, twin_frac
):
    # the writer formats each distinct bit pattern once; an extended tile
    # repeats its base up to sign, and near twins must still keep their own strings
    rng = np.random.default_rng(seed)
    if quiet:
        base = quiet_tile(constant_profile(1.0, 1.0, pbar=abs(rng.normal())), 2.0, nx, nt, chi)
        tile = extend_tile(base)
        assert np.unique(base.p.view(np.int64)).size == np.unique(base.u.view(np.int64)).size == 1
        assert np.unique(tile.p.view(np.int64)).size == 1
        assert np.unique(tile.u.view(np.int64)).tolist() == [-(2**63), 0]  # -0.0 and 0.0
    else:
        p, u = rng.normal(size=(2, nx + 1, nt)) * 10.0 ** rng.integers(-300, 300, size=(2, nx + 1, nt))
        for f in (p, u):
            flat = f.ravel()
            src = flat[rng.integers(0, flat.size, size=flat.size)]
            twins = (-src, np.nextafter(src, np.inf), np.nextafter(src, -np.inf),
                     rng.choice(_NEAR_TWINS, size=flat.size))
            pick = rng.random(flat.size) < twin_frac
            flat[pick] = np.choose(rng.integers(0, 4, size=flat.size), twins)[pick]
        p_ext, u_ext = rolled_extension(p, u, chi)
        tile = TileField(np.linspace(0.0, 1.0, p_ext.shape[0]), np.arange(nt) * (2.0 / nt),
                         p_ext, u_ext, chi=chi, T=2.0)
    out = tmp_path_factory.mktemp("csv")
    tile_to_csv(tile, out / "tile.csv")
    _per_value_csv(tile, out / "ref.csv")
    assert (out / "tile.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_tile_csv_memory_stays_at_the_distinct_strings(two_level):
    # the strings live once per distinct value; per-value Python lists of
    # strings or indices peak above 2.6 MB on this 513 x 64 tile
    mode = eigenfunction_profiles(two_level, eigen_solve(two_level, 1), nx=128)
    tile = extend_tile(mode_field(mode, nt=64))
    assert tile.p.shape == (513, 64)
    with tempfile.TemporaryDirectory() as out:
        tracemalloc.start()
        try:
            tile_to_csv(tile, f"{out}/tile.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize(
    "spoil",
    [
        lambda good: b"NOTATILE" + b"\0" * 64,  # wrong magic
        lambda good: good[:20],  # cut inside the header
        lambda good: good[:-12],  # cut inside the payload
        lambda good: good[:8] + (-1).to_bytes(8, "little", signed=True) + good[16:],  # negative count
        # a whole file whose nt = 6 breaks the chi = 1 grid rule
        lambda good: good[:8] + struct.pack("<qqqdd", 3, 6, 1, 2.0, 1.0) + bytes(8 * (3 + 6 + 36)),
        # a whole file of one x row, which no extension can reflect
        lambda good: good[:8] + struct.pack("<qqqdd", 1, 4, 1, 2.0, 0.0) + bytes(8 * (1 + 4 + 8)),
        # a whole file whose chi = 2 is neither boundary condition
        lambda good: good[:8] + struct.pack("<qqq", 3, 4, 2) + good[32:],
    ],
    ids=("magic", "cut-header", "cut-payload", "negative-count", "nt6-chi1", "one-row", "chi2"),
)
def test_binary_magic_check(tmp_path, spoil):
    # a file that is not a whole tile fails typed, never with struct.error or ValueError
    tile = TileField(np.linspace(0.0, 1.0, 3), np.arange(4) * 0.5, np.ones((3, 4)),
                     np.zeros((3, 4)), chi=1, T=2.0)
    tile_to_binary(tile, tmp_path / "good.bin")
    assert np.array_equal(tile_from_binary(tmp_path / "good.bin").p, tile.p)
    path = tmp_path / "junk.bin"
    path.write_bytes(spoil((tmp_path / "good.bin").read_bytes()))
    with pytest.raises(DomainError):
        tile_from_binary(path)


@pytest.mark.parametrize("T", (-1.0, 0.0, np.nan, np.inf))
def test_tile_period_must_be_finite_and_positive(T):
    with pytest.raises(DomainError):
        TileField(np.linspace(0.0, 1.0, 3), np.arange(4) * 0.5, np.ones((3, 4)),
                  np.zeros((3, 4)), chi=1, T=T)
