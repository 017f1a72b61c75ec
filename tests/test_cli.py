import json

import numpy as np
import pytest

from puretone.cli import main
from puretone.eos import GammaLawEos
from puretone.profile import (
    PiecewiseConstantProfile,
    constant_profile,
    save_profile,
)
from puretone.spectrum import eigen_solve


@pytest.fixture()
def profile_file(tmp_path, two_level):
    path = tmp_path / "two.json"
    save_profile(two_level, path)
    return str(path)


@pytest.fixture()
def const_file(tmp_path, gamma2):
    path = tmp_path / "const.json"
    save_profile(constant_profile(1.0, 1.0, pbar=1.0, eos=gamma2), path)
    return str(path)


def test_eigen_csv_round_trip(profile_file, tmp_path, two_level):
    out = tmp_path / "out"
    rc = main(["eigen", "--profile", profile_file, "--k-range", "1:6", "--out-dir", str(out)])
    assert rc == 0
    data = np.genfromtxt(out / "eigen.csv", delimiter=",", names=True)
    assert data.size == 6
    for row in data:
        eig = eigen_solve(two_level, int(row["k"]))
        assert abs(row["omega"] - eig.omega) < 1e-12
        assert abs(row["T"] - eig.T) < 1e-12
        assert row["kappa_residual"] < 1e-10
    manifest = json.loads((out / "eigen.manifest.json").read_text())
    assert manifest["command"] == "eigen"
    assert manifest["profile_hash"]
    assert manifest["profile"]["eos"]["gamma"] == 2.0


def test_eigen_constant_closed_form(const_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["eigen", "--profile", const_file, "--k-range", "1:10", "--out-dir", str(out)])
    assert rc == 0
    data = np.genfromtxt(out / "eigen.csv", delimiter=",", names=True)
    assert np.max(np.abs(data["omega"] - data["k"] * np.pi / 2)) < 1e-10


def test_missing_profile_exit_2(tmp_path, capsys):
    rc = main(["eigen", "--profile", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "nope.json" in err["message"]


def test_malformed_profile_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["eigen", "--profile", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_determinism_byte_identical(profile_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        rc = main(
            ["divisors", "--profile", profile_file, "--k", "1", "--jmax", "16",
             "--out-dir", str(out)]
        )
        assert rc == 0
    assert (out1 / "divisors.csv").read_bytes() == (out2 / "divisors.csv").read_bytes()


def test_resonance_report(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["resonance", "--profile", profile_file, "--k", "1", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "resonance.json").read_text())
    assert doc["verdict"] == "nonresonant"
    assert doc["min_divisor"] > 1e-6


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["resonance", "--k", "1", "--jmax", "0"], 1, "DomainError"),
        (["eigen", "--k-range", "abc"], 2, "_UsageFailure"),
        (["divisors", "--jmax", "-3"], 1, "DomainError"),
        (["mode", "--k", "1", "--nx", "0", "--nt", "32"], 1, "DomainError"),
        (["eigen", "--k-range", "5:2"], 2, "_UsageFailure"),
        (["eigen", "--k-range", "1:1", "--chi", "acoustic"], 2, "_UsageFailure"),
        (["eigen", "--k-range", "3:3", "--chi", "acoustic"], 2, "_UsageFailure"),
        (["perturb", "--k", "1", "--modes", "8", "--nt", "32", "--alpha-schedule", "abc"], 2,
         "_UsageFailure"),
    ],
)
def test_bad_arguments_fail_typed(profile_file, tmp_path, capsys, argv, code, error):
    rc = main(argv + ["--profile", profile_file, "--out-dir", str(tmp_path)])
    assert rc == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["--box", "a,b,c,d"], 2, "_UsageFailure"),
        (["--box", "1,0.5,0.1,3"], 1, "DomainError"),
        (["--kmax", "0"], 1, "DomainError"),
        (["--jmax", "0"], 1, "DomainError"),
    ],
)
def test_bad_genericity_arguments_fail_typed(tmp_path, capsys, argv, code, error):
    rc = main(["genericity", "--samples", "50", "--out-dir", str(tmp_path)] + argv)
    assert rc == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "pwc"}, "levels"),
        ({"kind": "pwc", "eos": {}, "levels": [{"sigma": 1.0, "L": 1.0}]}, "eos.gamma"),
        ({"kind": "pwc", "levels": [{"sigma": "abc", "L": 1.0}]}, "levels[0].sigma"),
    ],
)
def test_bad_profile_file_fails_typed(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["eigen", "--profile", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "_UsageFailure"
    assert repr(field) in err["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_perturb_resonant_gate_exit_3(const_file, tmp_path, capsys):
    rc = main(
        ["perturb", "--profile", const_file, "--k", "1", "--modes", "8", "--nt", "32",
         "--alpha", "1e-4", "--out-dir", str(tmp_path)]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ResonanceError"


def test_perturb_branch(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["perturb", "--profile", profile_file, "--k", "1", "--modes", "8", "--nt", "32",
         "--alpha-schedule", "1e-4,2e-4", "--out-dir", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "branch.json").read_text())
    assert len(doc["solutions"]) == 2
    assert doc["failure"] is None
    assert all(s["residual_weighted"] < 1e-10 for s in doc["solutions"])


def test_perturb_diagnostics_byte_identical(profile_file, tmp_path):
    # the solver diagnostics in the solution JSON are deterministic
    docs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = main(
            ["perturb", "--profile", profile_file, "--k", "1", "--modes", "8", "--nt", "32",
             "--alpha-schedule", "1e-4,2e-4", "--out-dir", str(out)]
        )
        assert rc == 0
        docs.append((out / "branch.json").read_bytes())
    assert docs[0] == docs[1]
    for sol in json.loads(docs[0])["solutions"]:
        assert sol["diagnostics"]["refreshes"] == 0
        assert 0.0 < sol["diagnostics"]["contraction"] < 0.5
        assert "seconds" not in sol["diagnostics"]


def test_quiet_tile_constant_field(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["tile", "--profile", profile_file, "--quiet", "--nx", "8", "--nt", "16",
         "--out-dir", str(out), "--binary"]
    )
    assert rc == 0
    data = np.genfromtxt(out / "tile.csv", delimiter=",", names=True)
    assert np.all(data["p"] == 1.0)
    assert np.all(data["u"] == 0.0)
    from puretone.linwave import tile_from_binary

    tile = tile_from_binary(out / "tile.bin")
    assert np.all(tile.p == 1.0)


def test_nonlinear_tile_command(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["tile", "--profile", profile_file, "--k", "1", "--alpha", "2e-4",
         "--modes", "8", "--nx", "16", "--nt", "32", "--out-dir", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "tile.manifest.json").read_text())
    assert manifest["seam_max"] < 1e-9
    data = np.genfromtxt(out / "tile.csv", delimiter=",", names=True)
    assert data["x"].max() == 4.0  # chi = 1: full 4*ell period
    # pressure stays near pbar for a small-amplitude pure tone
    assert np.max(np.abs(data["p"] - 1.0)) < 1e-3


def test_mode_command(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["mode", "--profile", profile_file, "--k", "1", "--nx", "64", "--nt", "32",
         "--out-dir", str(out)]
    )
    assert rc == 0
    prof_data = np.genfromtxt(out / "mode_profile.csv", delimiter=",", names=True)
    assert prof_data["phi"][0] == 1.0
    assert abs(prof_data["phi"][-1]) < 1e-8  # k odd: phi(ell) = 0


def test_genericity_command(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["genericity", "--levels", "2", "--samples", "200", "--seed", "3",
         "--out-dir", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "genericity_summary.json").read_text())
    assert summary["samples"] == 200
    assert sum(summary["hist_counts"]) == 200 - summary["n_failed"]
    data = np.genfromtxt(out / "genericity.csv", delimiter=",", names=True)
    assert data.size == 200


def test_acoustic_chi_flag(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["eigen", "--profile", profile_file, "--k-range", "1:8", "--chi", "acoustic",
         "--out-dir", str(out)]
    )
    assert rc == 0
    data = np.genfromtxt(out / "eigen.csv", delimiter=",", names=True)
    assert np.all(data["k"] % 2 == 0)  # odd modes dropped for chi = 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_verify_battery_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "8/8 checks passed" in out
