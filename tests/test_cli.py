import json
from pathlib import Path

import numpy as np
import pytest

from puretone import bifurcate, linwave, spectrum
from puretone.cli import _problem_from_args, _write_json, build_parser, main
from puretone.eos import GammaLawEos
from puretone.errors import NumericalError
from puretone.evolve import EvolutionConfig
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


def test_k_ref_other_than_one_exit_2(profile_file, tmp_path, capsys):
    doc = json.loads(Path(profile_file).read_text())
    doc["eos"]["k_ref"] = 2.0
    bad = tmp_path / "k_ref.json"
    bad.write_text(json.dumps(doc))
    rc = main(["eigen", "--profile", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "usage" and "'eos.k_ref' must be 1.0" in err["message"]
    assert not (tmp_path / "out").exists()


_PERTURB = ["perturb", "--k", "1", "--alpha", "1e-4"]
_TILE = ["tile", "--k", "1", "--alpha", "1e-4", "--modes", "8", "--nx", "8", "--nt", "32"]
_NEEDS = "needs a profile file with eos and pbar"


@pytest.mark.parametrize(
    "argv, missing, message",
    [
        (_PERTURB, "eos", "perturb " + _NEEDS),
        (_PERTURB, "pbar", "perturb " + _NEEDS),
        (_TILE, "eos", "tile " + _NEEDS),
        (_TILE, "pbar", "tile " + _NEEDS),
        (["tile", "--quiet", "--nx", "8", "--nt", "32"], "pbar", "quiet tile needs pbar"),
    ],
    ids=["perturb-eos", "perturb-pbar", "tile-eos", "tile-pbar", "tile_quiet-pbar"],
)
def test_nonlinear_command_needs_eos_and_pbar(profile_file, tmp_path, capsys, argv, missing,
                                              message):
    # nonlinear commands read eos and pbar from the profile file alone, and a
    # quiet tile reads pbar; a file without what the command reads is a usage
    # error that names it and writes nothing
    doc = json.loads(Path(profile_file).read_text())
    del doc[missing]
    bad = tmp_path / f"no_{missing}.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(argv + ["--profile", str(bad), "--out-dir", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["kind"] == "usage"
    assert err["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, names",
    [(["perturb", "--k", "5", "--modes", "4"], ("k=5", "M=4")),
     (["tile", "--k", "5", "--modes", "4", "--alpha", "1e-4"], ("k=5", "M=4")),
     (["perturb", "--k", "1", "--modes", "1", "--alpha", "1e-4"], ("M=1",))],
    ids=["perturb-k-above-M", "tile-k-above-M", "perturb-M-below-2"],
)
def test_mode_above_the_cutoff_fails_typed(profile_file, tmp_path, capsys, argv, names):
    # k > --modes, or --modes 1, is refused when the problem is built: exit 1
    # with one JSON DomainError, and no --out-dir
    out = tmp_path / "out"
    rc = main(argv + ["--profile", profile_file, "--out-dir", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DomainError" and all(name in err["message"] for name in names)
    assert not out.exists()


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


def test_resonance_borderline_verdict(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["resonance", "--profile", profile_file, "--k", "1", "--tol", "1",
               "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "resonance.json").read_text())
    assert doc["verdict"] == "borderline"
    assert doc["tol"] == 1.0


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
        (["perturb", "--k", "1", "--modes", "8", "--alpha-schedule", "abc"], 2, "_UsageFailure"),
        (["tile", "--quiet", "--period", "-1", "--nx", "4", "--nt", "8"], 1, "DomainError"),
        (["divisors", "--period", "inf"], 1, "DomainError"),
        (["mode", "--k", "5", "--nt", "8"], 1, "DomainError"),  # nt < 2 k + 2
        (["resonance", "--k", "1", "--tol", "nan"], 1, "DomainError"),
        (["perturb", "--k", "1", "--modes", "8", "--tol", "0"], 1, "DomainError"),
        (["tile", "--quiet", "--alpha", "1e-3"], 2, "_UsageFailure"),
        (["tile", "--alpha", "1e-3", "--period", "5"], 2, "_UsageFailure"),
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


def test_non_finite_smooth_samples_fail_typed(tmp_path, capsys):
    # json reads the bare NaN; the smooth piece refuses it with a typed error
    piece = {"x": [0.0, float("nan"), 1.0], "sigma": [1.0, 1.5, 2.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "smooth", "pieces": [piece]}))
    rc = main(["eigen", "--profile", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "_UsageFailure"
    assert "x samples must be finite" in err["message"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["perturb", "--alpha", "nan"], "--alpha"),
        (["perturb", "--alpha=-inf"], "--alpha"),
        (["perturb", "--alpha-schedule", "1e-4,nan"], "--alpha-schedule"),
        (["perturb", "--alpha-schedule", "1e-4,inf,2e-4"], "--alpha-schedule"),
        (["tile", "--alpha", "nan"], "--alpha"),
        (["tile", "--alpha", "inf"], "--alpha"),
    ],
)
def test_non_finite_alpha_is_a_usage_error(profile_file, tmp_path, capsys, argv, flag):
    # refused before the march: no branch, tile or manifest is written
    out = tmp_path / "out"
    rc = main(argv + ["--profile", profile_file, "--k", "1", "--modes", "8", "--out-dir", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "_UsageFailure"
    assert err["message"].startswith(flag + " wants finite")
    assert not out.exists()


def test_json_artifacts_refuse_non_finite_values(tmp_path):
    # artifacts are strict JSON: a NaN or infinity fails typed and leaves no file
    for bad in (float("nan"), float("inf")):
        path = tmp_path / "doc.json"
        with pytest.raises(NumericalError, match="doc.json"):
            _write_json(path, {"alphas": [1e-4, bad]})
        assert not path.exists()


def test_perturb_resonant_gate_exit_3(const_file, tmp_path, capsys):
    rc = main(
        ["perturb", "--profile", const_file, "--k", "1", "--modes", "8",
         "--alpha", "1e-4", "--out-dir", str(tmp_path)]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ResonanceError"


def test_tile_resonant_gate_writes_nothing(const_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["tile", "--profile", const_file, "--k", "1", "--modes", "8", "--alpha", "1e-4",
               "--nx", "8", "--nt", "32", "--out-dir", str(out)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ResonanceError"
    assert not out.exists()


def test_perturb_branch(profile_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["perturb", "--profile", profile_file, "--k", "1", "--modes", "8",
         "--alpha-schedule", "1e-4,2e-4", "--out-dir", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "branch.json").read_text())
    assert len(doc["solutions"]) == 2
    assert doc["failure"] is None
    assert all(s["residual_weighted"] < 1e-10 for s in doc["solutions"])


def test_perturb_failed_branch_exit_1(profile_file, tmp_path):
    # the only alpha loses positive pressure: no solution, the failure recorded
    out = tmp_path / "out"
    rc = main(["perturb", "--profile", profile_file, "--k", "1", "--modes", "8",
               "--alpha-schedule", "0.9", "--out-dir", str(out)])
    assert rc == 1
    doc = json.loads((out / "branch.json").read_text())
    assert doc["solutions"] == []
    assert doc["failure"]["alpha"] == 0.9
    assert doc["failure"]["error"] == "ShockProximityError"


def test_perturb_sub_floor_tolerance_ends_typed(profile_file, tmp_path, monkeypatch):
    # --tol below the roundoff floor: the solve ends with a SolverError that
    # names the floor once a fresh FD Jacobian no longer lowers the residual,
    # in fewer than half of the 55 evolutions that the 30-iteration stall took
    rows = []
    evolve = bifurcate.evolve_coefficients

    def counting(profile, a, b, *args):
        rows.append(a.shape[0] if a.ndim > 1 else 1)
        return evolve(profile, a, b, *args)

    monkeypatch.setattr(bifurcate, "evolve_coefficients", counting)
    out = tmp_path / "out"
    rc = main(["perturb", "--profile", profile_file, "--k", "1", "--modes", "8",
               "--tol", "1e-300", "--alpha", "1e-4", "--out-dir", str(out)])
    assert rc == 1
    failure = json.loads((out / "branch.json").read_text())["failure"]
    assert failure["error"] == "SolverError"
    assert "residual floor" in failure["message"]
    assert sum(rows) < 55 / 2  # measured 23


def test_perturb_diagnostics_byte_identical(profile_file, tmp_path):
    # the solver diagnostics in the solution JSON are deterministic
    docs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = main(
            ["perturb", "--profile", profile_file, "--k", "1", "--modes", "8",
             "--alpha-schedule", "1e-4,2e-4", "--out-dir", str(out)]
        )
        assert rc == 0
        docs.append((out / "branch.json").read_bytes())
    assert docs[0] == docs[1]
    solutions = json.loads(docs[0])["solutions"]
    assert solutions[0]["diagnostics"]["evolutions"] >= 2
    for sol in solutions:
        assert sol["diagnostics"]["refreshes"] == 0
        if sol["diagnostics"]["evolutions"] >= 2:
            assert 0.0 < sol["diagnostics"]["contraction"] < 0.5
        else:  # the warm start met the default --tol 1e-10
            assert sol["diagnostics"]["contraction"] == 0.0
            assert sol["newton_iters"] == 1
            assert sol["residual_weighted"] < 1e-10
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


def test_tile_after_m_doubling_names_the_nt_it_needs(profile_file, tmp_path, capsys):
    # the solve doubles M from 4 to 8, which a 16-point time grid cannot carry:
    # a usage failure after the solve, before the snapshot march writes anything
    rc = main(["tile", "--profile", profile_file, "--k", "1", "--alpha", "1e-3", "--modes", "4",
               "--nt", "16", "--nx", "16", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "_UsageFailure"
    assert "M = 8" in err["message"] and "--nt >= 2 M + 2 = 18" in err["message"]
    assert not list(tmp_path.glob("tile*"))


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["tile", "--alpha", "1e-3", "--modes", "16", "--nx", "128", "--nt", "34"], 1, "DomainError"),
        (["tile", "--alpha", "1e-3", "--modes", "16", "--nx", "0", "--nt", "64"], 1, "DomainError"),
        (["tile", "--alpha", "1e-3", "--modes", "16", "--nx", "16", "--nt", "32"], 2, "_UsageFailure"),
        (["tile", "--nx", "16", "--nt", "30"], 1, "DomainError"),
        (["mode", "--nx", "0", "--nt", "32"], 1, "DomainError"),
        (["mode", "--nx", "16", "--nt", "34"], 1, "DomainError"),
    ],
)
def test_bad_grid_fails_before_any_solve(profile_file, tmp_path, capsys, monkeypatch,
                                         argv, code, error):
    def no_solve(*args, **kwargs):
        raise AssertionError("a bad grid reached the solve")

    monkeypatch.setattr(bifurcate, "solve_at_alpha", no_solve)
    monkeypatch.setattr(spectrum, "eigen_solve", no_solve)
    rc = main(argv + ["--k", "1", "--profile", profile_file, "--out-dir", str(tmp_path)])
    assert rc == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["perturb", "tile"])
@pytest.mark.parametrize("k, k_accuracy", [(1, 4), (3, 5)])
def test_cli_problem_marches_at_the_k_aware_accuracy(two_level, command, k, k_accuracy):
    # the CLI's problem is the library's: the march's quadrature does not follow --nt
    args = build_parser().parse_args(
        [command, "--profile", "two.json", "--k", str(k), "--alpha", "1e-3", "--modes", "16"]
    )
    cfg = _problem_from_args(args, two_level).cfg
    library = bifurcate.BifurcationProblem(two_level, two_level.eos, k=k, cfg=EvolutionConfig(M=16))
    assert cfg == library.cfg
    assert cfg.k_accuracy == k_accuracy


def test_default_perturb_writes_the_library_branch(profile_file, two_level, tmp_path):
    out = tmp_path / "out"
    assert main(["perturb", "--profile", profile_file, "--k", "1", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "branch.json").read_text())
    branch = bifurcate.branch_continue(
        bifurcate.BifurcationProblem(two_level, two_level.eos, k=1)
    )
    assert doc["failure"] is None and len(doc["solutions"]) == len(branch.solutions) == 4
    for written, sol in zip(doc["solutions"], branch.solutions):
        assert written["z"] == sol.z
        assert written["a"] == sol.a.tolist()


def test_perturb_has_no_nt(capsys):
    # the march's quadrature is the library's; only the tile has a time grid
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--profile", "two.json", "--k", "1", "--nt", "32"])
    assert exc.value.code == 2
    assert "--nt" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # every `puretone` line of the README's code blocks parses: a removed flag
    # cannot live on in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    lines = [
        line.partition("#")[0].split()
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("puretone ")
    ]
    assert len(lines) == 8  # one example per subcommand
    for words in lines:
        build_parser().parse_args(words[1:])


def test_tile_solve_accuracy_against_fine_step(two_level):
    # tile --alpha at the benchmark's cli_tile settings (k = 1, alpha 1e-3,
    # --modes 16, --nt 64, --nx 128): the default-accuracy solve and snapshot
    # march against the same steps at dx = ell / 4000.  Finer references are
    # no better: they carry the roundoff of more steps (z moves 1.6e-8
    # relative from ell/4000 to ell/8000, 1.8e-7 to ell/20000).
    argv = ["tile", "--profile", "two.json", "--k", "1", "--alpha", "1e-3",
            "--modes", "16", "--nt", "64", "--nx", "128"]
    args = build_parser().parse_args(argv)
    fine = EvolutionConfig(M=16, n_quad=64, dx=two_level.ell / 4000)

    def solve_and_tile(problem):
        sol = bifurcate.solve_at_alpha(problem, args.alpha)
        tile = linwave.nonlinear_tile(
            two_level, sol.y0_field(), problem.cfg, args.nx, args.nt, 1
        )
        return sol, tile

    sol, tile = solve_and_tile(_problem_from_args(args, two_level))
    ref, ref_tile = solve_and_tile(
        bifurcate.BifurcationProblem(two_level, two_level.eos, k=1, cfg=fine)
    )
    tile_err = max(np.max(np.abs(tile.p - ref_tile.p)), np.max(np.abs(tile.u - ref_tile.u)))
    z_err = abs(sol.z - ref.z) / abs(ref.z)
    a_err = np.max(np.abs(sol.a - ref.a)) / np.max(np.abs(ref.a))
    assert tile_err < 1e-14  # measured 3.1e-15 (8.9e-16 at k_accuracy 16)
    assert z_err < 2e-8  # measured 6.5e-9 (2.4e-9 at k_accuracy 16)
    assert a_err < 2e-9  # measured 6.7e-10 (6.5e-13 at k_accuracy 16)


def test_nonlinear_tile_independent_of_hash_seed(profile_file, tmp_path):
    # tile --alpha from two fresh interpreters with different string-hash seeds
    # writes the same bytes
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-m", "puretone.cli", "tile", "--profile", profile_file, "--k", "1",
             "--alpha", "2e-4", "--modes", "8", "--nx", "8", "--nt", "32", "--binary",
             "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outs.append(out)
    for name in ("tile.bin", "tile.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_linear_tile_matches_extended_mode_tile(profile_file, tmp_path):
    # `tile` without --alpha or --quiet is the linear mode tile of `mode --extend`
    common = ["--profile", profile_file, "--k", "1", "--nx", "32", "--nt", "16"]
    assert main(["tile", *common, "--out-dir", str(tmp_path / "tile")]) == 0
    assert main(["mode", *common, "--extend", "--out-dir", str(tmp_path / "mode")]) == 0
    tile_csv = (tmp_path / "tile" / "tile.csv").read_bytes()
    assert tile_csv == (tmp_path / "mode" / "mode_tile.csv").read_bytes()
    assert tile_csv.count(b"\n") == 1 + (4 * 32 + 1) * 16


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


def test_genericity_without_triples_leaves_the_histogram_empty(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["genericity", "--levels", "2", "--samples", "50", "--kmax", "1", "--lmax", "2",
         "--jmax", "2", "--box", "4.9,5.0,2.9,3.0", "--out-dir", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "genericity_summary.json").read_text())
    assert summary["n_no_triple"] == 50 and summary["n_failed"] == 0
    assert not any(summary["hist_counts"])


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
