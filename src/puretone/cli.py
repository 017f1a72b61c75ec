"""Command-line front end.

Subcommands: eigen, divisors, resonance, genericity, mode, perturb, tile,
verify.  Artifacts are CSV/JSON files in --out-dir, each run accompanied by
a <command>.manifest.json recording the command, configuration echo, profile
hash, seed, package version and timings.  Outputs are byte-identical across
reruns with the same command, configuration and seed (manifests carry
timings and are exempt).

Exit codes: 0 ok, 1 numerical failure, 2 usage or file problems,
3 resonance gate.  Failures also emit a machine-readable JSON object on
stderr: {"error": <class>, "message": <text>}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PureToneError, ResonanceError
from .eos import GammaLawEos
from . import profile as profile_mod
from . import sl_core
from . import spectrum
from . import evolve
from . import linwave
from . import bifurcate

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_RESONANT = 3


class _UsageFailure(Exception):
    pass


def _chi_of(args) -> int:
    return 1 if args.chi == "periodic" else 0


def _load_profile(path):
    try:
        return profile_mod.load_profile(path)
    except FileNotFoundError as exc:
        raise _UsageFailure(f"profile file not found: {path}") from exc
    except (OSError, json.JSONDecodeError, PureToneError) as exc:
        raise _UsageFailure(f"cannot read profile {path}: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


def _write_manifest(out: Path, command, args, t0, outputs, profile=None, extra=None):
    manifest = {
        "command": command,
        "argv": [a for a in (args._argv or [])],
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "_argv") and not k.startswith("_")
        },
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "profile_hash": profile_mod.profile_hash(profile) if profile is not None else None,
        "profile": profile_mod.profile_to_dict(profile) if profile is not None else None,
        "timings": {"seconds": time.perf_counter() - t0},
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest.update(extra)
    _write_json(out / f"{command}.manifest.json", manifest, default=str)


def _write_json(path: Path, doc, default=None):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")


def _write_tile(out: Path, stem, tile, binary):
    """tile as <stem>.csv, and as <stem>.bin when binary; returns the paths."""
    paths = [out / f"{stem}.csv"]
    linwave.tile_to_csv(tile, paths[0])
    if binary:
        paths.append(out / f"{stem}.bin")
        linwave.tile_to_binary(tile, paths[1])
    return paths


def _parse_k_range(spec: str):
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            ks = range(int(lo), int(hi) + 1)
        else:
            ks = [int(spec)]
    except ValueError as exc:
        raise _UsageFailure(f"--k-range wants K or LO:HI, got {spec!r}") from exc
    if not ks:
        raise _UsageFailure(f"--k-range {spec!r} is empty")
    return ks


def _floats(spec: str, flag: str):
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise _UsageFailure(f"{flag} wants comma-separated numbers, got {spec!r}") from exc


# -- commands ------------------------------------------------------------------


def cmd_eigen(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    chi = _chi_of(args)
    ks = [k for k in _parse_k_range(args.k_range) if chi == 1 or k % 2 == 0]
    if not ks:
        raise _UsageFailure(f"--k-range {args.k_range!r} holds no even k for --chi acoustic")
    rows = []
    for k in ks:
        eig = spectrum.eigen_solve(prof, k, chi)
        rows.append((k, eig.omega, eig.T, eig.kappa_residual))
    out = _out_dir(args)
    path = out / "eigen.csv"
    _write_csv(path, ["k", "omega", "T", "kappa_residual"], rows)
    _write_manifest(out, "eigen", args, t0, [path], profile=prof)
    return EXIT_OK


def cmd_divisors(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    chi = _chi_of(args)
    if args.period is not None:
        T = args.period
    else:
        T = spectrum.eigen_solve(prof, args.k, chi).T
    table = spectrum.divisors(prof, T, chi, args.jmax)
    out = _out_dir(args)
    path = out / "divisors.csv"
    _write_csv(path, ["j", "delta"], [(j + 1, float(d)) for j, d in enumerate(table.delta)])
    _write_manifest(out, "divisors", args, t0, [path], profile=prof, extra={"T": T})
    return EXIT_OK


def cmd_resonance(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    report = spectrum.resonance_scan(prof, args.k, _chi_of(args), j_max=args.jmax, tol=args.tol)
    out = _out_dir(args)
    path = out / "resonance.json"
    doc = {
        "k": report.k,
        "chi": report.chi,
        "T": report.T,
        "verdict": report.verdict,
        "min_divisor": report.min_divisor,
        "argmin_j": report.argmin_j,
        "tol": report.tol,
        "borderline": report.borderline,
        "min_ratio_residual": report.min_ratio_residual,
        "ratio_checks": [
            {"l": l, "j": j, "residual": r} for l, j, r in report.ratio_checks[:16]
        ],
    }
    _write_json(path, doc)
    _write_manifest(out, "resonance", args, t0, [path], profile=prof)
    return EXIT_OK


def cmd_genericity(args):
    t0 = time.perf_counter()
    box = spectrum.DEFAULT_MC_BOX
    if args.box:
        vals = _floats(args.box, "--box")
        if len(vals) != 4:
            raise _UsageFailure("--box wants J_LO,J_HI,TH_LO,TH_HI")
        box = ((vals[0], vals[1]), (vals[2], vals[3]))
    result = spectrum.genericity_mc(
        args.levels, args.samples, seed=args.seed, box=box,
        k_max=args.kmax, l_max=args.lmax, j_max=args.jmax,
    )
    out = _out_dir(args)
    csv_path = out / "genericity.csv"
    rows = [
        (i, float(result.min_residual[i]), *map(int, result.argmin_triple[i]))
        for i in range(result.samples)
    ]
    _write_csv(csv_path, ["sample", "min_residual", "k", "j", "l"], rows)
    json_path = out / "genericity_summary.json"
    _write_json(json_path, result.summary())
    _write_manifest(out, "genericity", args, t0, [csv_path, json_path])
    return EXIT_OK


def cmd_mode(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    chi = _chi_of(args)
    eig = spectrum.eigen_solve(prof, args.k, chi)
    mode = linwave.eigenfunction_profiles(prof, eig, nx=args.nx)
    tile = linwave.mode_field(mode, args.nt, meta={"kind": "linear-mode", "k": args.k})
    out = _out_dir(args)
    prof_path = out / "mode_profile.csv"
    _write_csv(
        prof_path, ["x", "phi", "psi"],
        [(float(x), float(p), float(q)) for x, p, q in zip(mode.x, mode.phi, mode.psi)],
    )
    tile_out = linwave.extend_tile(tile) if args.extend else tile
    outputs = [prof_path] + _write_tile(out, "mode_tile", tile_out, args.binary)
    _write_manifest(out, "mode", args, t0, outputs, profile=prof,
                    extra={"omega": eig.omega, "T": eig.T})
    return EXIT_OK


def _solution_doc(sol):
    return {
        "alpha": sol.alpha,
        "z": sol.z,
        "a": sol.a.tolist(),
        "residual_weighted": sol.residual_weighted,
        "newton_iters": sol.newton_iters,
        "converged": sol.converged,
        "k": sol.k,
        "chi": sol.chi,
        "T": sol.T,
        "M": sol.M,
        "pbar": sol.pbar,
        "pbar_effective": sol.pbar_effective,
        "diagnostics": sol.diagnostics,
    }


def _problem_from_args(args, prof):
    cfg = evolve.EvolutionConfig(M=args.modes, n_quad=max(args.nt, 4 * args.modes))
    return bifurcate.BifurcationProblem(
        profile=prof, eos=prof.eos, k=args.k, chi=_chi_of(args),
        cfg=cfg, newton_tol=args.tol,
    )


def cmd_perturb(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    if prof.eos is None or prof.pbar is None:
        raise _UsageFailure("perturb needs a profile file with eos and pbar")
    problem = _problem_from_args(args, prof)
    if args.alpha is not None:
        schedule = (args.alpha,)
    else:
        schedule = tuple(_floats(args.alpha_schedule, "--alpha-schedule"))
    problem.validate()  # raises ResonanceError -> exit 3
    branch = bifurcate.branch_continue(problem, alphas=schedule)
    out = _out_dir(args)
    path = out / "branch.json"
    doc = {
        "k": args.k,
        "chi": _chi_of(args),
        "modes": problem.cfg.M,
        "alphas": list(branch.alphas_requested),
        "solutions": [_solution_doc(s) for s in branch.solutions],
        "failure": branch.failure,
    }
    _write_json(path, doc)
    _write_manifest(out, "perturb", args, t0, [path], profile=prof)
    if branch.failure is not None and not branch.solutions:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_tile(args):
    t0 = time.perf_counter()
    prof = _load_profile(args.profile)
    chi = _chi_of(args)
    out = _out_dir(args)
    if args.quiet:
        if prof.pbar is None:
            raise _UsageFailure("quiet tile needs pbar in the profile file")
        T = args.period if args.period is not None else 2.0 * np.pi
        tile = linwave.quiet_tile(prof, prof.pbar, T, args.nx, args.nt, chi,
                                  meta={"kind": "quiet"})
    elif args.alpha is None:
        eig = spectrum.eigen_solve(prof, args.k, chi)
        mode = linwave.eigenfunction_profiles(prof, eig, nx=args.nx)
        tile = linwave.mode_field(mode, args.nt, meta={"kind": "linear-mode", "k": args.k})
    else:
        if prof.eos is None or prof.pbar is None:
            raise _UsageFailure("nonlinear tile needs a profile file with eos and pbar")
        problem = _problem_from_args(args, prof)
        problem.validate()
        sol = bifurcate.solve_at_alpha(problem, args.alpha)
        tile = linwave.nonlinear_tile(
            prof, prof.eos, sol.y0_field(), problem.cfg, args.nx, args.nt, chi,
            meta={"kind": "pure-tone", "k": args.k, "alpha": args.alpha},
        )
    extended = linwave.extend_tile(tile)
    outputs = _write_tile(out, "tile", extended, args.binary)
    _write_manifest(out, "tile", args, t0, outputs, profile=prof,
                    extra={"seam_max": extended.meta.get("seam_max")})
    return EXIT_OK


def cmd_verify(args):
    t0 = time.perf_counter()
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    # closed-form spectrum of the constant profile
    const = profile_mod.constant_profile(1.0, 1.0)
    om, res = spectrum.eigen_ladder(const, 20)
    err = float(np.max(np.abs(om - np.arange(1, 21) * np.pi / 2)))
    check("constant-profile spectrum omega_k = k pi/2", err < 1e-10, f"max err {err:.2e}")

    # unit determinant of random transfer matrices
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = rng.integers(1, 6)
        prof = profile_mod.PiecewiseConstantProfile(
            rng.uniform(0.3, 3.0, n), rng.uniform(0.1, 1.0, n)
        )
        for w in rng.uniform(0.05, 25.0, 5):
            psi = sl_core.fundamental_matrix(prof, w)
            worst = max(worst, abs(float(np.linalg.det(psi)) - 1.0))
    check("det Psi = 1 on random profiles", worst < 1e-12, f"worst {worst:.2e}")

    # two-level divisor gate
    eos = GammaLawEos(2.0)
    two = profile_mod.PiecewiseConstantProfile([1.0, 2.0], [0.5, 0.5], pbar=1.0, eos=eos)
    rep = spectrum.resonance_scan(two, 1)
    check(
        "two-level k=1 nonresonant gate",
        rep.verdict == "nonresonant" and rep.min_divisor > 1e-6,
        f"min divisor {rep.min_divisor:.3e}",
    )

    # quiet state is an exact fixed point
    eig = spectrum.eigen_solve(two, 1)
    cfg = evolve.EvolutionConfig(M=8)
    y0 = evolve.FourierField.constant(eig.T, 1.0, 8)
    out_field = evolve.nonlinear_evolve(two, eos, y0, cfg)
    drift = float(np.max(np.abs(out_field.cos - y0.cos)) + np.max(np.abs(out_field.sin)))
    check("quiet state fixed point", drift < 1e-13, f"drift {drift:.2e}")

    # linearized evolution matches the transfer matrix
    worst = 0.0
    for k in (1, 2, 3, 4):
        Y0 = evolve.FourierField.cosine(eig.T, k, 1.0, m=8)
        Y = evolve.linearized_evolve(two, eos, y0, Y0, cfg)
        psi = sl_core.fundamental_matrix(two, k * 2.0 * np.pi / eig.T)
        worst = max(worst, abs(Y.cos[k] - psi[0, 0]), abs(Y.sin[k] - psi[1, 0]))
    check("linearized evolution = transfer matrix", worst < 1e-9, f"worst {worst:.2e}")

    # reflect, evolve through the reversed profile, reflect: inverse evolution
    yd = y0 + 1e-3 * evolve.FourierField.cosine(eig.T, 1, 1.0, m=8)
    mid = evolve.nonlinear_evolve(two, eos, yd, cfg)
    refl = evolve.FourierField(mid.T, mid.cos, -mid.sin)
    back = evolve.nonlinear_evolve(profile_mod.reversed_profile(two), eos, refl, cfg)
    rt = float(
        np.max(np.abs(back.cos - yd.cos)) + np.max(np.abs(-back.sin - yd.sin))
    )
    check("reflect/evolve round trip", rt < 1e-10, f"error {rt:.2e}")

    # jump-angle axis identities
    h_err = max(
        abs(float(sl_core.jump_angle(j, np.pi / 2)) - np.pi / 2)
        for j in (0.25, 1.0, 4.0)
    )
    check("jump angle fixes the axes", h_err < 1e-14, f"err {h_err:.2e}")

    # profile JSON round trip
    doc = profile_mod.profile_to_dict(two)
    again = profile_mod.profile_from_dict(doc)
    check(
        "profile JSON round trip",
        profile_mod.profile_hash(two) == profile_mod.profile_hash(again),
    )

    print(f"{sum(checks)}/{len(checks)} checks passed in {time.perf_counter() - t0:.1f}s")
    return EXIT_OK if all(checks) else EXIT_NUMERICAL


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puretone",
        description="Pure-tone modes of 1-D compressible Euler over entropy profiles",
    )
    parser.add_argument("--version", action="version", version=f"puretone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=True):
        if profile:
            p.add_argument("--profile", required=True, help="profile JSON file")
        p.add_argument("--chi", choices=("periodic", "acoustic"), default="periodic")
        p.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("eigen", help="eigenfrequency table")
    common(p)
    p.add_argument("--k-range", default="1:32", help="K or LO:HI")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("divisors", help="small-divisor table at T = T_k")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--period", type=float, default=None, help="override T")
    p.add_argument("--jmax", type=int, default=64)
    p.set_defaults(func=cmd_divisors)

    p = sub.add_parser("resonance", help="resonance verdict for a mode")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jmax", type=int, default=64)
    p.add_argument("--tol", type=float, default=spectrum.RESONANCE_TOL)
    p.set_defaults(func=cmd_resonance)

    p = sub.add_parser("genericity", help="Monte-Carlo resonance statistics")
    common(p, profile=False)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--lmax", type=int, default=12)
    p.add_argument("--jmax", type=int, default=24)
    p.add_argument("--box", default=None, help="J_LO,J_HI,TH_LO,TH_HI")
    p.set_defaults(func=cmd_genericity)

    p = sub.add_parser("mode", help="linear k-mode eigenfunctions and tile")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nx", type=int, default=512)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--extend", action="store_true", help="emit the extended tile")
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("perturb", help="Liapunov-Schmidt branch of pure tones")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modes", type=int, default=32)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-schedule", default="1e-4,2e-4,5e-4,1e-3")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("tile", help="extended space-time tile")
    common(p)
    p.add_argument("--quiet", action="store_true", help="quiet-state tile")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, default=None,
                   help="perturb first, then tile the nonlinear solution")
    p.add_argument("--period", type=float, default=None)
    p.add_argument("--modes", type=int, default=32)
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("verify", help="run the quick invariant battery")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except _UsageFailure as exc:
        _emit_error(exc, "usage")
        return EXIT_USAGE
    except ResonanceError as exc:
        _emit_error(exc, "resonance")
        return EXIT_RESONANT
    except PureToneError as exc:
        _emit_error(exc, "numerical")
        return EXIT_NUMERICAL
    except OSError as exc:
        _emit_error(exc, "io")
        return EXIT_USAGE


def _emit_error(exc, kind):
    doc = {"error": type(exc).__name__, "kind": kind, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
