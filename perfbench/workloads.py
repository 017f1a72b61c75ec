"""The four benchmark workloads: inputs, one op, its correctness gate, its fingerprint.

Each op calls into puretone through module attributes (`bifurcate.branch_continue`,
not a name bound at import), so the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import json
import shutil
import tempfile

import numpy as np

from puretone import bifurcate, cli, linwave, sl_core, spectrum
from puretone import profile as profile_mod

import inputs

# -- correctness tolerances -----------------------------------------------------------

WRES_TOL = 1e-10  # the package's default Newton tolerance, criterion 9
ORDER_RATIO = (3.5, 4.5)  # O(alpha^2) ratios of z and max|a_j| when alpha doubles, criterion 9
# Relative error of z and max|a_j| against the refined branch.  The default
# solve's z carries an absolute error of ~4e-13 at every alpha, 1.7e-4 of z
# at alpha = 1e-4; the default march at x_error_target 1e-5 gives 8.3e-4.
COEF_TOL = 5e-4
OMEGA_TOL = 1e-10  # relative; KAPPA_TOL_SMOOTH = 5e-11 bounds omega_1 to ~4e-11 relative
DIVISOR_TOL = 1e-8  # absolute, as the tests' smooth transfer-matrix oracle check
DET_TOL = 1e-12  # sl_core.PSI_DET_TOL
SEAM_TOL = 1e-9  # criterion 10

GEN_LEVELS = 2
GEN_DRAWS = 8
GEN_SAMPLES = 10_000
GEN_SCANS = 16
GEN_JMAX = 64


def _load_ref(name):
    with open(inputs.REFS / f"{name}.json") as fh:
        return json.load(fh)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _scan_fingerprint_parts(report):
    """Every number and the verdict of a ResonanceReport."""
    return (
        report.verdict.encode(),
        np.array([report.T, report.min_divisor, report.argmin_j, report.min_ratio_residual]),
        report.divisor_table.delta,
        np.array(report.ratio_checks, dtype=float).ravel(),
    )


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


class Workload:
    """Set-up in __init__; op(key) is timed; check() and fingerprint() are not.

    key in range(n_inputs) picks one of the workload's input sets.
    """

    n_inputs = 1

    def op(self, key=0):
        raise NotImplementedError

    def check(self, out):
        """(problems, accuracy): problems is empty when the op passed its gate."""
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError

    def release(self, out):
        pass

    def close(self):
        pass


class Branch(Workload):
    """Default branch of the two-level profile, fresh problem per op."""

    def __init__(self, seed):
        self.prof = inputs.two_level()
        self.ref = {s["alpha"]: s for s in _load_ref("branch")["solutions"]}

    def op(self, key=0):
        problem = bifurcate.BifurcationProblem(self.prof, self.prof.eos, k=1, chi=1)
        return bifurcate.branch_continue(problem)

    def check(self, branch):
        sols = {s.alpha: s for s in branch.solutions}
        if branch.failure is not None or sorted(sols) != sorted(self.ref):
            return [f"branch incomplete: failure={branch.failure}"], {}
        problems = []
        wres_max = max(s.residual_weighted for s in sols.values())
        if not all(s.converged for s in sols.values()) or not wres_max < WRES_TOL:
            problems.append(f"wres_max {wres_max:.3e} not below {WRES_TOL:g}")
        z_err = max(_rel(s.z, self.ref[a]["z"]) for a, s in sols.items())
        a_err = max(_rel(np.max(np.abs(s.a)), self.ref[a]["max_abs_a"]) for a, s in sols.items())
        coef_err = max(z_err, a_err)
        if not coef_err <= COEF_TOL:
            problems.append(f"coef_err {coef_err:.3e} above {COEF_TOL:g}")
        ratios = []
        for lo, hi in ((1e-4, 2e-4), (5e-4, 1e-3)):
            ratios.append(sols[hi].z / sols[lo].z)
            ratios.append(np.max(np.abs(sols[hi].a)) / np.max(np.abs(sols[lo].a)))
        if not all(ORDER_RATIO[0] < r < ORDER_RATIO[1] for r in ratios):
            problems.append(f"O(alpha^2) ratios {ratios} outside {ORDER_RATIO}")
        acc = {"coef_err": coef_err, "z_err": z_err, "a_err": a_err, "wres_max": wres_max,
               "order_ratios": [float(r) for r in ratios]}
        return problems, acc

    def fingerprint(self, branch):
        parts = []
        for s in branch.solutions:
            parts += [np.array([s.alpha, s.z, s.residual_weighted, s.newton_iters, s.M]), s.a]
        return _digest(*parts)


@contextlib.contextmanager
def _capture(module, attr):
    """Keep what module.attr returns while the block runs (the op's inner outputs)."""
    inner = getattr(module, attr)
    seen = []

    def shim(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, attr, shim)
    try:
        yield seen
    finally:
        setattr(module, attr, inner)


class SmoothScan(Workload):
    """Resonance scan of the 65-sample smooth ramp, k = 1, j <= 16."""

    def __init__(self, seed):
        self.prof = inputs.smooth_ramp()
        ref = _load_ref("smooth_scan")
        self.ref_omega = np.array(ref["omega"])
        self.ref_delta = np.array(ref["delta"])
        self.ref_verdict = ref["verdict"]

    def op(self, key=0):
        with _capture(spectrum, "eigen_ladder") as ladders:
            report = spectrum.resonance_scan(
                self.prof, inputs.SMOOTH_K, 1, j_max=inputs.SMOOTH_JMAX
            )
        return report, ladders[0][0]

    def check(self, out):
        report, ladder = out
        problems = []
        if report.verdict != self.ref_verdict:
            problems.append(f"verdict {report.verdict} != reference {self.ref_verdict}")
        omega_k = 2.0 * np.pi * inputs.SMOOTH_K / report.T
        omega_err = max(
            float(np.max(np.abs(ladder - self.ref_omega) / self.ref_omega)),
            _rel(omega_k, self.ref_omega[inputs.SMOOTH_K - 1]),
        )
        divisor_err = float(np.max(np.abs(report.divisor_table.delta - self.ref_delta)))
        if not omega_err <= OMEGA_TOL:
            problems.append(f"omega_err {omega_err:.3e} above {OMEGA_TOL:g}")
        if not divisor_err <= DIVISOR_TOL:
            problems.append(f"divisor_err {divisor_err:.3e} above {DIVISOR_TOL:g}")
        psi = sl_core.fundamental_matrix(self.prof, inputs.SMOOTH_JMAX * omega_k)
        det_err = abs(float(np.linalg.det(psi)) - 1.0)
        if not det_err <= DET_TOL:
            problems.append(f"|det Psi - 1| = {det_err:.3e} above {DET_TOL:g}")
        acc = {"omega_err": omega_err, "divisor_err": divisor_err, "det_err": det_err,
               "min_divisor": report.min_divisor}
        return problems, acc

    def fingerprint(self, out):
        report, ladder = out
        return _digest(ladder, *_scan_fingerprint_parts(report))


class Genericity(Workload):
    """Seeded Monte-Carlo over two-level profiles, then scans of the 16 nearest misses.

    The run's seed makes GEN_DRAWS Monte-Carlo seeds and ops cycle through
    them: the vectorized root solve iterates until its hardest sample
    converges, so one draw alone makes op time depend on the seed.
    """

    def __init__(self, seed):
        self.n_inputs = GEN_DRAWS
        self.seeds = [seed * GEN_DRAWS + d for d in range(GEN_DRAWS)]
        # genericity_mc's own draw order, so sample i can be rebuilt as a profile
        (j_lo, j_hi), (t_lo, t_hi) = spectrum.DEFAULT_MC_BOX
        self.samples = []
        for s in self.seeds:
            rng = np.random.default_rng(s)
            jumps = rng.uniform(j_lo, j_hi, size=(GEN_SAMPLES, GEN_LEVELS - 1))
            angles = rng.uniform(t_lo, t_hi, size=(GEN_SAMPLES, GEN_LEVELS))
            self.samples.append((jumps, angles))
        self.first = {}

    def op(self, key=0):
        jumps, angles = self.samples[key]
        result = spectrum.genericity_mc(GEN_LEVELS, GEN_SAMPLES, seed=self.seeds[key])
        nearest = np.argsort(result.min_residual, kind="stable")[:GEN_SCANS]
        scans = [
            spectrum.resonance_scan(
                profile_mod.from_jump_angles(jumps[i], angles[i]),
                int(result.argmin_triple[i, 0]), 1, j_max=GEN_JMAX,
            )
            for i in nearest
        ]
        return key, result, nearest, scans

    def check(self, out):
        key, result, nearest, scans = out
        problems = []
        if result.n_failed != 0:
            problems.append(f"{result.n_failed} samples failed")
        # the scan of a rebuilt sample must find the relation the MC found in it
        for i, scan in zip(nearest, scans):
            _k, j, l = (int(v) for v in result.argmin_triple[i])
            if (l, j) not in {(c[0], c[1]) for c in scan.ratio_checks}:
                problems.append(f"sample {i}: scan does not see (l, j) = ({l}, {j})")
        fp = self.fingerprint(out)
        if self.first.setdefault(key, fp) != fp:
            problems.append(f"seed {self.seeds[key]} gave a different summary than before")
        acc = {"n_exact": result.n_exact, "min_residual": result.summary()["min_residual"],
               "verdicts": sorted({s.verdict for s in scans})}
        return problems, acc

    def fingerprint(self, out):
        _key, result, nearest, scans = out
        summary = json.dumps(result.summary(), sort_keys=True).encode()
        scan_parts = [_scan_fingerprint_parts(s) for s in scans]
        return _digest(summary, result.min_residual, result.argmin_triple, nearest,
                       *(p for parts in scan_parts for p in parts))


class CliTile(Workload):
    """In-process `puretone tile --alpha` of the two-level profile."""

    def __init__(self, seed):
        inputs.OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli_tile-", dir=inputs.OUT)
        self.profile_path = f"{self.tmp}/two_level.json"
        profile_mod.save_profile(inputs.two_level(), self.profile_path)
        self.n_ops = 0

    def op(self, key=0):
        self.n_ops += 1
        out_dir = f"{self.tmp}/op{self.n_ops}"
        rc = cli.main([
            "tile", "--profile", self.profile_path, "--k", "1", "--alpha", "1e-3",
            "--modes", "16", "--nt", "64", "--nx", "128", "--binary", "--out-dir", out_dir,
        ])
        return rc, out_dir

    def check(self, out):
        rc, out_dir = out
        if rc != 0:
            return [f"exit code {rc}"], {}
        problems = []
        with open(f"{out_dir}/tile.manifest.json") as fh:
            seam_max = json.load(fh)["seam_max"]
        if not seam_max < SEAM_TOL:
            problems.append(f"seam_max {seam_max:.3e} not below {SEAM_TOL:g}")
        tile = linwave.tile_from_binary(f"{out_dir}/tile.bin")
        if not (np.array_equal(tile.p[0], tile.p[-1]) and np.array_equal(tile.u[0], tile.u[-1])):
            problems.append("extended tile is not periodic to the bit")
        rows = np.loadtxt(f"{out_dir}/tile.csv", delimiter=",", skiprows=1)
        expect = np.column_stack([
            np.repeat(tile.x, tile.nt), np.tile(tile.t, tile.x.size),
            tile.p.ravel(), tile.u.ravel(),
        ])
        if not np.array_equal(rows, expect):
            problems.append("tile.csv differs from tile.bin")
        return problems, {"seam_max": seam_max}

    def fingerprint(self, out):
        _rc, out_dir = out
        parts = []
        for name in ("tile.csv", "tile.bin"):
            with open(f"{out_dir}/{name}", "rb") as fh:
                parts.append(fh.read())
        return _digest(*parts)

    def release(self, out):
        shutil.rmtree(out[1], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "branch": Branch,
    "smooth_scan": SmoothScan,
    "genericity": Genericity,
    "cli_tile": CliTile,
}
