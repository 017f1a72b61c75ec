"""puretone benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process, closed loop, one client: ops run back to back
until the next one would end after S seconds (at least one op; two with
--trace 1).  Every op is checked by its workload's correctness gate.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A results file with the environment, the per-op records and
the accuracy reached goes to perfbench/results/.

With --trace 1 ops alternate untraced and traced, starting untraced, and
the layer metrics are per traced op.  The run fails (exit 3, no result
line) if a traced op's outputs differ by one bit from the untraced op's, or
if a layer metric contradicts the workload's prediction in PREDICTION_TABLE.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs

SETUP_REPEATS = 3

# The prediction table of README.md: (layer metrics, workloads on which they
# must record work, workloads on which they must stay exactly zero).  Metrics
# whose bypass is "unchanged" rather than zero appear in no zero set.
# m_doublings may move on the marching workloads but is 0 at their settings,
# so it is exempt from the "must record work" check.
_ALL = {"branch", "smooth_scan", "genericity", "cli_tile"}
_MARCHING = {"branch", "cli_tile"}
_SPECTRAL = {"smooth_scan", "genericity"}  # no x-march
PREDICTION_TABLE = (
    (["profile.SmoothPiece.sigma.calls", "profile.SmoothPiece.dsigma.calls",
      "profile.sigma_integral.s"], {"smooth_scan"}, _ALL - {"smooth_scan"}),
    (["sl_core.prufer_advance.calls", "sl_core.prufer_advance.s",
      "sl_core.angle_and_slope_at_ell.calls", "sl_core.angle_and_slope_at_ell.s"],
     {"smooth_scan"}, _MARCHING),
    (["sl_core.angle_at_ell.calls", "sl_core.angle_at_ell.s", "spectrum.newton_iters_per_root"],
     {"smooth_scan"}, set()),
    (["sl_core.fundamental_matrix.calls", "sl_core.fundamental_matrix.s",
      "spectrum.eigen_ladder.s", "spectrum.divisors.s", "spectrum.eigen_solve.calls",
      "spectrum.eigen_solve.s", "spectrum.resonance_scan.calls", "spectrum.resonance_scan.s",
      "spectrum.resonance_scan.self_s"], _SPECTRAL, set()),
    (["spectrum.genericity_mc.s"], {"genericity"}, _ALL - {"genericity"}),
    (["eos.GammaLawEos.volume_from_factor.calls", "eos.GammaLawEos.volume_from_factor.s",
      "eos.GammaLawEos.factor_from_sigma.calls", "eos.GammaLawEos.factor_from_sigma.s",
      "evolve.evolve_coefficients.calls", "evolve.evolve_coefficients.rows",
      "evolve.evolve_coefficients.s", "evolve.evolve_coefficients.self_s",
      "evolve.coeffs_to_grid.calls", "evolve.coeffs_to_grid.s", "evolve.rhs_per_evolution",
      "evolve.rhs_s", "bifurcate.solve_at_alpha.calls", "bifurcate.solve_at_alpha.s",
      "bifurcate.solve_at_alpha.self_s", "bifurcate.validate.s", "bifurcate.newton_iters",
      "bifurcate.evolutions", "bifurcate.accepted_frac"], _MARCHING, _SPECTRAL),
    (["evolve.nonlinear_evolve.calls", "evolve.nonlinear_evolve.s", "linwave.nonlinear_tile.s",
      "linwave.extend_tile.s", "linwave.tile_to_csv.s", "linwave.tile_to_binary.s",
      "linwave.bytes_written", "cli.main.s", "cli.main.self_s"],
     {"cli_tile"}, _ALL - {"cli_tile"}),
    (["bifurcate.branch_continue.s"], {"branch"}, _ALL - {"branch"}),
    (["bifurcate.m_doublings"], set(), _SPECTRAL),
)


class SelfCheckError(RuntimeError):
    """The traced run disagrees with the untraced run or with the predictions."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="puretone benchmark")
    p.add_argument("--workload", required=True, choices=sorted(_ALL))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload's inputs, then exit (times set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def measure_setup(args):
    """Median wall time of fresh processes that import and set up, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=inputs.ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def environment():
    import numpy
    import scipy

    import puretone

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((inputs.SRC / "puretone").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "thread_vars": {v: os.environ.get(v) for v in inputs.THREAD_VARS},
        "processes": 1,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "puretone": puretone.__version__,
        "git_commit": inputs.git_commit(),
        "source_sha256": src.hexdigest(),
    }


def run_ops(wl, args, tracer):
    """Closed loop until the next op would overrun; returns the per-op records."""
    records = []
    t_loop = time.perf_counter()
    while True:
        i = len(records)
        traced = tracer is not None and i % 2 == 1
        # a traced op runs on the same input set as the untraced op before it
        key = (i // 2 if tracer is not None else i) % wl.n_inputs
        ctx = tracer.op(i) if traced else contextlib.nullcontext()
        rec = {"op": i, "input": key, "traced": traced, "problems": [], "accuracy": {}}
        t0 = time.perf_counter()
        try:
            with ctx:
                out = wl.op(key)
            rec["op_s"] = time.perf_counter() - t0
            try:
                rec["problems"], rec["accuracy"] = wl.check(out)
                rec["fingerprint"] = wl.fingerprint(out)
            finally:
                wl.release(out)
        except Exception:  # noqa: BLE001 - an op or a gate that raises is a failed op
            rec.setdefault("op_s", time.perf_counter() - t0)
            error = traceback.format_exc()
            rec["problems"].append(error.strip().splitlines()[-1])
            print(error, file=sys.stderr)
        records.append(rec)
        elapsed = time.perf_counter() - t_loop
        enough = len(records) >= (2 if tracer is not None else 1)
        if enough and elapsed + elapsed / len(records) > args.seconds:
            return records


def self_check(workload, records, layer):
    first = {}
    for rec in records:
        base = first.setdefault(rec["input"], rec)
        if rec.get("fingerprint") != base.get("fingerprint"):
            raise SelfCheckError(
                f"op {rec['op']} (traced={rec['traced']}) output differs from op {base['op']} "
                f"(traced={base['traced']}) on the same input"
            )
    idle, busy = [], []
    for metrics, moves, zero in PREDICTION_TABLE:
        idle += [m for m in metrics if workload in moves and layer[m]["value"] == 0]
        busy += [m for m in metrics if workload in zero and layer[m]["value"] != 0]
    if idle:
        raise SelfCheckError(f"{workload}: predicted layer work recorded none: {idle}")
    if busy:
        raise SelfCheckError(f"{workload}: bypassed layers recorded work: {busy}")


def main(argv=None):
    args = parse_args(argv)
    try:
        inputs.pin_environment()
    except inputs.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.close()
        return 0
    try:
        tracer = None
        if args.trace:
            from tracer import Tracer

            setup_s, setup_runs = None, []
            tracer = Tracer()
        else:
            setup_s, setup_runs = measure_setup(args)
        records = run_ops(wl, args, tracer)
    finally:
        wl.close()

    failed = sum(1 for r in records if r["problems"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r["op_s"] for r in records if not r["traced"]]
    op_s = statistics.median(untraced)
    if args.trace:
        traced = [r["op_s"] for r in records if r["traced"]]
        metrics = tracer.metrics(len(traced), statistics.median(traced) / op_s - 1.0)
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}

    inputs.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_runs_s": setup_runs,
        "ops": records, "result": result,
    }
    with open(inputs.OUT / f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    if args.trace:
        with open(inputs.OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.span_records(), fh)
        try:
            self_check(args.workload, records, metrics)
        except SelfCheckError as exc:
            print(f"perfbench: self-check failed: {exc}", file=sys.stderr)
            return 3

    print(f"perfbench {args.workload}: {len(records)} ops, {failed} failed, "
          f"accuracy of the last op {json.dumps(records[-1]['accuracy'], default=float)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
