"""Spans and counters around puretone's public functions, from outside the package.

A `Tracer` replaces each traced function on its module or class, and on
every other puretone module that imported the same function object by name
(`bifurcate` binds `evolve_coefficients`, `linwave` binds `nonlinear_evolve`
and `coeffs_to_grid`).  Inside `tracer.op(op_id)` every call records a span
(name, start, end, parent span, op id) kept in memory; leaving the block
puts the originals back.  The hot inner functions are counted and timed
without spans; their time still counts as child time of the enclosing span.
"""

import contextlib
import functools
import importlib
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path, kind); kind "span" records spans, "hot" only
# counts and times.  Layer metric names are "<module>.<attribute path>".
TRACED = (
    ("profile", "SmoothPiece.sigma", "hot"),
    ("profile", "SmoothPiece.dsigma", "hot"),
    ("profile", "sigma_integral", "span"),
    ("eos", "GammaLawEos.volume_from_factor", "hot"),
    ("eos", "GammaLawEos.factor_from_sigma", "hot"),
    ("sl_core", "prufer_advance", "span"),
    ("sl_core", "angle_and_slope_at_ell", "span"),
    ("sl_core", "angle_at_ell", "span"),
    ("sl_core", "fundamental_matrix", "span"),
    ("spectrum", "eigen_ladder", "span"),
    ("spectrum", "divisors", "span"),
    ("spectrum", "eigen_solve", "span"),
    ("spectrum", "resonance_scan", "span"),
    ("spectrum", "genericity_mc", "span"),
    ("evolve", "coeffs_to_grid", "hot"),
    ("evolve", "evolve_coefficients", "span"),
    ("evolve", "nonlinear_evolve", "span"),
    ("bifurcate", "branch_continue", "span"),
    ("bifurcate", "solve_at_alpha", "span"),
    ("bifurcate", "BifurcationProblem.validate", "span"),
    ("linwave", "nonlinear_tile", "span"),
    ("linwave", "extend_tile", "span"),
    ("linwave", "tile_to_csv", "span"),
    ("linwave", "tile_to_binary", "span"),
    ("cli", "main", "span"),
)

# short metric names for class methods whose class adds nothing to the name
ALIASES = {"bifurcate.BifurcationProblem.validate": "bifurcate.validate"}

# the per_layer metrics BENCHMARK.json declares, with their units
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as _fh:
    LAYER_METRICS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

# counters kept by the hooks below that are layer metrics themselves
COUNTED = (
    "evolve.evolve_coefficients.rows",
    "bifurcate.newton_iters",
    "bifurcate.evolutions",
    "bifurcate.m_doublings",
    "linwave.bytes_written",
)


def _rows(a):
    return int(np.prod(np.shape(a)[:-1], dtype=int)) if np.ndim(a) > 1 else 1


class Tracer:
    """Records spans and per-function counters for the ops of one run."""

    def __init__(self):
        # span record: [name, start, end, parent index, op id, child seconds, hot calls]
        self.spans = []
        self._stack = []
        self._op = None
        self.hot = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(float)
        self._targets = [self._resolve(mod, path, kind) for mod, path, kind in TRACED]

    def _resolve(self, mod_name, path, kind):
        module = importlib.import_module(f"puretone.{mod_name}")
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        name = ALIASES.get(f"{mod_name}.{path}", f"{mod_name}.{path}")
        return name, owner, parts[-1], kind

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self._op, 0.0, defaultdict(int)]
            stack.append(len(spans))
            spans.append(rec)
            state = hook.before(self, args, kwargs) if hook else None
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if hook:
                hook.after(self, args, kwargs, out, state)
            return out

        return wrapper

    def _hot(self, name, fn):
        spans, stack = self.spans, self._stack
        acc = self.hot[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    rec = spans[stack[-1]]
                    rec[5] += dt
                    rec[6][name] += 1

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: install every wrapper, run the block, restore."""
        patched = []
        try:
            for name, owner, attr, kind in self._targets:
                original = owner.__dict__[attr]
                wrapper = (self._span if kind == "span" else self._hot)(name, original)
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # the same function object bound by name in other modules
                for mod_name, module in list(sys.modules.items()):
                    if module is owner or mod_name.partition(".")[0] != "puretone":
                        continue
                    for other_attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, other_attr, original))
                            setattr(module, other_attr, wrapper)
            self._op = op_id
            yield self
        finally:
            self._op = None
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------

    def metrics(self, n_ops, overhead_frac):
        """Every layer metric: totals per traced op, ratios over all traced ops."""
        totals = defaultdict(float)
        for key in COUNTED:
            totals[key] = self.counts[key]
        for name, t0, t1, _parent, _op, child, _hot in self.spans:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += t1 - t0
            totals[f"{name}.self_s"] += t1 - t0 - child
        for name, (calls, secs) in self.hot.items():
            totals[f"{name}.calls"] += calls
            totals[f"{name}.s"] += secs
        known = set(COUNTED) | {
            f"{name}.{field}" for name, _o, _a, _k in self._targets for field in ("calls", "s", "self_s")
        }
        marches = [rec for rec in self.spans if rec[0] == "evolve.evolve_coefficients"]
        rhs_calls = sum(rec[6]["evolve.coeffs_to_grid"] for rec in marches)
        ratios = {  # name: (numerator, denominator)
            "evolve.rhs_per_evolution": (rhs_calls, len(marches)),
            "evolve.rhs_s": (sum(rec[2] - rec[1] for rec in marches), rhs_calls),
            "spectrum.newton_iters_per_root": (
                totals["sl_core.angle_and_slope_at_ell.calls"], self.counts["spectrum.roots"]),
            "bifurcate.accepted_frac": (
                self.counts["bifurcate.accepted_steps"],
                self.counts["bifurcate.one_row_evaluations"]),
            "trace.overhead_frac": (overhead_frac, 1.0),
        }
        out = {}
        for name, unit in LAYER_METRICS.items():
            if name in ratios:
                num, den = ratios[name]
                value = num / den if den else 0.0
            elif name in known:
                value = totals[name] / n_ops
            else:
                raise ValueError(f"no rule computes the layer metric {name}")
            out[name] = {"value": float(value), "unit": unit}
        return out

    def span_records(self):
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "op": op}
            for n, t0, t1, p, op, _child, _hot in self.spans
        ]

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)


# -- argument and result hooks --------------------------------------------------------


class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, out, state):
        pass


class _Rows(_Hook):
    """Rows marched per call; 1-row marches under Newton are residual evaluations."""

    def before(self, tracer, args, kwargs):
        rows = _rows(kwargs.get("a", args[2] if len(args) > 2 else None))
        tracer.counts["evolve.evolve_coefficients.rows"] += rows
        if rows == 1 and tracer._inside("bifurcate.solve_at_alpha"):
            tracer.counts["bifurcate.one_row_evaluations"] += 1


class _Roots(_Hook):
    """Roots asked of the eigenvalue solvers."""

    def __init__(self, per_call):
        self.per_call = per_call

    def before(self, tracer, args, kwargs):
        tracer.counts["spectrum.roots"] += self.per_call(args, kwargs)


class _Solution(_Hook):
    """Newton work read from the returned PureToneSolution.

    newton_iters counts the final convergence test as an iteration, so a
    converged solve accepted newton_iters - 1 steps.
    """

    def before(self, tracer, args, kwargs):
        problem = kwargs.get("problem", args[0])
        return problem.cfg.M

    def after(self, tracer, args, kwargs, sol, m_before):
        tracer.counts["bifurcate.newton_iters"] += sol.newton_iters
        tracer.counts["bifurcate.accepted_steps"] += max(sol.newton_iters - 1, 0)
        tracer.counts["bifurcate.evolutions"] += sol.diagnostics.get("evolutions", 0)
        tracer.counts["bifurcate.m_doublings"] += round(math.log2(sol.M / m_before))


class _Bytes(_Hook):
    def after(self, tracer, args, kwargs, out, state):
        tracer.counts["linwave.bytes_written"] += os.path.getsize(kwargs.get("path", args[1]))


_HOOKS = {
    "evolve.evolve_coefficients": _Rows(),
    "spectrum.eigen_solve": _Roots(lambda args, kwargs: 1),
    "spectrum.eigen_ladder": _Roots(lambda args, kwargs: int(kwargs.get("k_max", args[1]))),
    "bifurcate.solve_at_alpha": _Solution(),
    "linwave.tile_to_csv": _Bytes(),
    "linwave.tile_to_binary": _Bytes(),
}
