"""Per-layer call accounting for spgs, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules (and a
few named private loops) by a wrapper that records a span (name, start, end,
parent span, result id) in memory.  `from .grid import dilate` copies the
function into the importing module, so each replacement is made in every spgs
module that binds the original; a missed binding would let its calls escape
the count.  The callables of a `Nonlinearity` are counted but not spanned:
shooting makes about 1e5 scalar calls per ground state.

Self time of a span is its duration minus the durations of its direct child
spans.  Per-layer values cover one set-up plus one timed round: set-up totals
plus timed totals divided by the number of timed rounds, so counts repeat
exactly from run to run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

TRACED_MODULES = ("grid", "nonlinearity", "poisson", "functionals",
                  "limit_solver", "sp_solver", "constants", "cli")

# private loops that carry per-layer metrics of their own
TRACED_PRIVATE = {
    "limit_solver": ("_newton_polish", "_classify_shot", "_auto_bracket"),
    "sp_solver": ("_dense_jacobian_step",),
    "cli": ("_verify_battery",),
}

SHOOT_SPANS = ("limit_solver.shoot_ground_state", "limit_solver._auto_bracket",
               "limit_solver._classify_shot")
PATH_SPANS = ("sp_solver.find_t0", "sp_solver.path_max_D")
# children of minimize_on_M that are not the constrained flow itself
FLOW_EPILOGUE = ("limit_solver._newton_polish", "limit_solver.cgm_rescale",
                 "limit_solver.mountain_pass_b")
FLOW_GRID_SIZES = (750, 3000, 12000)

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("spgs.import_s", "s"),
    ("grid.make_grid.self_s", "s"),
    ("grid.dilate.calls", "count"),
    ("grid.dilate.self_s", "s"),
    ("grid.solve_helmholtz.calls", "count"),
    ("grid.solve_helmholtz.self_s", "s"),
    ("grid.laplacian_bands.calls", "count"),
    ("grid.laplacian_bands.self_s", "s"),
    ("grid.dual_norm.calls", "count"),
    ("nonlinearity.f.calls", "count"),
    ("nonlinearity.F.calls", "count"),
    ("nonlinearity.fprime.calls", "count"),
    ("nonlinearity.smallest_kappa.self_s", "s"),
    ("poisson.solve_phi.calls", "count"),
    ("poisson.solve_phi.self_s", "s"),
    ("functionals.energy.calls", "count"),
    ("functionals.energy.self_s", "s"),
    ("functionals.gradient_residual.calls", "count"),
    ("limit_solver.minimize_on_M.calls", "count"),
    ("limit_solver.project_to_M.calls", "count"),
    ("limit_solver.project_to_M.dilates_per_call", "ratio"),
    ("limit_solver.flow.iters", "count"),
    ("limit_solver.flow.accept_ratio", "ratio"),
    ("limit_solver.flow.s_per_iter.n750", "s/iter"),
    ("limit_solver.flow.s_per_iter.n3000", "s/iter"),
    ("limit_solver.flow.s_per_iter.n12000", "s/iter"),
    ("limit_solver._newton_polish.self_s", "s"),
    ("limit_solver.mountain_pass_b.self_s", "s"),
    ("limit_solver.shoot.self_s", "s"),
    ("limit_solver.shoot.shots", "count"),
    ("sp_solver.solve_at_lambda.calls", "count"),
    ("sp_solver.solve_at_lambda.self_s", "s"),
    ("sp_solver.newton.iters", "count"),
    ("sp_solver.newton.evals_per_iter", "ratio"),
    ("sp_solver.path.self_s", "s"),
    ("sp_solver.path.incl_s", "s"),
    ("sp_solver.dense_step.calls", "count"),
    ("constants.sobolev_S.self_s", "s"),
    ("constants.best_Cq.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("trace.results_per_s", "1/s"),
    ("trace.untraced_results_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def traced_functions():
    """(qualified name, function) for every traced function."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"spgs.{short}"]
        for attr, obj in vars(mod).items():
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and attr not in TRACED_PRIVATE.get(short, ()):
                continue
            out.append((f"{short}.{attr}", obj))
    return out


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent, result id)
        self.results: list[str] = ["setup"]
        self.result = 0
        self.counters: Counter = Counter()
        self.flow_n: dict[int, int] = {}  # minimize_on_M span -> grid size
        self.active = False
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> wrapper
        self._patches: list = []  # (module, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if not self._wrappers:
            for name, fn in traced_functions():
                self._wrappers[fn] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spgs" or mod_name.startswith("spgs.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        self.active = False

    def begin_result(self, label: str) -> None:
        self.results.append(label)
        self.result = len(self.results) - 1

    def _wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (nid, start, end, parent, self.result)
            return hook(self, sid, out) if hook is not None else out

        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        def counted_call(s):
            if self.active:
                counters[key] += 1
            return fn(s)

        return counted_call

    # ------------------------------------------------------------ report

    def totals(self, setup: bool) -> dict[str, float]:
        """Additive quantities over the set-up spans or over the timed spans."""
        arr = np.array(self.spans, dtype=float)
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        self_t = dur - child
        mask = (arr[:, 4] == 0) if setup else (arr[:, 4] > 0)
        k = len(self.names)
        calls = np.bincount(name[mask], minlength=k)
        self_s = np.bincount(name[mask], weights=self_t[mask], minlength=k)
        incl_s = np.bincount(name[mask], weights=dur[mask], minlength=k)
        out: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = float(calls[i])
            out[f"{nm}.self_s"] = float(self_s[i])
            out[f"{nm}.incl_s"] = float(incl_s[i])

        nid = {nm: i for i, nm in enumerate(self.names)}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        out["dilates_in_project"] = float(np.sum(
            mask & (name == nid["grid.dilate"])
            & (parent_name == nid["limit_solver.project_to_M"])))
        out["residuals_in_newton"] = float(np.sum(
            mask & (name == nid["functionals.gradient_residual"])
            & (parent_name == nid["sp_solver.solve_at_lambda"])))
        epilogue = np.isin(name, [nid[x] for x in FLOW_EPILOGUE]) & (
            parent_name == nid["limit_solver.minimize_on_M"])
        epi_by_parent = np.bincount(parent[epilogue], weights=dur[epilogue], minlength=len(arr))
        for n in FLOW_GRID_SIZES:
            out[f"flow_s.n{n}"] = 0.0
        for sid, n in self.flow_n.items():
            if mask[sid] and n in FLOW_GRID_SIZES:
                out[f"flow_s.n{n}"] += float(dur[sid] - epi_by_parent[sid])
        return out

    def per_layer(self, setup_counts: Counter, rounds: int, import_s: float,
                  traced_rate: float, untraced_rate: float) -> dict:
        """Per-layer metrics for one set-up plus one timed round.

        setup_counts is a copy of the counters taken when set-up ended.
        """
        setup_totals = self.totals(setup=True)
        timed = self.totals(setup=False)
        timed_counts = self.counters - setup_counts
        t: dict[str, float] = {}
        for key in set(setup_totals) | set(timed):
            t[key] = setup_totals.get(key, 0.0) + timed.get(key, 0.0) / rounds
        for key in set(setup_counts) | set(timed_counts):
            t[key] = setup_counts.get(key, 0) + timed_counts.get(key, 0) / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        m = {key: t.get(key, 0.0) for key, _ in PER_LAYER}
        m["spgs.import_s"] = import_s
        m["nonlinearity.f.calls"] = t.get("f", 0.0)
        m["nonlinearity.F.calls"] = t.get("F", 0.0)
        m["nonlinearity.fprime.calls"] = t.get("fprime", 0.0)
        m["limit_solver.project_to_M.dilates_per_call"] = ratio(
            t["dilates_in_project"], t["limit_solver.project_to_M.calls"])
        m["limit_solver.flow.iters"] = t.get("flow_iters", 0.0)
        m["limit_solver.flow.accept_ratio"] = ratio(
            t.get("flow_iters", 0.0), t["limit_solver.project_to_M.calls"])
        for n in FLOW_GRID_SIZES:
            m[f"limit_solver.flow.s_per_iter.n{n}"] = ratio(
                t[f"flow_s.n{n}"], t.get(f"flow_iters.n{n}", 0.0))
        m["limit_solver.shoot.self_s"] = sum(t[f"{x}.self_s"] for x in SHOOT_SPANS)
        m["limit_solver.shoot.shots"] = t["limit_solver._classify_shot.calls"]
        m["sp_solver.newton.iters"] = t.get("newton_iters", 0.0)
        m["sp_solver.newton.evals_per_iter"] = ratio(
            t["residuals_in_newton"], t.get("newton_iters", 0.0))
        m["sp_solver.path.self_s"] = sum(t[f"{x}.self_s"] for x in PATH_SPANS)
        m["sp_solver.path.incl_s"] = sum(t[f"{x}.incl_s"] for x in PATH_SPANS)
        m["sp_solver.dense_step.calls"] = t["sp_solver._dense_jacobian_step.calls"]
        m["cli.verify.self_s"] = t["cli.cmd_verify.self_s"] + t["cli._verify_battery.self_s"]
        m["trace.results_per_s"] = traced_rate
        m["trace.untraced_results_per_s"] = untraced_rate
        m["trace.overhead_frac"] = ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0
        return {"metrics": m, "totals": dict(sorted(t.items()))}

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order of the calls."""
        with open(path, "w") as fh:
            for sid, (nid, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[nid], "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                    "result": self.results[rid],
                }) + "\n")


# ------------------------------------------------------------------ hooks
# A hook sees the traced call's return value after its span has closed.


def _count_flow(tracer: Tracer, sid: int, ground):
    n = ground.u.grid.n
    tracer.flow_n[sid] = n
    tracer.counters["flow_iters"] += ground.iterations
    tracer.counters[f"flow_iters.n{n}"] += ground.iterations
    return ground


def _count_newton(tracer: Tracer, sid: int, point):
    tracer.counters["newton_iters"] += point.iterations
    return point


def _count_nonlinearity(tracer: Tracer, sid: int, nl):
    return dataclasses.replace(
        nl, f=tracer.counted("f", nl.f), F=tracer.counted("F", nl.F),
        fprime=tracer.counted("fprime", nl.fprime))


_HOOKS = {
    "limit_solver.minimize_on_M": _count_flow,
    "sp_solver.solve_at_lambda": _count_newton,
    "nonlinearity.canonical_family": _count_nonlinearity,
    "nonlinearity.user_nonlinearity": _count_nonlinearity,
}
