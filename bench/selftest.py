"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's own test run; the workload
test runs each workload for about 20 s.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spgs  # noqa: E402
import spgs.cli  # noqa: E402,F401
from tracer import Tracer, traced_functions  # noqa: E402


def _spgs_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "spgs" or name.startswith("spgs."))]


def test_every_binding_of_a_traced_function_is_replaced():
    originals = {fn for _, fn in traced_functions()}
    bound = [(m.__name__, a) for m in _spgs_modules() for a, o in vars(m).items()
             if inspect.isfunction(o) and o in originals]
    # `from .grid import dilate` binds dilate in several modules besides grid
    assert {m for m, a in bound if a == "dilate"} >= {
        "spgs", "spgs.grid", "spgs.limit_solver", "spgs.sp_solver",
        "spgs.constants", "spgs.poisson", "spgs.cli"}
    dilate = spgs.grid.dilate
    tracer = Tracer("selftest")
    tracer.install()
    try:
        left = [(m.__name__, a) for m in _spgs_modules() for a, o in vars(m).items()
                if inspect.isfunction(o) and o in originals]
        assert left == []
        assert spgs.limit_solver.dilate is spgs.grid.dilate is not dilate
    finally:
        tracer.uninstall()
    assert spgs.grid.dilate is dilate
    assert all(getattr(sys.modules[m], a) in originals for m, a in bound)


def test_self_times_partition_the_root_spans():
    tracer = Tracer("selftest")
    tracer.install()
    try:
        grid = spgs.make_grid(30.0, 400)
        nl = spgs.canonical_family(1.0, 4.0, 0.0)
        tracer.begin_result("r0:project")
        u = spgs.RadialFunction(grid, 4.0 * np.exp(-grid.nodes**2 / 4.0))
        spgs.limit_solver.project_to_M(u, nl)
    finally:
        tracer.uninstall()
    totals = tracer.totals(setup=False)
    roots = [s for s in tracer.spans if s[3] == -1 and s[4] > 0]
    root_time = sum(end - start for _, start, end, _, _ in roots)
    self_time = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_time == pytest.approx(root_time, rel=1e-9)
    assert totals["limit_solver.project_to_M.calls"] == 1
    assert totals["dilates_in_project"] == totals["grid.dilate.calls"] > 2
    assert tracer.counters["F"] > 0  # V_value evaluates G, which calls F


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["ground", "branch", "cli"])
def test_no_dense_jacobian_step_on_any_workload(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    metrics = result["metrics"]
    # the O(n^2) fallback would need ~1.2 GB per matrix at n=12000
    assert metrics["sp_solver.dense_step.calls"]["value"] == 0
    assert metrics["limit_solver.flow.iters"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
