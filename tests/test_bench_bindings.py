"""The names that the benchmark's tracer resolves by name must stay functions
of their spgs modules; otherwise `bench/run.py --trace 1` fails with a
KeyError, or a hook silently stops counting."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import spgs
import spgs.cli  # noqa: F401  (loads every traced module)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# the names that Tracer.totals and Tracer.per_layer index directly
DIRECT_LOOKUPS = (
    "grid.dilate", "functionals.gradient_residual", "limit_solver.project_to_M",
    "limit_solver.minimize_on_M", "limit_solver._classify_shot", "sp_solver.solve_at_lambda",
    "sp_solver._dense_jacobian_step", "cli.cmd_verify", "cli._verify_battery",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolved_names():
    names = [f"{mod}.{fn}" for mod, fns in tracer.TRACED_PRIVATE.items() for fn in fns]
    names += [*tracer.SHOOT_SPANS, *tracer.PATH_SPANS, *tracer.FLOW_EPILOGUE]
    names += [*tracer._HOOKS, *DIRECT_LOOKUPS]
    return sorted(set(names))


@pytest.mark.parametrize("name", _resolved_names())
def test_traced_name_is_a_function_of_its_module(name):
    mod_name, attr = name.split(".")
    assert mod_name in tracer.TRACED_MODULES
    module = sys.modules[f"spgs.{mod_name}"]
    obj = getattr(module, attr, None)
    assert inspect.isfunction(obj), f"spgs.{name} is not a function"
    # the tracer wraps only the functions a module defines itself
    assert obj.__module__ == module.__name__


def test_dilate_bindings_required_by_the_bench_selftest():
    # bench/selftest.py checks that the tracer replaces each of these bindings
    for mod_name in ("spgs", "spgs.grid", "spgs.limit_solver", "spgs.sp_solver",
                     "spgs.constants", "spgs.poisson", "spgs.cli"):
        assert getattr(sys.modules[mod_name], "dilate", None) is spgs.grid.dilate, mod_name


def test_flow_record_carries_what_the_bench_reads():
    # bench/workloads.py certifies minimize_on_M's record from these fields,
    # and the tracer's hook on it (_count_flow) reads u.grid.n and iterations
    grid = spgs.make_grid(30.0, 750)
    ground = spgs.minimize_on_M(spgs.canonical_family(1.0, 4.0, 0.0), grid)
    assert ground.u is not None and ground.u.grid.n == grid.n
    assert ground.omega.grid is grid
    for name in ("M_value", "p_value", "b_value", "t_star"):
        assert isinstance(getattr(ground, name), float), name
    assert isinstance(ground.iterations, int) and ground.iterations > 0
    counting = tracer.Tracer("ground")
    assert tracer._count_flow(counting, 0, ground) is ground
    assert counting.flow_n == {0: grid.n}
    assert counting.counters[f"flow_iters.n{grid.n}"] == ground.iterations
