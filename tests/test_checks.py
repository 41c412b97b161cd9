"""Every entry of the verification registry, one test each, on the default
configuration that `spgs verify` runs."""

import json

import pytest

from spgs import checks, cli
from spgs.config import RunConfig
from spgs.grid import make_grid


@pytest.fixture(scope="module")
def ctx():
    return checks.Context(RunConfig())


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda c: c.name)
def test_check(check, ctx):
    result = check.run(ctx)
    assert result["passed"], f"{check.name}: {result['detail']}"


def test_coupled_checks_read_the_solve_point(ctx, tmp_path):
    # the sp.* certificates are those of `spgs solve --lambda 0.05`
    assert cli.main(["--output", str(tmp_path), "solve", "--lambda", "0.05"]) == 0
    solve = json.loads((tmp_path / "solve.json").read_text())
    point = ctx.point
    assert point.lam == 0.05
    for key, value in (("gamma_energy", point.gamma_energy),
                       ("pohozaev_residual_relative", point.pohozaev_res_rel),
                       ("grad_residual_norm", point.grad_residual_norm),
                       ("iterations", point.iterations)):
        assert solve[key]["value"] == value, key


def test_gradient_consistency_samples_depend_on_the_seed():
    check = next(c for c in checks.CHECKS if c.name == "functionals.gradient_consistency")
    details = [check.run(checks.Context(RunConfig(seed=seed)))["detail"] for seed in (1, 2)]
    assert details[0] != details[1]


@pytest.mark.parametrize("n, grids", [(3000, [(12.0, 4000)]),
                                      (6000, [(12.0, 4000), (12.0, 6000)])])
def test_gaussian_checks_build_the_reference_grid_once(n, grids, monkeypatch):
    # up to n = 4000 the Poisson oracle runs on the reference grid grid12
    built = []
    monkeypatch.setattr(checks, "make_grid",
                        lambda R, nodes: built.append((R, nodes)) or make_grid(R, nodes))
    ctx = checks.Context(RunConfig(n=n))
    assert ctx.grid12.n == 4000
    assert ctx.gaussian_errors["coupling_rel_error"] <= 1e-6
    assert built == grids


def test_context_rng_is_fresh_and_seeded():
    ctx = checks.Context(RunConfig(seed=5))
    first = [ctx.rng().random() for _ in range(3)]
    assert first[0] == first[1] == first[2]
    assert ctx.rng().random() == checks.Context(RunConfig(seed=5)).rng().random()
    assert ctx.rng().random() != checks.Context(RunConfig(seed=6)).rng().random()


@pytest.mark.parametrize("n", [750, 3000])
def test_interaction_battery_samples_differ(n):
    # a Gaussian's ratio is 0.972 at any width and amplitude; the exponent of
    # the profile spreads the 20 samples from about 0.94 to 0.99, all below 1
    ratios = checks.interaction_ratios(make_grid(30.0, n), checks.Context(RunConfig()).rng())
    assert len(ratios) == 20
    assert 0.98 < max(ratios) < 1.0
    assert min(ratios) < 0.95
