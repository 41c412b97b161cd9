import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from spgs import best_Cq, canonical_family, checks, cli, limit_solver, sp_solver
from spgs.cli import SWEEP_HEADER, main
from spgs.config import RunConfig
from spgs.grid import make_grid
from spgs.limit_solver import SolverFailure

FAST_CFG = """
[grid]
R = 20.0
n = 1200

[schedule]
lambdas = 0.1, 0.05
"""


def write_cfg(tmp_path, text=FAST_CFG):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_solve_limit_writes_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "solve-limit"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "solve_limit.json").read_text())
    assert data["b"]["value"] == pytest.approx(18.897, rel=1e-2)
    assert "method" in data["M"]
    assert (tmp_path / "out" / "omega.csv").exists()
    # the shot's omega_0 is certified by its lambda = 0 residual, not by the
    # projected gradient of the other discrete problem
    assert "shot omega_0" in data["b"]["method"]
    assert data["residual"]["method"].startswith("certificate")
    assert 0.0 <= data["residual"]["value"] <= limit_solver._SHOT_TOL
    assert "pg_norm" not in data


def test_solve_negative_lambda_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "solve", "--lambda=-0.1"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_non_finite_lambda_is_config_error(tmp_path, capsys):
    for lam in ("nan", "inf"):
        code = main(["--output", str(tmp_path / "out"), "solve", "--lambda", lam])
        assert code == 2, lam
        assert "precondition" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_single_lambda(tmp_path):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "solve", "--lambda", "0.1"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert data["grad_residual_norm"]["value"] <= 1e-8
    assert data["gamma_energy"]["value"] > data["i_energy"]["value"]


def test_sweep_above_threshold_with_critical_term(tmp_path):
    # the path ceiling needs the dilation t0 ~ 3.8, beyond what R = 30 resamples
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 20.0\nq = 3.0\ncritical_weight = 1.0\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "sweep-lambda"])
    assert code == 0
    header, *lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert len(rows) == 6
    # Gamma_lam <= D_lam as the program certifies it, with its 1e-12 slack:
    # on the shot's omega_0 D_lam - Gamma_lam reads -2.6e-13 at lam = 0.01.
    # D_lam's lam^2 coefficient is K_1 t*^5 with t* = (1 - d)^(-1/2), and
    # omega_0 has the O(h^2) Pohozaev defect d = -3.2e-6
    summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
    assert summary["energy_ordering_ok"]["value"] is True


def test_sweep_csv_header_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    for tag in ("a", "b"):
        code = main(["--config", str(cfg), "--output", str(tmp_path / tag),
                     "sweep-lambda"])
        assert code == 0
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    # K1 = (1/4) int phi_1[omega_0] omega_0^2 goes to the JSON summary only
    summary = json.loads((tmp_path / "a" / "sweep_summary.json").read_text())
    assert summary["K1"]["method"].startswith("computed")
    assert summary["K1"]["value"] > 0


def test_poisson_test_subcommand(tmp_path):
    code = main(["--output", str(tmp_path / "out"), "poisson-test"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "poisson_test.json").read_text())
    assert data["phi_max_rel_error"]["value"] <= 1e-5
    assert data["coupling_rel_error"]["value"] <= 1e-5


def test_constants_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "constants", "--q", "4"])
    assert code == 0
    data = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert data["S"]["value"] == pytest.approx(5.478, rel=2e-2)
    assert "4.0" in data["Cq"]


def test_constants_bad_q_list(tmp_path, capsys):
    # unparseable, empty, and outside the open interval (2, 6)
    for q in ("x", "", "7", "2", "3,6", "nan", "inf", "-inf"):
        code = main(["--output", str(tmp_path / "out"), "constants", f"--q={q}"])
        assert code == 2, q
        assert "--q" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nn = 4\n")
    code = main(["--config", str(cfg), "solve-limit"])
    assert code == 2
    assert "at least 16" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_file(tmp_path, capsys, name):
    path = tmp_path / name
    code = main(["--config", str(path), "--output", str(tmp_path / "out"), "solve-limit"])
    assert code == 2
    assert f"cannot read config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_output_path_that_is_a_file_is_config_error(tmp_path, capsys, monkeypatch):
    # the directory is made before any command runs, so nothing is solved
    target = tmp_path / "taken"
    target.write_text("")

    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_poisson_test", never)
    code = main(["--output", str(target), "poisson-test"])
    assert code == 2
    assert f"cannot create output directory {target}" in capsys.readouterr().err
    assert target.read_text() == ""


@pytest.mark.parametrize("text,key", [
    ("[grid]\nR = inf\n", "grid.R"),
    ("[schedule]\nlambdas = inf, 0.1\n", "schedule.lambdas"),
    ("[nonlinearity]\nmu = inf\n", "nonlinearity.mu"),
    ("[solver]\ntol = inf\n", "solver.tol"),
])
def test_non_finite_config_exits_2(tmp_path, capsys, text, key):
    cfg = write_cfg(tmp_path, text)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "sweep-lambda"])
    assert code == 2
    assert f"{key}: 'inf' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_study_reports_orders(tmp_path):
    code = main(["--output", str(tmp_path / "out"), "--grid-study",
                 "poisson-test"])
    assert code == 0
    study = json.loads((tmp_path / "out" / "grid_study.json").read_text())
    orders = study["observed_orders"]
    assert orders["phi_max_rel_error"]["value"] >= 1.8
    assert orders["coupling_rel_error"]["value"] >= 1.8


def test_grid_study_reuses_the_base_solve(tmp_path, monkeypatch):
    # the run on n nodes is the base of the study: two more solves, on n/2 and 2n
    sizes = []
    solve = checks.limit_ground_state

    def counted(nl, grid):
        sizes.append(grid.n)
        return solve(nl, grid)

    monkeypatch.setattr(checks, "limit_ground_state", counted)
    code = main(["--output", str(tmp_path / "out"), "--grid-study", "solve-limit"])
    assert code == 0
    assert sizes == [3000, 1501, 5999]
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "grid_double", "grid_half", "grid_study.json", "omega.csv", "solve_limit.json"]
    study = json.loads((out / "grid_study.json").read_text())
    assert "b" in study["observed_orders"]


@pytest.mark.parametrize("argv, certificates, fitted", [
    (["solve", "--lambda", "0.1"],
     {"grad_residual_norm", "pohozaev_residual", "pohozaev_residual_relative", "iterations"},
     "gamma_energy"),
    (["solve-limit"], {"pohozaev_residual", "residual", "t_star"}, "b"),
], ids=["solve", "solve-limit"])
def test_grid_study_fits_no_order_to_certificates(tmp_path, argv, certificates, fitted):
    # residuals, iteration counts and t* are driven to a tolerance at every n,
    # so a Richardson order of theirs measures nothing
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "--grid-study",
                 *argv])
    assert code == 0
    orders = json.loads((tmp_path / "out" / "grid_study.json").read_text())["observed_orders"]
    assert fitted in orders
    assert certificates.isdisjoint(orders)


def test_grid_study_does_not_apply_to_verify(tmp_path, capsys):
    code = main(["--output", str(tmp_path / "out"), "--grid-study", "verify"])
    assert code == 2
    assert "--grid-study" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_is_the_first_point_of_the_sweep(tmp_path):
    # the default schedule starts at lambda = 0.2
    cfg = write_cfg(tmp_path, "[grid]\nR = 20.0\nn = 1200\n")
    for argv in (["sweep-lambda"], ["solve", "--lambda", "0.2"]):
        code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), *argv])
        assert code == 0
    header, first, *_ = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    row = dict(zip(header.split(","), map(float, first.split(","))))
    solve = json.loads((tmp_path / "out" / "solve.json").read_text())
    shared = set(row) & set(solve)
    assert len(shared) == 8
    assert {key: solve[key]["value"] for key in shared} == {key: row[key] for key in shared}


@pytest.mark.parametrize("failure", [
    limit_solver.InitializationFailure, limit_solver.Stagnation,
    limit_solver.BracketFailure, limit_solver.ResolutionFailure,
    sp_solver.NonConvergence, sp_solver.PositivityLoss, sp_solver.RangeFailure,
    checks.RegimeFailure, checks.CompactnessFailure,
])
def test_every_solver_failure_exits_3(failure):
    # main maps SolverFailure to exit code 3, so no failure type is listed there
    assert issubclass(failure, SolverFailure)


def test_emit_profiles(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG + "\n[output]\nemit_profiles = true\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "solve", "--lambda", "0.1"])
    assert code == 0
    prof = tmp_path / "out" / "profile_lambda_0.1.csv"
    assert prof.exists()
    assert prof.read_text().splitlines()[0] == "r,u,phi"


def test_verify_battery_passes(tmp_path, capsys):
    code = main(["--output", str(tmp_path / "out"), "verify"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["passed"]
    # the names are those of the registry, in its order and once each
    names = [c["name"] for c in report["checks"]]
    assert names == [c.name for c in checks.CHECKS]
    assert len(set(names)) == len(names)


def test_verify_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a NaN measurement must fail its check
    failing = replace(checks.CHECKS[3], measure=lambda ctx: math.nan)
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:3] + (failing,) + checks.CHECKS[4:])
    code = main(["--output", str(tmp_path / "out"), "verify"])
    assert code == 4
    assert f"[FAIL] {failing.name}" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["passed"] is False


def test_negative_seed_exits_2_before_any_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPGS_OUTPUT_SEED", "-1")
    code = main(["--output", str(tmp_path / "out"), "verify"])
    assert code == 2
    captured = capsys.readouterr()
    assert "output seed = -1 must be nonnegative" in captured.err
    assert "[PASS]" not in captured.out
    assert not (tmp_path / "out" / "verify.json").exists()


def test_verify_is_reproducible_for_one_seed(tmp_path):
    cfg = write_cfg(tmp_path, "[output]\nseed = 3\n")
    written = []
    for run in ("a", "b"):
        assert main(["--config", str(cfg), "--output", str(tmp_path / run), "verify"]) == 0
        written.append((tmp_path / run / "verify.json").read_bytes())
    assert written[0] == written[1]


def test_verify_loads_no_numpy_random_or_polynomial(tmp_path):
    # the checks draw from the standard library's Mersenne Twister, and the
    # identity nonlinearity comes with its F, so no Gauss-Legendre rule is built
    code = ("import sys; from spgs.cli import main; "
            "rc = main(['--output', sys.argv[1], 'verify']); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.startswith(('numpy.random', 'numpy.polynomial'))))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


def test_projection_overflow_is_solver_failure(tmp_path):
    # the flow's initial projection asks for a dilation by 3e35: a typed
    # failure, not an OverflowError
    nl, grid = canonical_family(20.0, 2.2, 1.0), make_grid(20.0, 750)
    with pytest.raises(limit_solver.InitializationFailure,
                       match="constraint projection diverged"):
        limit_solver.minimize_on_M(nl, grid)
    # the record dilates nothing, so solve-limit certifies the shot's omega_0
    # (amplitude 1.4e-6), and verify fails the one check that dilates it
    # onto {V = 1}, where it leaves the ball
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 20.0\nq = 2.2\ncritical_weight = 1.0\n"
                              "[grid]\nR = 20.0\nn = 750\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--output", str(out), "solve-limit"]) == 0
    summary = json.loads((out / "solve_limit.json").read_text())
    assert summary["residual"]["value"] <= limit_solver._SHOT_TOL
    assert main(["--config", str(cfg), "--output", str(out), "verify"]) == 4
    checks_run = json.loads((out / "verify.json").read_text())["checks"]
    constraint = next(c for c in checks_run if c["name"] == "limit.constraint_on_M")
    assert constraint == {"name": "limit.constraint_on_M", "passed": False,
                          "detail": "|V - 1| inf (tol 1e-08)"}


@pytest.mark.parametrize("mu, q, centre, core", [
    pytest.param(1.0, 4.0, "14.83", "0.203", id="mu1-q4"),
    pytest.param(0.5, 3.0, "14.85", "0.203", id="mu0.5-q3"),
    pytest.param(2.0, 4.0, "14.82", "0.203", id="mu2-q4"),
    pytest.param(1.0, 5.0, "14.61", "0.204", id="mu1-q5"),
])
def test_grid_bubble_below_mu_threshold_is_a_resolution_failure(mu, q, centre, core, tmp_path,
                                                                capsys):
    # with cw = 1 each mu lies below mu*(q) (4.42 at q = 4, 3.196 at q = 3,
    # 3.36 at q = 5), and on the default grid (n = 3000) each shot ends in a
    # grid bubble: the grid does not resolve the core, which says nothing of
    # the regime (at n = 12000 mu=2, q=4 and mu=1, q=5 solve), so the bubble
    # is the failure reported and no mu* is computed
    cfg = write_cfg(tmp_path, f"[nonlinearity]\nmu = {mu}\nq = {q}\ncritical_weight = 1.0\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "solve-limit"])
    assert code == 3
    err = capsys.readouterr().err
    assert (f"grid bubble: omega(0) = {centre} with core width 1/sqrt(f'(omega(0))) = {core} h"
            in err)
    assert "threshold" not in err
    assert not (tmp_path / "out" / "solve_limit.json").exists()


def test_level_at_or_above_the_compactness_threshold_exits_3(tmp_path, capsys, monkeypatch):
    # a level b = 4.6438 at mu=0.5, q=3, cw=1 lies above c* = S^(3/2)/3 =
    # 4.2737; the entry point is stubbed to return it on a real state
    solve = checks.limit_ground_state

    def above(nl, grid):
        return replace(solve(canonical_family(20.0, 3.0, 1.0), grid), b_value=4.64376)

    monkeypatch.setattr(checks, "limit_ground_state", above)
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 0.5\nq = 3.0\ncritical_weight = 1.0\n"
                              "[grid]\nR = 20.0\nn = 1200\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "solve-limit"])
    assert code == 3
    err = capsys.readouterr().err
    assert "b = 4.64376" in err and "c* = 4.27366" in err
    assert not (tmp_path / "out" / "solve_limit.json").exists()


@pytest.mark.parametrize("failure", [
    limit_solver.BracketFailure, limit_solver.ResolutionFailure,
    sp_solver.NonConvergence, sp_solver.PositivityLoss,
])
def test_every_failure_of_the_shot_gets_the_regime_diagnosis(failure, monkeypatch, count_calls):
    # every failure but a grid bubble: a ResolutionFailure names a grid that
    # does not resolve the core, and is raised as it is, with no C_q solve
    def failed(nl, grid):
        raise failure("failed")

    monkeypatch.setattr(checks, "limit_ground_state", failed)
    cq_solves = count_calls(best_Cq)
    cfg = replace(RunConfig(mu=1.0, q=4.0, critical_weight=1.0), n=750)
    grid = make_grid(cfg.R, cfg.n)
    if failure is limit_solver.ResolutionFailure:
        with pytest.raises(failure, match="^failed$"):
            checks.ground_state(cfg, cfg.nonlinearity(), grid)
        assert cq_solves == []
        return
    with pytest.raises(checks.RegimeFailure, match="mu = 1 lies below .* mu\\* = 4.42") as info:
        checks.ground_state(cfg, cfg.nonlinearity(), grid)
    assert type(info.value.__cause__) is failure
    assert cq_solves == ["best_Cq"]


def test_threshold_that_fails_leaves_the_shot_its_own_failure(monkeypatch):
    # mu = 0.5, q = 5.9, cw = 1 at n = 750: mu*(5.9) needs the pure power's
    # C_q, which no level resolves (test_best_Cq_raises_where_no_finer_level_resolves),
    # so there is no threshold and the shot's own failure is raised
    def failed(nl, grid):
        raise sp_solver.NonConvergence("failed")

    monkeypatch.setattr(checks, "limit_ground_state", failed)
    cfg = replace(RunConfig(mu=0.5, q=5.9, critical_weight=1.0), n=750)
    with pytest.raises(sp_solver.NonConvergence, match="^failed$"):
        checks.ground_state(cfg, cfg.nonlinearity(), make_grid(cfg.R, cfg.n))


def test_production_path_runs_no_flow(tmp_path, count_calls):
    # verify and every C_q take a shot's omega_0, so neither command runs
    # the flow ladder: q = 5.5 at n = 750, whose shot is a grid bubble, takes
    # the shot one level up, on 4n - 3 = 2997 nodes
    ladders = count_calls(limit_solver._ladder)
    assert main(["--output", str(tmp_path / "verify"), "verify"]) == 0
    cfg = write_cfg(tmp_path, "[grid]\nn = 750\n")
    out = tmp_path / "constants"
    assert main(["--config", str(cfg), "--output", str(out), "constants",
                 "--q", "2.5,3,4,5,5.5"]) == 0
    cq = json.loads((out / "constants.json").read_text())["Cq"]
    assert all("shot omega_0" in v["method"] for v in cq.values())
    assert all(set(cq[q]) == {"value", "method"} for q in ("2.5", "3.0", "4.0", "5.0"))
    assert cq["5.5"]["n"] == 2997
    assert ladders == []


def test_constants_past_the_shot_take_a_finer_shot(tmp_path):
    # at q = 5.8 the shot fails up to n = 3000 and at 4n - 3 from n = 750, so
    # C_q is the shot of the first finer level that resolves the core:
    # 16n - 15 = 11985 from 750, 4n - 3 = 5997 and 11997 from 1500 and 3000.
    # Each is that grid's own quotient, so the values need not fall with n:
    # 6.221574, 6.224000, 6.221573
    for n, finer in ((750, 11985), (1500, 5997), (3000, 11997)):
        cfg = write_cfg(tmp_path, f"[grid]\nn = {n}\n")
        out = tmp_path / f"n{n}"
        assert main(["--config", str(cfg), "--output", str(out), "constants", "--q", "5.8"]) == 0
        cq = json.loads((out / "constants.json").read_text())["Cq"]["5.8"]
        assert cq["n"] == finer
        assert cq["value"] == best_Cq(5.8, make_grid(30.0, finer))
    # q = 5.9 at n = 750 resolves on none of 750, 2997 and 11985
    cfg = write_cfg(tmp_path, "[grid]\nn = 750\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path / "q59"),
                 "constants", "--q", "5.9"]) == 3


def test_constants_failure_names_its_q_and_grids(tmp_path, capsys):
    # q = 5.9 at n = 750 resolves on none of 750, 2997 and 11985; the message
    # names the q, the finest level that raised and the run's grid
    cfg = write_cfg(tmp_path, "[grid]\nn = 750\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "constants", "--q", "4,5.9"]) == 3
    assert capsys.readouterr().err.startswith(
        "solver failure: C_q for q = 5.9 on the grid of n = 11985 (the run's n = 750): "
        "the shot is a grid bubble: omega(0) = 32.37 ")


def test_verify_of_a_grid_bubble_below_mu_threshold_exits_3(tmp_path, capsys):
    # verify builds its ground state with the same diagnosis as solve-limit
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 1.0\nq = 4.0\ncritical_weight = 1.0\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "verify"])
    assert code == 3
    assert "solver failure: the shot is a grid bubble: omega(0) = 14.83" in capsys.readouterr().err


def test_public_names_resolve():
    import spgs

    assert [name for name in spgs.__all__ if not hasattr(spgs, name)] == []


def test_import_footprint():
    # the package and its command line load numpy and one file of scipy, its
    # LAPACK extension, from that file, so no scipy module stays registered:
    # not scipy itself, whose __init__ loads scipy._lib, nor scipy.linalg,
    # scipy.integrate or any module inside them;
    # the Krylov solver of the coupled Newton step is numpy, not scipy.sparse
    code = ("import sys, spgs, spgs.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# replaces the numpy calls that reach its own LAPACK (dgesv, dgeev, dgelsd)
# before spgs is imported, so that every binding of them refuses to run
_REFUSE_NUMPY_LAPACK = """
import sys, numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("numpy LAPACK called")

np.linalg.solve = np.linalg.eigvals = np.linalg.lstsq = np.roots = np.polyfit = refuse
from spgs.cli import main

runs = (["solve-limit"], ["solve", "--lambda", "0.05"], ["sweep-lambda"],
        ["constants", "--q", "4,5.5"], ["verify"])
codes = [main(["--output", f"{sys.argv[1]}/{i}", *argv]) for i, argv in enumerate(runs)]
print(codes, file=sys.stderr)
"""


def test_no_subcommand_calls_numpy_lapack(tmp_path):
    # the only LAPACK of spgs is the tridiagonal pair dgttrf / dgttrs, loaded
    # from scipy's extension: the coupled Newton step's GMRES back-substitutes
    # its triangular factor, find_t0 Newton-solves its cubic and
    # _loglog_slope fits in closed form, and each numpy LAPACK routine's
    # first call touches fresh workspace (about 0.5-1.3 MB of peak RSS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _REFUSE_NUMPY_LAPACK, str(tmp_path)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0]"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """sweep-lambda and constants --q 4 at n = 12000 write the same bytes
    with one BLAS thread and with two.

    Above 10 000 terms OpenBLAS ddot splits a sum over threads, which moves
    its last bits; every reduction of spgs goes through grid.pair, which does
    not call BLAS.  Each setting runs in a fresh interpreter, with the thread
    count set only for it.  OpenBLAS caps its threads at the CPU count, so on
    one core both runs take one thread and this test cannot fail there.
    """
    code = ("import sys; from spgs.cli import main; "
            "sys.exit(main(['--output', sys.argv[1], 'sweep-lambda']) "
            "or main(['--output', sys.argv[1], 'constants', '--q', '4']))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "SPGS_GRID_N": "12000",
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / threads
        run = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        written[threads] = {name: (out / name).read_bytes()
                            for name in ("sweep.csv", "sweep_summary.json", "constants.json")}
    assert written["1"] == written["2"]
