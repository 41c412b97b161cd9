import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from spgs import checks
from spgs.cli import SWEEP_HEADER, main

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


def test_solve_negative_lambda_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"),
                 "solve", "--lambda=-0.1"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


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
    assert all(row["gamma_energy"] <= row["D_lambda"] for row in rows)


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
    code = main(["--output", str(tmp_path / "out"), "constants", "--q", "x"])
    assert code == 2


def test_bad_config_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nn = 4\n")
    code = main(["--config", str(cfg), "solve-limit"])
    assert code == 2
    assert "at least 16" in capsys.readouterr().err


def test_grid_study_reports_orders(tmp_path):
    code = main(["--output", str(tmp_path / "out"), "--grid-study",
                 "poisson-test"])
    assert code == 0
    study = json.loads((tmp_path / "out" / "grid_study.json").read_text())
    orders = study["observed_orders"]
    assert orders["phi_max_rel_error"]["value"] >= 1.8
    assert orders["coupling_rel_error"]["value"] >= 1.8


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


def test_projection_overflow_is_solver_failure(tmp_path, capsys):
    # the initial projection asks for a dilation by 3e35
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 20.0\nq = 2.2\ncritical_weight = 1.0\n"
                              "[grid]\nR = 20.0\nn = 750\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "solve-limit"])
    assert code == 3
    assert "constraint projection diverged" in capsys.readouterr().err


def test_failure_below_mu_threshold_is_regime_failure(tmp_path, capsys):
    # mu = 1 lies below mu*(4) = 4.42, where the flow ends in a stalled polish
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 1.0\nq = 4.0\ncritical_weight = 1.0\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "solve-limit"])
    assert code == 3
    err = capsys.readouterr().err
    assert "mu = 1 lies below the sufficient threshold mu* = 4.42" in err
    assert "Newton polish stalled" in err


def test_verify_below_mu_threshold_is_regime_failure(tmp_path, capsys):
    # verify builds its ground state with the same diagnosis as solve-limit
    cfg = write_cfg(tmp_path, "[nonlinearity]\nmu = 1.0\nq = 4.0\ncritical_weight = 1.0\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path / "out"), "verify"])
    assert code == 3
    assert "mu = 1 lies below the sufficient threshold mu* = 4.42" in capsys.readouterr().err


def test_public_names_resolve():
    import spgs

    assert [name for name in spgs.__all__ if not hasattr(spgs, name)] == []


def test_import_footprint():
    # the package and its command line load numpy and scipy.linalg only;
    # the Krylov solver of the coupled Newton step is numpy, not scipy.sparse
    code = ("import sys, spgs, spgs.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.interpolate', "
            "'scipy.optimize', 'scipy.sparse', 'scipy.special') if m in sys.modules])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
