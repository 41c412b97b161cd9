"""Command-line front end: run orchestration, persistence and the `verify`
run of the check registry in spgs.checks.

Exit codes: 0 success, 2 configuration error, 3 solver failure (any
SolverFailure), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, functionals
from . import constants as constants_mod
from .checks import ground_state
from .config import ConfigError, RunConfig, apply_env_overrides, parse_config
# dilate is unused here; bench/selftest.py expects this binding of it
from .grid import dilate, make_grid  # noqa: F401
from .limit_solver import SolverFailure
from .sp_solver import asymptotics_report, continuation

SWEEP_HEADER = (
    "lambda,gamma_energy,i_energy,h1_dist_to_omega,phi_d12_norm,"
    "pohozaev_residual,D_lambda,iterations,grad_residual_norm"
)


def _num(value, method: str) -> dict:
    return {"value": value, "method": method}


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot create output directory {path}: {reason}") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))  # shortest round-trip decimal form


# ---------------------------------------------------------------- subcommands


def cmd_solve_limit(cfg: RunConfig, outdir: Path) -> dict:
    nl = cfg.nonlinearity()
    grid = make_grid(cfg.R, cfg.n)
    ground = ground_state(cfg, nl, grid)
    poh = functionals.pohozaev_P(ground.omega, nl)
    summary = {
        "M": _num(ground.M_value, "computed (shot omega_0, A / (2 V^(1/3)))"),
        "p": _num(ground.p_value, "derived (dilation identity from M, V)"),
        "b": _num(ground.b_value, "computed (shot omega_0, dilation-path maximum)"),
        "t0_dilation": _num(ground.t0_dilation, "computed (shot omega_0, V^(1/3))"),
        "t_star": _num(ground.t_star, "certificate (path maximizer)"),
        "pohozaev_residual": _num(poh, "certificate"),
        "residual": _num(ground.residual,
                         "certificate (dual norm of the lambda = 0 residual of omega_0)"),
        "grid": {"R": _num(cfg.R, "config"), "n": _num(cfg.n, "config")},
    }
    _write_json(outdir / "solve_limit.json", summary)
    _write_csv(outdir / "omega.csv", "r,omega",
               zip(grid.nodes, ground.omega.values))
    return summary


def cmd_solve(cfg: RunConfig, outdir: Path, lam: float) -> dict:
    nl = cfg.nonlinearity()
    grid = make_grid(cfg.R, cfg.n)
    ground = ground_state(cfg, nl, grid)
    point = continuation(nl, [lam], ground, cfg.solver_options()).points[0]
    summary = {
        "lambda": _num(lam, "config"),
        "gamma_energy": _num(point.gamma_energy, "computed"),
        "i_energy": _num(point.i_energy, "computed"),
        "h1_dist_to_omega": _num(point.h1_dist_to_omega, "computed"),
        "phi_d12_norm": _num(point.phi_d12, "computed"),
        "pohozaev_residual": _num(point.pohozaev_res, "certificate"),
        "pohozaev_residual_relative": _num(point.pohozaev_res_rel, "certificate"),
        "grad_residual_norm": _num(point.grad_residual_norm, "certificate"),
        "iterations": _num(point.iterations, "certificate"),
    }
    _write_json(outdir / "solve.json", summary)
    if cfg.emit_profiles:
        _write_csv(outdir / f"profile_lambda_{lam:g}.csv", "r,u,phi",
                   zip(grid.nodes, point.u.values, point.phi.values))
    return summary


def cmd_sweep_lambda(cfg: RunConfig, outdir: Path) -> dict:
    nl = cfg.nonlinearity()
    grid = make_grid(cfg.R, cfg.n)
    ground = ground_state(cfg, nl, grid)
    branch = continuation(nl, cfg.lambdas, ground, cfg.solver_options())
    rows = [
        (p.lam, p.gamma_energy, p.i_energy, p.h1_dist_to_omega, p.phi_d12,
         p.pohozaev_res, p.D_lambda, p.iterations, p.grad_residual_norm)
        for p in branch.points
    ]
    _write_csv(outdir / "sweep.csv", SWEEP_HEADER, rows)
    if cfg.emit_profiles:
        for p in branch.points:
            _write_csv(outdir / f"profile_lambda_{p.lam:g}.csv", "r,u,phi",
                       zip(grid.nodes, p.u.values, p.phi.values))
    report = asymptotics_report(branch, nl)
    summary = {
        "b_ref": _num(report.b_ref, "computed"),
        "K1": _num(report.K1, "computed (lambda^2 coefficient of the energy at lambda = 0)"),
        "slope_phi_d12": _num(report.slope_phi_d12, "fitted (log-log)"),
        "slope_gamma_gap": _num(report.slope_gamma_gap, "fitted (log-log)"),
        "slope_D_gap": _num(report.slope_D_gap, "fitted (log-log)"),
        "h1_dist_monotone": _num(report.h1_dist_monotone, "computed"),
        "energy_ordering_ok": _num(report.energy_ordering_ok, "computed"),
        "d_budget": _num(report.d_budget, "derived (distance budget)"),
        "lambda0_empirical": _num(report.lambda0_empirical,
                                  "fitted (heuristic: largest lambda within budget)"),
    }
    _write_json(outdir / "sweep_summary.json", summary)
    return summary


def _cq_entry(report: constants_mod.ConstantsReport, q: float) -> dict:
    if q not in report.Cq_n:
        return _num(report.Cq[q], "computed (quotient of the shot omega_0)")
    entry = _num(report.Cq[q], "computed (quotient of the shot omega_0 on the finer grid "
                               "of n nodes; the shot failed on the run's grid)")
    entry["n"] = report.Cq_n[q]
    return entry


def cmd_constants(cfg: RunConfig, outdir: Path, q_list: list[float]) -> dict:
    grid = make_grid(cfg.R, cfg.n)
    report = constants_mod.constants_report(grid, q_list)
    summary = {
        "S": _num(report.S, "computed (least quotient over the bubble widths)"),
        "Cq": {str(q): _cq_entry(report, q) for q in report.Cq},
        "mu_threshold": {str(q): _num(v, "derived (plug-in from closed-form S, computed Cq)")
                         for q, v in report.mu_thresholds.items()},
    }
    _write_json(outdir / "constants.json", summary)
    return summary


def cmd_poisson_test(cfg: RunConfig, outdir: Path) -> dict:
    """Gaussian closed-form oracle for the Newton potential."""
    errors = checks.gaussian_poisson_errors(make_grid(12.0, cfg.n))
    summary = {
        "phi_max_rel_error": _num(errors["phi_max_rel_error"], "computed vs closed form"),
        "coupling_rel_error": _num(errors["coupling_rel_error"], "computed vs closed form"),
        "dirichlet_consistency": _num(errors["dirichlet_consistency"],
                                      "computed (two-route energy)"),
    }
    _write_json(outdir / "poisson_test.json", summary)
    return summary


# ------------------------------------------------------------------- verify


def _verify_battery(cfg: RunConfig):
    """The registry of spgs.checks run in order on one shared context;
    returns a list of {name, passed, detail}."""
    ctx = checks.Context(cfg)
    return [check.run(ctx) for check in checks.CHECKS]


def cmd_verify(cfg: RunConfig, outdir: Path) -> tuple[dict, bool]:
    results = _verify_battery(cfg)
    ok = all(r["passed"] for r in results)
    summary = {"passed": ok, "checks": results}
    _write_json(outdir / "verify.json", summary)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']}: {r['detail']}")
    return summary, ok


# ---------------------------------------------------------------- grid study


_SCALAR_COMMANDS = {
    "solve-limit": lambda cfg, outdir, args: cmd_solve_limit(cfg, outdir),
    "constants": lambda cfg, outdir, args: cmd_constants(cfg, outdir, args.q),
    "poisson-test": lambda cfg, outdir, args: cmd_poisson_test(cfg, outdir),
    "solve": lambda cfg, outdir, args: cmd_solve(cfg, outdir, args.lam),
    "sweep-lambda": lambda cfg, outdir, args: cmd_sweep_lambda(cfg, outdir),
}


def _scalar_leaves(obj, prefix=""):
    """The numeric leaves whose change with n is a discretization error: not
    config values, and not certificates (residuals, iteration counts and t*,
    which the solver drives to a tolerance or to 1 at any n)."""
    out = {}
    if isinstance(obj, dict):
        if set(obj) == {"value", "method"}:
            if obj["method"].startswith(("config", "certificate")):
                return out
            if isinstance(obj["value"], (int, float)) and not isinstance(obj["value"], bool):
                out[prefix] = float(obj["value"])
            return out
        for k, v in obj.items():
            out.update(_scalar_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _grid_study(cfg: RunConfig, outdir: Path, args, runner, base: dict) -> dict:
    """Rerun on n/2 and 2n nodes and append the observed convergence orders
    against base, the summary of the run on n nodes."""
    summaries = {"base": base}
    for factor, tag in ((0.5, "half"), (2.0, "double")):
        n = max(int(round((cfg.n - 1) * factor)) + 1, 16)
        sub = outdir / f"grid_{tag}"
        _make_dir(sub)
        summaries[tag] = runner(replace(cfg, n=n), sub, args)
    leaves = {tag: _scalar_leaves(s) for tag, s in summaries.items()}
    orders = {}
    for key in leaves["base"]:
        if key in leaves["half"] and key in leaves["double"]:
            d1 = abs(leaves["half"][key] - leaves["base"][key])
            d2 = abs(leaves["base"][key] - leaves["double"][key])
            if d2 > 0 and d1 > 0:
                orders[key] = _num(math.log2(d1 / d2), "fitted (Richardson)")
    study = {"observed_orders": orders}
    _write_json(outdir / "grid_study.json", study)
    return study


def _parse_q_list(text: str) -> list[float]:
    try:
        qs = [float(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad --q list: {exc}")
    if not qs:
        raise ConfigError("--q list is empty")
    bad = [q for q in qs if not 2.0 < q < 6.0]
    if bad:
        raise ConfigError(f"--q values must lie in (2, 6), got {', '.join(map(str, bad))}")
    return qs


# -------------------------------------------------------------------- main


def _read_config_text(path: Path | None) -> str:
    if path is None:
        return ""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgs",
        description="Radial solver and verification suite for the coupled "
                    "Schrodinger-Poisson system",
    )
    parser.add_argument("--config", type=Path, help="path to a config file")
    parser.add_argument("--output", type=Path, help="override the output directory")
    parser.add_argument("--grid-study", action="store_true",
                        help="rerun on n/2, n and 2n grids and report observed orders")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve-limit", help="ground state of the uncoupled limit problem")
    p_solve = sub.add_parser("solve", help="coupled solve at a single lambda")
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_parser("sweep-lambda", help="continuation along the configured schedule")
    p_const = sub.add_parser("constants", help="Sobolev constants and mu thresholds")
    p_const.add_argument("--q", default="4", help="comma-separated q values in (2,6)")
    sub.add_parser("poisson-test", help="Gaussian oracle for the Newton potential")
    sub.add_parser("verify", help="full cross-module invariant battery")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(_read_config_text(args.config))
        cfg = apply_env_overrides(cfg)
        if args.output is not None:
            cfg = replace(cfg, directory=str(args.output))
        outdir = Path(cfg.directory)
        if args.command == "verify" and args.grid_study:
            raise ConfigError("--grid-study does not apply to verify")
        if args.command == "constants":
            args.q = _parse_q_list(args.q)
        if args.command == "solve" and not 0.0 <= args.lam < math.inf:
            raise ConfigError(f"lambda = {args.lam} violates the precondition 0 <= lambda < inf")
        # every argument is checked, so the directory is made only for a run
        _make_dir(outdir)

        if args.command == "verify":
            _, ok = cmd_verify(cfg, outdir)
            return 0 if ok else 4

        runner = _SCALAR_COMMANDS[args.command]
        summary = runner(cfg, outdir, args)
        if args.grid_study:
            summary["grid_study"] = _grid_study(cfg, outdir, args, runner, summary)
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
