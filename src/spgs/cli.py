"""Command-line front end: run orchestration, persistence and the `verify`
invariant battery.

Exit codes: 0 success, 2 configuration error, 3 solver nonconvergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import constants as constants_mod
from . import functionals, poisson
from .config import ConfigError, RunConfig, apply_env_overrides, parse_config, render_config
from .grid import (
    RadialFunction,
    dilate,
    h1_norm_sq,
    integrate_values,
    make_grid,
    norm_lq,
)
from .limit_solver import (
    BracketFailure,
    FlowOptions,
    InitializationFailure,
    Stagnation,
    StiffnessFailure,
    minimize_on_M,
)
from .nonlinearity import canonical_family, check_hypotheses, user_nonlinearity
from .sp_solver import (
    NonConvergence,
    PositivityLoss,
    RangeFailure,
    SolverOptions,
    asymptotics_report,
    continuation,
    solve_at_lambda,
)

SWEEP_HEADER = (
    "lambda,gamma_energy,i_energy,h1_dist_to_omega,phi_d12_norm,"
    "pohozaev_residual,D_lambda,iterations,grad_residual_norm"
)


def _num(value, method: str) -> dict:
    return {"value": value, "method": method}


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))  # shortest round-trip decimal form


def _nl_from_config(cfg: RunConfig):
    return canonical_family(cfg.mu, cfg.q, cfg.critical_weight)


def _solver_opts(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter,
                         damping_floor=cfg.damping_floor, clip_budget=cfg.clip_budget)


def _flow_opts(cfg: RunConfig) -> FlowOptions:
    return FlowOptions(tol=max(cfg.tol, 1e-10))


# ---------------------------------------------------------------- subcommands


def cmd_solve_limit(cfg: RunConfig, outdir: Path) -> dict:
    nl = _nl_from_config(cfg)
    grid = make_grid(cfg.R, cfg.n)
    ground = minimize_on_M(nl, grid, _flow_opts(cfg))
    poh = functionals.pohozaev_P(ground.omega, nl)
    summary = {
        "M": _num(ground.M_value, "computed (constrained flow)"),
        "p": _num(ground.p_value, "derived (dilation identity from M, V)"),
        "b": _num(ground.b_value, "computed (dilation-path maximum)"),
        "t0_dilation": _num(ground.t0_dilation, "computed"),
        "t_star": _num(ground.t_star, "computed (path maximizer)"),
        "pohozaev_residual": _num(poh, "computed"),
        "grid": {"R": _num(cfg.R, "config"), "n": _num(cfg.n, "config")},
    }
    _write_json(outdir / "solve_limit.json", summary)
    _write_csv(outdir / "omega.csv", "r,omega",
               zip(grid.nodes, ground.omega.values))
    return summary


def cmd_solve(cfg: RunConfig, outdir: Path, lam: float) -> dict:
    if lam < 0:
        raise ConfigError(f"lambda = {lam} violates the precondition lambda >= 0")
    nl = _nl_from_config(cfg)
    grid = make_grid(cfg.R, cfg.n)
    ground = minimize_on_M(nl, grid, _flow_opts(cfg))
    point = solve_at_lambda(ground.omega, nl, lam, _solver_opts(cfg))
    point.h1_dist_to_omega = math.sqrt(h1_norm_sq(point.u - ground.omega))
    summary = {
        "lambda": _num(lam, "config"),
        "gamma_energy": _num(point.gamma_energy, "computed"),
        "i_energy": _num(point.i_energy, "computed"),
        "h1_dist_to_omega": _num(point.h1_dist_to_omega, "computed"),
        "phi_d12_norm": _num(point.phi_d12, "computed"),
        "pohozaev_residual": _num(point.pohozaev_res, "computed"),
        "pohozaev_residual_relative": _num(point.pohozaev_res_rel, "computed"),
        "grad_residual_norm": _num(point.grad_residual_norm, "computed"),
        "iterations": _num(point.iterations, "computed"),
    }
    _write_json(outdir / "solve.json", summary)
    if cfg.emit_profiles:
        _write_csv(outdir / f"profile_lambda_{lam:g}.csv", "r,u,phi",
                   zip(grid.nodes, point.u.values, point.phi.values))
    return summary


def cmd_sweep_lambda(cfg: RunConfig, outdir: Path) -> dict:
    nl = _nl_from_config(cfg)
    grid = make_grid(cfg.R, cfg.n)
    ground = minimize_on_M(nl, grid, _flow_opts(cfg))
    branch = continuation(nl, cfg.lambdas, ground, _solver_opts(cfg))
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


def cmd_constants(cfg: RunConfig, outdir: Path, q_list: list[float]) -> dict:
    grid = make_grid(cfg.R, cfg.n)
    report = constants_mod.constants_report(grid, q_list, _flow_opts(cfg))
    summary = {
        "S": _num(report.S, report.provenance["S"]),
        "Cq": {str(q): _num(v, report.provenance[f"Cq[{q}]"])
               for q, v in report.Cq.items()},
        "mu_threshold": {str(q): _num(v, report.provenance[f"mu_threshold[{q}]"])
                         for q, v in report.mu_thresholds.items()},
    }
    _write_json(outdir / "constants.json", summary)
    return summary


def cmd_poisson_test(cfg: RunConfig, outdir: Path) -> dict:
    """Gaussian closed-form oracle for the Newton potential."""
    # the closed form is for whole space; R = 12 keeps the truncated charge
    # negligible while the node count follows the configuration
    grid = make_grid(12.0, cfg.n)
    u = RadialFunction(grid, np.exp(-grid.nodes**2 / 2.0))
    sol = poisson.solve_phi(u, 1.0)
    r = grid.nodes
    exact = np.empty_like(r)
    exact[1:] = (math.sqrt(math.pi) / 4.0) * np.array([math.erf(x) for x in r[1:]]) / r[1:]
    exact[0] = 0.5
    window = r <= 8.0
    phi_err = float(np.max(np.abs(sol.phi.values[window] - exact[window])
                           / np.abs(exact[window])))
    coupling_exact = math.pi**1.5 / (2.0 * math.sqrt(2.0))
    coupling_err = abs(sol.coupling - coupling_exact) / coupling_exact
    summary = {
        "phi_max_rel_error": _num(phi_err, "computed vs closed form"),
        "coupling_rel_error": _num(coupling_err, "computed vs closed form"),
        "dirichlet_consistency": _num(
            abs(poisson.dirichlet_energy_direct(sol, u) - sol.dirichlet_energy)
            / sol.dirichlet_energy,
            "computed (two-route energy)"),
    }
    _write_json(outdir / "poisson_test.json", summary)
    return summary


# ------------------------------------------------------------------- verify


def _verify_battery(cfg: RunConfig):
    """Cross-module invariant battery; returns a list of (name, ok, detail)."""
    results = []

    def check(name, ok, detail):
        results.append({"name": name, "passed": bool(ok), "detail": detail})

    rng = np.random.default_rng(cfg.seed)

    # quadrature
    grid = make_grid(cfg.R, cfg.n)
    vol = float(np.sum(grid.weights))
    vol_exact = 4.0 * math.pi * cfg.R**3 / 3.0
    check("grid.volume_exact", abs(vol - vol_exact) <= 1e-10 * vol_exact,
          f"rel err {abs(vol - vol_exact) / vol_exact:.2e}")

    g12 = make_grid(12.0, 4000)
    gauss = RadialFunction(g12, np.exp(-g12.nodes**2))
    ierr = abs(integrate_values(g12, gauss.values) - math.pi**1.5) / math.pi**1.5
    check("grid.gaussian_integral", ierr <= 1e-8, f"rel err {ierr:.2e}")

    # poisson oracle; thresholds are calibrated for the reference resolution
    psummary = cmd_poisson_test(replace(cfg, n=max(cfg.n, 4000)),
                                Path(cfg.directory) / "verify")
    check("poisson.phi_oracle", psummary["phi_max_rel_error"]["value"] <= 1e-5,
          f"max rel err {psummary['phi_max_rel_error']['value']:.2e}")
    check("poisson.coupling_oracle", psummary["coupling_rel_error"]["value"] <= 1e-6,
          f"rel err {psummary['coupling_rel_error']['value']:.2e}")
    check("poisson.energy_consistency",
          psummary["dirichlet_consistency"]["value"] <= 1e-4,
          f"rel err {psummary['dirichlet_consistency']['value']:.2e}")

    # dilation scaling of the coupling
    ug = RadialFunction(g12, np.exp(-g12.nodes**2 / 2.0))
    for t in (0.5, 2.0):
        ratio = poisson.coupling_scaling_check(ug, 1.0, t)
        err = abs(ratio - t**5) / t**5
        check(f"poisson.coupling_scaling_t{t:g}", err <= 1e-3, f"rel err {err:.2e}")

    # hypothesis checker, positive and negative fixtures
    nl = _nl_from_config(cfg)
    rep = check_hypotheses(nl)
    check("nonlinearity.hypotheses_pass", rep.all_passed,
          json.dumps({c.name: c.passed for c in rep.checks}))
    ident = user_nonlinearity(lambda s: np.asarray(s, dtype=float),
                              mu=1.0, q=4.0, kappa=1.0, label="identity")
    rep_bad = check_hypotheses(ident)
    check("nonlinearity.identity_fails_limit",
          not rep_bad["vanishing_slope_at_zero"].passed,
          f"margin {rep_bad['vanishing_slope_at_zero'].margin:.2e}")
    halved = replace(nl, kappa=nl.kappa / 2.0)
    rep_halved = check_hypotheses(halved)
    check("nonlinearity.halved_kappa_fails_growth",
          not rep_halved["growth_bound"].passed,
          f"margin {rep_halved['growth_bound'].margin:.2e}")

    # gradient consistency on random smooth fields
    max_rel = _gradient_consistency(grid, nl, rng, trials=20)
    check("functionals.gradient_consistency", max_rel <= 1e-5,
          f"max rel err {max_rel:.2e}")

    # limit-problem identities
    ground = minimize_on_M(nl, grid, _flow_opts(cfg))
    v_err = abs(functionals.V_value(ground.u, nl) - 1.0)
    check("limit.constraint_on_M", v_err <= 1e-8, f"|V-1| = {v_err:.2e}")
    p_pred = (2.0 * math.sqrt(3.0) / 9.0) * ground.M_value**1.5
    p_err = abs(ground.p_value - p_pred) / ground.p_value
    check("limit.p_identity", p_err <= 1e-6, f"rel err {p_err:.2e}")
    A = functionals.T0_value(ground.omega) * 2.0
    b_err = abs(ground.b_value - A / 3.0) / ground.b_value
    check("limit.b_identity", b_err <= 1e-4, f"rel err {b_err:.2e}")
    poh = abs(functionals.pohozaev_P(ground.omega, nl)) / A
    check("limit.pohozaev_on_arrival", poh <= 1e-4, f"rel residual {poh:.2e}")
    check("limit.path_maximizer", abs(ground.t_star - 1.0) <= 1e-3,
          f"|t*-1| = {abs(ground.t_star - 1.0):.2e}")

    # interaction bound int phi_u u^2 <= S^-1 |u|_{12/5}^4 at lam = 1, from
    # |grad phi|^2 = int phi u^2 <= |phi|_6 |u|_{12/5}^2 and S |phi|_6^2 <= |grad phi|^2
    ratios = []
    for _ in range(20):
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.1, 3.0)
        vals = amp * np.exp(-grid.nodes**2 / (2.0 * width**2))
        vals[-1] = 0.0
        u = RadialFunction(grid, vals)
        bound = norm_lq(u, 12.0 / 5.0) ** 4 / constants_mod.SOBOLEV_S_CLOSED_FORM
        ratios.append(poisson.solve_phi(u, 1.0).coupling / bound)
    check("poisson.T_bound_battery", max(ratios) <= 1.0,
          f"max coupling / bound = {max(ratios):.4f} over 20 samples")

    # coupled solve with dilation-stationarity certificate
    point = solve_at_lambda(ground.omega, nl, 0.05, _solver_opts(cfg))
    check("sp.pohozaev_certificate", point.pohozaev_res_rel <= 1e-3,
          f"rel residual {point.pohozaev_res_rel:.2e}")
    check("sp.residual_certificate", point.grad_residual_norm <= cfg.tol,
          f"dual norm {point.grad_residual_norm:.2e}")

    return results


def _gradient_consistency(grid, nl, rng, trials=20, lam_choices=(0.0, 0.1, 0.5)):
    max_rel = 0.0
    eps = 1e-5
    for k in range(trials):
        lam = lam_choices[k % len(lam_choices)]
        wu = rng.uniform(0.8, 3.0)
        wv = rng.uniform(0.8, 3.0)
        au = rng.uniform(0.3, 1.5)
        av = rng.uniform(0.3, 1.5)
        uvals = au * np.exp(-grid.nodes**2 / (2 * wu**2))
        vvals = av * np.exp(-grid.nodes**2 / (2 * wv**2)) * (1 + 0.3 * np.sin(grid.nodes))
        uvals[-1] = 0.0
        vvals[-1] = 0.0
        u = RadialFunction(grid, uvals)
        v = RadialFunction(grid, vvals)
        res = functionals.gradient_residual(u, nl, lam)
        pairing = float(np.dot(grid.weights, res.values * v.values))
        ep = functionals.energy(RadialFunction(grid, uvals + eps * vvals), nl, lam).Gamma_value
        em = functionals.energy(RadialFunction(grid, uvals - eps * vvals), nl, lam).Gamma_value
        fd = (ep - em) / (2 * eps)
        rel = abs(fd - pairing) / max(abs(fd), 1e-12)
        max_rel = max(max_rel, rel)
    return max_rel


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
    "constants": lambda cfg, outdir, args: cmd_constants(
        cfg, outdir, _parse_q_list(args.q)),
    "poisson-test": lambda cfg, outdir, args: cmd_poisson_test(cfg, outdir),
    "solve": lambda cfg, outdir, args: cmd_solve(cfg, outdir, args.lam),
    "sweep-lambda": lambda cfg, outdir, args: cmd_sweep_lambda(cfg, outdir),
}


def _scalar_leaves(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        if set(obj) == {"value", "method"}:
            if obj["method"] == "config":
                return out
            if isinstance(obj["value"], (int, float)) and not isinstance(obj["value"], bool):
                out[prefix] = float(obj["value"])
            return out
        for k, v in obj.items():
            out.update(_scalar_leaves(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _grid_study(cfg: RunConfig, outdir: Path, args, runner) -> dict:
    """Rerun on n/2, n and 2n nodes and append observed convergence orders."""
    summaries = {}
    for factor, tag in ((0.5, "half"), (1.0, "base"), (2.0, "double")):
        n = max(int(round((cfg.n - 1) * factor)) + 1, 16)
        sub = replace(cfg, n=n)
        summaries[tag] = runner(sub, outdir / f"grid_{tag}", args)
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
    return qs


# -------------------------------------------------------------------- main


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
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text())
        else:
            cfg = parse_config("")
        cfg = apply_env_overrides(cfg)
        if args.output is not None:
            cfg = replace(cfg, directory=str(args.output))
        outdir = Path(cfg.directory)

        if args.command == "verify":
            _, ok = cmd_verify(cfg, outdir)
            return 0 if ok else 4

        runner = _SCALAR_COMMANDS[args.command]
        summary = runner(cfg, outdir, args)
        if args.grid_study:
            summary["grid_study"] = _grid_study(cfg, outdir, args, runner)
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, PositivityLoss, Stagnation, InitializationFailure,
            BracketFailure, StiffnessFailure, RangeFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
