"""The verification registry: every certificate that `spgs verify` reports.

A check is a name, a tolerance and a measurement on a Context; it passes when
the measured value is at most the tolerance (a NaN fails).  `spgs verify`
runs CHECKS in order and `tests/test_checks.py` runs each entry as one test,
so each certificate and its tolerance are written here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .config import RunConfig
from .constants import SOBOLEV_S_CLOSED_FORM, best_Cq, mu_threshold
from .functionals import T0_value, V_value, energy, gradient_residual, pohozaev_P
from .grid import RadialFunction, integrate_values, make_grid, norm_lq
from .limit_solver import InitializationFailure, LimitGroundState, Stagnation, minimize_on_M
from .nonlinearity import check_hypotheses, user_nonlinearity
from .poisson import coupling_scaling_check, dirichlet_energy_direct, solve_phi
from .sp_solver import solve_at_lambda


def gaussian_poisson_errors(n: int) -> dict[str, float]:
    """Closed-form oracle for the Newton potential on make_grid(12, n).

    For u = exp(-r^2/2) the potential of u^2 is (sqrt(pi)/4) erf(r)/r and
    int phi u^2 = pi^(3/2) / (2 sqrt 2).  Returns the largest relative error
    of phi on r <= 8, the relative error of the coupling, and the relative gap
    between the two routes to the Dirichlet energy.  The closed forms are for
    whole space; R = 12 keeps the truncated charge negligible.
    """
    grid = make_grid(12.0, n)
    r = grid.nodes
    u = RadialFunction(grid, np.exp(-r**2 / 2.0))
    sol = solve_phi(u, 1.0)
    exact = np.empty_like(r)
    exact[1:] = (math.sqrt(math.pi) / 4.0) * np.array([math.erf(x) for x in r[1:]]) / r[1:]
    exact[0] = 0.5
    window = r <= 8.0
    coupling_exact = math.pi**1.5 / (2.0 * math.sqrt(2.0))
    return {
        "phi_max_rel_error": float(np.max(np.abs(sol.phi.values[window] - exact[window])
                                          / exact[window])),
        "coupling_rel_error": abs(sol.coupling - coupling_exact) / coupling_exact,
        "dirichlet_consistency": abs(dirichlet_energy_direct(sol, u) - sol.dirichlet_energy)
        / sol.dirichlet_energy,
    }


class RegimeFailure(Stagnation):
    """The limit solve failed where the existence theory gives no guarantee:
    a critical term with mu below the sufficient threshold mu*(q)."""


def ground_state(cfg: RunConfig, nl, grid) -> LimitGroundState:
    """Limit ground state of nl on grid with the configured flow options.

    A failed solve with a critical term and mu below mu*(q) raises a
    RegimeFailure chained from the solver's error; the threshold needs a
    best_Cq solve, so only the failure path computes it.
    """
    try:
        return minimize_on_M(nl, grid, cfg.flow_tol())
    except (Stagnation, InitializationFailure) as exc:
        if cfg.critical_weight > 0:
            mu_star = mu_threshold(cfg.q, SOBOLEV_S_CLOSED_FORM, best_Cq(cfg.q, grid))
            if cfg.mu < mu_star:
                raise RegimeFailure(
                    f"mu = {cfg.mu:g} lies below the sufficient threshold mu* = {mu_star:.4g} "
                    f"for q = {cfg.q:g} with a critical term ({exc})") from exc
        raise


class Context:
    """What the checks share, built lazily from one RunConfig.

    Each piece is computed on first use and kept, so a run of every check
    does one constrained flow and one coupled solve.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    def rng(self) -> np.random.Generator:
        """A generator seeded from the configuration, fresh for each caller,
        so the samples of a check do not depend on which checks ran before."""
        return np.random.default_rng(self.cfg.seed)

    @cached_property
    def grid(self):
        return make_grid(self.cfg.R, self.cfg.n)

    @cached_property
    def grid12(self):
        """Reference grid of the Gaussian checks."""
        return make_grid(12.0, 4000)

    @cached_property
    def nl(self):
        return self.cfg.nonlinearity()

    @cached_property
    def gaussian_errors(self) -> dict[str, float]:
        # the oracle tolerances are calibrated at the reference resolution
        return gaussian_poisson_errors(max(self.cfg.n, 4000))

    @cached_property
    def ground(self):
        return ground_state(self.cfg, self.nl, self.grid)

    @cached_property
    def point(self):
        """Coupled solution at lambda = 0.05 from the limit ground state."""
        return solve_at_lambda(self.ground.omega, self.nl, 0.05, self.cfg.solver_options())


@dataclass(frozen=True)
class Check:
    name: str
    tol: float
    quantity: str  # what measure returns, as the report line names it
    measure: Callable[[Context], float]

    def run(self, ctx: Context) -> dict:
        value = float(self.measure(ctx))
        return {"name": self.name, "passed": bool(value <= self.tol),
                "detail": f"{self.quantity} {value:.3g} (tol {self.tol:g})"}


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _coupling_scaling(t: float) -> Callable[[Context], float]:
    def measure(ctx: Context) -> float:
        u = RadialFunction(ctx.grid12, np.exp(-ctx.grid12.nodes**2 / 2.0))
        return _rel(coupling_scaling_check(u, 1.0, t), t**5)

    return measure


def _identity_accepted(ctx: Context) -> float:
    identity = user_nonlinearity(lambda s: np.asarray(s, dtype=float),
                                 mu=1.0, q=4.0, kappa=1.0, label="identity")
    return float(check_hypotheses(identity)["vanishing_slope_at_zero"].passed)


def _halved_kappa_accepted(ctx: Context) -> float:
    halved = replace(ctx.nl, kappa=ctx.nl.kappa / 2.0)
    return float(check_hypotheses(halved)["growth_bound"].passed)


def gradient_fd_gap(grid, nl, rng: np.random.Generator, trials: int = 20,
                    lams: tuple[float, ...] = (0.0, 0.1, 0.5), eps: float = 1e-5) -> float:
    """Worst relative gap between <gradient residual, v> and the central
    difference of the coupled energy along v, over random smooth (u, v, lam)."""
    worst = 0.0
    for k in range(trials):
        lam = lams[k % len(lams)]
        wu, wv = rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0)
        au, av = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
        u_vals = au * np.exp(-grid.nodes**2 / (2 * wu**2))
        v_vals = av * np.exp(-grid.nodes**2 / (2 * wv**2)) * (1 + 0.3 * np.sin(grid.nodes))
        u_vals[-1] = v_vals[-1] = 0.0
        res, _ = gradient_residual(RadialFunction(grid, u_vals), nl, lam)
        pairing = float(np.dot(grid.weights, res.values * v_vals))
        ep = energy(RadialFunction(grid, u_vals + eps * v_vals), nl, lam).Gamma_value
        em = energy(RadialFunction(grid, u_vals - eps * v_vals), nl, lam).Gamma_value
        fd = (ep - em) / (2 * eps)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-12))
    return worst


def _p_identity(ctx: Context) -> float:
    # p = (2 sqrt(3)/9) M^(3/2) for the constrained minimum M
    g = ctx.ground
    return _rel(g.p_value, (2.0 * math.sqrt(3.0) / 9.0) * g.M_value**1.5)


def _b_identity(ctx: Context) -> float:
    # b = |grad omega|^2 / 3 on the Pohozaev manifold
    g = ctx.ground
    return _rel(g.b_value, 2.0 * T0_value(g.omega) / 3.0)


def _interaction_bound(ctx: Context) -> float:
    """Largest int phi_u u^2 / (S^-1 |u|_{12/5}^4) at lambda = 1 over random
    Gaussians; the bound follows from |grad phi|^2 = int phi u^2 <=
    |phi|_6 |u|_{12/5}^2 and S |phi|_6^2 <= |grad phi|^2."""
    grid, rng = ctx.grid, ctx.rng()
    worst = 0.0
    for _ in range(20):
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.1, 3.0)
        vals = amp * np.exp(-grid.nodes**2 / (2.0 * width**2))
        vals[-1] = 0.0
        u = RadialFunction(grid, vals)
        bound = norm_lq(u, 12.0 / 5.0) ** 4 / SOBOLEV_S_CLOSED_FORM
        worst = max(worst, solve_phi(u, 1.0).coupling / bound)
    return worst


CHECKS: tuple[Check, ...] = (
    Check("grid.volume_exact", 1e-10, "rel err",
          lambda c: _rel(float(np.sum(c.grid.weights)), 4.0 * math.pi * c.cfg.R**3 / 3.0)),
    Check("grid.gaussian_integral", 1e-8, "rel err",
          lambda c: _rel(integrate_values(c.grid12, np.exp(-c.grid12.nodes**2)), math.pi**1.5)),
    Check("poisson.phi_oracle", 1e-5, "max rel err",
          lambda c: c.gaussian_errors["phi_max_rel_error"]),
    Check("poisson.coupling_oracle", 1e-6, "rel err",
          lambda c: c.gaussian_errors["coupling_rel_error"]),
    Check("poisson.energy_consistency", 1e-4, "rel err",
          lambda c: c.gaussian_errors["dirichlet_consistency"]),
    Check("poisson.coupling_scaling_t0.5", 1e-3, "rel err", _coupling_scaling(0.5)),
    Check("poisson.coupling_scaling_t2", 1e-3, "rel err", _coupling_scaling(2.0)),
    Check("nonlinearity.hypotheses_pass", 0.0, "failed hypotheses",
          lambda c: sum(not h.passed for h in check_hypotheses(c.nl).checks)),
    Check("nonlinearity.identity_fails_limit", 0.0, "slope at zero accepted",
          _identity_accepted),
    Check("nonlinearity.halved_kappa_fails_growth", 0.0, "growth bound accepted",
          _halved_kappa_accepted),
    Check("functionals.gradient_consistency", 1e-5, "max rel err over 20 samples",
          lambda c: gradient_fd_gap(c.grid, c.nl, c.rng())),
    Check("limit.constraint_on_M", 1e-8, "|V - 1|",
          lambda c: abs(V_value(c.ground.u, c.nl) - 1.0)),
    Check("limit.p_identity", 1e-6, "rel err", _p_identity),
    Check("limit.b_identity", 1e-4, "rel err", _b_identity),
    Check("limit.pohozaev_on_arrival", 1e-4, "|P| / |grad omega|^2",
          lambda c: abs(pohozaev_P(c.ground.omega, c.nl)) / (2.0 * T0_value(c.ground.omega))),
    Check("limit.path_maximizer", 1e-3, "|t* - 1|", lambda c: abs(c.ground.t_star - 1.0)),
    Check("poisson.T_bound_battery", 1.0, "max coupling / bound over 20 samples",
          _interaction_bound),
    Check("sp.pohozaev_certificate", 1e-3, "rel residual",
          lambda c: c.point.pohozaev_res_rel),
    Check("sp.residual_certificate", 1.0, "dual norm / solver tol",
          lambda c: c.point.grad_residual_norm / c.cfg.tol),
)
