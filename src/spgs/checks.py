"""The verification registry: every certificate that `spgs verify` reports.

A check is a name, a tolerance and a measurement on a Context; it passes when
the measured value is at most the tolerance (a NaN fails).  `spgs verify`
runs CHECKS in order and `tests/test_checks.py` runs each entry as one test,
so each certificate and its tolerance are written here only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .config import RunConfig
from .constants import SOBOLEV_S_CLOSED_FORM, best_Cq, compactness_threshold, mu_threshold
from .functionals import V_value, energy, gradient_residual, scaling_terms
from .grid import RadialFunction, RadialGrid, integrate_values, make_grid, norm_lq
from .limit_solver import (_SHOT_TOL, InitializationFailure, LimitGroundState,
                           ResolutionFailure, SolverFailure, _core_phrase, limit_ground_state,
                           project_to_M)
from .nonlinearity import check_hypotheses, user_nonlinearity
from .poisson import coupling_scaling_check, dirichlet_energy_direct, solve_phi
from .sp_solver import continuation


def gaussian_poisson_errors(grid: RadialGrid) -> dict[str, float]:
    """Closed-form oracle for the Newton potential on grid, make_grid(12, n).

    For u = exp(-r^2/2) the potential of u^2 is (sqrt(pi)/4) erf(r)/r and
    int phi u^2 = pi^(3/2) / (2 sqrt 2).  Returns the largest relative error
    of phi on r <= 8, the relative error of the coupling, and the relative gap
    between the two routes to the Dirichlet energy.  The closed forms are for
    whole space; R = 12 keeps the truncated charge negligible.
    """
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


class RegimeFailure(SolverFailure):
    """The limit solve failed where the existence theory gives no guarantee:
    a critical term with mu below the sufficient threshold mu*(q)."""


class CompactnessFailure(SolverFailure):
    """A limit solve returned a level b at or above the compactness threshold
    c* of the critical term, so its state is no ground state."""


def ground_state(cfg: RunConfig, nl, grid) -> LimitGroundState:
    """Limit ground state of nl on grid, the shot's (limit_ground_state).

    A ResolutionFailure (a grid bubble) names a grid that does not resolve
    the core, whatever the regime, and is raised as it is.  Any other failed
    solve (BracketFailure, NonConvergence or PositivityLoss) with a critical
    term and mu below mu*(q) raises a RegimeFailure chained from the solver's
    error; the threshold needs a best_Cq solve, so only that failure path
    computes it.  Where that solve fails too, there is no threshold to
    diagnose against, and the solver's own error is raised.  A state with
    b >= c* raises CompactnessFailure.
    """
    try:
        ground = limit_ground_state(nl, grid)
    except ResolutionFailure:
        raise
    except SolverFailure as exc:
        if cfg.critical_weight > 0:
            try:
                mu_star = mu_threshold(cfg.q, SOBOLEV_S_CLOSED_FORM, best_Cq(cfg.q, grid))
            except SolverFailure:
                mu_star = -math.inf  # no threshold to diagnose against
            if cfg.mu < mu_star:
                raise RegimeFailure(
                    f"mu = {cfg.mu:g} lies below the sufficient threshold mu* = {mu_star:.4g} "
                    f"for q = {cfg.q:g} with a critical term ({exc})") from exc
        raise
    c_star = compactness_threshold(cfg.critical_weight)
    if ground.b_value >= c_star:
        raise CompactnessFailure(
            f"b = {ground.b_value:.6g} is at or above the compactness threshold "
            f"c* = {c_star:.6g}; {_core_phrase(ground.omega, nl)}")
    return ground


class Context:
    """What the checks share, built lazily from one RunConfig.

    Each piece is computed on first use and kept, so a run of every check
    does one shot and one coupled solve.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    def rng(self) -> random.Random:
        """The standard library's Mersenne Twister seeded by `[output] seed`,
        fresh for each caller, so the samples of a check do not depend on
        which checks ran before."""
        return random.Random(self.cfg.seed)

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
        n = self.cfg.n
        return gaussian_poisson_errors(self.grid12 if n <= 4000 else make_grid(12.0, n))

    @cached_property
    def ground(self):
        return ground_state(self.cfg, self.nl, self.grid)

    @cached_property
    def point(self):
        """Coupled solution at lambda = 0.05 on the branch of the limit ground
        state, the one-point continuation that `spgs solve` runs."""
        return continuation(self.nl, [0.05], self.ground, self.cfg.solver_options()).points[0]


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
    # with its closed-form F, so no quadrature rule is built for it
    identity = user_nonlinearity(lambda s: np.asarray(s, dtype=float),
                                 mu=1.0, q=4.0, kappa=1.0,
                                 F=lambda s: 0.5 * np.asarray(s, dtype=float)**2)
    return float(check_hypotheses(identity)["vanishing_slope_at_zero"].passed)


def _halved_kappa_accepted(ctx: Context) -> float:
    halved = replace(ctx.nl, kappa=ctx.nl.kappa / 2.0)
    return float(check_hypotheses(halved)["growth_bound"].passed)


def _constraint_on_M(ctx: Context) -> float:
    """|V(u) - 1| of omega dilated onto {V = 1} (project_to_M), inf where
    that dilation does not fit the ball: the failure of this check alone."""
    try:
        u = project_to_M(ctx.ground.omega, ctx.nl)
    except InitializationFailure:
        return math.inf
    return abs(V_value(u, ctx.nl) - 1.0)


def _pohozaev_on_arrival(ctx: Context) -> float:
    """|P(omega)| / |grad omega|^2 = |A - 6V| / A from one ScalingTerms."""
    terms = scaling_terms(ctx.ground.omega, ctx.nl)
    return abs(terms.A - 6.0 * terms.V) / terms.A


def gradient_fd_gap(grid, nl, rng: random.Random, trials: int = 20,
                    lams: tuple[float, ...] = (0.0, 0.1, 0.5), eps: float = 1e-5) -> float:
    """Worst relative gap between <gradient residual, v> and the central
    difference of the coupled energy along v, over random smooth (u, v, lam)."""
    worst = 0.0
    minus_r2, wave = -grid.nodes**2, 1 + 0.3 * np.sin(grid.nodes)
    for k in range(trials):
        lam = lams[k % len(lams)]
        wu, wv = rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0)
        au, av = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
        u_vals = au * np.exp(minus_r2 / (2 * wu**2))
        v_vals = av * np.exp(minus_r2 / (2 * wv**2)) * wave
        u_vals[-1] = v_vals[-1] = 0.0
        res, _ = gradient_residual(RadialFunction(grid, u_vals), nl, lam)
        pairing = integrate_values(grid, res.values * v_vals)
        ep = energy(RadialFunction(grid, u_vals + eps * v_vals), nl, lam).Gamma_value
        em = energy(RadialFunction(grid, u_vals - eps * v_vals), nl, lam).Gamma_value
        fd = (ep - em) / (2 * eps)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-12))
    return worst


def interaction_ratios(grid, rng: random.Random) -> list[float]:
    """int phi_u u^2 / (S^-1 |u|_{12/5}^4) at lambda = 1 for 20 random
    profiles amp exp(-(r/width)^p), each at most 1: |grad phi|^2 = int phi u^2 <=
    |phi|_6 |u|_{12/5}^2 and S |phi|_6^2 <= |grad phi|^2.  The ratio does not
    depend on amp or width, so the exponent p in [1, 4] sets it: 0.993 at
    p = 1, 0.972 at p = 2 (the Gaussian) and 0.940 at p = 4."""
    ratios = []
    for _ in range(20):
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.1, 3.0)
        p = rng.uniform(1.0, 4.0)
        x = -(grid.nodes / width) ** p
        # exp is exactly +0 below -746, where libm's exp takes a slow path
        vals = np.zeros(grid.n)
        np.exp(x, out=vals, where=x > -746.0)
        vals *= amp
        vals[-1] = 0.0
        u = RadialFunction(grid, vals)
        bound = norm_lq(u, 12.0 / 5.0) ** 4 / SOBOLEV_S_CLOSED_FORM
        ratios.append(solve_phi(u, 1.0).coupling / bound)
    return ratios


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
    Check("limit.shot_residual", _SHOT_TOL, "dual norm of the lam = 0 residual",
          lambda c: c.ground.residual),
    Check("limit.constraint_on_M", 1e-8, "|V - 1|", _constraint_on_M),
    Check("limit.pohozaev_on_arrival", 1e-4, "|P| / |grad omega|^2", _pohozaev_on_arrival),
    Check("poisson.T_bound_battery", 1.0, "max coupling / bound over 20 samples",
          lambda c: max(interaction_ratios(c.grid, c.rng()))),
    Check("sp.pohozaev_certificate", 1e-3, "rel residual",
          lambda c: c.point.pohozaev_res_rel),
    Check("sp.residual_certificate", 1.0, "dual norm / solver tol",
          lambda c: c.point.grad_residual_norm / c.cfg.tol),
)
