"""Coupled solver: continuation in the coupling parameter from the limit
ground state, the dilation-path energy ceiling, and the asymptotics report.

The branch is computed by warm-started damped quasi-Newton solves of
-Delta u + u + lam phi_u u = f(u), walking a decreasing schedule of lam and
recording residual-certified diagnostics at every accepted point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SOBOLEV_S_CLOSED_FORM
from .functionals import energy, gradient_residual, scaling_terms
from .grid import (
    RadialFunction,
    dilate,
    dual_norm,
    h1_norm_sq,
    integrate_values,
    solve_helmholtz,
)
from .limit_solver import LimitGroundState
from .nonlinearity import Nonlinearity
from .poisson import solve_phi


class NonConvergence(RuntimeError):
    """Quasi-Newton iteration exhausted its budget; carries the failing lam."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class PositivityLoss(RuntimeError):
    """Negative-part clipping removed more than the allowed L^2 mass."""


class RangeFailure(RuntimeError):
    """The dilation path never drops below the required energy level."""


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 80
    damping_floor: float = 1e-4
    clip_budget: float = 1e-8


@dataclass
class BranchPoint:
    lam: float
    u: RadialFunction
    phi: RadialFunction
    gamma_energy: float
    i_energy: float
    h1_dist_to_omega: float
    phi_d12: float
    pohozaev_res: float
    pohozaev_res_rel: float
    grad_residual_norm: float
    D_lambda: float = math.nan
    iterations: int = 0


@dataclass
class SolutionBranch:
    points: list[BranchPoint] = field(default_factory=list)
    omega_ref: RadialFunction | None = None
    b_ref: float = math.nan


def _dense_jacobian_step(u_vals, nl, lam, grid, residual):
    """Full-Newton correction including the nonlocal rank-structured block.

    The extra block is 2 lam^2 diag(u) K diag(u) W with the symmetric Coulomb
    kernel K_ij = 1/(4 pi max(r_i, r_j)); used only when frozen-phi damping
    stagnates.
    """
    n = grid.n
    r = grid.nodes
    phi = solve_phi(RadialFunction(grid, u_vals), lam).phi.values
    fp = np.asarray(nl.fprime(u_vals), dtype=float)

    ab = np.zeros((n, n))
    bands = grid.bands
    idx = np.arange(n)
    ab[idx, idx] = bands[1]
    ab[idx[:-1], idx[:-1] + 1] = bands[0, 1:]
    ab[idx[1:], idx[1:] - 1] = bands[2, :-1]
    ab[idx[:-1], idx[:-1]] += 1.0 + lam * phi[:-1] - fp[:-1]

    kernel = 1.0 / np.maximum(r[:, None], np.maximum(r[None, :], 1e-300))
    dense = 2.0 * lam**2 * (u_vals[:, None] * kernel) * (u_vals * grid.weights / (4.0 * np.pi))[None, :]
    dense[-1, :] = 0.0
    ab[: n - 1, :] += dense[: n - 1, :]

    rhs = -residual.copy()
    rhs[-1] = 0.0
    return np.linalg.solve(ab, rhs)


# the frozen iteration stagnates when the last _STAGNATION_WINDOW steps cut the
# residual by less than 10 %, and solve_at_lambda then takes the dense step
_STAGNATION_WINDOW = 5
_STAGNATION_FACTOR = 0.9


def solve_at_lambda(u_init: RadialFunction, nl: Nonlinearity, lam: float,
                    opts: SolverOptions | None = None) -> BranchPoint:
    """Damped quasi-Newton solve of the coupled equation at fixed lam.

    The potential is frozen at each iterate and the linearized radial problem
    (-Delta + 1 + lam phi_k - f'(u_k)) delta = -residual is solved as a
    tridiagonal system; a dense full-Jacobian step is the fallback when the
    frozen iteration stagnates.  Negative parts are clipped (positive branch)
    against an L^2 mass budget.
    """
    opts = opts or SolverOptions()
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    grid = u_init.grid
    vals = u_init.values.copy()
    vals[-1] = 0.0

    def residual_of(v):
        return gradient_residual(RadialFunction(grid, v), nl, lam).values

    res = residual_of(vals)
    nrm = dual_norm(grid, res)
    history = [nrm]
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        if nrm <= opts.tol:
            break
        stagnating = (
            len(history) > _STAGNATION_WINDOW
            and history[-1] > _STAGNATION_FACTOR * history[-1 - _STAGNATION_WINDOW]
        )
        if stagnating:
            delta = _dense_jacobian_step(vals, nl, lam, grid, res)
        else:
            phi = solve_phi(RadialFunction(grid, vals), lam).phi.values if lam > 0 else 0.0
            fp = np.asarray(nl.fprime(vals), dtype=float)
            shift = 1.0 + lam * phi - fp
            delta = solve_helmholtz(grid, shift, -res)

        theta = 1.0
        while theta >= opts.damping_floor:
            cand = vals + theta * delta
            neg = np.minimum(cand, 0.0)
            clipped = integrate_values(grid, neg**2)
            total = integrate_values(grid, cand**2)
            if total > 0 and clipped > opts.clip_budget * total:
                raise PositivityLoss(
                    f"clipping would remove {clipped / total:.3e} of the L^2 mass at lam={lam}"
                )
            cand = np.maximum(cand, 0.0)
            cand[-1] = 0.0
            cand_res = residual_of(cand)
            cand_nrm = dual_norm(grid, cand_res)
            if cand_nrm < nrm:
                vals, res, nrm = cand, cand_res, cand_nrm
                break
            theta *= 0.5
        # a rejected step leaves nrm as it was, and the stagnation detector
        # then switches to the dense step
        history.append(nrm)
    else:
        raise NonConvergence(
            f"residual {nrm:.3e} above tolerance {opts.tol} after {opts.max_iter} iterations",
            lam=lam,
        )

    u = RadialFunction(grid, vals)
    psol = solve_phi(u, lam)
    terms = scaling_terms(u, nl, lam)
    pohozaev_res, pohozaev_res_rel = terms.dilation_balance()
    return BranchPoint(
        lam=lam,
        u=u,
        phi=psol.phi,
        gamma_energy=terms.Gamma_value,
        i_energy=terms.I_value,
        h1_dist_to_omega=math.nan,
        phi_d12=math.sqrt(max(psol.dirichlet_energy, 0.0)),
        pohozaev_res=pohozaev_res,
        pohozaev_res_rel=pohozaev_res_rel,
        grad_residual_norm=nrm,
        iterations=iterations,
    )


def find_t0(omega: RadialFunction, nl: Nonlinearity) -> float:
    """Dilation at which the limit energy (A/2) t - V t^3 along the path
    through omega has dropped to -2, times a 1.05 margin.

    With V > 0 the cubic V t^3 - (A/2) t - 2 has exactly one positive root,
    and its other roots have negative real parts.
    """
    terms = scaling_terms(omega, nl)
    if not terms.V > 0:
        raise RangeFailure(
            f"limit energy never drops below -2 along the dilation path (V = {terms.V:.3e})"
        )
    roots = np.roots([terms.V, 0.0, -0.5 * terms.A, -2.0])
    return 1.05 * float(np.max(roots.real))


def path_max_D(omega: RadialFunction, nl: Nonlinearity, lam: float, t0: float) -> float:
    """Ceiling D_lam = max over t in [0, t0] of the coupled energy
    (A/2) t - V t^3 + K t^5 along the dilation path through omega."""
    terms = scaling_terms(omega, nl, lam)
    return max(terms.gamma(min(terms.peak(), t0)), terms.gamma(t0))


def continuation(nl: Nonlinearity, lambda_schedule, ground: LimitGroundState,
                 opts: SolverOptions | None = None) -> SolutionBranch:
    """Warm-started branch following along a strictly decreasing lam schedule."""
    schedule = [float(x) for x in lambda_schedule]
    if not schedule:
        raise ValueError("empty continuation schedule")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if any(x < 0 for x in schedule):
        raise ValueError("schedule entries must be nonnegative")

    omega = ground.omega
    b_ref = energy(omega, nl, 0.0).I_value
    branch = SolutionBranch(points=[], omega_ref=omega, b_ref=b_ref)
    t0 = find_t0(omega, nl)

    u_warm = omega
    for lam in schedule:
        point = solve_at_lambda(u_warm, nl, lam, opts)
        diff = point.u - omega
        point.h1_dist_to_omega = math.sqrt(h1_norm_sq(diff))
        point.D_lambda = path_max_D(omega, nl, lam, t0)
        branch.points.append(point)
        u_warm = point.u
    return branch


def _loglog_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


@dataclass
class AsymptoticsReport:
    slope_phi_d12: float
    slope_gamma_gap: float
    slope_D_gap: float
    h1_dist_monotone: bool
    energy_ordering_ok: bool
    d_budget: float
    lambda0_empirical: float
    b_ref: float


def asymptotics_report(branch: SolutionBranch, nl: Nonlinearity) -> AsymptoticsReport:
    """Fitted rates and branch-wide checks for the small-coupling limit.

    Also verifies that the branch stays within the distance budget
    d < min{(1/3)[(3/2) S^3 / kappa]^(1/4), sqrt(3 b)} below the reported
    empirical lambda threshold.
    """
    if not branch.points:
        raise ValueError("empty branch")
    b = branch.b_ref
    lams = [p.lam for p in branch.points]
    h1d = [p.h1_dist_to_omega for p in branch.points]
    phid = [p.phi_d12 for p in branch.points]
    ggap = [abs(p.gamma_energy - b) for p in branch.points]
    dgap = [p.D_lambda - b for p in branch.points]

    d_budget = min(
        (1.0 / 3.0) * (1.5 * SOBOLEV_S_CLOSED_FORM**3 / nl.kappa) ** 0.25 if nl.kappa > 0 else math.inf,
        math.sqrt(3.0 * b),
    )
    within = [p.lam for p in branch.points if p.h1_dist_to_omega < d_budget]
    lambda0 = max(within) if within else 0.0

    return AsymptoticsReport(
        slope_phi_d12=_loglog_slope(lams, phid),
        slope_gamma_gap=_loglog_slope(lams, ggap),
        slope_D_gap=_loglog_slope(lams, dgap),
        h1_dist_monotone=all(a > b2 for a, b2 in zip(h1d, h1d[1:])),
        energy_ordering_ok=all(
            p.gamma_energy <= p.D_lambda + 1e-12 for p in branch.points
            if not math.isnan(p.D_lambda)
        ),
        d_budget=d_budget,
        lambda0_empirical=lambda0,
        b_ref=b,
    )
