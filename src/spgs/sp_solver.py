"""Coupled solver: continuation in the coupling parameter from the limit
ground state, the dilation-path energy ceiling, and the asymptotics report.

The branch is computed by damped exact Newton solves of
-Delta u + u + lam phi_u u = f(u), walking a decreasing schedule of lam and
recording residual-certified diagnostics at every accepted point.  Each
Newton step costs O(n) per Krylov vector: GMRES on the Jacobian
preconditioned by its local tridiagonal part, whose nonlocal remainder is
one Newton-potential prefix sum.  Each point starts from the extrapolation
in lam^2 of the points before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import SOBOLEV_S_CLOSED_FORM
from .functionals import ScalingTerms, gradient_residual, scaling_terms
# dilate is unused here; bench/selftest.py expects this binding of it
from .grid import (  # noqa: F401
    RadialFunction,
    dilate,
    dual_norm,
    h1_norm_sq,
    helmholtz_lu,
    integrate_values,
    solve_lu,
)
from .limit_solver import LimitGroundState
from .nonlinearity import Nonlinearity
from .poisson import newton_potential


class NonConvergence(RuntimeError):
    """Newton iteration exhausted its budget or its line search; carries the
    failing lam."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class PositivityLoss(RuntimeError):
    """A full Newton step would clip more than half of the L^2 mass: the
    iterate has left the positive branch."""


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


# _dense_jacobian_step is unused here; it is the O(n^2) reference for
# _newton_step in the tests, and bench/tracer.py reads its call count by name
def _dense_jacobian_step(u_vals, phi, nl, lam, grid, residual):
    """Full-Newton correction including the nonlocal rank-structured block.

    phi is the potential of u_vals at lam.  The extra block is
    2 lam^2 diag(u) K diag(u) W with the symmetric Coulomb kernel
    K_ij = 1/(4 pi max(r_i, r_j)).
    """
    n = grid.n
    r = grid.nodes
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


# GMRES stops once the preconditioned residual has fallen by _GMRES_TOL, or
# after _GMRES_MAX_ITER Krylov vectors (the line search then takes the
# inexact step); on the branch benchmark 1e-8 takes the same Newton
# iterations as 1e-12 with a fifth fewer Krylov vectors
_GMRES_TOL = 1e-8
_GMRES_MAX_ITER = 30

# a full step that would clip more than this fraction of the L^2 mass has
# left the positive branch; a smaller clip over the budget halves the step
_CLIP_LOST = 0.5


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """Solve apply(x) = b by GMRES from x = 0 (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986): modified Gram-Schmidt Arnoldi, with Givens
    rotations that keep the least-squares residual at hand."""
    beta = float(np.linalg.norm(b))
    m = _GMRES_MAX_ITER
    hess = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    basis = [b / beta]
    for k in range(m):
        w = apply(basis[k])
        for i in range(k + 1):
            hess[i, k] = np.dot(basis[i], w)
            w -= hess[i, k] * basis[i]
        h_next = float(np.linalg.norm(w))
        for i in range(k):
            hess[i, k], hess[i + 1, k] = (cs[i] * hess[i, k] + sn[i] * hess[i + 1, k],
                                          cs[i] * hess[i + 1, k] - sn[i] * hess[i, k])
        rho = math.hypot(hess[k, k], h_next)
        cs[k], sn[k] = hess[k, k] / rho, h_next / rho
        hess[k, k] = rho
        g[k + 1] = -sn[k] * g[k]
        g[k] *= cs[k]
        # h_next = 0: the Krylov space is invariant and holds the solution
        if abs(g[k + 1]) <= _GMRES_TOL * beta or h_next == 0.0:
            break
        basis.append(w / h_next)
    y = np.linalg.solve(np.triu(hess[: k + 1, : k + 1]), g[: k + 1])
    return sum(c * v for c, v in zip(y, basis))


def _newton_step(u_vals, phi, nl, lam, grid, residual):
    """Exact Newton correction J delta = -residual in O(n) per Krylov vector.

    J = T + N splits into the frozen-phi operator T = -Delta + 1 + lam phi
    - f'(u), tridiagonal and factored once, and the nonlocal part
    N delta = 2 lam^2 u Newton[u delta].  GMRES solves the left-preconditioned
    system (I + T^-1 N) delta = -T^-1 residual.
    """
    fp = np.asarray(nl.fprime(u_vals), dtype=float)
    lu = helmholtz_lu(grid, 1.0 + lam * phi - fp)
    coef = 2.0 * lam**2 * u_vals

    def apply(v):
        return v + solve_lu(lu, coef * newton_potential(grid, u_vals * v))

    return _gmres(apply, solve_lu(lu, -residual))


def solve_at_lambda(u_init: RadialFunction, nl: Nonlinearity, lam: float,
                    opts: SolverOptions | None = None) -> BranchPoint:
    """Damped exact Newton solve of the coupled equation at fixed lam.

    Each step is _newton_step from the accepted iterate, whose residual
    comes with its potential, so each residual evaluation is one Poisson
    solve.  The step length halves until the dual norm of the residual
    falls.  Negative parts are clipped (positive branch) against an L^2 mass
    budget: a clip over the budget halves the step, and a full step that
    would clip more than half of the mass raises PositivityLoss.  A step
    that cannot lower the residual above the damping floor raises
    NonConvergence.
    """
    opts = opts or SolverOptions()
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    grid = u_init.grid
    vals = u_init.values.copy()
    vals[-1] = 0.0

    def residual_of(v):
        res, psol = gradient_residual(RadialFunction(grid, v), nl, lam)
        return res.values, psol

    res, psol = residual_of(vals)
    nrm = dual_norm(grid, res)
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        if nrm <= opts.tol:
            break
        delta = _newton_step(vals, psol.phi.values, nl, lam, grid, res)

        theta = 1.0
        while theta >= opts.damping_floor:
            cand = vals + theta * delta
            neg = np.minimum(cand, 0.0)
            clipped = integrate_values(grid, neg**2)
            total = integrate_values(grid, cand**2)
            if total > 0 and clipped > opts.clip_budget * total:
                if theta == 1.0 and clipped > _CLIP_LOST * total:
                    raise PositivityLoss(
                        f"clipping would remove {clipped / total:.3e} of the L^2 mass at lam={lam}"
                    )
                theta *= 0.5
                continue
            cand = np.maximum(cand, 0.0)
            cand[-1] = 0.0
            cand_res, cand_psol = residual_of(cand)
            cand_nrm = dual_norm(grid, cand_res)
            if cand_nrm < nrm:
                vals, res, psol, nrm = cand, cand_res, cand_psol, cand_nrm
                break
            theta *= 0.5
        else:
            raise NonConvergence(
                f"line search failed at residual {nrm:.3e} after {iterations} iterations",
                lam=lam,
            )
    else:
        raise NonConvergence(
            f"residual {nrm:.3e} above tolerance {opts.tol} after {opts.max_iter} iterations",
            lam=lam,
        )

    u = RadialFunction(grid, vals)
    terms = replace(scaling_terms(u, nl), K=0.25 * lam * psol.coupling)
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
    return _path_max(scaling_terms(omega, nl, lam), t0)


def _path_max(terms: ScalingTerms, t0: float) -> float:
    return max(terms.gamma(min(terms.peak(), t0)), terms.gamma(t0))


def continuation(nl: Nonlinearity, lambda_schedule, ground: LimitGroundState,
                 opts: SolverOptions | None = None) -> SolutionBranch:
    """Branch following along a strictly decreasing lam schedule.

    The first point starts from omega.  Every later point starts from the
    Lagrange extrapolation in lam^2 through the last three accepted points
    (one, then two, at the start), clipped at 0: the branch is smooth in
    lam^2 (u_lam = omega + lam^2 v_1 + O(lam^4)), and the predictor costs no
    solve.

    The scaling terms of omega are computed once, at lam = 1: A, B and C do
    not depend on lam and K(lam) = lam^2 K(1), so b_ref and every D_lam come
    from one Poisson solve.
    """
    schedule = [float(x) for x in lambda_schedule]
    if not schedule:
        raise ValueError("empty continuation schedule")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if any(x < 0 for x in schedule):
        raise ValueError("schedule entries must be nonnegative")

    omega = ground.omega
    terms = scaling_terms(omega, nl, 1.0)
    branch = SolutionBranch(points=[], omega_ref=omega, b_ref=terms.I_value)
    t0 = find_t0(omega, nl)

    for lam in schedule:
        u_warm = _predict(branch.points[-3:], lam) if branch.points else omega
        point = solve_at_lambda(u_warm, nl, lam, opts)
        diff = point.u - omega
        point.h1_dist_to_omega = math.sqrt(h1_norm_sq(diff))
        point.D_lambda = _path_max(replace(terms, K=lam**2 * terms.K), t0)
        branch.points.append(point)
    return branch


def _predict(points: list[BranchPoint], lam: float) -> RadialFunction:
    """Lagrange extrapolation in lam^2 of the points' fields to lam, clipped at 0."""
    s = [p.lam**2 for p in points]
    vals = np.zeros(points[0].u.grid.n)
    for j, p in enumerate(points):
        weight = math.prod((lam**2 - s[i]) / (s[j] - s[i]) for i in range(len(s)) if i != j)
        vals += weight * p.u.values
    return RadialFunction(points[0].u.grid, np.maximum(vals, 0.0))


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
