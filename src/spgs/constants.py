"""Best Sobolev embedding constants and the coupling threshold for mu.

S is the best constant of the gradient-to-L^6 embedding, computed
variationally over the inverse-square-root bubble family and polished by
quotient descent.  The known closed form 3*pi*(sqrt(pi)/4)^(2/3) is
SOBOLEV_S_CLOSED_FORM: the tests use it as the oracle for S, and the code
reads it wherever S enters a bound (mu* in checks.ground_state, the
poisson.T_bound_battery check, the distance budget of asymptotics_report).
C_q comes from the ground-state identity for the pure-power limit problem,
cross-checked by direct quotient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    grad_norm_sq,
    h1_norm_sq,
    integrate_values,
    laplacian_apply,
    norm_lq,
    solve_riesz,
)
from .limit_solver import minimize_on_M
from .nonlinearity import canonical_family

SOBOLEV_S_CLOSED_FORM = 3.0 * math.pi * (math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0)


@dataclass
class ConstantsReport:
    S: float
    Cq: dict[float, float] = field(default_factory=dict)
    mu_thresholds: dict[float, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


def _bubble(grid: RadialGrid, eps: float) -> RadialFunction:
    r = grid.nodes
    vals = np.sqrt(eps / (eps**2 + r**2))
    vals = vals - vals[-1]  # Dirichlet truncation; leaves the gradient term intact
    return RadialFunction(grid, np.maximum(vals, 0.0))


def _l6_quotient(u: RadialFunction) -> float:
    denom = norm_lq(u, 6.0) ** 2
    if denom == 0.0:
        return math.inf
    return grad_norm_sq(u) / denom


def sobolev_S(grid: RadialGrid):
    """Best constant of the gradient-to-L^6 embedding via Rayleigh quotients.

    Samples the bubble family in its width parameter, then polishes the best
    candidate with preconditioned quotient descent.  Returns (S, warning)
    where warning flags a minimizing width within 10% of the grid resolution
    limits (slow-decay truncation bias).
    """
    h = grid.h
    eps_grid = np.geomspace(4.0 * h, 0.5 * grid.R, 60)
    quotients = [_l6_quotient(_bubble(grid, e)) for e in eps_grid]
    k = int(np.argmin(quotients))
    best = quotients[k]
    u = _bubble(grid, float(eps_grid[k]))

    # quotient descent polish; the quotient gradient is -Delta u - Q u^5/|u|_6^6
    for _ in range(80):
        denom6 = integrate_values(grid, np.abs(u.values) ** 6)
        q = grad_norm_sq(u) / denom6 ** (1.0 / 3.0)
        g = -laplacian_apply(u) - (q / denom6 ** (2.0 / 3.0)) * u.values**5
        g[-1] = 0.0
        d = solve_riesz(grid, g)
        step = 0.2
        improved = False
        for _ in range(12):
            cand = RadialFunction(grid, np.maximum(u.values - step * d, 0.0))
            qc = _l6_quotient(cand)
            if qc < best:
                u, best = cand, qc
                improved = True
                break
            step *= 0.5
        if not improved:
            break

    warn = bool(
        eps_grid[k] < 1.1 * eps_grid[0]
        or eps_grid[k] > 0.9 * eps_grid[-1]
    )
    return float(best), warn


def _quotient_hq(u: RadialFunction, q: float) -> float:
    denom = norm_lq(u, q) ** 2
    if denom == 0.0:
        return math.inf
    return h1_norm_sq(u) / denom


def best_Cq(q: float, grid: RadialGrid, tol: float = 1e-8) -> float:
    """Best constant of the H^1 to L^q embedding, q in (2, 6).

    Route one: the ground state w of -Delta w + w = w^(q-1) satisfies
    |w|_H1^2 = |w|_q^q, so its Rayleigh quotient is |w|_q^(q-2); tol is the
    flow tolerance of minimize_on_M.  Route two: inverse-power quotient
    descent from a Gaussian, the quotient of an actual field and so an upper
    estimate of the infimum.  Route one is not: the identity holds only up to
    the discretization error, and its value can fall below the quotient of
    the computed ground state itself.  The smaller of the two is returned.
    """
    if not 2.0 < q < 6.0:
        raise ValueError(f"q must lie in (2, 6), got {q}")
    nl = canonical_family(1.0, q, 0.0)
    ground = minimize_on_M(nl, grid, tol)
    est_ground = norm_lq(ground.omega, q) ** (q - 2.0)

    # inverse-power iteration on the quotient from a Gaussian start
    vals = np.exp(-grid.nodes**2 / 2.0)
    vals[-1] = 0.0
    u = RadialFunction(grid, vals / norm_lq(RadialFunction(grid, vals), q))
    last = math.inf
    for _ in range(400):
        rhs = np.abs(u.values) ** (q - 2.0) * u.values
        w = solve_riesz(grid, rhs)
        cand = RadialFunction(grid, w)
        cand = RadialFunction(grid, cand.values / norm_lq(cand, q))
        qc = _quotient_hq(cand, q)
        u = cand
        if abs(qc - last) < 1e-13 * max(abs(qc), 1.0):
            last = qc
            break
        last = qc
    est_direct = last
    return float(min(est_ground, est_direct))


def mu_threshold(q: float, S: float, Cq: float) -> float:
    """Coupling threshold [(3q-6)/(2q S^(3/2))]^((q-2)/2) * Cq^(q/2)."""
    if not 2.0 < q < 6.0:
        raise ValueError(f"q must lie in (2, 6), got {q}")
    if S <= 0 or Cq <= 0:
        raise ValueError("embedding constants must be positive")
    bracket = (3.0 * q - 6.0) / (2.0 * q * S**1.5)
    return bracket ** ((q - 2.0) / 2.0) * Cq ** (q / 2.0)


def constants_report(grid: RadialGrid, q_values, tol: float = 1e-8) -> ConstantsReport:
    S, warned = sobolev_S(grid)
    report = ConstantsReport(S=S)
    report.provenance["S"] = "computed (bubble family + quotient descent)" + (
        "; warning: minimizing width near grid resolution limit" if warned else ""
    )
    for q in q_values:
        cq = best_Cq(float(q), grid, tol)
        report.Cq[float(q)] = cq
        report.mu_thresholds[float(q)] = mu_threshold(float(q), S, cq)
        report.provenance[f"Cq[{q}]"] = "computed (ground-state identity vs quotient descent, min)"
        report.provenance[f"mu_threshold[{q}]"] = "derived (plug-in from computed S, Cq)"
    return report
