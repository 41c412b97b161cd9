"""Best Sobolev embedding constants and the coupling threshold for mu.

S is the best constant of the gradient-to-L^6 embedding, computed as the
least L^6 Rayleigh quotient over the truncated bubbles, one scalar search
over their width.  The known closed form
3*pi*(sqrt(pi)/4)^(2/3) is SOBOLEV_S_CLOSED_FORM: the tests use it as the
oracle for S, and the code reads it wherever S enters a bound (mu* in
constants_report and checks.ground_state, the compactness threshold c*, the
poisson.T_bound_battery check, the distance budget of asymptotics_report).
C_q is the H^1-to-L^q Rayleigh quotient of the pure-power limit ground state,
the shot's omega_0 (limit_solver.shoot_ground_state): on the run's grid, or
where the shot fails there, on the first finer level of the nested-iteration
ladder whose shot resolves the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# dilate is unused here; bench/selftest.py expects this binding of it
from .grid import (  # noqa: F401
    RadialFunction,
    RadialGrid,
    dilate,
    grad_norm_sq,
    h1_norm_sq,
    make_grid,
    norm_lq,
)
from .limit_solver import SolverFailure, _NoMaximum, _scan_shot, shoot_ground_state
from .nonlinearity import _golden_min, canonical_family

SOBOLEV_S_CLOSED_FORM = 3.0 * math.pi * (math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0)

# levels above the run's grid that best_Cq shoots on where the run's shot
# fails, each of 4n - 3 nodes (the grid whose _coarse_grid is the one below).
# At n=750, q=5.5 resolves one level up and q=5.8 two; q=5.9 needs a third,
# 64x the nodes, and there the run should raise its own n
_FINER_LEVELS = 2


@dataclass
class ConstantsReport:
    S: float
    Cq: dict[float, float] = field(default_factory=dict)
    mu_thresholds: dict[float, float] = field(default_factory=dict)
    # for each C_q shot on a finer grid than the report's, that grid's n
    Cq_n: dict[float, int] = field(default_factory=dict)


def _bubble(grid: RadialGrid, eps: float) -> RadialFunction:
    r = grid.nodes
    vals = np.sqrt(eps / (eps**2 + r**2))
    vals = vals - vals[-1]  # Dirichlet truncation; leaves the gradient term intact
    return RadialFunction(grid, np.maximum(vals, 0.0))


def sobolev_S(grid: RadialGrid) -> float:
    """Best constant of the gradient-to-L^6 embedding on grid: the least L^6
    Rayleigh quotient over the truncated bubbles of width eps, the
    extremals of the whole space (Talenti, Ann. Mat. Pura Appl. 110, 1976).

    A log scan of 32 widths from h/4 to R/8, then the golden-section polish
    of smallest_kappa (_golden_min) to 1e-6 in log eps.  On R = 30 the
    quotient has one minimum over the scan, at 2.0h, 2.7h, 4.2h and 6.7h for
    n = 750, 3000, 12000 and 48000.
    """

    def quotient(x):
        u = _bubble(grid, math.exp(x))
        return grad_norm_sq(u) / norm_lq(u, 6.0) ** 2

    xs = np.linspace(math.log(grid.h / 4.0), math.log(grid.R / 8.0), 32)
    vals = np.array([quotient(x) for x in xs])
    return float(_golden_min(quotient, xs, vals, 1e-6))


def _quotient_hq(u: RadialFunction, q: float) -> float:
    denom = norm_lq(u, q) ** 2
    if denom == 0.0:
        return math.inf
    return h1_norm_sq(u) / denom


def best_Cq(q: float, grid: RadialGrid) -> float:
    """Best constant of the H^1 to L^q embedding, q in (2, 6).

    The minimizer is the ground state w of -Delta w + w = w^(q-1): the
    shot's omega_0 (shoot_ground_state) on grid, or, if that shot raises a
    SolverFailure, on the grid of 4n - 3 nodes over the same R, then of
    16n - 15 (_FINER_LEVELS).  Its Rayleigh quotient |w|_H1^2 / |w|_q^2 on
    its own grid is returned: the quotient of a certified solution of that
    grid's equation, and so an upper estimate of that grid's infimum.  If no
    level resolves, the finest level's failure is raised, its message
    prefixed with q and the two grids' n.
    """
    return _best_Cq(q, grid)[0]


def _best_Cq(q: float, grid: RadialGrid) -> tuple[float, int]:
    """best_Cq and the n of the grid whose shot it is the quotient of.

    The levels are walked up once.  A finer level's own nested iteration
    would start from the level below, whose whole route has just failed, so
    a finer level takes its own scan (_scan_shot) alone.  The failure raised
    names q, the n of the level that raised it and the run's n, and keeps
    its type; _NoMaximum does not depend on the grid and is raised from the
    run's grid."""
    if not 2.0 < q < 6.0:
        raise ValueError(f"q must lie in (2, 6), got {q}")
    nl, level = canonical_family(1.0, q, 0.0), grid
    for finer in range(_FINER_LEVELS + 1):
        try:
            omega = _scan_shot(nl, level)[0] if finer else shoot_ground_state(nl, level)
            return float(_quotient_hq(omega, q)), level.n
        except SolverFailure as exc:
            if finer == _FINER_LEVELS or isinstance(exc, _NoMaximum):
                exc.args = (f"C_q for q = {q:g} on the grid of n = {level.n} "
                            f"(the run's n = {grid.n}): {exc}",)
                raise
        level = make_grid(grid.R, 4 * level.n - 3)


def mu_threshold(q: float, S: float, Cq: float) -> float:
    """Coupling threshold [(3q-6)/(2q S^(3/2))]^((q-2)/2) * Cq^(q/2)."""
    if not 2.0 < q < 6.0:
        raise ValueError(f"q must lie in (2, 6), got {q}")
    if S <= 0 or Cq <= 0:
        raise ValueError("embedding constants must be positive")
    bracket = (3.0 * q - 6.0) / (2.0 * q * S**1.5)
    return bracket ** ((q - 2.0) / 2.0) * Cq ** (q / 2.0)


def compactness_threshold(cw: float) -> float:
    """Compactness threshold c* = S^(3/2) / (3 sqrt(cw)) of the critical term
    cw s^5 (Brezis & Nirenberg, CPAM 36, 1983) with the closed-form S, inf
    for cw = 0: a mountain-pass level at or above c* is no ground state's."""
    return SOBOLEV_S_CLOSED_FORM**1.5 / (3.0 * math.sqrt(cw)) if cw > 0 else math.inf


def constants_report(grid: RadialGrid, q_values) -> ConstantsReport:
    """S computed on grid, and C_q and mu*(q) for each q; mu* plugs in the
    closed-form S, as checks.ground_state does, so it has one value."""
    report = ConstantsReport(S=sobolev_S(grid))
    for q in q_values:
        cq, n = _best_Cq(float(q), grid)
        report.Cq[float(q)] = cq
        if n != grid.n:
            report.Cq_n[float(q)] = n
        report.mu_thresholds[float(q)] = mu_threshold(float(q), SOBOLEV_S_CLOSED_FORM, cq)
    return report
