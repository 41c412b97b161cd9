"""Coupled solver: continuation in the coupling parameter from the limit
ground state, the dilation-path energy ceiling, and the asymptotics report.

The branch is computed by damped exact Newton solves of
-Delta u + u + lam phi_u u = f(u), walking a decreasing schedule of lam and
recording residual-certified diagnostics at every accepted point.  Each
Newton step costs O(n) per Krylov vector: GMRES on the Jacobian
preconditioned by its local tridiagonal part, whose nonlocal remainder is
one Newton-potential prefix sum.  The branch is anchored at lam = 0 by the
discrete limit solution omega_0 and its lam^2 and lam^4 coefficients v_1 and
v_2 (u_lam = omega_0 + lam^2 v_1 + lam^4 v_2 + O(lam^6)), and each point
starts from the Hermite interpolant in lam^2 through that anchor and the
points before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError

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
    pair,
    solve_lu,
)
from .limit_solver import LimitGroundState, SolverFailure
from .nonlinearity import Nonlinearity, _fd_derivative
from .poisson import newton_potential, solve_phi


class NonConvergence(SolverFailure):
    """Newton iteration exhausted its budget or its line search; carries the
    failing lam."""

    def __init__(self, message: str, lam: float | None = None):
        super().__init__(message)
        self.lam = lam


class PositivityLoss(SolverFailure):
    """A full Newton step would clip more than half of the L^2 mass: the
    iterate has left the positive branch."""


class RangeFailure(SolverFailure):
    """The dilation path never drops below the required energy level."""


@dataclass
class SolverOptions:
    tol: float = 1e-9


@dataclass
class BranchPoint:
    """A certified point (lam, u) of the branch and its diagnostics.

    u is the one field a point holds.  Its potential phi is solved from u on
    each access; phi_d12, the energies and the Pohozaev balance were taken
    from the solve's own potential of u, which phi reproduces bit for bit.
    """

    lam: float
    u: RadialFunction
    gamma_energy: float
    i_energy: float
    h1_dist_to_omega: float
    phi_d12: float
    pohozaev_res: float
    pohozaev_res_rel: float
    grad_residual_norm: float
    D_lambda: float = math.nan
    iterations: int = 0

    @property
    def phi(self) -> RadialFunction:
        """The potential phi_u = lam Newton[u^2] of u (solve_phi), in O(n)."""
        return solve_phi(self.u, self.lam).phi


@dataclass
class SolutionBranch:
    points: list[BranchPoint] = field(default_factory=list)
    b_ref: float = math.nan
    # lam^2 coefficient of the branch energy, Gamma_lam = b + lam^2 K1 + O(lam^4)
    K1: float = math.nan


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

# a safety stop: no point of the branch benchmark takes more than 5 steps
_MAX_ITER = 80
# the line search tries the step lengths 1, 1/2, ..., 2^-13, then gives up
_DAMPING_FLOOR = 1e-4
# the share of the L^2 mass a step may clip; a larger clip halves the step
_CLIP_BUDGET = 1e-8
# a full step that would clip more than this share has left the positive branch
_CLIP_LOST = 0.5


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """Solve apply(x) = b by GMRES from x = 0 (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986): modified Gram-Schmidt Arnoldi, with Givens
    rotations that keep the least-squares residual at hand.  The rotated
    Hessenberg factor is upper triangular, so the Krylov coefficients come
    from one back-substitution in Python floats (_back_substitute): no
    LAPACK call."""
    beta = math.sqrt(pair(b, b))
    m = _GMRES_MAX_ITER
    hess = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    basis = [b / beta]
    for k in range(m):
        w = apply(basis[k])
        for i in range(k + 1):
            hess[i, k] = pair(basis[i], w)
            w -= hess[i, k] * basis[i]
        h_next = math.sqrt(pair(w, w))
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
    y = _back_substitute(hess[: k + 1, : k + 1].tolist(), g[: k + 1].tolist())
    return sum(c * v for c, v in zip(y, basis))


def _back_substitute(tri: list[list[float]], rhs: list[float]) -> list[float]:
    """y with tri y = rhs for the upper-triangular tri, by back-substitution
    in Python floats; the entries below the diagonal are not read."""
    y = list(rhs)
    for i in reversed(range(len(y))):
        y[i] = (y[i] - sum(tri[i][j] * y[j] for j in range(i + 1, len(y)))) / tri[i][i]
    return y


def _newton_step(u_vals, phi, nl, lam, grid, residual):
    """Exact Newton correction J delta = -residual in O(n) per Krylov vector.

    J = T + N splits into the frozen-phi operator T = -Delta + 1 + lam phi
    - f'(u), tridiagonal and factored once, and the nonlocal part
    N delta = 2 lam^2 u Newton[u delta].  GMRES solves the left-preconditioned
    system (I + T^-1 N) delta = -T^-1 residual.  At lam = 0, N vanishes and
    the step is the one tridiagonal solve T^-1 (-residual).
    """
    fp = np.asarray(nl.fprime(u_vals), dtype=float)
    lu = helmholtz_lu(grid, 1.0 + lam * phi - fp)
    local = solve_lu(lu, -residual)
    if lam == 0.0:
        return local
    coef = 2.0 * lam**2 * u_vals

    def apply(v):
        return v + solve_lu(lu, coef * newton_potential(grid, u_vals * v))

    return _gmres(apply, local)


def solve_at_lambda(u_init: RadialFunction, nl: Nonlinearity, lam: float,
                    opts: SolverOptions | None = None) -> BranchPoint:
    """Damped exact Newton solve of the coupled equation at fixed lam.

    Each step is _newton_step from the accepted iterate, whose residual
    comes with its potential, so each residual evaluation is at most one
    Poisson solve (none at lam = 0).  The step length halves until the dual
    norm of the residual falls.  Negative parts are clipped (positive branch)
    against an L^2 mass budget: a clip over the budget halves the step, and
    a full step that would clip more than half of the mass raises
    PositivityLoss.  A step that cannot lower the residual above the damping
    floor raises NonConvergence, and so does a residual still above opts.tol
    after _MAX_ITER steps.  The point's iterations are its accepted Newton
    steps.
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
    while nrm > opts.tol:
        if iterations == _MAX_ITER:
            raise NonConvergence(
                f"residual {nrm:.3e} above tolerance {opts.tol} after {iterations} "
                f"Newton steps at lam={lam}",
                lam=lam,
            )
        delta = _newton_step(vals, psol.phi.values, nl, lam, grid, res)

        theta = 1.0
        while theta >= _DAMPING_FLOOR:
            cand = vals + theta * delta
            neg = np.minimum(cand, 0.0)
            clipped = integrate_values(grid, neg**2)
            total = integrate_values(grid, cand**2)
            if total > 0 and clipped > _CLIP_BUDGET * total:
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
                f"line search failed at residual {nrm:.3e} after {iterations} "
                f"Newton steps at lam={lam}",
                lam=lam,
            )
        iterations += 1

    u = RadialFunction(grid, vals)
    terms = replace(scaling_terms(u, nl), K=0.25 * lam * psol.coupling)
    pohozaev_res, pohozaev_res_rel = terms.dilation_balance()
    return BranchPoint(
        lam=lam,
        u=u,
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

    With V > 0 the cubic g(t) = V t^3 - (A/2) t - 2 has exactly one positive
    root.  g is convex on t > 0 with g(0) = -2, and at
    t = sqrt(A / 2V) + (2/V)^(1/3) it is at least A (2/V)^(1/3) > 0, so Newton's
    method from there decreases monotonically to the root; it stops at the
    first step that does not decrease, at the root to rounding.
    """
    terms = scaling_terms(omega, nl)
    if not terms.V > 0:
        raise RangeFailure(
            f"limit energy never drops below -2 along the dilation path (V = {terms.V:.3e})"
        )
    V, half_A = terms.V, 0.5 * terms.A
    t = math.sqrt(half_A / V) + (2.0 / V) ** (1.0 / 3.0)
    while True:
        t_next = t - (V * t**3 - half_A * t - 2.0) / (3.0 * V * t**2 - half_A)
        if not t_next < t:
            return 1.05 * t
        t = t_next


def path_max_D(omega: RadialFunction, nl: Nonlinearity, lam: float, t0: float) -> float:
    """Ceiling D_lam = max over t in [0, t0] of the coupled energy
    (A/2) t - V t^3 + K t^5 along the dilation path through omega."""
    return _path_max(scaling_terms(omega, nl, lam), t0)


def _path_max(terms: ScalingTerms, t0: float) -> float:
    return max(terms.gamma(min(terms.peak(), t0)), terms.gamma(t0))


def continuation(nl: Nonlinearity, lambda_schedule, ground: LimitGroundState,
                 opts: SolverOptions | None = None) -> SolutionBranch:
    """Branch following along a strictly decreasing lam schedule.

    The branch is anchored at lam = 0 first (_anchor): omega_0 is the
    discrete solution at lam = 0 solved from omega, and v_1 and v_2 its lam^2
    and lam^4 coefficients, u_lam = omega_0 + lam^2 v_1 + lam^4 v_2
    + O(lam^6).  Every point starts from the Hermite interpolant in lam^2
    with a triple node at 0 (value omega_0, slope v_1, half second
    derivative v_2) and the last three accepted points, clipped at 0: it
    costs one weighted sum of at most six fields and no solve.  Each point's
    h1_dist_to_omega is its H^1 distance to omega_0, which falls like
    lam^2 |v_1|_H1.

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
    t0 = find_t0(omega, nl)
    omega0, v1, v2, K1 = _anchor(omega, nl, opts)
    branch = SolutionBranch(points=[], b_ref=terms.I_value, K1=K1)

    for lam in schedule:
        point = solve_at_lambda(_predict(omega0, v1, v2, branch.points[-3:], lam), nl, lam, opts)
        point.h1_dist_to_omega = math.sqrt(h1_norm_sq(point.u - omega0))
        point.D_lambda = _path_max(replace(terms, K=lam**2 * terms.K), t0)
        branch.points.append(point)
    return branch


def _anchor(omega: RadialFunction, nl: Nonlinearity, opts: SolverOptions | None
            ) -> tuple[RadialFunction, np.ndarray, np.ndarray, float]:
    """The lam = 0 solution omega_0, the lam^2 and lam^4 coefficients v_1 and
    v_2 of the branch there, and K_1 = (1/4) int phi_1[omega_0] omega_0^2.

    With eps = lam^2 the equation reads -Delta u + u + eps phi_1[u] u = f(u),
    phi_1[u] = Newton[u^2].  Inserting u = omega_0 + eps v_1 + eps^2 v_2 and
    matching the powers of eps gives, with L = -Delta + 1 - f'(omega_0),

        L v_1 = -phi_1[omega_0] omega_0,
        L v_2 = (1/2) f''(omega_0) v_1^2 - phi_1[omega_0] v_1
                - 2 Newton[omega_0 v_1] omega_0,

    two back-solves of one tridiagonal factor.  f'' is the centred difference
    of nl.fprime (_fd_derivative), finite also for q < 3, where the closed
    form is unbounded at 0.  L is invertible on radial fields when omega_0 is
    nondegenerate; a singular factor raises NonConvergence at lam = 0.  The
    first variation of the energy vanishes at omega_0, so
    Gamma_lam = b + lam^2 K_1 + O(lam^4) needs no v_1.
    """
    omega0 = solve_at_lambda(omega, nl, 0.0, opts).u
    grid = omega0.grid
    w = omega0.values
    phi1 = newton_potential(grid, w**2)
    try:
        lu = helmholtz_lu(grid, 1.0 - np.asarray(nl.fprime(w), dtype=float))
    except LinAlgError as exc:
        raise NonConvergence("the linearization at the lam=0 solution is singular",
                             lam=0.0) from exc
    v1 = solve_lu(lu, -phi1 * w)
    half_f2 = 0.5 * _fd_derivative(nl.fprime)(w)
    v2 = solve_lu(lu, half_f2 * v1**2 - phi1 * v1 - 2.0 * newton_potential(grid, w * v1) * w)
    return omega0, v1, v2, 0.25 * integrate_values(grid, phi1 * w**2)


def _predict(omega0: RadialFunction, v1: np.ndarray, v2: np.ndarray,
             points: list[BranchPoint], lam: float) -> RadialFunction:
    """Hermite interpolant in s = lam^2 at lam, clipped at 0, through omega0
    with slope v1 and half second derivative v2 at s = 0 (a triple node) and
    the points' fields at s_j = lam_j^2 > 0.

    It is omega0 + s v1 + s^2 v2 + s^3 sum_j l_j(s) (u_j - omega0 - s_j v1
    - s_j^2 v2) / s_j^3 with the Lagrange basis l_j on the s_j, so it is one
    weighted sum of the fields with scalar weights c_j = (s / s_j)^3 l_j(s)
    on the u_j and s^k - sum_j c_j s_j^k on omega0, v1 and v2 (k = 0, 1, 2).
    """
    s = lam**2
    nodes = [p.lam**2 for p in points]
    c = [(s / sj) ** 3 * math.prod((s - si) / (sj - si) for i, si in enumerate(nodes) if i != j)
         for j, sj in enumerate(nodes)]
    weights = [s**k - sum(cj * sj**k for cj, sj in zip(c, nodes)) for k in range(3)] + c
    fields = [omega0.values, v1, v2, *(p.u.values for p in points)]
    vals = np.maximum(sum(wt * f for wt, f in zip(weights, fields)), 0.0)
    vals[-1] = 0.0
    return RadialFunction(omega0.grid, vals)


def _loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x over the pairs with x > 0
    and y > 0, in closed form: sum (X - mean X)(Y - mean Y) / sum (X - mean X)^2
    with X = log x and Y = log y.  NaN with fewer than two such pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        return math.nan
    lx, ly = np.log(x[mask]), np.log(y[mask])
    lx -= lx.mean()
    ly -= ly.mean()
    return pair(lx, ly) / pair(lx, lx)


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
    K1: float


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
        K1=branch.K1,
    )
