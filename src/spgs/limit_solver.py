"""Ground states of the uncoupled limit problem -Delta u + u = f(u).

Two independent routes: a dilation-projected constrained flow on the set
{int G(u) = 1} (the method of record), and a shooting method used as a
cross-check oracle.  The flow output is rescaled onto the Pohozaev manifold
by the Coleman-Glazer-Martin dilation, which also yields the least-energy
and mountain-pass levels with their algebraic interrelations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .functionals import T0_value, V_value, scaling_terms
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    dual_norm,
    grad_norm_sq,
    laplacian_apply,
    solve_helmholtz,
)
from .nonlinearity import Nonlinearity

# resampled dilations project_to_M may try; flows at n >= 750 need five at most
_PROJECTION_STEPS = 8


class InitializationFailure(RuntimeError):
    """No admissible starting bump with positive constraint value was found."""


class Stagnation(RuntimeError):
    """The constrained flow exhausted its iteration budget."""


class BracketFailure(RuntimeError):
    """Shooting bracket endpoints classify identically."""


class StiffnessFailure(RuntimeError):
    """The shooting integrator failed to advance."""


@dataclass
class FlowOptions:
    tol: float = 1e-8
    max_iter: int = 3000
    flow_tol: float = 1e-3  # hand over to the Newton polish below this
    step0: float = 1.0


@dataclass
class ShootOptions:
    tol: float = 1e-12
    r_start: float = 1e-3
    rtol: float = 1e-10
    atol: float = 1e-13


@dataclass
class MountainPassResult:
    b: float
    t_star: float


@dataclass
class LimitGroundState:
    u: RadialFunction
    omega: RadialFunction
    M_value: float
    p_value: float
    b_value: float
    t0_dilation: float
    method: str
    t_star: float = 1.0
    theta: float = 0.0
    iterations: int = 0
    pg_norm: float = 0.0


def _g_field(nl: Nonlinearity, values: np.ndarray) -> np.ndarray:
    return np.asarray(nl.f(values), dtype=float) - values


def project_to_M(u: RadialFunction, nl: Nonlinearity) -> RadialFunction:
    """Dilate u so that int G(u) = 1 on the grid.

    V scales as t^3 along u(./t), so t = V^(-1/3) projects up to the
    resampling error.  The fixed point t <- t V(u(./t))^(-1/p) removes that
    error, with p = 3 in the first step and then the exponent of V measured
    between the last two dilations: on coarse grids, resampling a narrow
    profile moves it well away from 3.  Each step checks V on the grid.
    """
    t, v, p = 1.0, V_value(u, nl), 3.0
    for _ in range(_PROJECTION_STEPS):
        if not v > 0:
            raise InitializationFailure(f"constraint value must be positive, got {v}")
        t_next = t * v ** (-1.0 / p)
        w = dilate(u, t_next)
        v_next = V_value(w, nl)
        if abs(v_next - 1.0) <= 1e-13:
            return w
        if v_next > 0 and t_next != t:
            p = math.log(v_next / v) / math.log(t_next / t)
        p = p if p > 0 else 3.0
        t, v = t_next, v_next
    raise InitializationFailure(f"constraint projection stalled at |V - 1| = {abs(v - 1.0):.2e}")


def _initial_bump(nl: Nonlinearity, grid: RadialGrid) -> RadialFunction:
    """Scaled compact bump with positive constraint value.

    Amplitude at the sampled maximizer of G; width grown until V > 0.
    """
    s = np.linspace(1e-3, 20.0, 4000)
    gvals = nl.G(s)
    if not np.any(gvals > 0):
        raise InitializationFailure("G never becomes positive on the sampled range")
    # modest amplitude just past the sign change of G; chasing the maximum of
    # G runs into concentration basins for fast-growing nonlinearities
    xi = 2.0 * float(s[np.argmax(gvals > 0)])
    r = grid.nodes
    for rho in np.linspace(1.0, 0.4 * grid.R, 30):
        vals = xi * np.maximum(0.0, 1.0 - (r / rho) ** 2) ** 2
        u = RadialFunction(grid, vals)
        if V_value(u, nl) > 0:
            return u
    raise InitializationFailure("no bump width gave a positive constraint value")


def _projected_gradient(u: RadialFunction, nl: Nonlinearity):
    """T0 gradient with its component along the constraint gradient removed."""
    grid = u.grid
    t0g = -laplacian_apply(u)
    vg = _g_field(nl, u.values)
    w = grid.weights
    denom = float(np.dot(w, vg * vg))
    theta = float(np.dot(w, t0g * vg)) / denom if denom > 0 else 0.0
    pg = t0g - theta * vg
    pg[-1] = 0.0
    return pg, theta


def _newton_polish(u: RadialFunction, theta: float, nl: Nonlinearity,
                   tol: float, max_iter: int = 60):
    """Solve -Delta u = theta (f(u) - u), V(u) = 1 by a bordered Newton method."""
    grid = u.grid
    w = grid.weights

    def residuals(vals, th):
        g = _g_field(nl, vals)
        f1 = -laplacian_apply(RadialFunction(grid, vals)) - th * g
        f1[-1] = 0.0
        f2 = float(np.dot(w, nl.G(vals))) - 1.0
        return f1, f2

    vals = u.values.copy()
    f1, f2 = residuals(vals, theta)
    for it in range(max_iter):
        nrm = dual_norm(grid, f1)
        if nrm <= tol and abs(f2) <= 1e-12:
            break
        g = _g_field(nl, vals)
        gp = np.asarray(nl.fprime(vals), dtype=float) - 1.0
        shift = -theta * gp
        x = solve_helmholtz(grid, shift, -f1)
        y = solve_helmholtz(grid, shift, g)
        j21 = w * g
        denom = float(np.dot(j21, y))
        if denom == 0.0:
            break
        dtheta = -(float(np.dot(j21, x)) + f2) / denom
        du = x + dtheta * y
        # damped update on the combined residual
        step = 1.0
        accepted = False
        base = nrm + abs(f2)
        for _ in range(30):
            cand = vals + step * du
            cth = theta + step * dtheta
            c1, c2 = residuals(cand, cth)
            if dual_norm(grid, c1) + abs(c2) < base:
                vals, theta, f1, f2 = cand, cth, c1, c2
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return RadialFunction(grid, vals), theta, dual_norm(grid, f1)


def minimize_on_M(nl: Nonlinearity, grid: RadialGrid,
                  opts: FlowOptions | None = None,
                  u_start: RadialFunction | None = None) -> LimitGroundState:
    """Constrained minimization of T0 over {V = 1}.

    Preconditioned projected-gradient descent with backtracking and dilation
    reprojection per step, followed by a bordered Newton polish of the
    stationarity system once the projected gradient is small.
    """
    opts = opts or FlowOptions()
    u = u_start if u_start is not None else _initial_bump(nl, grid)
    u = project_to_M(u, nl)

    eta = opts.step0
    pg_nrm = math.inf
    it = 0
    for it in range(opts.max_iter):
        pg, theta = _projected_gradient(u, nl)
        pg_nrm = dual_norm(grid, pg)
        if pg_nrm <= opts.flow_tol:
            break
        # precondition first, then make the step tangent to the constraint in
        # the preconditioned metric; projecting before preconditioning loses
        # tangency and the dilation reprojection cancels the descent
        t0g = -laplacian_apply(u)
        vg = _g_field(nl, u.values)
        t0g[-1] = 0.0
        vg[-1] = 0.0
        d1 = solve_helmholtz(grid, 1.0, t0g)
        d2 = solve_helmholtz(grid, 1.0, vg)
        wv = grid.weights * vg
        denom = float(np.dot(wv, d2))
        th = float(np.dot(wv, d1)) / denom if denom != 0.0 else 0.0
        d = d1 - th * d2
        slope = float(np.dot(grid.weights, t0g * d))
        if slope <= 0.0:
            break
        t0_here = T0_value(u)
        accepted = False
        for _ in range(40):
            trial = RadialFunction(grid, u.values - eta * d)
            try:
                trial = project_to_M(trial, nl)
            except InitializationFailure:
                eta *= 0.5
                continue
            if T0_value(trial) < t0_here - 1e-4 * eta * slope:
                u = trial
                eta = min(eta * 1.5, 1e3)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
    else:
        raise Stagnation(
            f"constrained flow did not reach tolerance in {opts.max_iter} steps "
            f"(projected gradient {pg_nrm:.3e})"
        )

    pg, theta = _projected_gradient(u, nl)
    u, theta, resid = _newton_polish(u, theta, nl, tol=opts.tol)
    u = project_to_M(u, nl)
    pg, theta = _projected_gradient(u, nl)
    pg_nrm = dual_norm(grid, pg)
    if pg_nrm > 100 * opts.tol:
        raise Stagnation(
            f"Newton polish stalled at projected gradient {pg_nrm:.3e}"
        )

    m_val = T0_value(u)
    omega, t0 = cgm_rescale(u, nl)
    p_val = scaling_terms(u, nl).gamma(t0)
    mp = mountain_pass_b(omega, nl)
    return LimitGroundState(
        u=u, omega=omega, M_value=m_val, p_value=p_val, b_value=mp.b,
        t0_dilation=t0, method="constrained_flow", t_star=mp.t_star,
        theta=theta, iterations=it + 1, pg_norm=pg_nrm,
    )


def cgm_rescale(u0: RadialFunction, nl: Nonlinearity) -> tuple[RadialFunction, float]:
    """Coleman-Glazer-Martin dilation mapping the constrained minimizer onto
    the Pohozaev manifold: t = |grad u0|_2 / sqrt(6), omega = u0(./t)."""
    v = V_value(u0, nl)
    if abs(v - 1.0) > 1e-6:
        raise ValueError(f"input is not on the constraint set, V = {v}")
    t = math.sqrt(grad_norm_sq(u0) / 6.0)
    return dilate(u0, t), t


def mountain_pass_b(omega: RadialFunction, nl: Nonlinearity) -> MountainPassResult:
    """Maximum of the limit energy (A/2) t - V t^3 along the dilation path
    through omega, reached at t* = sqrt(A / 6V) with value (A/3) t*.

    For a converged ground state t* = 1 and b = (1/3) |grad omega|_2^2.
    """
    terms = scaling_terms(omega, nl)
    if not terms.V > 0:
        raise ValueError(f"no mountain-pass geometry: int G(omega) = {terms.V} <= 0")
    t_star = terms.peak()
    return MountainPassResult(b=terms.gamma(t_star), t_star=t_star)


def _classify_shot(nl: Nonlinearity, a: float, r_end: float, opts: ShootOptions) -> str:
    """'overshoot' if u crosses zero, 'undershoot' if u turns around positive."""
    a = float(a)
    up0 = (a - float(nl.f(np.asarray(a)))) / 3.0  # u''(0)/2 * 2r at series order
    if up0 > 0:
        return "undershoot"

    def rhs(r, y):
        u, du = y
        return [du, -2.0 / r * du + u - float(nl.f(np.asarray(u)))]

    def cross(r, y):
        return y[0]

    cross.terminal = True
    cross.direction = -1.0

    def turn(r, y):
        return y[1]

    turn.terminal = True
    turn.direction = 1.0

    r0 = opts.r_start
    y0 = [a + (a - float(nl.f(np.asarray(a)))) * r0**2 / 6.0,
          (a - float(nl.f(np.asarray(a)))) * r0 / 3.0]
    sol = solve_ivp(rhs, (r0, r_end), y0, events=(cross, turn),
                    rtol=opts.rtol, atol=opts.atol, method="RK45")
    if sol.status == -1:
        raise StiffnessFailure(f"integrator failed at a = {a}: {sol.message}")
    if sol.t_events[0].size > 0:
        return "overshoot"
    return "undershoot"


def _auto_bracket(nl: Nonlinearity, r_end: float, opts: ShootOptions) -> tuple[float, float]:
    amps = np.logspace(-1, 2, 40)
    labels = [None] * len(amps)
    prev = None
    for i, a in enumerate(amps):
        labels[i] = _classify_shot(nl, a, r_end, opts)
        if prev is not None and labels[i - 1] == "undershoot" and labels[i] == "overshoot":
            return float(amps[i - 1]), float(amps[i])
        prev = labels[i]
    raise BracketFailure("no undershoot/overshoot transition on the amplitude scan")


def shoot_ground_state(nl: Nonlinearity, grid: RadialGrid,
                       bracket: tuple[float, float] | None = None,
                       opts: ShootOptions | None = None) -> RadialFunction:
    """Radial shooting for the limit problem, independent of the flow route.

    Bisects the center amplitude between undershoot and overshoot behavior;
    the converged trajectory is sampled on the grid with an exponential
    far-field graft c exp(-r)/r beyond the last trustworthy radius.
    """
    opts = opts or ShootOptions()
    r_end = grid.R
    if bracket is None:
        a_lo, a_hi = _auto_bracket(nl, r_end, opts)
    else:
        a_lo, a_hi = float(bracket[0]), float(bracket[1])
        lo_c = _classify_shot(nl, a_lo, r_end, opts)
        hi_c = _classify_shot(nl, a_hi, r_end, opts)
        if lo_c == hi_c:
            raise BracketFailure(f"both endpoints classify as {lo_c}")
        if lo_c == "overshoot":
            a_lo, a_hi = a_hi, a_lo

    while abs(a_hi - a_lo) > opts.tol * abs(a_hi):
        mid = 0.5 * (a_lo + a_hi)
        if _classify_shot(nl, mid, r_end, opts) == "undershoot":
            a_lo = mid
        else:
            a_hi = mid
    a = 0.5 * (a_lo + a_hi)

    def rhs(r, y):
        u, du = y
        return [du, -2.0 / r * du + u - float(nl.f(np.asarray(u)))]

    r0 = opts.r_start
    y0 = [a + (a - float(nl.f(np.asarray(a)))) * r0**2 / 6.0,
          (a - float(nl.f(np.asarray(a)))) * r0 / 3.0]
    sol = solve_ivp(rhs, (r0, r_end), y0, rtol=opts.rtol, atol=opts.atol,
                    dense_output=True, method="RK45")
    if sol.status == -1:
        raise StiffnessFailure(sol.message)

    r_nodes = grid.nodes
    vals = np.empty_like(r_nodes)
    r_reach = sol.t[-1]
    traj = sol.sol

    # last radius where the trajectory is still a clean decaying profile
    r_dense = np.linspace(r0, r_reach, 4000)
    u_dense, du_dense = traj(r_dense)
    ok = (u_dense > 1e-9 * a) & (du_dense < 0.0)
    bad = np.nonzero(~ok)[0]
    r_switch = r_dense[bad[0] - 1] if bad.size > 0 and bad[0] > 0 else r_reach

    inner = r_nodes <= r_switch
    vals[0] = a
    mask = inner.copy()
    mask[0] = False
    vals[mask] = traj(np.clip(r_nodes[mask], r0, r_reach))[0]
    u_sw = float(traj(min(r_switch, r_reach))[0])
    outer = ~inner
    vals[outer] = u_sw * (r_switch / r_nodes[outer]) * np.exp(-(r_nodes[outer] - r_switch))
    vals[-1] = 0.0
    return RadialFunction(grid, vals)
