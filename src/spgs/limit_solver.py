"""Ground states of the uncoupled limit problem -Delta u + u = f(u).

Two independent routes: a dilation-projected constrained flow on the set
{int G(u) = 1} (the method of record), and a shooting method used as a
cross-check oracle.  The flow output is rescaled onto the Pohozaev manifold
by the Coleman-Glazer-Martin dilation, which also yields the least-energy
and mountain-pass levels with their algebraic interrelations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import T0_value, V_value, scaling_terms
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    dual_norm,
    grad_norm_sq,
    laplacian_apply,
    load_scipy,
    make_grid,
    monotone_slopes,
    solve_helmholtz,
    solve_riesz,
)
from .nonlinearity import Nonlinearity

# resampled dilations project_to_M may try; flows at n >= 750 need five at most
_PROJECTION_STEPS = 8

# the flow hands over to the Newton polish once the dual norm of the projected
# gradient is at most this fraction of |grad u|_2, which bounds the dual norm
# of T0'(u) = -Delta u, so the test does not depend on the scale of the
# problem; over R in {20, 30, 40}, n in {750, 3000} and 23 nonlinearities the
# polish first fails from 0.1, and never from 0.05
_FLOW_HANDOVER = 0.02

# flow steps per level before Stagnation; mu=1, q=2.5, cw=0 takes 64 on R=30
# at any n from the initial bump
_FLOW_MAX_ITER = 3000

# the flow's line search: at most _FLOW_HALVINGS halvings of the step eta per
# flow step, acceptance on the Armijo decrease _ARMIJO eta slope, and growth
# by _STEP_GROWTH after each accepted step up to _STEP_CAP.  Measured on the
# `ground` (n=3000) and `cli` (verify at n=3000, constants at n=750)
# benchmark workloads: an accepted step takes at most 2 and 3 halvings, its
# decrease is at least 0.033 and 0.0017 of eta slope, and eta reaches at most
# 5.06 and 3.38
_FLOW_HALVINGS = 40
_ARMIJO = 1e-4
_STEP_GROWTH = 1.5
_STEP_CAP = 1e3

# the polish: at most _POLISH_MAX_STEPS Newton steps, each with at most
# _POLISH_HALVINGS halvings, until the dual norm of the residual meets tol and
# |V(u) - 1| meets _POLISH_CONSTRAINT_TOL.  On `ground` a polish takes at most
# 5 steps and 1 halving, on `cli` 60 steps (q=5.5 at n=750 runs into the
# cap) and 14 halvings; a converged polish leaves |V(u) - 1| <= 2.2e-16
_POLISH_MAX_STEPS = 60
_POLISH_HALVINGS = 30
_POLISH_CONSTRAINT_TOL = 1e-12

# nested iteration (Brandt, Math. Comp. 31, 1977): a grid of n nodes first
# solves on the grid of (n - 1)//4 + 1 nodes over the same R while that grid
# has at least _LADDER_FLOOR nodes, so 12000 runs 750 -> 3000 -> 12000 and
# n < 2997 runs one level.  At n=750 the core of q=5 spans 0.77 h; a level at
# n=187 would resolve no core of q >= 4
_LADDER_FLOOR = 750


class SolverFailure(RuntimeError):
    """A solve that did not reach a certified result; the command line maps
    every subclass to exit code 3."""


class InitializationFailure(SolverFailure):
    """No admissible starting bump with positive constraint value was found."""


class Stagnation(SolverFailure):
    """The constrained flow exhausted its iteration budget."""


class BracketFailure(SolverFailure):
    """The amplitude scan of shooting found no undershoot/overshoot transition."""


class StiffnessFailure(SolverFailure):
    """The shooting integrator failed to advance."""


@dataclass
class MountainPassResult:
    b: float
    t_star: float


@dataclass
class LimitGroundState:
    """The constrained minimizer u on {V = 1}, its Pohozaev rescaling omega
    and their levels, with the cost of the solve: iterations counts the
    accepted flow steps summed over the levels of the ladder, levels holds
    the n of every grid whose flow ran, coarsest first ((n,) for one level,
    also after a failed ladder), and polish_steps the Newton steps on the
    finest grid."""

    u: RadialFunction
    omega: RadialFunction
    M_value: float
    p_value: float
    b_value: float
    t0_dilation: float
    t_star: float = 1.0
    iterations: int = 0
    pg_norm: float = 0.0
    polish_steps: int = 0
    levels: tuple[int, ...] = ()


def _g_field(nl: Nonlinearity, values: np.ndarray) -> np.ndarray:
    return np.asarray(nl.f(values), dtype=float) - values


def project_to_M(u: RadialFunction, nl: Nonlinearity) -> RadialFunction:
    """Dilate u so that int G(u) = 1 on the grid.

    V scales as t^3 along u(./t), so t = V^(-1/3) projects up to the
    resampling error.  The fixed point t <- t V(u(./t))^(-1/p) removes that
    error, with p = 3 in the first step and then the exponent of V measured
    between the last two dilations: on coarse grids, resampling a narrow
    profile moves it well away from 3.  Each step checks V on the grid.
    Every trial dilates u itself, so the slopes of its monotone cubic are
    built once and shared by all trials.
    """
    t, v, p = 1.0, V_value(u, nl), 3.0
    slopes = monotone_slopes(u)
    for _ in range(_PROJECTION_STEPS):
        if not v > 0:
            raise InitializationFailure(f"constraint value must be positive, got {v}")
        try:
            t_next = t * v ** (-1.0 / p)
        except OverflowError:
            t_next = math.inf
        if not math.isfinite(t_next):
            raise InitializationFailure(
                f"constraint projection diverged: V = {v:.3e} after dilation by {t:.3e}")
        w = dilate(u, t_next, slopes)
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
    """T0 gradient with its component along the constraint gradient removed.

    Returns (projected gradient, theta, T0'(u) = -Delta u, V'(u) = f(u) - u).
    """
    grid = u.grid
    t0g = -laplacian_apply(u)
    vg = _g_field(nl, u.values)
    w = grid.weights
    denom = float(np.dot(w, vg * vg))
    theta = float(np.dot(w, t0g * vg)) / denom if denom > 0 else 0.0
    pg = t0g - theta * vg
    pg[-1] = 0.0
    return pg, theta, t0g, vg


def _newton_polish(u: RadialFunction, theta: float, nl: Nonlinearity, tol: float):
    """Solve -Delta u = theta (f(u) - u), V(u) = 1 by a bordered Newton method.

    Returns (u, accepted Newton steps).
    """
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
    nrm = dual_norm(grid, f1)
    steps = 0
    for _ in range(_POLISH_MAX_STEPS):
        if nrm <= tol and abs(f2) <= _POLISH_CONSTRAINT_TOL:
            break
        g = _g_field(nl, vals)
        gp = np.asarray(nl.fprime(vals), dtype=float) - 1.0
        shift = -theta * gp
        x, y = solve_helmholtz(grid, shift, np.column_stack((-f1, g))).T
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
        for _ in range(_POLISH_HALVINGS):
            cand = vals + step * du
            cth = theta + step * dtheta
            c1, c2 = residuals(cand, cth)
            cnrm = dual_norm(grid, c1)
            if cnrm + abs(c2) < base:
                vals, theta, f1, f2, nrm = cand, cth, c1, c2, cnrm
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        steps += 1
    return RadialFunction(grid, vals), steps


def _flow(u: RadialFunction, nl: Nonlinearity):
    """Preconditioned projected-gradient descent on {V = 1} from the
    projection of u, with backtracking and dilation reprojection per step,
    until the projected gradient is small relative to |grad u|_2
    (_FLOW_HANDOVER).  A flow that has not reached the handover after
    _FLOW_MAX_ITER steps raises Stagnation.

    Returns (u, theta, accepted steps), with theta from the projected
    gradient at the returned u.
    """
    grid = u.grid
    u = project_to_M(u, nl)

    eta = 1.0
    steps = 0
    t0_here = T0_value(u)
    while True:
        pg, theta, t0g, vg = _projected_gradient(u, nl)
        pg_nrm = dual_norm(grid, pg)
        if pg_nrm <= _FLOW_HANDOVER * math.sqrt(2.0 * t0_here):
            break
        if steps == _FLOW_MAX_ITER:
            raise Stagnation(
                f"constrained flow did not reach tolerance in {_FLOW_MAX_ITER} steps "
                f"(projected gradient {pg_nrm:.3e})"
            )
        # precondition first, then make the step tangent to the constraint in
        # the preconditioned metric; projecting before preconditioning loses
        # tangency and the dilation reprojection cancels the descent
        t0g[-1] = 0.0
        vg[-1] = 0.0
        d1 = solve_riesz(grid, t0g)
        d2 = solve_riesz(grid, vg)
        wv = grid.weights * vg
        denom = float(np.dot(wv, d2))
        th = float(np.dot(wv, d1)) / denom if denom != 0.0 else 0.0
        d = d1 - th * d2
        slope = float(np.dot(grid.weights, t0g * d))
        if slope <= 0.0:
            break
        accepted = False
        for _ in range(_FLOW_HALVINGS):
            trial = RadialFunction(grid, u.values - eta * d)
            try:
                trial = project_to_M(trial, nl)
            except InitializationFailure:
                eta *= 0.5
                continue
            t0_trial = T0_value(trial)
            if t0_trial < t0_here - _ARMIJO * eta * slope:
                u, t0_here = trial, t0_trial
                eta = min(eta * _STEP_GROWTH, _STEP_CAP)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        steps += 1
    return u, theta, steps


def _coarse_n(grid: RadialGrid) -> int:
    """Node count of the next coarser level of the ladder below grid."""
    return (grid.n - 1) // 4 + 1


def _ladder(nl: Nonlinearity, grid: RadialGrid):
    """The flow on grid, started from the handover state of the next coarser
    level prolonged onto grid by the monotone cubic of dilate, or from
    _initial_bump on the coarsest level.

    Returns (u, theta, accepted steps over all levels, n of every level).
    """
    n_c = _coarse_n(grid)
    if n_c < _LADDER_FLOOR:
        start, steps, levels = _initial_bump(nl, grid), 0, ()
    else:
        coarse, _, steps, levels = _ladder(nl, make_grid(grid.R, n_c))
        start = dilate(coarse, 1.0, onto=grid)
    u, theta, k = _flow(start, nl)
    return u, theta, steps + k, levels + (grid.n,)


def _finish(u: RadialFunction, theta: float, steps: int, levels: tuple[int, ...],
            nl: Nonlinearity, tol: float) -> LimitGroundState:
    """Polish the handover state u of the finest level, project it onto
    {V = 1} and certify it: a projected gradient above 100 tol raises
    Stagnation."""
    u, polish_steps = _newton_polish(u, theta, nl, tol=tol)
    u = project_to_M(u, nl)
    pg, _, _, _ = _projected_gradient(u, nl)
    pg_nrm = dual_norm(u.grid, pg)
    if pg_nrm > 100 * tol:
        raise Stagnation(
            f"Newton polish stalled at projected gradient {pg_nrm:.3e}"
        )

    terms = scaling_terms(u, nl)
    omega, t0 = cgm_rescale(u, nl)
    mp = mountain_pass_b(omega, nl)
    return LimitGroundState(
        u=u, omega=omega, M_value=0.5 * terms.A, p_value=terms.gamma(t0), b_value=mp.b,
        t0_dilation=t0, t_star=mp.t_star, iterations=steps, pg_norm=pg_nrm,
        polish_steps=polish_steps, levels=levels,
    )


def minimize_on_M(nl: Nonlinearity, grid: RadialGrid, tol: float = 1e-8) -> LimitGroundState:
    """Constrained minimization of T0 over {V = 1}.

    The constrained flow (_flow) runs to its handover on a ladder of grids
    (_ladder): while the grid of (n - 1)//4 + 1 nodes has at least
    _LADDER_FLOOR nodes, the flow first solves there and hands its state on,
    prolonged, to the finer grid.  Only the finest level is polished: a
    bordered Newton polish of the stationarity system with tol on the dual
    norm of its residual, and a projected gradient above 100 tol after it
    raises Stagnation.  Any SolverFailure on the ladder reruns the flow on
    grid alone from _initial_bump, whose state or exception is the outcome,
    so a coarse level changes the cost but not the result.  The state's
    iterations are its accepted flow steps summed over its levels, the n of
    every grid whose flow ran.
    """
    if _coarse_n(grid) >= _LADDER_FLOOR:
        try:
            return _finish(*_ladder(nl, grid), nl, tol)
        except SolverFailure:
            pass
    return _finish(*_flow(_initial_bump(nl, grid), nl), (grid.n,), nl, tol)


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


# the k-section stops once the bracket is at most _SHOOT_TOL times the
# amplitude; the shots leave their series start at _R_START at the latest
# (_shot_start), and DOP853 keeps the error of each step within
# _RTOL |y| + _ATOL
_SHOOT_TOL = 1e-12
_R_START = 1e-3
_RTOL = 1e-10
_ATOL = 1e-13

# interior amplitudes classified per k-section sweep: 6 bits of the bracket
_SECTION_POINTS = 63

# a restarted sweep may move the transition by at most this fraction of
# _SHOOT_TOL times the amplitude (_restart).  On the four `ground`
# nonlinearities, on mu=1, cw=0 with q = 2.5 and 5.5, and on mu=20, q=2.2,
# cw=1 at R=40, the amplitude equals that of sweeps that all start from the
# series start for 0.001 to 0.3, except on R=40: there it differs by 2.3e-14
# relative at 0.001, 4.7e-14 at 0.003 and 0.01, 1.4e-13 at 0.03 and 4.7e-13
# to 5.8e-13 from 0.1 to 0.3, against the 1e-13 of the tests
_RESTART_SHIFT = 0.01

# the Dormand-Prince 8(5,3) pair DOP853 and its 7th-order continuous extension
# (Hairer's DOP853 code; Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., Sec. II.5 and II.10), from scipy's copy.
# Stage s evaluates the right-hand side at r + C[s] h and y + h A[s] . K, with
# the weights of stages 0..s-1 in row s of A.  Stages 0..11 make a step; row 12
# holds the weights B of the 8th-order solution, so stage 12 is the derivative
# at the new point, reused as stage 0 of the next step.  E5 and E3 give the
# 5th- and 3rd-order error estimates over stages 0..12.  Stages 13..15 serve
# only the dense output, whose coefficients 3..6 are h D . K over all 16 stages.
_DOP853 = load_scipy("integrate/_ivp/dop853_coefficients")

# the two error estimators, as rows over stages 0..12
_ERR = np.stack((_DOP853.E5, _DOP853.E3))


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square over the two components (u, u') of each lane."""
    return np.sqrt(0.5 * (x[0] * x[0] + x[1] * x[1]))


def _shot_derivative(nl: Nonlinearity, r, y: np.ndarray) -> np.ndarray:
    """(u', u'') of the radial equation u'' + (2/r) u' = u - f(u) at y = (u, u')."""
    u, du = y
    return np.array([du, -2.0 / r * du + u - nl.f(u)])


def _shot_start(nl: Nonlinearity, amps: np.ndarray):
    """Series start of the shots from centre amplitudes amps:
    u = a + c r^2/6 + b r^4 and u' = c r/3 + 4 b r^3, with c = a - f(a) and
    b = (1 - f'(a)) c / 120.  A lane starts at r = _R_START, or within 0.02 of
    its core width 1/sqrt|1 - f'(a)| where that is narrower: beyond the core
    the series diverges.  Returns (r, y, y')."""
    c = amps - nl.f(amps)
    k = 1.0 - nl.fprime(amps)
    r = np.minimum(_R_START, 0.02 / np.sqrt(np.abs(k)))
    b = k * c / 120.0
    r2 = r * r
    y = np.array([amps + r2 * (c / 6.0 + b * r2), r * (c / 3.0 + 4.0 * b * r2)])
    return r, y, _shot_derivative(nl, r, y)


def _first_step(nl: Nonlinearity, r, y, dy, r_end: float):
    """Initial step of each lane (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
    for the 7th-order error estimate of DOP853."""
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(dy / scale)
    span = r_end - r
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
    dy1 = _shot_derivative(nl, r + h0, y + h0 * dy)
    d2 = _rms((dy1 - dy) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** 0.125)
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def _fill_stages(nl: Nonlinearity, K: np.ndarray, first: int, last: int,
                 r, h, y_flat: np.ndarray) -> np.ndarray:
    """Stages first..last-1 of a DOP853 step of length h from (r, y).

    Row s of K is [u | u' | u''] over every lane: its first two thirds are
    the state of stage s and its last two its derivative, so the u' of the
    state is the u' of the derivative, and y_flat is y as [u | u'].  Returns
    the state of the last stage filled.
    """
    n = r.size
    hh = np.concatenate((h, h))
    coef = -2.0 / (r + _DOP853.C[first:last, None] * h)
    dK = K[:, n:]
    for s, c in zip(range(first, last), coef):
        ys = K[s, :2 * n]
        np.matmul(_DOP853.A[s, :s], dK[:s], out=ys)
        ys *= hh
        ys += y_flat
        # _shot_derivative, written into the stage row in place
        u = ys[:n]
        d2u = K[s, 2 * n:]
        np.multiply(c, ys[n:], out=d2u)
        d2u += u
        d2u -= nl.f(u)
    return ys


def _dop853_attempt(nl: Nonlinearity, r, y, dy, h, retry, r_end: float):
    """One DOP853 step attempt for every lane.

    Each lane keeps its own radius r, state y = (u, u'), derivative dy and
    step h.  Over sc = atol + rtol max(|y|, |y_new|), the error norm is
    h |e5/sc|^2 / sqrt(2 (|e5/sc|^2 + 0.01 |e3/sc|^2)) from the 5th- and
    3rd-order estimates e5 and e3, and 0 when both vanish.  A step is accepted
    below 1, and the next step is h 0.9 norm^(-1/8) kept in [0.2 h, 10 h],
    with no growth on an attempt that follows a rejection (retry).  Returns
    (accepted, r_new, y_new, K, h_next), where K holds the stages in the
    layout of _fill_stages, K[12] the one at (r_new, y_new), and room for the
    dense-output stages.
    """
    # a rejected lane never holds a step below this, so only new steps move
    min_step = 10.0 * np.spacing(r)
    r_new = np.minimum(r + np.maximum(h, min_step), r_end)
    h = r_new - r
    n = r.size
    K = np.empty((16, 3 * n))
    K[0, n:] = dy.reshape(2 * n)
    y_flat = y.reshape(2 * n)
    y_new = _fill_stages(nl, K, 1, 13, r, h, y_flat)
    e = (_ERR @ K[:13, n:]) / (_ATOL + np.maximum(np.abs(y_flat), np.abs(y_new)) * _RTOL)
    e *= e
    e5, e3 = e[:, :n] + e[:, n:]
    denom = e5 + 0.01 * e3
    # a NaN or infinite estimate keeps a NaN norm, which is rejected
    norm = np.where(denom == 0.0, 0.0, h * e5 / np.sqrt(2.0 * denom))
    accepted = norm < 1.0
    # accepted lanes have 0.9 norm^(-1/8) > 0.9 and rejected ones at most
    # 0.9, so one clip serves both; fmax maps a NaN norm to the 0.2 shrink
    h_next = h * np.fmax(0.2, np.minimum(np.where(retry, 1.0, 10.0), 0.9 * norm**-0.125))
    stuck = ~accepted & (h_next < min_step)
    if stuck.any():
        raise StiffnessFailure(
            f"shooting step fell below 10 ulp of the radius at r = {r[stuck][0]:.6g}")
    return accepted, r_new, y_new.reshape(2, n), K, h_next


# lanes that overflow fail the error test and shrink their step, and an exact
# step has error norm 0 (growth capped at 10): neither needs a warning
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _transition_cut(over: np.ndarray, live: np.ndarray) -> int:
    """The last lane that can hold the first undershoot/overshoot transition
    of the lanes flagged over, while the lanes live are undecided: below the
    lowest overshoot above a decided undershoot lies a transition."""
    under = ~over
    under[live] = False
    if under.any():
        u = int(np.argmax(under))
        above = np.flatnonzero(over[u:])
        if above.size:
            return u + int(above[0])
    return over.size


def _classify_shot(nl: Nonlinearity, amps, r_end: float, start: tuple | None = None,
                   steps: list | None = None, first: bool = False) -> np.ndarray:
    """Overshoot flags of the shots from the centre amplitudes amps, all
    integrated together, one DOP853 lane each.

    A shot overshoots when u crosses zero before u' turns positive, and
    undershoots otherwise, also when it reaches r_end with neither.  The
    series start settles two cases: a centre that is a minimum (u''(0) > 0)
    undershoots, and a start value u(r_start) <= 0 overshoots.

    The lanes leave from their series start (_shot_start), or from start =
    (r, y, h), a radius, state and next step per lane (_Track.start).  A list
    passed as steps receives, after every attempt, (lanes, live, r, y, dy, h):
    the indices of the lanes integrated in it, which of them accepted it and
    are still undecided, and their radius, state, derivative and next step.
    With first, only the first undershoot/overshoot transition ~over[i] &
    over[i + 1] is wanted: the lanes past _transition_cut stop as the
    decisions come in, and their flags mean nothing.
    """
    amps = np.asarray(amps, dtype=float)
    with np.errstate(**_QUIET):
        if start is None:
            r, y, dy = _shot_start(nl, amps)
        else:
            r, y, h = start
            dy = _shot_derivative(nl, r, y)
        over = y[0] <= 0.0
        lanes = np.flatnonzero(~over & (y[1] <= 0.0))
        if first:
            lanes = lanes[lanes <= _transition_cut(over, lanes)]
        r, y, dy = r[lanes], y[:, lanes], dy[:, lanes]
        h = _first_step(nl, r, y, dy, r_end) if start is None else h[lanes]
        retry = np.zeros(lanes.size, dtype=bool)
        while lanes.size:
            acc, r_new, y_new, K, h = _dop853_attempt(nl, r, y, dy, h, retry, r_end)
            retry = ~acc
            y_old = y
            r = np.where(acc, r_new, r)
            y = np.where(acc, y_new, y)
            dy = np.where(acc, K[12, lanes.size:].reshape(2, -1), dy)
            # a live lane has u > 0 and u' <= 0, so a sign change shows in y alone
            cross = y[0] <= 0.0
            turn = y[1] >= 0.0
            done = cross | turn | (r >= r_end)
            if steps is not None:
                steps.append((lanes, acc & ~done, r, y, dy, h))
            if done.any():
                both = cross & turn
                if both.any():
                    # the earlier root of the two linear interpolants decides
                    u0, du0 = y_old[:, both]
                    u1, du1 = y[:, both]
                    cross[both] = u0 * (du1 - du0) < -du0 * (u0 - u1)
                over[lanes[cross]] = True
                keep = ~done
                if first:
                    keep &= lanes <= _transition_cut(over, lanes[keep])
                lanes, r, y, dy = lanes[keep], r[keep], y[:, keep], dy[:, keep]
                h, retry = h[keep], retry[keep]
    return over


@dataclass(frozen=True)
class _Track:
    """The accepted steps of a k-section sweep near its bracketing lanes lo
    and lo + 1, up to the checkpoint from which the next sweep restarts
    (_restart).

    r holds the radii of lane lo at those steps, y (2, m, 4) the states of
    the four interpolated lanes carried to them and h the next steps of the
    four at the checkpoint.  An amplitude a lies t = (a - a_lo) / w lane
    spacings above lane lo, and the four lanes at the offsets x.
    """

    r: np.ndarray
    y: np.ndarray
    h: np.ndarray
    a_lo: float
    w: float
    x: np.ndarray

    def weights(self, amps: np.ndarray) -> np.ndarray:
        """Lagrange weights (4, amps.size) of the four lanes at amps."""
        t = (amps - self.a_lo) / self.w
        x = self.x
        return np.stack([np.prod([(t - x[m]) / (x[j] - x[m]) for m in range(4) if m != j],
                                 axis=0) for j in range(4)])

    def start(self, amps: np.ndarray):
        """Start (r, y, h) at the checkpoint of the lanes from amps."""
        weights = self.weights(amps)
        return np.full(amps.size, self.r[-1]), self.y[:, -1] @ weights, self.h @ weights

    def states(self, a: float) -> np.ndarray:
        """States (2, m) at the radii r of the lane from amplitude a."""
        return (self.y @ self.weights(np.array([a])))[..., 0]


def _restart(nl: Nonlinearity, steps: list, lo: int, amps: np.ndarray) -> _Track | None:
    """The track of the lanes between the lanes lo and lo + 1 of the sweep
    over amps that recorded steps (_classify_shot), or None when the next
    sweep must leave from the series start.

    The track follows the accepted steps of lane lo up to a checkpoint, with
    the cubic interpolation in the amplitude of the states and the next steps
    of the four lanes nearest the pair (lo - 1 .. lo + 2 away from the ends
    of the sweep), so lanes started from it keep the steps they would have
    taken from the series start.  The radii of neighbouring lanes differ,
    through the rounding of their error estimates (by up to 1e-3 of a step
    on the `ground` nonlinearities) and, in wide sweeps, smoothly with the
    amplitude, so every state is first carried to the radius of lane lo by
    its Taylor polynomial of degree 2, with an error of about
    |dr|^3 |u'''| / 6 in u and |dr|^3 |u''''| / 6 in u'.

    The five lanes around the four, which took the same attempts, accepted
    and rejected alike, up to the checkpoint, bound the interpolation error
    by c |D4 y|: D4 y is their fourth difference, taken over its larger
    component, and c = 3/128 (1/24 for the four lanes at an end of the
    sweep) is the maximum of |prod (t - x)| / 24 over t in [0, 1] for the
    offsets x of the four lanes from lane lo.  Through the slope |D y| / w
    of the pair, with D y its difference taken over its larger component and
    w the spacing of amps, the checkpoint is the latest accepted step where
    that bound has moved the transition by at most _RESTART_SHIFT _SHOOT_TOL a
    at every accepted step so far, and where it does so together with the
    carry errors of the four lanes, summed over them and taken over the
    larger component.  Only the states at the checkpoint start lanes, so the
    carry enters the test at that step alone; the earlier states of the
    track serve only the profile of the final shot (_traced_shot).
    """
    if not steps or lo < 0 or lo + 1 >= amps.size or amps.size < 5:
        return None
    first = min(max(lo - 1, 0), amps.size - 4)  # the four interpolated lanes
    five = min(first, amps.size - 5)
    i = lo - five  # column of lane lo among the five
    four = slice(first - five, first - five + 4)
    lanes, live, r, y, dy, h = (np.concatenate(c, axis=-1) for c in zip(*steps))
    # a lane takes part in every attempt until the one that decides it, so
    # its k-th record is that of attempt k
    at = [np.flatnonzero(lanes == lane) for lane in range(five, five + 5)]
    at = np.stack([k[:min(k.size for k in at)] for k in at], axis=1)
    acc = live[at]
    same = np.logical_and.accumulate(acc.all(axis=1) | ~acc.any(axis=1))
    at = at[same & acc[:, 0]]
    r, u, du, d2u, h = r[at], y[0, at], y[1, at], dy[1, at], h[at]
    fp = nl.fprime(u)
    d3u = 2.0 * du / r**2 - 2.0 * d2u / r + du - fp * du
    # u'''' differentiates u''' along the equation, with f'' from a central
    # difference of f' (a live lane has u > 0)
    e = 1e-3 * u
    fpp = (nl.fprime(u + e) - nl.fprime(u - e)) / (2.0 * e)
    d4u = 4.0 * d2u / r**2 - 4.0 * du / r**3 - 2.0 * d3u / r + d2u - fpp * du * du - fp * d2u
    dr = r[:, i:i + 1] - r
    y = np.stack((u + dr * (du + 0.5 * dr * d2u), du + dr * (d2u + 0.5 * dr * d3u)))
    carry = (np.abs(dr) ** 3 * np.abs(np.stack((d3u, d4u))))[:, :, four].sum(axis=2)
    carry = carry.max(axis=0) / 6.0
    w = amps[lo + 1] - amps[lo]
    slope = np.abs(y[:, :, i + 1] - y[:, :, i]).max(axis=0)
    quartic = np.abs(y[:, :, 0] - 4.0 * (y[:, :, 1] + y[:, :, 3]) + 6.0 * y[:, :, 2]
                     + y[:, :, 4]).max(axis=0)
    interp = (3.0 / 128.0 if first == lo - 1 else 1.0 / 24.0) * quartic
    bound = _RESTART_SHIFT * _SHOOT_TOL * abs(amps[lo + 1]) * slope / w
    ok = np.logical_and.accumulate(interp <= bound) & (interp + carry <= bound)
    if not ok.any():
        return None
    k = int(np.flatnonzero(ok)[-1])
    return _Track(r=r[:k + 1, i], y=y[:, :k + 1, four], h=h[k, four], a_lo=amps[lo], w=w,
                  x=np.arange(first - lo, first - lo + 4.0))


def _auto_bracket(nl: Nonlinearity, r_end: float) -> tuple[float, float]:
    """First undershoot/overshoot transition on a log scan of 255 amplitudes
    up to 100.

    A shot whose centre is not a maximum, f(a) <= a, undershoots at its
    start, so the scan starts at the last amplitude before the first f(a) > a
    on a log ladder of 1401 over [1e-12, 100]: for mu=1 at a = 1, and for
    mu=20, q=2.2, cw=1 at 3.1e-7, below its transition at 1.37e-6 (R=40).
    The lanes above the lowest overshoot past a decided undershoot stop
    (_transition_cut): for mu=20, q=3, cw=1, whose lanes at a = 30..100 start
    inside cores of 1e-4 and less, the scan takes 52 attempts instead of 125.
    """
    ladder = np.logspace(-12, 2, 1401)
    peak = np.flatnonzero(nl.f(ladder) > ladder)
    if peak.size == 0:
        raise BracketFailure("the centre is a minimum at every amplitude up to 100")
    amps = np.geomspace(ladder[max(peak[0] - 1, 0)], 100.0, 255)
    over = _classify_shot(nl, amps, r_end, first=True)
    up = np.flatnonzero(~over[:-1] & over[1:])
    if up.size == 0:
        raise BracketFailure("no undershoot/overshoot transition on the amplitude scan")
    return float(amps[up[0]]), float(amps[up[0] + 1])


def _k_section(nl: Nonlinearity, a_lo: float, a_hi: float, r_end: float):
    """The transition amplitude between the undershoot a_lo and the overshoot
    a_hi, narrowed to _SHOOT_TOL relative by sweeps of _SECTION_POINTS lanes,
    and the tracks of the sweeps since the last one that left the series
    start (_restart)."""
    tracks: list = []
    while abs(a_hi - a_lo) > _SHOOT_TOL * abs(a_hi):
        amps = np.linspace(a_lo, a_hi, _SECTION_POINTS + 2)
        swept, steps = amps[1:-1], []
        start = tracks[-1].start(swept) if tracks else None
        over = np.concatenate(([False], _classify_shot(nl, swept, r_end, start, steps), [True]))
        j = int(np.argmax(over))
        a_lo, a_hi = float(amps[j - 1]), float(amps[j])
        # lane k of the sweep shot amps[k + 1]
        track = _restart(nl, steps, j - 2, swept)
        tracks = tracks + [track] if track is not None else []
    return 0.5 * (a_lo + a_hi), tracks


def _dense_coefficients(nl: Nonlinearity, r, y, y_new, K: np.ndarray, h) -> np.ndarray:
    """Coefficients F (7, 2n) of the 7th-order continuous extension of an
    accepted step of length h from (r, y) to y_new with stages K, after
    filling the three stages 13..15 that only the extension needs."""
    n = r.size
    y_flat = y.reshape(2 * n)
    _fill_stages(nl, K, 13, 16, r, h, y_flat)
    hh = np.concatenate((h, h))
    dy = y_new.reshape(2 * n) - y_flat
    k0, k12 = K[0, n:], K[12, n:]
    F = np.empty((7, 2 * n))
    F[0] = dy
    F[1] = hh * k0 - dy
    F[2] = 2.0 * dy - hh * (k12 + k0)
    F[3:] = hh * (_DOP853.D @ K[:, n:])
    return F


def _traced_shot(nl: Nonlinearity, a: float, r_end: float, tracks: list | tuple = ()):
    """The shot from centre amplitude a up to the radius that decides it, with
    the 7th-order continuous extension of its accepted steps.

    The shot follows tracks, those of consecutive sweeps from a sweep that
    left the series start (_restart): each supplies the states at a,
    interpolated between the lanes of its sweep, at the accepted steps of its
    lane lo up to the checkpoint where the next sweep restarted.  From the
    checkpoint of the last track, or from the series start without tracks,
    _classify_shot integrates the tail as one lane and records its steps.
    The start states of the accepted steps then become the lanes of one pass
    that fills the stages of every step again and the three that only the
    extension needs.  Returns the radii rs of the accepted steps, the state
    y0 (2, m) at the start of each step and the coefficients F (7, 2, m) of
    its extension.
    """
    amps = np.array([a])
    steps: list = []
    _classify_shot(nl, amps, r_end, tracks[-1].start(amps) if tracks else None, steps)
    with np.errstate(**_QUIET):
        records = [_shot_start(nl, amps)]
        for track in tracks:
            y = track.states(a)
            records.append((track.r, y, _shot_derivative(nl, track.r, y)))
        records += [s[2:5] for s in steps]
        r, y, dy = (np.concatenate(c, axis=-1) for c in zip(*records))
        # a rejected attempt leaves the radius where it was
        acc = np.concatenate(([True], r[1:] > r[:-1]))
        rs, y, dy = r[acc], y[:, acc], dy[:, acc]
        r, h, m = rs[:-1], np.diff(rs), rs.size - 1
        y0 = y[:, :-1]
        K = np.empty((16, 3 * m))
        K[0, m:] = dy[:, :-1].reshape(2 * m)
        _fill_stages(nl, K, 1, 13, r, h, y0.reshape(2 * m))
        F = _dense_coefficients(nl, r, y0, y[:, 1:], K, h)
    return rs, y0, F.reshape(7, 2, m)


def _dense_output(rs: np.ndarray, y0: np.ndarray, F: np.ndarray, x) -> np.ndarray:
    """(u, u') of a shot at radii x in [rs[0], rs[-1]] from the continuous
    extension of _traced_shot: on the step from rs[i] with
    t = (x - rs[i]) / (rs[i+1] - rs[i]), y0 + t (F0 + (1-t) (F1 + t (F2 + ...)))."""
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(rs, x, side="right") - 1, 0, rs.size - 2)
    t = (x - rs[i]) / (rs[i + 1] - rs[i])
    out = np.zeros((2,) + x.shape)
    for k in range(6, -1, -1):
        out += F[k][:, i]
        out *= t if k % 2 == 0 else 1.0 - t
    return out + y0[:, i]


def _switch_radius(traj: tuple, a: float) -> float:
    """The last radius where the shot traj (_traced_shot) from amplitude a is
    still a clean decaying profile, u > 1e-9 a and u' < 0, on 4000 radii of
    its dense output."""
    rs = traj[0]
    r_dense = np.linspace(rs[0], rs[-1], 4000)
    u_dense, du_dense = _dense_output(*traj, r_dense)
    ok = (u_dense > 1e-9 * a) & (du_dense < 0.0)
    bad = np.nonzero(~ok)[0]
    return r_dense[bad[0] - 1] if bad.size > 0 and bad[0] > 0 else rs[-1]


def shoot_ground_state(nl: Nonlinearity, grid: RadialGrid) -> RadialFunction:
    """Radial shooting for the limit problem, independent of the flow route.

    The amplitude scan (_auto_bracket) brackets the centre amplitude between
    undershoot and overshoot, and the k-section (_k_section) narrows it.  Once
    the bracket is narrow, a sweep restarts its lanes from the track of the
    previous sweep (_restart), at the latest accepted step of the lanes around
    the bracketing pair that passes its admissibility rule, instead of from
    the series start: on the four nonlinearities of the `ground` benchmark the
    sweeps from the third on start at r = 6.1 to 13.7 and take 5 to 12
    attempts each.  The final shot is not integrated again from the centre: it
    follows, interpolated at its amplitude, the tracks of the sweeps since the
    last one that left the series start, up to the checkpoint of the last
    sweep (r = 13.9 to 15.7 on those four), and only its tail is integrated,
    up to the radius that decides it (r = 16.0 to 19.2, 11 attempts for the
    four).  The four ground states take 828 DOP853 attempts, 222 of them in
    the amplitude scans; sweeps that all leave from the series start and final
    shots run out to R take 2 400 after the same scans.  The grid samples that
    shot through the 7th-order dense output of its stitched steps
    (_traced_shot) up to the last trustworthy radius (_switch_radius), with an
    exponential far-field graft c exp(-r)/r beyond it.
    """
    r_end = grid.R
    a, tracks = _k_section(nl, *_auto_bracket(nl, r_end), r_end)
    traj = _traced_shot(nl, a, r_end, tracks)
    r_nodes = grid.nodes
    vals = np.empty_like(r_nodes)
    r0, r_reach = traj[0][0], traj[0][-1]
    r_switch = _switch_radius(traj, a)

    inner = r_nodes <= r_switch
    vals[0] = a
    mask = inner.copy()
    mask[0] = False
    vals[mask] = _dense_output(*traj, np.clip(r_nodes[mask], r0, r_reach))[0]
    u_sw = float(_dense_output(*traj, min(r_switch, r_reach))[0])
    outer = ~inner
    vals[outer] = u_sw * (r_switch / r_nodes[outer]) * np.exp(-(r_nodes[outer] - r_switch))
    vals[-1] = 0.0
    return RadialFunction(grid, vals)
