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

from . import dop853
from .functionals import T0_value, V_value, scaling_terms
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    dual_norm,
    grad_norm_sq,
    laplacian_apply,
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

# flow steps before Stagnation; mu=1, q=2.5, cw=0 takes 64 on R=30 at any n
_FLOW_MAX_ITER = 3000


class InitializationFailure(RuntimeError):
    """No admissible starting bump with positive constraint value was found."""


class Stagnation(RuntimeError):
    """The constrained flow exhausted its iteration budget."""


class BracketFailure(RuntimeError):
    """Shooting bracket endpoints classify identically."""


class StiffnessFailure(RuntimeError):
    """The shooting integrator failed to advance."""


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
    polish_steps: int = 0


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
        try:
            t_next = t * v ** (-1.0 / p)
        except OverflowError:
            t_next = math.inf
        if not math.isfinite(t_next):
            raise InitializationFailure(
                f"constraint projection diverged: V = {v:.3e} after dilation by {t:.3e}")
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

    Returns (u, theta, accepted Newton steps).
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
    steps = 0
    for _ in range(60):
        nrm = dual_norm(grid, f1)
        if nrm <= tol and abs(f2) <= 1e-12:
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
        steps += 1
    return RadialFunction(grid, vals), theta, steps


def minimize_on_M(nl: Nonlinearity, grid: RadialGrid, tol: float = 1e-8) -> LimitGroundState:
    """Constrained minimization of T0 over {V = 1}.

    Preconditioned projected-gradient descent with backtracking and dilation
    reprojection per step, followed by a bordered Newton polish of the
    stationarity system once the projected gradient is small relative to
    |grad u|_2 (_FLOW_HANDOVER).  tol is the polish tolerance on the dual
    norm of the residual; a projected gradient above 100 tol after the
    polish raises Stagnation.
    """
    u = project_to_M(_initial_bump(nl, grid), nl)

    eta = 1.0
    pg_nrm = math.inf
    it = 0
    for it in range(_FLOW_MAX_ITER):
        pg, theta, t0g, vg = _projected_gradient(u, nl)
        pg_nrm = dual_norm(grid, pg)
        t0_here = T0_value(u)
        if pg_nrm <= _FLOW_HANDOVER * math.sqrt(2.0 * t0_here):
            break
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
            f"constrained flow did not reach tolerance in {_FLOW_MAX_ITER} steps "
            f"(projected gradient {pg_nrm:.3e})"
        )

    # every exit above leaves theta from the projected gradient at this u
    u, theta, polish_steps = _newton_polish(u, theta, nl, tol=tol)
    u = project_to_M(u, nl)
    pg, theta, _, _ = _projected_gradient(u, nl)
    pg_nrm = dual_norm(grid, pg)
    if pg_nrm > 100 * tol:
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
        theta=theta, iterations=it + 1, pg_norm=pg_nrm, polish_steps=polish_steps,
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


# the k-section stops once the bracket is at most _SHOOT_TOL times the
# amplitude; the shots leave their series start at _R_START, and DOP853 keeps
# the error of each step within _RTOL |y| + _ATOL
_SHOOT_TOL = 1e-12
_R_START = 1e-3
_RTOL = 1e-10
_ATOL = 1e-13

# interior amplitudes classified per k-section sweep: 6 bits of the bracket
_SECTION_POINTS = 63

# a restarted sweep may move the transition by at most this fraction of
# _SHOOT_TOL times the amplitude (_restart).  On the four `ground`
# nonlinearities and on mu=20, q=2.2, cw=1 at R=40, the amplitude differs from
# that of sweeps that all start at r_start by at most 4.7e-14 relative (about
# one lane spacing of the last sweep) for 0.001 to 0.03, and not at all at
# 0.01; by 9.3e-14 at 0.1 and by 3.3e-13 at 0.3, against the 1e-13 of the tests
_RESTART_SHIFT = 0.01

# the 5th- and 3rd-order error estimators of DOP853, as rows over stages 0..12
_ERR = np.stack((dop853.E5, dop853.E3))


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square over the two components (u, u') of each lane."""
    return np.sqrt(0.5 * (x[0] * x[0] + x[1] * x[1]))


def _shot_derivative(nl: Nonlinearity, r, y: np.ndarray) -> np.ndarray:
    """(u', u'') of the radial equation u'' + (2/r) u' = u - f(u) at y = (u, u')."""
    u, du = y
    return np.array([du, -2.0 / r * du + u - nl.f(u)])


def _shot_start(nl: Nonlinearity, amps: np.ndarray):
    """Series start at r_start of the shots from centre amplitudes amps:
    u = a + (a - f(a)) r^2/6, u' = (a - f(a)) r/3.  Returns (r, y, y')."""
    r0 = _R_START
    c = amps - nl.f(amps)
    y = np.array([amps + c * r0**2 / 6.0, c * r0 / 3.0])
    r = np.full(amps.shape, r0)
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
    """Stage derivatives K[first:last] of a DOP853 step of length h from (r, y).

    The rows of K are [u' of every lane | u'' of every lane], and y_flat is y
    in the same layout.  Returns the state of the last stage filled.
    """
    n = r.size
    hh = np.concatenate((h, h))
    coef = -2.0 / (r + dop853.C[first:last, None] * h)
    for s, c in zip(range(first, last), coef):
        ys = y_flat + hh * (dop853.A[s, :s] @ K[:s])
        u, du = ys[:n], ys[n:]
        # _shot_derivative, written into the stage row in place
        K[s, :n] = du
        K[s, n:] = c * du + u - nl.f(u)
    return ys


def _dop853_attempt(nl: Nonlinearity, r, y, dy, h, retry, r_end: float):
    """One DOP853 step attempt for every lane.

    Each lane keeps its own radius r, state y = (u, u'), derivative dy and
    step h.  Over sc = atol + rtol max(|y|, |y_new|), the error norm is
    h |e5/sc|^2 / sqrt(2 (|e5/sc|^2 + 0.01 |e3/sc|^2)) from the 5th- and
    3rd-order estimates e5 and e3, and 0 when both vanish.  A step is accepted
    below 1, and the next step is h 0.9 norm^(-1/8) kept in [0.2 h, 10 h],
    with no growth on an attempt that follows a rejection (retry).  Returns
    (accepted, r_new, y_new, K, h_next), where K holds the stage derivatives,
    K[12] the one at (r_new, y_new), and room for the dense-output stages.
    """
    # a rejected lane never holds a step below this, so only new steps move
    min_step = 10.0 * np.spacing(r)
    r_new = np.minimum(r + np.maximum(h, min_step), r_end)
    h = r_new - r
    n = r.size
    K = np.empty((16, 2 * n))
    K[0] = dy.reshape(2 * n)
    y_flat = y.reshape(2 * n)
    y_new = _fill_stages(nl, K, 1, 13, r, h, y_flat)
    e = (_ERR @ K[:13]) / (_ATOL + np.maximum(np.abs(y_flat), np.abs(y_new)) * _RTOL)
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


def _classify_shot(nl: Nonlinearity, amps, r_end: float,
                   start: tuple | None = None, steps: list | None = None) -> np.ndarray:
    """Overshoot flags of the shots from the centre amplitudes amps, all
    integrated together, one DOP853 lane each.

    A shot overshoots when u crosses zero before u' turns positive, and
    undershoots otherwise, also when it reaches r_end with neither.  The
    series start settles two cases: a centre that is a minimum (u''(0) > 0)
    undershoots, and a start value u(r_start) <= 0 overshoots.

    The lanes leave from their series start at _R_START, or from start =
    (r, y, h), a radius, state and next step per lane (_restart).  A list
    passed as steps receives, after every attempt, (lanes, live, r, y, dy, h):
    the indices of the lanes integrated in it, which of them accepted it and
    are still undecided, and their radius, state, derivative and next step.
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
        r, y, dy = r[lanes], y[:, lanes], dy[:, lanes]
        h = _first_step(nl, r, y, dy, r_end) if start is None else h[lanes]
        retry = np.zeros(lanes.size, dtype=bool)
        while lanes.size:
            acc, r_new, y_new, K, h = _dop853_attempt(nl, r, y, dy, h, retry, r_end)
            retry = ~acc
            y_old = y
            r = np.where(acc, r_new, r)
            y = np.where(acc, y_new, y)
            dy = np.where(acc, K[12].reshape(2, -1), dy)
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
                lanes, r, y, dy = lanes[keep], r[keep], y[:, keep], dy[:, keep]
                h, retry = h[keep], retry[keep]
    return over


def _restart(nl: Nonlinearity, steps: list, lo: int, amps: np.ndarray,
             new_amps: np.ndarray):
    """Start (r, y, h) of the lanes new_amps, which lie between the lanes lo
    and lo + 1 of the sweep over amps that recorded steps (_classify_shot),
    or None when they must leave from the series start.

    The lanes start at an accepted step of lane lo, from the linear
    interpolation in the amplitude of the states and the next steps of the
    pair, so they keep the steps they would have taken from r_start.  The
    radii of neighbouring lanes differ, mostly through the rounding of their
    error estimates (by up to 1e-3 of a step on the `ground` nonlinearities),
    so every state is first carried to the radius of lane lo by its Taylor
    polynomial of degree 2.  The checkpoint is
    the latest accepted step up to which the pair and a third adjacent lane
    took the same attempts, accepted and rejected alike, and where at every
    accepted step the interpolation error |D2 y| / 8 moves the transition by
    at most _RESTART_SHIFT _SHOOT_TOL a through the slope |D y| / w: D y and
    D2 y are the first and second differences of the three lanes, each taken
    over its larger component, and w is the spacing of amps.
    """
    first = lo if lo + 2 < amps.size else lo - 1
    if first < 0 or lo + 1 >= amps.size or not steps:
        return None
    i = lo - first  # column of lane lo among the three
    lanes, live, r, y, dy, h = (np.concatenate(c, axis=-1) for c in zip(*steps))
    # a lane takes part in every attempt until the one that decides it, so
    # its k-th record is that of attempt k
    at = [np.flatnonzero(lanes == lane) for lane in range(first, first + 3)]
    at = np.stack([k[:min(k.size for k in at)] for k in at], axis=1)
    acc = live[at]
    same = np.logical_and.accumulate(acc.all(axis=1) | ~acc.any(axis=1))
    at = at[same & acc[:, 0]]
    r, u, du, d2u, h = r[at], y[0, at], y[1, at], dy[1, at], h[at]
    d3u = 2.0 * du / r**2 - 2.0 * d2u / r + du - nl.fprime(u) * du
    dr = r[:, i:i + 1] - r
    y = np.stack((u + dr * (du + 0.5 * dr * d2u), du + dr * (d2u + 0.5 * dr * d3u)))
    w = amps[lo + 1] - amps[lo]
    slope = np.abs(y[:, :, i + 1] - y[:, :, i]).max(axis=0)
    curve = np.abs(y[:, :, 2] - 2.0 * y[:, :, 1] + y[:, :, 0]).max(axis=0)
    ok = w * curve <= 8.0 * _RESTART_SHIFT * _SHOOT_TOL * abs(amps[lo + 1]) * slope
    k = int(np.logical_and.accumulate(ok).sum()) - 1
    if k < 0:
        return None
    t = (new_amps - amps[lo]) / w
    y_lo, y_hi = y[:, k, i:i + 1], y[:, k, i + 1:i + 2]
    return (np.full(t.size, r[k, i]), y_lo + t * (y_hi - y_lo),
            h[k, i] + t * (h[k, i + 1] - h[k, i]))


def _auto_bracket(nl: Nonlinearity, r_end: float) -> tuple[float, float]:
    """First undershoot/overshoot transition on a log scan of 40 amplitudes."""
    amps = np.logspace(-1, 2, 40)
    over = _classify_shot(nl, amps, r_end)
    up = np.flatnonzero(~over[:-1] & over[1:])
    if up.size == 0:
        raise BracketFailure("no undershoot/overshoot transition on the amplitude scan")
    return float(amps[up[0]]), float(amps[up[0] + 1])


def _dense_coefficients(nl: Nonlinearity, r, y, y_new, K: np.ndarray, h) -> np.ndarray:
    """Coefficients F (7, 2n) of the 7th-order continuous extension of an
    accepted step of length h from (r, y) to y_new with stages K, after
    filling the three stages 13..15 that only the extension needs."""
    n = r.size
    y_flat = y.reshape(2 * n)
    _fill_stages(nl, K, 13, 16, r, h, y_flat)
    hh = np.concatenate((h, h))
    dy = y_new.reshape(2 * n) - y_flat
    F = np.empty((7, 2 * n))
    F[0] = dy
    F[1] = hh * K[0] - dy
    F[2] = 2.0 * dy - hh * (K[12] + K[0])
    F[3:] = hh * (dop853.D @ K)
    return F


def _traced_shot(nl: Nonlinearity, a: float, r_end: float):
    """The shot from centre amplitude a up to the radius that decides it, with
    the 7th-order continuous extension of its accepted steps.

    _classify_shot integrates it as one lane and records its steps; the start
    states of the accepted steps then become the lanes of one pass that fills
    the stages of every step again and the three that only the extension
    needs.  Returns the radii rs of the accepted steps, the state y0 (2, m) at
    the start of each step and the coefficients F (7, 2, m) of its extension.
    """
    amps = np.array([a])
    steps: list = []
    _classify_shot(nl, amps, r_end, steps=steps)
    with np.errstate(**_QUIET):
        records = [_shot_start(nl, amps)] + [s[2:5] for s in steps]
        r, y, dy = (np.concatenate(c, axis=-1) for c in zip(*records))
        # a rejected attempt leaves the radius where it was
        acc = np.concatenate(([True], r[1:] > r[:-1]))
        rs, y, dy = r[acc], y[:, acc], dy[:, acc]
        r, h, m = rs[:-1], np.diff(rs), rs.size - 1
        y0 = y[:, :-1]
        K = np.empty((16, 2 * m))
        K[0] = dy[:, :-1].reshape(2 * m)
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


def shoot_ground_state(nl: Nonlinearity, grid: RadialGrid,
                       bracket: tuple[float, float] | None = None) -> RadialFunction:
    """Radial shooting for the limit problem, independent of the flow route.

    Narrows the center amplitude between undershoot and overshoot by
    k-section: each sweep classifies _SECTION_POINTS interior amplitudes
    together.  Once the bracket is narrow, a sweep restarts its lanes from the
    bracketing pair of the previous sweep at the latest of their accepted
    steps that passes the admissibility rule of _restart, instead of from
    the series start: on the four nonlinearities of the `ground` benchmark
    the last three sweeps start at r = 9.5 to 15.5 and take 3 to 9 attempts
    each.  The final shot runs through the same driver and stops where it is
    decided (r = 17.7 to 19.1 on those four), and the four ground states take
    1 712 DOP853 attempts instead of 2 721.  The grid samples that shot
    through the 7th-order dense output of its accepted steps (_traced_shot),
    with an exponential far-field graft c exp(-r)/r beyond the last
    trustworthy radius.
    """
    r_end = grid.R
    if bracket is None:
        a_lo, a_hi = _auto_bracket(nl, r_end)
    else:
        a_lo, a_hi = float(bracket[0]), float(bracket[1])
        lo_over, hi_over = _classify_shot(nl, np.array([a_lo, a_hi]), r_end)
        if lo_over == hi_over:
            label = "overshoot" if lo_over else "undershoot"
            raise BracketFailure(f"both endpoints classify as {label}")
        if lo_over:
            a_lo, a_hi = a_hi, a_lo

    amps = np.linspace(a_lo, a_hi, _SECTION_POINTS + 2)
    start = None
    while abs(a_hi - a_lo) > _SHOOT_TOL * abs(a_hi):
        steps: list = []
        over = np.concatenate(([False], _classify_shot(nl, amps[1:-1], r_end, start, steps),
                               [True]))
        j = int(np.argmax(over))
        a_lo, a_hi = float(amps[j - 1]), float(amps[j])
        # lane k of the sweep shot amps[k + 1]
        swept, amps = amps[1:-1], np.linspace(a_lo, a_hi, _SECTION_POINTS + 2)
        start = _restart(nl, steps, j - 2, swept, amps[1:-1])
    a = 0.5 * (a_lo + a_hi)

    traj = _traced_shot(nl, a, r_end)
    r0 = _R_START
    r_nodes = grid.nodes
    vals = np.empty_like(r_nodes)
    r_reach = traj[0][-1]

    # last radius where the trajectory is still a clean decaying profile
    r_dense = np.linspace(r0, r_reach, 4000)
    u_dense, du_dense = _dense_output(*traj, r_dense)
    ok = (u_dense > 1e-9 * a) & (du_dense < 0.0)
    bad = np.nonzero(~ok)[0]
    r_switch = r_dense[bad[0] - 1] if bad.size > 0 and bad[0] > 0 else r_reach

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
