"""Test-only oracles: independent routes to quantities the package computes
by cheaper or closed-form means."""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq, minimize_scalar

from spgs import RadialFunction, dilate, energy, grad_norm_sq, norm_lq
from spgs.constants import _bubble
from spgs.functionals import T0_value, scaling_terms
from spgs.grid import dual_norm, integrate_values, solve_riesz
from spgs.limit_solver import (
    _ARMIJO,
    _FLOW_HALVINGS,
    _FLOW_HANDOVER,
    _FLOW_MAX_ITER,
    _GRAFT_GAP,
    _PROJECTION_STEPS,
    _SHOT_TOL,
    _STEP_CAP,
    _STEP_GROWTH,
    InitializationFailure,
    LimitGroundState,
    Stagnation,
    _auto_bracket,
    _initial_bump,
    _ladder,
    _newton_polish,
    _projected_gradient,
    _record,
    cgm_rescale,
    project_to_M,
)
from spgs.sp_solver import SolverOptions, solve_at_lambda

# the continuum shots of solve_ivp keep the error of each step within
# _RTOL |y| + _ATOL
_RTOL = 1e-10
_ATOL = 1e-13


class IntegrationFailure(RuntimeError):
    """solve_ivp failed to integrate a continuum shot."""


def dense_newton_oracle(grid, rho: np.ndarray) -> np.ndarray:
    """O(n^2) dense-kernel evaluation of the Newton potential of rho."""
    r = grid.nodes
    kernel = 1.0 / np.maximum(r[:, None], np.maximum(r[None, :], 1e-300))
    return kernel @ (grid.weights * rho / (4.0 * np.pi))


def reference_newton_potential(grid, rho: np.ndarray) -> np.ndarray:
    """The prefix-sum Newton potential as it was written before its passes
    were fused; poisson.newton_potential must equal it bit for bit."""
    r = grid.nodes
    a = grid.weights * rho / (4.0 * np.pi)  # W_j rho_j / 4pi

    interior = np.cumsum(a) - a  # sum over j < i
    over_r = a / np.where(r > 0, r, np.inf)
    exterior = (np.cumsum(over_r[::-1]))[::-1]  # sum over j >= i of a_j / r_j
    pot = np.empty_like(a)
    pot[1:] = interior[1:] / r[1:] + exterior[1:]
    pot[0] = exterior[0]
    return pot


def dense_phi_oracle(u: RadialFunction, lam: float) -> np.ndarray:
    """O(n^2) dense-kernel evaluation of the Newton potential of lam u^2."""
    return lam * dense_newton_oracle(u.grid, u.values**2)


def banded_helmholtz_solve(grid, shift, rhs: np.ndarray) -> np.ndarray:
    """(-Delta_h + shift) w = rhs with w(R) = 0 by scipy's solve_banded on the
    grid's bands plus shift on the interior diagonal, one column at a time:
    the reference for spgs.grid.solve_riesz and solve_lu."""
    ab = grid.bands.copy()
    ab[1, :-1] += np.broadcast_to(np.asarray(shift, dtype=float), (grid.n,))[:-1]
    b = np.array(rhs, dtype=float)
    b[-1] = 0.0
    if b.ndim == 1:
        return solve_banded((1, 1), ab, b)
    return np.column_stack([solve_banded((1, 1), ab, col) for col in b.T])


def lapack_helmholtz_lu(grid, shift) -> tuple[np.ndarray, ...]:
    """dgttrf factor of -Delta_h + shift with w(R) = 0 through
    scipy.linalg.lapack: the reference for spgs.grid.helmholtz_lu, which calls
    the same routine in the OpenBLAS that numpy links."""
    diag = grid.bands[1].copy()
    diag[:-1] += np.broadcast_to(np.asarray(shift, dtype=float), (grid.n,))[:-1]
    *lu, info = dgttrf(grid.bands[2, :-1], diag, grid.bands[0, 1:])
    assert info == 0
    return tuple(lu)


def lapack_helmholtz_solve(grid, shift, rhs: np.ndarray) -> np.ndarray:
    """(-Delta_h + shift) w = rhs with w(R) = 0 by scipy.linalg.lapack's dgttrs
    on the factor of lapack_helmholtz_lu, all columns at once."""
    b = np.array(rhs, dtype=float)
    b[-1] = 0.0
    w, info = dgttrs(*lapack_helmholtz_lu(grid, shift), b)
    assert info == 0
    return w


def resampled_gamma(u: RadialFunction, nl, lam: float, t: float) -> float:
    """Coupled energy of the dilation u(./t) resampled on the grid."""
    return energy(dilate(u, t), nl, lam).Gamma_value


def resampled_path_max(u: RadialFunction, nl, lam: float,
                       t_lo: float, t_hi: float) -> tuple[float, float]:
    """(max, maximizer) of the resampled path energy over [t_lo, t_hi] by a
    bounded scalar search, never below the value at t = 1."""
    res = minimize_scalar(lambda t: -resampled_gamma(u, nl, lam, t),
                          bounds=(t_lo, t_hi), method="bounded",
                          options={"xatol": 1e-8})
    at_one = energy(u, nl, lam).Gamma_value
    if at_one >= -res.fun:
        return at_one, 1.0
    return -res.fun, float(res.x)


def resampled_t0(u: RadialFunction, nl, t_hi: float) -> float:
    """Crossing of the resampled limit path energy through -2 on [1, t_hi],
    times the 1.05 margin of spgs.find_t0."""
    t = brentq(lambda s: resampled_gamma(u, nl, 0.0, s) + 2.0, 1.0, t_hi, xtol=1e-12)
    return 1.05 * t


def pchip_dilate(u: RadialFunction, t: float, onto=None) -> RadialFunction:
    """r -> u(r/t) on the grid onto (by default u's own) by scipy's PCHIP,
    the reference for spgs.dilate."""
    onto = u.grid if onto is None else onto
    if t == 1.0 and onto == u.grid:
        return RadialFunction(u.grid, u.values.copy())
    interp = PchipInterpolator(u.grid.nodes, u.values, extrapolate=False)
    vals = interp(onto.nodes / t)
    vals = np.where(np.isnan(vals), 0.0, vals)
    vals[-1] = 0.0 if abs(u.values[-1]) == 0.0 else vals[-1]
    return RadialFunction(onto, vals)


def reference_end_slope(m0, m1):
    """spgs.grid._end_slope as it computed with np.sign on numpy scalars: the
    bitwise reference for the Python-float end slope."""
    d = 0.5 * (3.0 * m0 - m1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def reference_monotone_slopes(u: RadialFunction) -> np.ndarray:
    """The Fritsch-Carlson slopes as spgs.grid.monotone_slopes computed them,
    with np.diff, boolean gathers of the cells whose secants share a sign and
    reference_end_slope: the bitwise reference for monotone_slopes."""
    y = u.values
    m = np.diff(y)
    prod = m[:-1] * m[1:]
    same = prod > 0.0
    d = np.zeros_like(y)
    d[1:-1][same] = 2.0 * prod[same] / (m[:-1][same] + m[1:][same])
    d[0] = reference_end_slope(m[0], m[1])
    d[-1] = reference_end_slope(m[-1], m[-2])
    return d


def reference_dilate(u: RadialFunction, t: float) -> RadialFunction:
    """r -> u(r/t) as spgs.dilate computed it with reference_monotone_slopes,
    a boolean mask for the radii within R, fancy-index gathers and a scatter
    into the result: the bitwise reference for dilate with and without
    precomputed slopes."""
    t = float(t)
    if t == 1.0:
        return RadialFunction(u.grid, u.values.copy())
    grid = u.grid
    y = u.values
    d = reference_monotone_slopes(u)

    r_src = grid.nodes / t
    inside = r_src <= grid.R
    x = r_src[inside] / grid.h
    i = np.minimum(x.astype(np.intp), grid.n - 2)
    s = x - i
    c = 1.0 - s
    vals = np.zeros_like(y)
    vals[inside] = (y[i] * (1.0 + 2.0 * s) * c * c + y[i + 1] * (1.0 + 2.0 * c) * s * s
                    + s * c * (d[i] * c - d[i + 1] * s))
    vals[-1] = 0.0 if abs(y[-1]) == 0.0 else vals[-1]
    return RadialFunction(grid, vals)


def reference_laplacian(u: RadialFunction) -> np.ndarray:
    """The conservative Laplacian as one difference of the face fluxes with a
    zero flux prepended at r = 0: the bitwise reference for
    spgs.grid.laplacian_apply."""
    grid = u.grid
    out = np.zeros_like(u.values)
    out[:-1] = np.diff(grid.conductance * np.diff(u.values), prepend=0.0) / grid.mass[:-1]
    return out


def reference_project_to_M(u: RadialFunction, nl) -> RadialFunction:
    """spgs.project_to_M with every trial dilation made by reference_dilate,
    which rebuilds the slopes each time, and V read from the four scaling
    terms: the bitwise reference for the projection that shares one set of
    slopes."""
    t, v, p = 1.0, scaling_terms(u, nl).V, 3.0
    for _ in range(_PROJECTION_STEPS):
        if not v > 0:
            raise InitializationFailure(f"constraint value must be positive, got {v}")
        try:
            t_next = t * v ** (-1.0 / p)
        except OverflowError:
            t_next = math.inf
        if not math.isfinite(t_next):
            raise InitializationFailure("constraint projection diverged")
        w = reference_dilate(u, t_next)
        v_next = scaling_terms(w, nl).V
        if abs(v_next - 1.0) <= 1e-13:
            return w
        if v_next > 0 and t_next != t:
            p = math.log(v_next / v) / math.log(t_next / t)
        p = p if p > 0 else 3.0
        t, v = t_next, v_next
    raise InitializationFailure("constraint projection stalled")


def reference_minimize_on_M(nl, grid) -> LimitGroundState:
    """spgs.minimize_on_M as one flow on grid from the initial bump, without
    the ladder of coarser grids, followed by the same finish (_newton_polish,
    the lam = 0 Newton solve): the bitwise reference for grids below the
    ladder floor, and the solve that the ladder is compared with above it."""
    u = project_to_M(_initial_bump(nl, grid), nl)
    eta, steps, t0_here = 1.0, 0, T0_value(u)
    while True:
        pg, t0g, vg = _projected_gradient(u, nl)
        pg_nrm = dual_norm(grid, pg)
        if pg_nrm <= _FLOW_HANDOVER * math.sqrt(2.0 * t0_here):
            break
        if steps == _FLOW_MAX_ITER:
            raise Stagnation(
                f"constrained flow did not reach tolerance in {_FLOW_MAX_ITER} steps "
                f"(projected gradient {pg_nrm:.3e})"
            )
        t0g[-1] = 0.0
        vg[-1] = 0.0
        d1, d2 = solve_riesz(grid, t0g), solve_riesz(grid, vg)
        denom = integrate_values(grid, vg * d2)
        th = integrate_values(grid, vg * d1) / denom if denom != 0.0 else 0.0
        d = d1 - th * d2
        slope = integrate_values(grid, t0g * d)
        if slope <= 0.0:
            break
        for _ in range(_FLOW_HALVINGS):
            try:
                trial = project_to_M(RadialFunction(grid, u.values - eta * d), nl)
            except InitializationFailure:
                eta *= 0.5
                continue
            t0_trial = T0_value(trial)
            if t0_trial < t0_here - _ARMIJO * eta * slope:
                u, t0_here = trial, t0_trial
                eta = min(eta * _STEP_GROWTH, _STEP_CAP)
                break
            eta *= 0.5
        else:
            break
        steps += 1
    gs = _record(_newton_polish(u, nl), (grid.n,))
    gs.iterations = steps
    try:
        gs.u = project_to_M(gs.omega, nl)
    except InitializationFailure:
        pass
    return gs


def flow_handover_field(nl, grid) -> RadialFunction:
    """The flow ladder's handover state dilated onto the Pohozaev manifold,
    as minimize_on_M starts its Newton solve, but with no solve: a field near
    omega_0 that solves the grid equation at no lam."""
    return cgm_rescale(_ladder(nl, grid)[0], nl)[0]


def bounded_kappa(f) -> float:
    """spgs.smallest_kappa with scipy's bounded scalar search as the polish."""

    def neg_ratio(x):
        s = np.exp(x)
        return -float((f(np.asarray(s)) - 0.5 * s) / s**5)

    xs = np.linspace(np.log(1e-6), np.log(1e6), 400)
    vals = np.array([neg_ratio(x) for x in xs])
    k = int(np.argmin(vals))
    res = minimize_scalar(neg_ratio, bounds=(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return max(-min(res.fun, vals[k]), 0.0)


def bounded_S(grid) -> float:
    """spgs.sobolev_S with scipy's bounded scalar search as the polish, over
    log eps between the scan neighbours of the least of its 32 widths."""

    def quotient(x):
        u = _bubble(grid, np.exp(x))
        return grad_norm_sq(u) / norm_lq(u, 6.0) ** 2

    xs = np.linspace(np.log(grid.h / 4.0), np.log(grid.R / 8.0), 32)
    vals = np.array([quotient(x) for x in xs])
    k = int(np.argmin(vals))
    res = minimize_scalar(quotient, bounds=(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return min(res.fun, vals[k])


def march_overshoots(nl, grid, a: float) -> bool:
    """Whether the shot of the grid equation -Delta_h u + u = f(u) from centre
    amplitude a overshoots, marched one node at a time in Python floats by
    row i of the equation, u_{i+1} = u_i + [c_{i-1} (u_i - u_{i-1})
    + m_i (u_i - f(u_i))] / c_i with c_{-1} = 0, from a centre that is a
    maximum, f(a) > a: the reference for the lanes of
    limit_solver._classify_shot."""
    c, m = grid.conductance.tolist(), grid.mass.tolist()

    def f(s):
        return float(nl.f(np.asarray(s)))

    u_prev = u = float(a)
    if not f(u) > u:
        return False
    for i in range(grid.n - 1):
        flux = c[i - 1] * (u - u_prev) if i > 0 else 0.0
        u_next = u + (flux + m[i] * (u - f(u))) / c[i]
        if u_next <= 0.0:
            return True
        if u_next > u:
            return False
        u_prev, u = u, u_next
    return False


def march_transition(nl, grid, a_lo: float, a_hi: float) -> float:
    """Transition amplitude of the grid equation's shots (march_overshoots)
    by one-shot-at-a-time bisection of an undershoot (a_lo) / overshoot
    (a_hi) bracket, down to 1e-14 of a_hi or to adjacent floats."""
    while a_hi - a_lo > 1e-14 * a_hi:
        mid = 0.5 * (a_lo + a_hi)
        if mid in (a_lo, a_hi):
            break
        if march_overshoots(nl, grid, mid):
            a_hi = mid
        else:
            a_lo = mid
    return 0.5 * (a_lo + a_hi)


def reference_march(nl, grid, amps, out: np.ndarray) -> np.ndarray:
    """limit_solver._classify_shot as it was before it kept a record or
    marched in blocks: the lanes marched together node by node, each decided
    lane dropped at once, with each lane's values written into the dense
    array out of shape (n, amps.size) up to the node that decides it."""
    amps = np.asarray(amps, dtype=float)
    c = grid.conductance
    alpha = np.concatenate(([0.0], c[:-1] / c[1:])).tolist()
    beta = (grid.mass[:-1] / c).tolist()
    over = np.zeros(amps.size, dtype=bool)
    lanes = np.flatnonzero(nl.f(amps) > amps)
    u = prev = amps[lanes]
    out[0] = amps
    for i in range(grid.n - 1):
        if not lanes.size:
            break
        g = u - nl.f(u)
        g *= beta[i]
        nxt = u - prev
        nxt *= alpha[i]
        nxt += u
        nxt += g
        out[i + 1, lanes] = nxt
        cross = nxt <= 0.0
        done = nxt > u
        done |= cross
        if np.count_nonzero(done):
            over[lanes[cross]] = True
            keep = ~done
            lanes, u, nxt = lanes[keep], u[keep], nxt[keep]
        prev, u = u, nxt
    return over


def reference_pair(nl, grid) -> np.ndarray:
    """The scan's two bracketing lanes (_auto_bracket) marched once more by
    reference_march into a dense (n, 2) array, NaN after each lane's
    deciding node."""
    pair = np.full((grid.n, 2), np.nan)
    reference_march(nl, grid, np.array(_auto_bracket([nl], grid)[0]), out=pair)
    return pair


def reference_shoot_ground_state(nl, grid) -> RadialFunction:
    """The single-level shot (limit_solver._scan_shot) in four steps and two
    marches: the scan, a second march of its two bracketing lanes
    (reference_pair), the graft of their mean onto c exp(-r)/r, and the
    Newton solve at lam = 0: the bitwise reference for the shot that reads
    the pair from the scan's record."""
    lo, hi = reference_pair(nl, grid).T
    agree = (lo > 0.0) & (hi > 0.0) & (np.abs(hi - lo) <= _GRAFT_GAP * np.minimum(lo, hi))
    k = grid.n - 1 if agree.all() else int(np.argmin(agree)) - 1
    r = grid.nodes
    vals = np.empty(grid.n)
    vals[:k + 1] = 0.5 * (lo[:k + 1] + hi[:k + 1])
    vals[k + 1:] = vals[k] * r[k] / r[k + 1:] * np.exp(r[k] - r[k + 1:])
    vals[-1] = 0.0
    return solve_at_lambda(RadialFunction(grid, vals), nl, 0.0, SolverOptions(tol=_SHOT_TOL)).u


def _series_start(nl, a: float):
    """(r0, (u, u')) of the continuum shot from centre amplitude a on the
    series u = a + c r^2/6 + b r^4, u' = c r/3 + 4 b r^3 with c = a - f(a) and
    b = (1 - f'(a)) c / 120, at r0 = 1e-3, or at 0.02 core widths
    1/sqrt|1 - f'(a)| where that is narrower: beyond the core the series
    diverges."""
    c = a - float(nl.f(np.asarray(a)))
    k = 1.0 - float(nl.fprime(np.asarray(a)))
    r0 = min(1e-3, 0.02 / math.sqrt(abs(k))) if k != 0.0 else 1e-3
    b = k * c / 120.0
    return r0, [a + r0**2 * (c / 6.0 + b * r0**2), r0 * (c / 3.0 + 4.0 * b * r0**2)]


def _shot_ivp(nl, a: float, r_end: float, **kwargs):
    """solve_ivp (DOP853) on u'' + (2/r) u' = u - f(u) from the series start
    (_series_start)."""

    def rhs(r, y):
        u, du = y
        return [du, -2.0 / r * du + u - float(nl.f(np.asarray(u)))]

    r0, y0 = _series_start(nl, a)
    sol = solve_ivp(rhs, (r0, r_end), y0, rtol=_RTOL, atol=_ATOL, method="DOP853", **kwargs)
    if sol.status == -1:
        raise IntegrationFailure(f"integrator failed at a = {a}: {sol.message}")
    return sol


def shot_label(nl, a: float, r_end: float) -> str:
    """One continuum shot: 'overshoot' if u crosses zero, 'undershoot' if u
    turns around positive, as solve_ivp terminal events."""
    a = float(a)
    if a - float(nl.f(np.asarray(a))) > 0:
        return "undershoot"
    if _series_start(nl, a)[1][0] <= 0:
        return "overshoot"

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1]

    cross.terminal, cross.direction = True, -1.0
    turn.terminal, turn.direction = True, 1.0
    sol = _shot_ivp(nl, a, r_end, events=(cross, turn))
    return "overshoot" if sol.t_events[0].size > 0 else "undershoot"


def bisect_amplitude(nl, a_lo: float, a_hi: float, r_end: float) -> float:
    """Transition amplitude of the continuum shots by one-shot-at-a-time
    bisection of an undershoot (a_lo) / overshoot (a_hi) bracket, down to
    1e-7 of a_hi."""
    while abs(a_hi - a_lo) > 1e-7 * abs(a_hi):
        mid = 0.5 * (a_lo + a_hi)
        if shot_label(nl, mid, r_end) == "undershoot":
            a_lo = mid
        else:
            a_hi = mid
    return 0.5 * (a_lo + a_hi)


def shot_dense(nl, a: float, r_end: float):
    """Dense output (u, u') of the continuum shot from centre amplitude a."""
    return _shot_ivp(nl, a, r_end, dense_output=True).sol
