"""Test-only oracles: independent routes to quantities the package computes
by cheaper or closed-form means."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded
from scipy.optimize import brentq, minimize_scalar

from spgs import RadialFunction, dilate, energy
from spgs.limit_solver import (
    _ATOL,
    _R_START,
    _RTOL,
    _SHOOT_TOL,
    StiffnessFailure,
    _classify_shot,
    _dense_coefficients,
    _dop853_attempt,
    _first_step,
    _shot_start,
)


def dense_newton_oracle(grid, rho: np.ndarray) -> np.ndarray:
    """O(n^2) dense-kernel evaluation of the Newton potential of rho."""
    r = grid.nodes
    kernel = 1.0 / np.maximum(r[:, None], np.maximum(r[None, :], 1e-300))
    return kernel @ (grid.weights * rho / (4.0 * np.pi))


def dense_phi_oracle(u: RadialFunction, lam: float) -> np.ndarray:
    """O(n^2) dense-kernel evaluation of the Newton potential of lam u^2."""
    return lam * dense_newton_oracle(u.grid, u.values**2)


def banded_helmholtz_solve(grid, shift, rhs: np.ndarray) -> np.ndarray:
    """(-Delta_h + shift) w = rhs with w(R) = 0 by scipy's solve_banded on the
    grid's bands plus shift on the interior diagonal, one column at a time:
    the reference for spgs.grid.solve_riesz and solve_helmholtz."""
    ab = grid.bands.copy()
    ab[1, :-1] += np.broadcast_to(np.asarray(shift, dtype=float), (grid.n,))[:-1]
    b = np.array(rhs, dtype=float)
    b[-1] = 0.0
    if b.ndim == 1:
        return solve_banded((1, 1), ab, b)
    return np.column_stack([solve_banded((1, 1), ab, col) for col in b.T])


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


def pchip_dilate(u: RadialFunction, t: float) -> RadialFunction:
    """r -> u(r/t) by scipy's PCHIP, the reference for spgs.dilate."""
    if t == 1.0:
        return RadialFunction(u.grid, u.values.copy())
    interp = PchipInterpolator(u.grid.nodes, u.values, extrapolate=False)
    vals = interp(u.grid.nodes / t)
    vals = np.where(np.isnan(vals), 0.0, vals)
    vals[-1] = 0.0 if abs(u.values[-1]) == 0.0 else vals[-1]
    return RadialFunction(u.grid, vals)


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


def _shot_ivp(nl, a: float, r_end: float, rtol: float = _RTOL, atol: float = _ATOL,
              **kwargs):
    """solve_ivp (DOP853, the pair of spgs) on u'' + (2/r) u' = u - f(u) from
    the series start."""

    def rhs(r, y):
        u, du = y
        return [du, -2.0 / r * du + u - float(nl.f(np.asarray(u)))]

    r0 = _R_START
    c = a - float(nl.f(np.asarray(a)))
    y0 = [a + c * r0**2 / 6.0, c * r0 / 3.0]
    sol = solve_ivp(rhs, (r0, r_end), y0, rtol=rtol, atol=atol, method="DOP853", **kwargs)
    if sol.status == -1:
        raise StiffnessFailure(f"integrator failed at a = {a}: {sol.message}")
    return sol


def shot_label(nl, a: float, r_end: float, rtol: float = _RTOL, atol: float = _ATOL) -> str:
    """One shot at a time: 'overshoot' if u crosses zero, 'undershoot' if u
    turns around positive, as solve_ivp terminal events."""
    a = float(a)
    r0 = _R_START
    c = a - float(nl.f(np.asarray(a)))
    if c > 0:
        return "undershoot"
    if a + c * r0**2 / 6.0 <= 0:
        return "overshoot"

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1]

    cross.terminal, cross.direction = True, -1.0
    turn.terminal, turn.direction = True, 1.0
    sol = _shot_ivp(nl, a, r_end, rtol, atol, events=(cross, turn))
    return "overshoot" if sol.t_events[0].size > 0 else "undershoot"


def tight_shot_label(nl, a: float, r_end: float) -> str:
    """shot_label at rtol 1e-13 and atol 1e-16: where the undershoot/overshoot
    transition lies, nearly free of integration error."""
    return shot_label(nl, a, r_end, rtol=1e-13, atol=1e-16)


def bisect_amplitude(nl, a_lo: float, a_hi: float, r_end: float) -> float:
    """Centre amplitude by one-shot-at-a-time bisection of an undershoot
    (a_lo) / overshoot (a_hi) bracket."""
    while abs(a_hi - a_lo) > _SHOOT_TOL * abs(a_hi):
        mid = 0.5 * (a_lo + a_hi)
        if shot_label(nl, mid, r_end) == "undershoot":
            a_lo = mid
        else:
            a_hi = mid
    return 0.5 * (a_lo + a_hi)


def shot_dense(nl, a: float, r_end: float):
    """Dense output (u, u') of the shot from centre amplitude a."""
    return _shot_ivp(nl, a, r_end, dense_output=True).sol


def series_start_amplitude(nl, a_lo: float, a_hi: float, r_end: float) -> float:
    """Centre amplitude by the k-section of shoot_ground_state from an
    undershoot (a_lo) / overshoot (a_hi) bracket, with every sweep of 63
    amplitudes integrated from the series start at r_start."""
    while abs(a_hi - a_lo) > _SHOOT_TOL * abs(a_hi):
        amps = np.linspace(a_lo, a_hi, 65)
        over = np.concatenate(([False], _classify_shot(nl, amps[1:-1], r_end), [True]))
        j = int(np.argmax(over))
        a_lo, a_hi = float(amps[j - 1]), float(amps[j])
    return 0.5 * (a_lo + a_hi)


def stepwise_trajectory(nl, a: float, r_end: float):
    """The shot from centre amplitude a to r_end, one DOP853 attempt at a
    time, with the continuous extension of each accepted step computed right
    after it: (rs, y0, F) in the layout of limit_solver._traced_shot."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, y, dy = _shot_start(nl, np.array([a]))
        h = _first_step(nl, r, y, dy, r_end)
        retry = np.zeros(1, dtype=bool)
        rs, y0, F = [r], [], []
        while r[0] < r_end:
            acc, r_new, y_new, K, h = _dop853_attempt(nl, r, y, dy, h, retry, r_end)
            retry = ~acc
            if acc[0]:
                F.append(_dense_coefficients(nl, r, y, y_new, K, r_new - r))
                y0.append(y[:, 0])
                r, y, dy = r_new, y_new, K[12].reshape(2, 1)
                rs.append(r)
    return np.concatenate(rs), np.stack(y0, axis=1), np.stack(F, axis=2)
