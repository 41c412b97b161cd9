"""Test-only oracles: independent routes to quantities the package computes
by cheaper or closed-form means."""

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from spgs import RadialFunction, dilate, energy


def dense_phi_oracle(u: RadialFunction, lam: float) -> np.ndarray:
    """O(n^2) dense-kernel evaluation of the Newton potential of lam u^2."""
    grid = u.grid
    r = grid.nodes
    a = grid.weights * u.values**2 / (4.0 * np.pi)
    kernel = 1.0 / np.maximum(r[:, None], np.maximum(r[None, :], 1e-300))
    return lam * kernel @ a


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
