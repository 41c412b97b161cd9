"""Nonlocal Poisson layer: the Coulomb potential of u^2 and its energies.

Convention: the potential carries one factor of the coupling parameter,
phi_u = lambda * Newton[u^2], and the energy and equation carry another
explicit lambda.  The quartic interaction term therefore scales like
lambda^2, which sets every asymptotic rate downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialFunction, RadialGrid, dilate, grad_norm_sq, integrate_values


@dataclass(frozen=True)
class PoissonSolution:
    """Potential phi with its Dirichlet energy and the coupling integral.

    coupling is int phi u^2 over R^3; dirichlet_energy is the full-space
    |grad phi|_2^2 obtained from the identity int |grad phi|^2 = lam int u^2 phi.
    """

    phi: RadialFunction
    lam: float
    dirichlet_energy: float
    coupling: float


def newton_potential(grid: RadialGrid, rho: np.ndarray) -> np.ndarray:
    """Newton potential of the radial density rho by prefix sums in O(n).

    sum_j W_j rho_j / (4 pi max(r_i, r_j)) with the grid weights W, that is
    (1/r) int_0^r rho s^2 ds + int_r^R rho s ds; at r = 0 the interior term
    is replaced by its limit.
    """
    r = grid.nodes
    a = grid.weights * rho
    a /= 4.0 * np.pi  # W_j rho_j / 4pi

    pot = a.cumsum()
    pot -= a  # sum over j < i, +0.0 at r = 0
    pot[1:] /= r[1:]
    over_r = np.divide(a, r, out=np.zeros(grid.n), where=r > 0)
    pot += over_r[::-1].cumsum()[::-1]  # sum over j >= i of a_j / r_j
    return pot


def solve_phi(u: RadialFunction, lam: float) -> PoissonSolution:
    """Potential phi = lam * Newton[u^2] of u at the coupling lam, in O(n).  At
    lam = 0 it is the zero field, equal bit for bit to 0 * Newton[u^2] >= 0."""
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    grid = u.grid
    u2 = u.values**2
    phi_vals = np.zeros(grid.n) if lam == 0.0 else lam * newton_potential(grid, u2)

    phi = RadialFunction(grid, phi_vals)
    coupling = integrate_values(grid, phi_vals * u2)
    return PoissonSolution(phi=phi, lam=lam,
                           dirichlet_energy=lam * coupling,
                           coupling=coupling)


def dirichlet_energy_direct(sol: PoissonSolution, u: RadialFunction) -> float:
    """Cross-check of the Dirichlet energy: |grad phi|^2 on the grid plus the
    exact exterior contribution 4 pi lam^2 Q^2 / R of the far field lam Q / r."""
    grid = sol.phi.grid
    charge = integrate_values(grid, u.values**2) / (4.0 * np.pi)
    return grad_norm_sq(sol.phi) + 4.0 * np.pi * sol.lam**2 * charge**2 / grid.R


def coupling_scaling_check(u: RadialFunction, lam: float, t: float) -> float:
    """Ratio coupling(u(./t)) / coupling(u); equals t^5 up to interpolation error."""
    if not t > 0:
        raise ValueError(f"dilation scale must be positive, got {t}")
    lam = float(lam) if lam > 0 else 1.0  # ratio is lambda-independent
    base = solve_phi(u, lam).coupling
    scaled = solve_phi(dilate(u, t), lam).coupling
    return scaled / base

