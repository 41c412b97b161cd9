import math

import numpy as np
import pytest
from scipy.special import erf

from oracles import dense_phi_oracle
from spgs import RadialFunction, T_value, dirichlet_energy_direct, make_grid, solve_phi
from spgs.poisson import coupling_scaling_check


def gaussian_phi_exact(r):
    """Newton potential of exp(-r^2): (sqrt(pi)/4) erf(r)/r, value 1/2 at 0."""
    out = np.empty_like(r)
    out[1:] = (math.sqrt(math.pi) / 4.0) * erf(r[1:]) / r[1:]
    out[0] = 0.5
    return out


def test_phi_matches_closed_form(grid12, gaussian12):
    sol = solve_phi(gaussian12, 1.0)
    exact = gaussian_phi_exact(grid12.nodes)
    window = grid12.nodes <= 8.0
    rel = np.abs(sol.phi.values[window] - exact[window]) / np.abs(exact[window])
    assert np.max(rel) <= 1e-5


def test_phi_linear_in_lam(grid12, gaussian12):
    a = solve_phi(gaussian12, 1.0)
    b = solve_phi(gaussian12, 0.3)
    assert np.allclose(b.phi.values, 0.3 * a.phi.values, rtol=1e-13, atol=1e-300)
    assert b.coupling == pytest.approx(0.3 * a.coupling, rel=1e-13)


def test_phi_rejects_negative_lam(gaussian12):
    with pytest.raises(ValueError):
        solve_phi(gaussian12, -0.1)


def test_coupling_closed_form(gaussian12):
    exact = math.pi**1.5 / (2.0 * math.sqrt(2.0))
    sol = solve_phi(gaussian12, 1.0)
    assert abs(sol.coupling - exact) <= 1e-6 * exact


def test_dense_oracle_agrees_with_prefix_sums(grid12, gaussian12):
    sol = solve_phi(gaussian12, 0.7)
    dense = dense_phi_oracle(gaussian12, 0.7)
    assert np.max(np.abs(dense - sol.phi.values)) <= 1e-13


def test_dirichlet_energy_two_routes(grid12, gaussian12):
    sol = solve_phi(gaussian12, 0.4)
    direct = dirichlet_energy_direct(sol, gaussian12)
    assert direct == pytest.approx(sol.dirichlet_energy, rel=1e-4)


def test_dirichlet_energy_identity(gaussian12):
    # |grad phi|^2 = lam * coupling by construction
    sol = solve_phi(gaussian12, 0.25)
    assert sol.dirichlet_energy == pytest.approx(0.25 * sol.coupling, rel=1e-14)


def test_T_value_quarter_coupling(gaussian12):
    sol = solve_phi(gaussian12, 1.0)
    assert T_value(gaussian12, 1.0) == pytest.approx(0.25 * sol.coupling, rel=1e-14)


def test_coupling_scaling(gaussian12):
    for t in (0.5, 2.0):
        ratio = coupling_scaling_check(gaussian12, 1.0, t)
        assert abs(ratio - t**5) <= 1e-3 * t**5


def test_coupling_scaling_lambda_independent(gaussian12):
    r1 = coupling_scaling_check(gaussian12, 0.0, 1.3)
    r2 = coupling_scaling_check(gaussian12, 2.0, 1.3)
    assert r1 == pytest.approx(r2, rel=1e-13)


def test_phi_positive_and_decreasing(grid12, gaussian12):
    sol = solve_phi(gaussian12, 1.0)
    assert np.all(sol.phi.values > 0)
    assert np.all(np.diff(sol.phi.values) <= 0)


def test_far_field_charge_over_r(grid12, gaussian12):
    # beyond the support the potential is Q/(4 pi r) with Q the total charge
    sol = solve_phi(gaussian12, 1.0)
    q_total = float(np.dot(grid12.weights, gaussian12.values**2))
    far = grid12.nodes >= 10.0
    expected = q_total / (4.0 * math.pi * grid12.nodes[far])
    assert np.max(np.abs(sol.phi.values[far] - expected) / expected) <= 1e-10
