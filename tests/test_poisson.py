import math

import numpy as np
import pytest

from oracles import dense_phi_oracle
from spgs import solve_phi
from spgs.checks import gaussian_poisson_errors
from spgs.poisson import coupling_scaling_check


def test_phi_matches_closed_form():
    # the registry checks the reference grid; the oracle holds under refinement too
    for n in (4000, 8000):
        assert gaussian_poisson_errors(n)["phi_max_rel_error"] <= 1e-5


def test_phi_linear_in_lam(grid12, gaussian12):
    a = solve_phi(gaussian12, 1.0)
    b = solve_phi(gaussian12, 0.3)
    assert np.allclose(b.phi.values, 0.3 * a.phi.values, rtol=1e-13, atol=1e-300)
    assert b.coupling == pytest.approx(0.3 * a.coupling, rel=1e-13)


def test_phi_rejects_negative_lam(gaussian12):
    with pytest.raises(ValueError):
        solve_phi(gaussian12, -0.1)


def test_dense_oracle_agrees_with_prefix_sums(grid12, gaussian12):
    sol = solve_phi(gaussian12, 0.7)
    dense = dense_phi_oracle(gaussian12, 0.7)
    assert np.max(np.abs(dense - sol.phi.values)) <= 1e-13


def test_dirichlet_energy_identity(gaussian12):
    # |grad phi|^2 = lam * coupling by construction
    sol = solve_phi(gaussian12, 0.25)
    assert sol.dirichlet_energy == pytest.approx(0.25 * sol.coupling, rel=1e-14)


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
