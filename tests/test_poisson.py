import math

import numpy as np
import pytest

from oracles import dense_newton_oracle, dense_phi_oracle, reference_newton_potential
from spgs import RadialFunction, make_grid, solve_phi
from spgs.checks import gaussian_poisson_errors
from spgs.grid import integrate_values
from spgs.poisson import coupling_scaling_check, newton_potential


def test_phi_matches_closed_form():
    # the registry checks the reference grid; the oracle holds under refinement too
    for n in (4000, 8000):
        assert gaussian_poisson_errors(make_grid(12.0, n))["phi_max_rel_error"] <= 1e-5


def test_phi_linear_in_lam(grid12, gaussian12):
    a = solve_phi(gaussian12, 1.0)
    b = solve_phi(gaussian12, 0.3)
    assert np.allclose(b.phi.values, 0.3 * a.phi.values, rtol=1e-13, atol=1e-300)
    assert b.coupling == pytest.approx(0.3 * a.coupling, rel=1e-13)


def test_phi_at_zero_coupling_is_the_zero_potential(grid12, gaussian12, count_calls):
    # 0 * Newton[u^2] is +0.0 at every node, since Newton[u^2] >= 0; the
    # zero field is that potential, bit for bit, without the prefix sums
    signed = RadialFunction(grid12, gaussian12.values * np.cos(3.0 * grid12.nodes))
    calls = count_calls(newton_potential)
    for u in (gaussian12, signed):
        u2 = u.values**2
        phi = 0.0 * newton_potential(grid12, u2)
        coupling = integrate_values(grid12, phi * u2)
        sol = solve_phi(u, 0.0)
        assert sol.phi.values.tobytes() == phi.tobytes()
        assert sol.coupling.hex() == coupling.hex() == (0.0).hex()
        assert sol.dirichlet_energy.hex() == (0.0 * coupling).hex()
    assert calls == []


def test_phi_rejects_negative_lam(gaussian12):
    with pytest.raises(ValueError):
        solve_phi(gaussian12, -0.1)


def test_dense_oracle_agrees_with_prefix_sums(grid12, gaussian12):
    sol = solve_phi(gaussian12, 0.7)
    dense = dense_phi_oracle(gaussian12, 0.7)
    assert np.max(np.abs(dense - sol.phi.values)) <= 1e-13


def test_newton_potential_of_a_signed_density(grid12, gaussian12):
    # the density u delta of the coupled Newton step changes sign
    rho = gaussian12.values * np.cos(3.0 * grid12.nodes)
    pot = newton_potential(grid12, rho)
    dense = dense_newton_oracle(grid12, rho)
    assert np.max(np.abs(dense - pot)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("n", [16, 100, 750, 3000, 12000])
def test_newton_potential_is_bitwise_the_reference(n):
    # the fused passes do the same floating-point operations in the same
    # order: equal bit for bit, the sign of zero included, on random signed
    # densities, some with runs of +0.0 and -0.0 in their tails
    rng = np.random.default_rng(n)
    for R in (12.0, 30.0, 40.0):
        grid = make_grid(R, n)
        for k in range(20):
            rho = rng.standard_normal(n) * np.exp(-rng.uniform(0.0, 3.0) * grid.nodes)
            if k % 2:
                rho[rng.integers(1, n) :] = rng.choice([0.0, -0.0])
            pot = newton_potential(grid, rho)
            assert pot.tobytes() == reference_newton_potential(grid, rho).tobytes()


@pytest.mark.parametrize("n", [16, 750, 12000])
def test_exterior_divide_is_bitwise_the_masked_divide(n):
    # newton_potential divides a[1:] by r[1:] into a zeroed slot, which is the
    # masked np.divide(a, r, out=np.zeros(n), where=r > 0) that it replaced:
    # r vanishes at node 0 only, which both leave at +0.0, whatever a[0]
    rng = np.random.default_rng(n)
    grid = make_grid(30.0, n)
    r = grid.nodes
    for k in range(10):
        rho = rng.standard_normal(n) * np.exp(-rng.uniform(0.0, 3.0) * r)
        if k % 2:
            rho[rng.integers(1, n):] = rng.choice([0.0, -0.0])
        if k < 3:
            rho[0] = (-0.0, 0.0, -1.0)[k]
        a = grid.weights * rho
        a /= 4.0 * np.pi
        masked = np.divide(a, r, out=np.zeros(n), where=r > 0)
        pot = a.cumsum()
        pot -= a
        pot[1:] /= r[1:]
        pot += masked[::-1].cumsum()[::-1]
        assert newton_potential(grid, rho).tobytes() == pot.tobytes()


def test_newton_potential_of_a_zero_density_is_plus_zero():
    # the only densities where the reference differs: -0.0 at every r > 0 and
    # a set sign bit at r = 0 gave -0.0 at r = 0; both are the zero potential
    grid = make_grid(30.0, 100)
    for rho in (np.zeros(100), -np.zeros(100), np.r_[-1.0, -np.zeros(99)]):
        pot = newton_potential(grid, rho)
        assert np.array_equal(pot, reference_newton_potential(grid, rho))
        assert not np.signbit(pot).any()


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
