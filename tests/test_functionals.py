import numpy as np
import pytest

from spgs import RadialFunction, energy, gradient_residual
from spgs.checks import gradient_fd_gap
from spgs.functionals import T0_value, V_value, scaling_terms
from spgs.grid import dual_norm, grad_norm_sq, integrate_values


def test_energy_breakdown_consistency(grid30, nl_cubic):
    u = RadialFunction(grid30, 2.0 * np.exp(-grid30.nodes**2 / 2.0))
    bd = energy(u, nl_cubic, 0.3)
    assert bd.Gamma_value == pytest.approx(bd.I_value + bd.K, rel=1e-14)
    assert bd.I_value == pytest.approx(0.5 * bd.A + 0.5 * bd.B - bd.C, rel=1e-14)
    assert bd.K > 0


def test_energy_limit_case_has_no_nonlocal_term(grid30, nl_cubic):
    u = RadialFunction(grid30, np.exp(-grid30.nodes**2))
    bd = energy(u, nl_cubic, 0.0)
    assert bd.K == 0.0
    assert bd.Gamma_value == bd.I_value


def test_energy_rejects_negative_lam(grid30, nl_cubic):
    u = RadialFunction(grid30, np.exp(-grid30.nodes**2))
    with pytest.raises(ValueError):
        energy(u, nl_cubic, -1.0)


def test_gradient_residual_is_energy_derivative(grid30, nl_cubic):
    # the registry's finite-difference loop on its own samples, at lam 0 and 0.2
    assert gradient_fd_gap(grid30, nl_cubic, np.random.default_rng(7),
                           trials=4, lams=(0.0, 0.2)) <= 1e-5


def test_residual_dual_norm_small_at_ground_state(ground_cubic, nl_cubic):
    # omega is a resampled dilation, so the strong-form residual carries
    # interpolation noise; the dual norm still certifies near-stationarity
    res, _ = gradient_residual(ground_cubic.omega, nl_cubic, 0.0)
    assert dual_norm(res.grid, res.values) <= 1e-2


def test_pohozaev_lambda_reduces_to_P_at_zero(grid30, nl_cubic):
    # at lam = 0 the dilation balance is (1/2)(|grad u|^2 - 6 int G) ... check
    # the algebra against an explicit recomputation
    u = RadialFunction(grid30, 1.3 * np.exp(-grid30.nodes**2 / 2.0))
    lhs = scaling_terms(u, nl_cubic, 0.0).dilation_balance()[0]
    kin = 0.5 * grad_norm_sq(u)
    mass3 = 1.5 * integrate_values(grid30, u.values**2)
    pot3 = 3.0 * integrate_values(grid30, nl_cubic.F(u.values))
    assert lhs == pytest.approx(kin + mass3 - pot3, rel=1e-14)


def test_pohozaev_lambda_is_dilation_derivative(ground_cubic, nl_cubic):
    # d/dt Gamma(u(./t)) at t = 1 by central differences on the dilation
    from spgs import dilate

    u = ground_cubic.omega
    lam = 0.1
    dt = 1e-4
    gp = energy(dilate(u, 1.0 + dt), nl_cubic, lam).Gamma_value
    gm = energy(dilate(u, 1.0 - dt), nl_cubic, lam).Gamma_value
    fd = (gp - gm) / (2.0 * dt)
    analytic = scaling_terms(u, nl_cubic, lam).dilation_balance()[0]
    scale = energy(u, nl_cubic, lam).Gamma_value
    assert abs(fd - analytic) <= 1e-3 * abs(scale)


def test_relative_pohozaev_normalization(grid30, nl_cubic):
    u = RadialFunction(grid30, np.exp(-grid30.nodes**2 / 2.0))
    rel = scaling_terms(u, nl_cubic, 0.1).dilation_balance()[1]
    assert 0.0 <= rel <= 1.0


def test_V_and_T0(grid30, nl_cubic):
    u = RadialFunction(grid30, np.exp(-grid30.nodes**2 / 2.0))
    assert T0_value(u) == pytest.approx(0.5 * grad_norm_sq(u), rel=1e-14)
    assert V_value(u, nl_cubic) == pytest.approx(
        integrate_values(grid30, nl_cubic.G(u.values)), rel=1e-14
    )
