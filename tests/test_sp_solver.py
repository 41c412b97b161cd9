import math

import numpy as np
import pytest

from oracles import resampled_path_max, resampled_t0
from spgs import (
    RadialFunction,
    asymptotics_report,
    canonical_family,
    continuation,
    energy,
    find_t0,
    make_grid,
    minimize_on_M,
    solve_at_lambda,
)
from spgs.functionals import gradient_residual
from spgs.grid import dual_norm
from spgs.sp_solver import (
    NonConvergence,
    RangeFailure,
    SolverOptions,
    _dense_jacobian_step,
    _loglog_slope,
    path_max_D,
)

SCHEDULE = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def branch(nl_cubic, ground_cubic):
    return continuation(nl_cubic, SCHEDULE, ground_cubic)


def test_solve_residual_certificate(ground_cubic, nl_cubic):
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1)
    assert pt.grad_residual_norm <= 1e-9
    assert pt.iterations < 30
    assert np.all(pt.u.values >= 0)


def test_solve_lambda_zero_reproduces_limit(ground_cubic, nl_cubic):
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.0)
    assert pt.gamma_energy == pytest.approx(ground_cubic.b_value, rel=1e-5)
    assert pt.phi_d12 == 0.0


def test_solve_rejects_negative_lambda(ground_cubic, nl_cubic):
    with pytest.raises(ValueError):
        solve_at_lambda(ground_cubic.omega, nl_cubic, -0.5)


def test_nonconvergence_carries_lambda(ground_cubic, nl_cubic):
    with pytest.raises(NonConvergence) as err:
        solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1,
                        SolverOptions(tol=1e-16, max_iter=2))
    assert err.value.lam == 0.1


def test_branch_energies_ordered(branch):
    # coupled energy dominates the limit level and sits under the path ceiling
    for pt in branch.points:
        assert pt.gamma_energy >= branch.b_ref
        assert pt.gamma_energy <= pt.D_lambda + 1e-10
        assert pt.i_energy <= pt.gamma_energy


def test_branch_distance_decreases(branch):
    d = [pt.h1_dist_to_omega for pt in branch.points]
    assert all(a > b for a, b in zip(d, d[1:]))


def test_branch_pohozaev_certified(branch):
    for pt in branch.points:
        assert pt.pohozaev_res_rel <= 1e-3


def test_continuation_schedule_validation(nl_cubic, ground_cubic):
    with pytest.raises(ValueError):
        continuation(nl_cubic, (), ground_cubic)
    with pytest.raises(ValueError):
        continuation(nl_cubic, (0.1, 0.2), ground_cubic)
    with pytest.raises(ValueError):
        continuation(nl_cubic, (0.1, -0.05), ground_cubic)


def test_find_t0_energy_drop(ground_cubic, nl_cubic):
    from spgs import dilate

    t0 = find_t0(ground_cubic.omega, nl_cubic)
    assert t0 > 1.0
    assert energy(dilate(ground_cubic.omega, t0), nl_cubic, 0.0).I_value < -2.0


def test_find_t0_matches_resampled_oracle(ground_cubic, nl_cubic):
    t0 = find_t0(ground_cubic.omega, nl_cubic)
    assert t0 == pytest.approx(resampled_t0(ground_cubic.omega, nl_cubic, t0), rel=1e-6)


def test_find_t0_beyond_resampled_range(grid30):
    # above the coupling threshold (mu* ~ 3.2); the dilation t0 ~ 3.8 stretches
    # the ground state past what R = 30 holds, which the closed form never samples
    nl = canonical_family(20.0, 3.0, 1.0)
    ground = minimize_on_M(nl, grid30)
    assert find_t0(ground.omega, nl) == pytest.approx(3.80, abs=0.01)


def test_find_t0_range_failure(grid30, nl_cubic):
    # a profile with tiny energy scale never reaches the required drop
    small = RadialFunction(grid30, 1e-2 * np.exp(-grid30.nodes**2))
    with pytest.raises(RangeFailure):
        find_t0(small, nl_cubic)


def test_path_ceiling_at_zero_coupling_is_b(ground_cubic, nl_cubic):
    t0 = find_t0(ground_cubic.omega, nl_cubic)
    D0 = path_max_D(ground_cubic.omega, nl_cubic, 0.0, t0)
    assert D0 == pytest.approx(ground_cubic.b_value, rel=1e-6)
    _, loc = resampled_path_max(ground_cubic.omega, nl_cubic, 0.0, 0.05, t0)
    assert abs(loc - 1.0) <= 1e-3


@pytest.mark.parametrize("lam", [0.0, 0.005, 0.05, 0.2])
def test_path_ceiling_matches_resampled_oracle(ground_cubic, nl_cubic, lam):
    t0 = find_t0(ground_cubic.omega, nl_cubic)
    D_oracle, _ = resampled_path_max(ground_cubic.omega, nl_cubic, lam, 0.05, t0)
    D = path_max_D(ground_cubic.omega, nl_cubic, lam, t0)
    assert D == pytest.approx(D_oracle, rel=1e-6)


def test_path_ceiling_moves_with_coupling(ground_cubic, nl_cubic):
    t0 = find_t0(ground_cubic.omega, nl_cubic)
    D1 = path_max_D(ground_cubic.omega, nl_cubic, 0.05, t0)
    D2 = path_max_D(ground_cubic.omega, nl_cubic, 0.1, t0)
    assert ground_cubic.b_value < D1 < D2


def test_asymptotic_slopes(branch, nl_cubic):
    rep = asymptotics_report(branch, nl_cubic)
    assert 0.9 <= rep.slope_phi_d12 <= 1.1
    assert 1.8 <= rep.slope_gamma_gap <= 2.2
    assert 1.8 <= rep.slope_D_gap <= 2.2
    assert rep.h1_dist_monotone
    assert rep.energy_ordering_ok
    assert rep.lambda0_empirical >= SCHEDULE[0]
    assert rep.d_budget > 0


def test_loglog_slope_on_power_law():
    x = np.array([0.1, 0.2, 0.4, 0.8])
    assert _loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)


@pytest.fixture(scope="module")
def omega_cubic_400(nl_cubic):
    return minimize_on_M(nl_cubic, make_grid(30.0, 400)).omega


@pytest.mark.parametrize("lam", [0.05, 0.3])
def test_dense_jacobian_step_is_a_newton_step(lam, nl_cubic, omega_cubic_400):
    # along an exact Newton step delta, R(u + eps delta) = (1 - eps) R(u) + O(eps^2),
    # so the remainder falls 100x per decade of eps (measured 3.85e-8 -> 3.85e-10)
    u = omega_cubic_400
    grid = u.grid
    res = gradient_residual(u, nl_cubic, lam).values
    delta = _dense_jacobian_step(u.values, nl_cubic, lam, grid, res)
    scale = dual_norm(grid, res)
    rem = []
    for eps in (1e-3, 1e-4):
        moved = gradient_residual(RadialFunction(grid, u.values + eps * delta), nl_cubic, lam)
        rem.append(dual_norm(grid, moved.values - (1.0 - eps) * res) / scale)
    assert rem[1] * 50.0 <= rem[0]
