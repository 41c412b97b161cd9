import math
import sys

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
from spgs.functionals import gradient_residual, scaling_terms
from spgs.grid import dual_norm, h1_norm_sq, integrate_values
from spgs.poisson import solve_phi
from spgs.sp_solver import (
    _GMRES_TOL,
    NonConvergence,
    PositivityLoss,
    RangeFailure,
    SolverOptions,
    _dense_jacobian_step,
    _gmres,
    _loglog_slope,
    _newton_step,
    path_max_D,
)

SCHEDULE = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
# the lambda schedule of the branch benchmark
BRANCH_LAMBDAS = np.geomspace(0.3, 1e-3, 24)


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


def test_failed_line_search_is_nonconvergence(ground_cubic, nl_cubic):
    # no step lowers a residual at its rounding floor, far above 1e-16; the
    # solve stops there instead of repeating the same step max_iter times
    with pytest.raises(NonConvergence, match="line search") as err:
        solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1, SolverOptions(tol=1e-16))
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


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a function through every spgs module that binds it."""

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "spgs" or name.startswith("spgs.")):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return install


def test_one_poisson_solve_per_residual_evaluation(ground_cubic, nl_cubic, count_calls):
    # the frozen-phi step and the final point reuse the potential that the
    # residual of the accepted iterate solved
    phi_calls = count_calls(solve_phi)
    residual_calls = count_calls(gradient_residual)
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1)
    assert pt.iterations >= 3
    assert len(residual_calls) >= pt.iterations
    assert len(phi_calls) == len(residual_calls)


def test_continuation_adds_one_poisson_solve_per_branch(ground_cubic, nl_cubic, count_calls):
    # omega's scaling terms at lam = 1 give b_ref and every D_lam
    phi_calls = count_calls(solve_phi)
    residual_calls = count_calls(gradient_residual)
    branch = continuation(nl_cubic, (0.1, 0.05, 0.02), ground_cubic)
    assert len(branch.points) == 3
    assert len(phi_calls) == len(residual_calls) + 1


def test_continuation_ceilings_match_the_per_lambda_route(ground_cubic, nl_cubic):
    # the lambda schedule of the branch benchmark
    lams = BRANCH_LAMBDAS
    omega = ground_cubic.omega
    branch = continuation(nl_cubic, lams, ground_cubic)
    assert len(branch.points) == len(lams)
    b_ref = energy(omega, nl_cubic, 0.0).I_value
    assert abs(branch.b_ref - b_ref) <= 1e-14 * abs(b_ref)
    t0 = find_t0(omega, nl_cubic)
    for pt in branch.points:
        terms = scaling_terms(omega, nl_cubic, pt.lam)
        D = max(terms.gamma(min(terms.peak(), t0)), terms.gamma(t0))
        assert abs(pt.D_lambda - D) <= 1e-14 * abs(D)


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
def test_newton_step_is_a_newton_step(lam, nl_cubic, omega_cubic_400):
    # along an exact Newton step delta, R(u + eps delta) = (1 - eps) R(u) + O(eps^2),
    # so the remainder falls 100x per decade of eps (measured 3.85e-8 -> 3.85e-10
    # at lam = 0.05, 4.08e-8 -> 4.08e-10 at lam = 0.3)
    u = omega_cubic_400
    grid = u.grid
    res, psol = gradient_residual(u, nl_cubic, lam)
    res = res.values
    delta = _newton_step(u.values, psol.phi.values, nl_cubic, lam, grid, res)
    scale = dual_norm(grid, res)
    rem = []
    for eps in (1e-3, 1e-4):
        moved, _ = gradient_residual(RadialFunction(grid, u.values + eps * delta), nl_cubic, lam)
        rem.append(dual_norm(grid, moved.values - (1.0 - eps) * res) / scale)
    assert rem[1] * 50.0 <= rem[0]


@pytest.mark.parametrize("lam", [0.05, 0.3])
def test_newton_step_matches_the_dense_jacobian_step(lam, nl_cubic, omega_cubic_400):
    # GMRES stops at a preconditioned residual of _GMRES_TOL relative, and
    # (I + T^-1 N)^-1 is bounded by 1 / (1 - rho(T^-1 N)) < 3 on this branch
    u = omega_cubic_400
    grid = u.grid
    res, psol = gradient_residual(u, nl_cubic, lam)
    args = (u.values, psol.phi.values, nl_cubic, lam, grid, res.values)
    delta = _newton_step(*args)
    dense = _dense_jacobian_step(*args)
    assert np.linalg.norm(delta - dense) <= 3.0 * _GMRES_TOL * np.linalg.norm(dense)


def test_gmres_solves_small_systems():
    rng = np.random.default_rng(7)
    b = rng.standard_normal(40)
    # an invariant Krylov space ends the iteration with the exact solution
    x = _gmres(lambda v: 2.0 * v, b)
    assert np.max(np.abs(x - 0.5 * b)) <= 1e-15 * np.max(np.abs(b))
    a = np.eye(40) + 0.3 * rng.standard_normal((40, 40)) / math.sqrt(40)
    x = _gmres(lambda v: a @ v, b)
    assert np.linalg.norm(a @ x - b) <= _GMRES_TOL * np.linalg.norm(b)


def test_predictor_branch_matches_warm_started_solves():
    # every point starts from the lam^2 extrapolation of the points before it;
    # it converges to the point that the previous point warm-starts, in fewer
    # Newton iterations
    nl = canonical_family(1.0, 3.0, 0.0)
    ground = minimize_on_M(nl, make_grid(30.0, 750))
    branch = continuation(nl, BRANCH_LAMBDAS, ground)
    u_warm = ground.omega
    warm_iterations = 0
    for pt in branch.points:
        ref = solve_at_lambda(u_warm, nl, pt.lam)
        assert math.sqrt(h1_norm_sq(pt.u - ref.u)) <= 1e-8 * math.sqrt(h1_norm_sq(ref.u))
        warm_iterations += ref.iterations
        u_warm = ref.u
    assert sum(pt.iterations for pt in branch.points) < warm_iterations


@pytest.fixture(scope="module")
def ground_q3(grid30):
    nl = canonical_family(1.0, 3.0, 0.0)
    return nl, minimize_on_M(nl, grid30)


def test_clip_over_budget_halves_the_step(ground_q3):
    # the full Newton step from omega at lam = 0.3 clips more than clip_budget
    # of the L^2 mass, but far less than half of it: the step is damped
    nl, ground = ground_q3
    omega = ground.omega
    grid = omega.grid
    lam = 0.3
    budget = SolverOptions().clip_budget
    res, psol = gradient_residual(omega, nl, lam)
    full = omega.values + _newton_step(omega.values, psol.phi.values, nl, lam, grid, res.values)
    clipped = integrate_values(grid, np.minimum(full, 0.0)**2) / integrate_values(grid, full**2)
    assert budget < clipped < 1e-6
    pt = solve_at_lambda(omega, nl, lam)
    assert pt.grad_residual_norm <= SolverOptions().tol
    assert np.all(pt.u.values >= 0.0)
    assert pt.u.values[0] > omega.values[0]


def test_lost_positive_branch_raises(grid30):
    # q = 2.5 has no positive solution near omega at lam = 0.3: the full step
    # clips all of the mass; halving alone would walk to the trivial u = 0
    nl = canonical_family(1.0, 2.5, 0.0)
    ground = minimize_on_M(nl, grid30)
    with pytest.raises(PositivityLoss):
        continuation(nl, BRANCH_LAMBDAS, ground)
