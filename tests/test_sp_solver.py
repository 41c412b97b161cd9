import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from oracles import flow_handover_field, resampled_path_max, resampled_t0
from spgs import (
    BranchPoint,
    RadialFunction,
    asymptotics_report,
    canonical_family,
    continuation,
    energy,
    find_t0,
    make_grid,
    minimize_on_M,
    solve_at_lambda,
    sp_solver,
)
from spgs.functionals import ScalingTerms, gradient_residual, scaling_terms
from spgs.grid import dual_norm, h1_norm_sq, helmholtz_lu, integrate_values, solve_lu
from spgs.poisson import newton_potential, solve_phi
from spgs.sp_solver import (
    _GMRES_TOL,
    NonConvergence,
    PositivityLoss,
    RangeFailure,
    SolverOptions,
    _anchor,
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


def test_nonconvergence_carries_lambda(ground_cubic, nl_cubic, monkeypatch):
    monkeypatch.setattr(sp_solver, "_MAX_ITER", 2)
    with pytest.raises(NonConvergence, match=r"after 2 Newton steps at lam=0\.1$") as err:
        solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1, SolverOptions(tol=1e-16))
    assert err.value.lam == 0.1


def test_failed_anchor_names_lambda_zero(ground_cubic, nl_cubic, grid30, monkeypatch):
    # the branch is anchored at lam = 0 before its first point: a failure
    # there is a failure at lam = 0, not at the first schedule entry; the
    # flow's handover field is no lam = 0 solution, so the anchor needs a step
    start = replace(ground_cubic, omega=flow_handover_field(nl_cubic, grid30))
    monkeypatch.setattr(sp_solver, "_MAX_ITER", 0)
    with pytest.raises(NonConvergence, match=r"at lam=0\.0$") as err:
        continuation(nl_cubic, (0.1, 0.05), start)
    assert err.value.lam == 0.0


def test_singular_anchor_linearization_is_nonconvergence(ground_cubic, nl_cubic, monkeypatch):
    # start from the lam = 0 solution, so that only the v_1 solve factors L
    at_zero = replace(ground_cubic, omega=solve_at_lambda(ground_cubic.omega, nl_cubic, 0.0).u)

    def singular(grid, shift):
        raise LinAlgError("singular matrix")

    monkeypatch.setattr(sp_solver, "helmholtz_lu", singular)
    with pytest.raises(NonConvergence, match="lam=0 solution is singular") as err:
        continuation(nl_cubic, (0.1,), at_zero)
    assert err.value.lam == 0.0
    assert isinstance(err.value.__cause__, LinAlgError)


def test_converged_last_step_is_accepted(ground_cubic, nl_cubic, monkeypatch):
    # omega at lam = 0.1 takes three Newton steps; the third one converges
    monkeypatch.setattr(sp_solver, "_MAX_ITER", 3)
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1)
    assert pt.iterations == 3
    assert pt.grad_residual_norm <= SolverOptions().tol


def test_failed_line_search_is_nonconvergence(ground_cubic, nl_cubic):
    # no step lowers a residual at its rounding floor, far above 1e-16; the
    # solve stops there instead of repeating the same step _MAX_ITER times
    with pytest.raises(NonConvergence, match=r"line search failed .* at lam=0\.1$") as err:
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


def test_branch_distance_falls_like_lambda_squared(branch):
    # the distance is to omega_0, so it is lam^2 |v_1|_H1 + O(lam^4);
    # measured: d / lam^2 from 5.4855 at lam = 0.05 to 5.4904 at 0.005
    ratios = [pt.h1_dist_to_omega / pt.lam**2 for pt in branch.points if pt.lam <= 0.05]
    assert max(ratios) <= 1.02 * min(ratios)


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


def test_one_poisson_solve_per_residual_evaluation(ground_cubic, nl_cubic, count_calls):
    # the frozen-phi step and the final point reuse the potential that the
    # residual of the accepted iterate solved
    phi_calls = count_calls(solve_phi)
    residual_calls = count_calls(gradient_residual)
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1)
    assert pt.iterations >= 3
    assert len(residual_calls) >= pt.iterations
    assert len(phi_calls) == len(residual_calls)


def test_iterations_count_newton_steps(ground_cubic, nl_cubic, count_calls):
    # a point the start already certifies takes no step
    steps = count_calls(_newton_step)
    pt = solve_at_lambda(ground_cubic.omega, nl_cubic, 0.1)
    assert pt.iterations == len(steps) == 3
    again = solve_at_lambda(pt.u, nl_cubic, 0.1)
    assert again.iterations == 0
    assert len(steps) == 3


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


def test_loglog_slope_is_the_least_squares_slope():
    # np.polyfit (LAPACK dgelsd) as the reference, with pairs dropped where
    # x or y is not positive
    rng = np.random.default_rng(5)
    for size in (2, 3, 6, 24, 60):
        for _ in range(20):
            x = np.geomspace(0.3, 1e-3, size)
            y = x ** rng.uniform(0.5, 4.0) * np.exp(rng.normal(0.0, 0.3, size))
            y[rng.uniform(size=size) < 0.1] *= -1.0
            keep = y > 0
            if keep.sum() < 2:
                assert math.isnan(_loglog_slope(x, y))
                continue
            ref = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0]
            assert _loglog_slope(x, y) == pytest.approx(ref, rel=1e-13, abs=0)


def test_find_t0_is_the_positive_root_of_the_cubic(monkeypatch):
    # np.roots (LAPACK dgeev) as the reference over a sweep of the scaling
    # terms A and V of the path through omega
    for A in np.geomspace(1e-2, 1e3, 11):
        for V in np.geomspace(1e-3, 1e3, 13):
            terms = ScalingTerms(A=float(A), B=0.0, C=float(V), K=0.0)
            monkeypatch.setattr(sp_solver, "scaling_terms", lambda omega, nl: terms)
            ref = 1.05 * float(np.max(np.roots([V, 0.0, -0.5 * A, -2.0]).real))
            assert find_t0(None, None) == pytest.approx(ref, rel=1e-13, abs=0)


def test_back_substitution_matches_lapack_on_recorded_factors(nl_cubic, ground_cubic,
                                                              monkeypatch):
    # the triangular factors of the GMRES solves of the Newton steps from
    # omega to the coupled solution at each lam, recorded as _gmres hands
    # them on, with np.linalg.solve (LAPACK dgesv) as the reference
    back, factors = sp_solver._back_substitute, []

    def recorded(tri, rhs):
        factors.append((tri, rhs))
        return back(tri, rhs)

    monkeypatch.setattr(sp_solver, "_back_substitute", recorded)
    for lam in SCHEDULE:
        solve_at_lambda(ground_cubic.omega, nl_cubic, lam)
    assert len(factors) >= 10
    assert max(len(rhs) for _, rhs in factors) >= 3
    for tri, rhs in factors:
        ref = np.linalg.solve(np.triu(tri), rhs)
        got = np.array(back(tri, rhs))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_branch_point_holds_u_alone_and_solves_its_potential(branch, nl_cubic):
    for p in branch.points:
        arrays = [f.name for f in dataclasses.fields(BranchPoint)
                  if isinstance(getattr(p, f.name), (RadialFunction, np.ndarray))]
        assert arrays == ["u"]
        phi = gradient_residual(p.u, nl_cubic, p.lam)[1].phi
        assert p.phi.grid is p.u.grid
        assert p.phi.values.tobytes() == phi.values.tobytes()


@pytest.fixture(scope="module")
def omega_cubic_400(nl_cubic):
    """The flow's handover field at n=400: no solution at any lam, so every
    Newton step below moves it."""
    return flow_handover_field(nl_cubic, make_grid(30.0, 400))


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.3])
def test_newton_step_is_a_newton_step(lam, nl_cubic, omega_cubic_400):
    # along an exact Newton step delta, R(u + eps delta) = (1 - eps) R(u) + O(eps^2),
    # so the remainder falls 100x per decade of eps (measured from the
    # handover field 1.86e-7 -> 1.86e-9 at lam = 0, 1.91e-7 -> 1.91e-9 at
    # lam = 0.05, 3.10e-7 -> 3.10e-9 at lam = 0.3)
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


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.3])
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


def test_newton_step_at_zero_coupling_is_the_gmres_step(nl_cubic, omega_cubic_400, count_calls):
    # at lam = 0 the nonlocal block 2 lam^2 u Newton[u .] vanishes: the step
    # is the tridiagonal solve alone, which GMRES on I + T^-1 N = I returns
    # up to its rounding
    u = omega_cubic_400
    grid = u.grid
    res, psol = gradient_residual(u, nl_cubic, 0.0)
    gmres_calls = count_calls(_gmres)
    delta = _newton_step(u.values, psol.phi.values, nl_cubic, 0.0, grid, res.values)
    assert gmres_calls == []
    lu = helmholtz_lu(grid, 1.0 + 0.0 * psol.phi.values - nl_cubic.fprime(u.values))
    coef = 2.0 * 0.0**2 * u.values
    via_gmres = _gmres(lambda v: v + solve_lu(lu, coef * newton_potential(grid, u.values * v)),
                       solve_lu(lu, -res.values))
    assert np.linalg.norm(delta - via_gmres) <= 1e-14 * np.linalg.norm(via_gmres)


def test_gmres_solves_small_systems():
    rng = np.random.default_rng(7)
    b = rng.standard_normal(40)
    # an invariant Krylov space ends the iteration with the exact solution
    x = _gmres(lambda v: 2.0 * v, b)
    assert np.max(np.abs(x - 0.5 * b)) <= 1e-15 * np.max(np.abs(b))
    a = np.eye(40) + 0.3 * rng.standard_normal((40, 40)) / math.sqrt(40)
    x = _gmres(lambda v: a @ v, b)
    assert np.linalg.norm(a @ x - b) <= _GMRES_TOL * np.linalg.norm(b)


def test_predictor_branch_matches_warm_started_solves(monkeypatch):
    # every point starts from the Hermite interpolant in lam^2 through the
    # anchor at lam = 0 and the points before it; it converges to the point
    # that the previous point warm-starts, in fewer Newton iterations, the
    # anchor's own included
    nl = canonical_family(1.0, 3.0, 0.0)
    ground = minimize_on_M(nl, make_grid(30.0, 750))
    solves = []

    def counted(*args, **kwargs):
        solves.append(solve_at_lambda(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sp_solver, "solve_at_lambda", counted)
    branch = continuation(nl, BRANCH_LAMBDAS, ground)
    monkeypatch.undo()
    assert [pt.lam for pt in solves] == [0.0, *(pt.lam for pt in branch.points)]
    u_warm = ground.omega
    warm_iterations = 0
    for pt in branch.points:
        ref = solve_at_lambda(u_warm, nl, pt.lam)
        assert math.sqrt(h1_norm_sq(pt.u - ref.u)) <= 1e-8 * math.sqrt(h1_norm_sq(ref.u))
        warm_iterations += ref.iterations
        u_warm = ref.u
    total = sum(pt.iterations for pt in solves)
    assert total < warm_iterations
    # measured 17; the first-order start (no v_2, a double node at 0) takes
    # 22 here, and a start through the last three points alone, no anchor, 35
    assert total <= 17


@pytest.fixture(scope="module")
def anchor_q4(ground_cubic, nl_cubic):
    return _anchor(ground_cubic.omega, nl_cubic, None)


@pytest.fixture(scope="module")
def branch_q4(ground_cubic, nl_cubic, anchor_q4):
    return continuation(nl_cubic, (0.1, 0.03, 0.01), ground_cubic), anchor_q4


def test_anchor_slope_is_the_lambda_squared_derivative(branch_q4):
    # u_lam = omega_0 + lam^2 v_1 + O(lam^4): the remainder over lam^4 levels
    # off (measured 3.38, 3.39, 3.39 at mu=1, q=4, n=3000)
    branch, (omega0, v1, _, _) = branch_q4
    ratios = [math.sqrt(h1_norm_sq(RadialFunction(omega0.grid, pt.u.values - omega0.values
                                                  - pt.lam**2 * v1))) / pt.lam**4
              for pt in branch.points]
    assert all(ratios[0] / 1.5 <= r <= 1.5 * ratios[0] for r in ratios)


def test_anchor_v2_is_the_lambda_fourth_coefficient(branch, anchor_q4, nl_cubic):
    # u_lam = omega_0 + lam^2 v_1 + lam^4 v_2 + O(lam^6) at mu=1, q=4, n=3000:
    # the lam^4 remainder r_4 tends to |v_2|_H1 = 3.3924 (3.3923 at lam =
    # 0.01), and the lam^6 remainder r_6 levels off at 2.49.  The points are
    # polished to a residual of 1e-13, so that r_6 at lam = 0.01, a field of
    # size 2.5e-12, is the branch's and not the predictor's; so is omega_0,
    # the flow route's solve to _SHOT_TOL, before v_1 and v_2 are taken there
    omega0 = solve_at_lambda(anchor_q4[0], nl_cubic, 0.0, SolverOptions(tol=1e-13)).u
    omega0, v1, v2, _ = _anchor(omega0, nl_cubic, None)
    grid = omega0.grid

    def h1(vals):
        return math.sqrt(h1_norm_sq(RadialFunction(grid, vals)))

    v2_norm = h1(v2)
    assert abs(v2_norm - 3.3924) <= 1e-4
    assert [pt.lam for pt in branch.points[:5]] == [0.2, 0.1, 0.05, 0.02, 0.01]
    r4, r6 = [], []
    for pt in branch.points[:5]:
        u = solve_at_lambda(pt.u, nl_cubic, pt.lam, SolverOptions(tol=1e-13)).u
        rest = u.values - omega0.values - pt.lam**2 * v1
        r4.append(h1(rest) / pt.lam**4)
        r6.append(h1(rest - pt.lam**4 * v2) / pt.lam**6)
    assert abs(r4[-1] - v2_norm) <= 1e-3 * v2_norm
    # measured 2.431, 2.474, 2.485, 2.488, 2.489
    assert all(abs(r - 2.47) <= 0.05 for r in r6)
    assert all(a < b + 1e-3 for a, b in zip(r6, r6[1:]))


@pytest.mark.parametrize("q", [2.2, 2.5])
def test_anchor_v2_is_finite_below_q3(q):
    # f''(s) ~ s^(q-3) is unbounded at 0 for q < 3; the centred difference of
    # f' is finite at every node (a RuntimeWarning is an error here)
    nl = canonical_family(1.0, q, 0.0)
    omega0, v1, v2, K1 = _anchor(minimize_on_M(nl, make_grid(30.0, 750)).omega, nl, None)
    assert np.isfinite(v1).all() and np.isfinite(v2).all() and math.isfinite(K1)
    assert np.max(np.abs(v2)) > 0.0


def test_K1_is_the_lambda_squared_coefficient_of_the_energy(branch_q4, nl_cubic):
    # Gamma_lam = I(omega_0) + lam^2 K1 + O(lam^4): the gap of the difference
    # quotient falls like lam^2, about 11x from lam = 0.1 to 0.03
    branch, (omega0, _, _, K1) = branch_q4
    assert branch.K1 == K1
    assert asymptotics_report(branch, nl_cubic).K1 == K1
    b0 = energy(omega0, nl_cubic, 0.0).I_value
    gaps = [abs((pt.gamma_energy - b0) / pt.lam**2 - K1) for pt in branch.points[:2]]
    assert gaps[1] * 5.0 <= gaps[0]


@pytest.fixture(scope="module")
def ground_q3(grid30):
    nl = canonical_family(1.0, 3.0, 0.0)
    return nl, minimize_on_M(nl, grid30)


def test_clip_over_budget_halves_the_step(ground_q3):
    # the full Newton step from omega at lam = 0.3 clips more than _CLIP_BUDGET
    # of the L^2 mass, but far less than half of it: the step is damped
    nl, ground = ground_q3
    omega = ground.omega
    grid = omega.grid
    lam = 0.3
    budget = sp_solver._CLIP_BUDGET
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
