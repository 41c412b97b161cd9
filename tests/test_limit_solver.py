import math

import numpy as np
import pytest

from oracles import resampled_path_max
from spgs import (
    RadialFunction,
    canonical_family,
    dilate,
    energy,
    grad_norm_sq,
    make_grid,
    minimize_on_M,
    mountain_pass_b,
    shoot_ground_state,
)
from spgs.functionals import T0_value, V_value
from spgs.limit_solver import (
    BracketFailure,
    FlowOptions,
    InitializationFailure,
    ShootOptions,
    cgm_rescale,
    project_to_M,
)

# frozen reference values for the cubic model problem (mu=1, q=4), computed
# by the independent shooting route at high integrator accuracy
B_CUBIC_REF = 18.8972
OMEGA0_CUBIC_REF = 4.3374


def test_ground_state_levels(ground_cubic):
    gs = ground_cubic
    assert gs.b_value == pytest.approx(B_CUBIC_REF, rel=5e-4)
    assert gs.omega.values[0] == pytest.approx(OMEGA0_CUBIC_REF, rel=2e-3)
    assert gs.method == "constrained_flow"
    assert gs.pg_norm <= 1e-6


def test_constraint_holds(ground_cubic, nl_cubic):
    assert V_value(ground_cubic.u, nl_cubic) == pytest.approx(1.0, abs=1e-8)


def test_p_level_identity(ground_cubic):
    # p = (2 sqrt(3)/9) M^(3/2), exact for the discrete functionals
    pred = (2.0 * math.sqrt(3.0) / 9.0) * ground_cubic.M_value**1.5
    assert ground_cubic.p_value == pytest.approx(pred, rel=1e-12)


def test_b_equals_third_of_gradient(ground_cubic):
    A = grad_norm_sq(ground_cubic.omega)
    assert ground_cubic.b_value == pytest.approx(A / 3.0, rel=1e-4)


def test_cgm_rescale_requires_constraint(grid30, nl_cubic):
    u = RadialFunction(grid30, np.exp(-grid30.nodes**2))
    with pytest.raises(ValueError):
        cgm_rescale(u, nl_cubic)


def test_cgm_gradient_scaling(ground_cubic):
    # dilation multiplies the Dirichlet energy by t
    t = ground_cubic.t0_dilation
    got = grad_norm_sq(ground_cubic.omega)
    want = t * grad_norm_sq(ground_cubic.u)
    assert got == pytest.approx(want, rel=1e-5)


def test_project_to_M_roundtrip(grid30, nl_cubic):
    vals = 3.0 * np.maximum(0.0, 1.0 - (grid30.nodes / 5.0) ** 2) ** 2
    u = project_to_M(RadialFunction(grid30, vals), nl_cubic)
    assert V_value(u, nl_cubic) == pytest.approx(1.0, abs=1e-12)


def test_project_to_M_underresolved_bump():
    # a bump two cells wide: resampling moves the scaling exponent of V to
    # about 2.85, so the projection needs its measured exponent to converge
    grid = make_grid(30.0, 750)
    nl = canonical_family(1.0, 5.5, 0.0)
    vals = 5.0 * np.maximum(0.0, 1.0 - (grid.nodes / 0.1) ** 2) ** 2
    u = project_to_M(RadialFunction(grid, vals), nl)
    assert V_value(u, nl) == pytest.approx(1.0, abs=1e-12)


def test_project_to_M_rejects_nonpositive_constraint(grid30, nl_cubic):
    tiny = RadialFunction(grid30, 1e-3 * np.exp(-grid30.nodes**2))
    with pytest.raises(InitializationFailure):
        project_to_M(tiny, nl_cubic)


def test_mountain_pass_maximizer_at_one(ground_cubic, nl_cubic):
    mp = mountain_pass_b(ground_cubic.omega, nl_cubic)
    assert abs(mp.t_star - 1.0) <= 1e-3
    assert mp.b == pytest.approx(energy(ground_cubic.omega, nl_cubic, 0.0).I_value,
                                 rel=1e-6)


def test_mountain_pass_matches_resampled_oracle(ground_cubic, nl_cubic):
    mp = mountain_pass_b(ground_cubic.omega, nl_cubic)
    b_oracle, t_oracle = resampled_path_max(ground_cubic.omega, nl_cubic, 0.0, 0.2, 1.8)
    assert mp.b == pytest.approx(b_oracle, rel=1e-6)
    assert mp.t_star == pytest.approx(t_oracle, abs=1e-3)


def test_path_energy_below_peak(ground_cubic, nl_cubic):
    for t in (0.5, 0.8, 1.3, 1.7):
        val = energy(dilate(ground_cubic.omega, t), nl_cubic, 0.0).I_value
        assert val < ground_cubic.b_value


def test_flow_warm_start(grid30, nl_cubic, ground_cubic):
    # restarting from the answer converges immediately to the same levels
    gs2 = minimize_on_M(nl_cubic, grid30, u_start=ground_cubic.u)
    assert gs2.M_value == pytest.approx(ground_cubic.M_value, rel=1e-10)


def test_shooting_matches_flow_cubic(grid30, nl_cubic, ground_cubic):
    w = shoot_ground_state(nl_cubic, grid30)
    i_shoot = energy(w, nl_cubic, 0.0).I_value
    assert i_shoot == pytest.approx(ground_cubic.b_value, rel=1e-3)
    assert w.values[0] == pytest.approx(OMEGA0_CUBIC_REF, rel=1e-3)


def test_shooting_explicit_bracket(grid30, nl_cubic):
    w = shoot_ground_state(nl_cubic, grid30, bracket=(2.0, 6.0))
    assert w.values[0] == pytest.approx(OMEGA0_CUBIC_REF, rel=1e-3)


def test_shooting_bad_bracket_raises(grid30, nl_cubic):
    with pytest.raises(BracketFailure):
        shoot_ground_state(nl_cubic, grid30, bracket=(0.1, 0.5))


def test_shooting_profile_positive_decreasing(grid30, nl_cubic):
    w = shoot_ground_state(nl_cubic, grid30)
    assert np.all(w.values[:-1] > 0)
    assert np.all(np.diff(w.values[:-1]) < 1e-12)


def test_stagnation_on_tiny_budget(grid30, nl_cubic):
    from spgs.limit_solver import Stagnation

    with pytest.raises(Stagnation):
        minimize_on_M(nl_cubic, grid30, FlowOptions(max_iter=3, flow_tol=1e-12))
