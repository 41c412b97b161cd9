import math
import re
import warnings

import numpy as np
import pytest

from oracles import (
    bisect_amplitude,
    march_overshoots,
    march_transition,
    reference_dilate,
    reference_minimize_on_M,
    reference_monotone_slopes,
    reference_march,
    reference_pair,
    reference_project_to_M,
    reference_shoot_ground_state,
    resampled_path_max,
    shot_dense,
    shot_label,
)
from spgs import (
    RadialFunction,
    SolverOptions,
    canonical_family,
    dilate,
    energy,
    grad_norm_sq,
    h1_norm_sq,
    limit_ground_state,
    make_grid,
    minimize_on_M,
    mountain_pass_b,
    shoot_ground_state,
    solve_at_lambda,
    user_nonlinearity,
)
from spgs import checks, limit_solver, sp_solver
from spgs.config import RunConfig
from spgs.sp_solver import NonConvergence, PositivityLoss
from spgs.functionals import T0_value, V_value, gradient_residual, scaling_terms
from spgs.grid import dual_norm, monotone_slopes
from spgs.limit_solver import (
    BracketFailure,
    InitializationFailure,
    ResolutionFailure,
    SolverFailure,
    Stagnation,
    _auto_bracket,
    _classify_shot,
    _marched_lane,
    cgm_rescale,
    project_to_M,
)

# frozen reference values for the cubic model problem (mu=1, q=4), computed
# by the independent shooting route at high integrator accuracy
B_CUBIC_REF = 18.8972
OMEGA0_CUBIC_REF = 4.3374

# the nonlinearities (mu, q, cw) of the ground workload of bench/
GROUND_CASES = [(1.0, 3.0, 0.0), (1.0, 4.0, 0.0), (1.0, 5.0, 0.0), (20.0, 3.0, 1.0)]


def test_ground_state_levels(ground_cubic):
    gs = ground_cubic
    assert gs.b_value == pytest.approx(B_CUBIC_REF, rel=5e-4)
    assert gs.omega.values[0] == pytest.approx(OMEGA0_CUBIC_REF, rel=2e-3)
    assert gs.residual <= limit_solver._SHOT_TOL


def test_p_level_identity(ground_cubic):
    # p = (2 sqrt(3)/9) M^(3/2), exact for the discrete functionals
    pred = (2.0 * math.sqrt(3.0) / 9.0) * ground_cubic.M_value**1.5
    assert ground_cubic.p_value == pytest.approx(pred, rel=1e-12)


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


@pytest.fixture(scope="module", params=[750, 3000])
def flow_inputs(request):
    """The fields that the q=5.5 flow ladder hands to project_to_M at n
    nodes: its start and its trial steps."""
    nl = canonical_family(1.0, 5.5, 0.0)
    seen = []
    project = limit_solver.project_to_M

    def recording(u, nl):
        seen.append(u)
        return project(u, nl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limit_solver, "project_to_M", recording)
        limit_solver._ladder(nl, make_grid(30.0, request.param))
    return nl, seen


def test_project_to_M_is_bitwise_the_reference_loop(flow_inputs):
    # the q=5.5 flow at n=750 reaches its handover only along exactly this
    # sequence of iterates, so the shared slopes must not move a bit
    nl, seen = flow_inputs
    assert len(seen) > 30
    for u in seen:
        try:
            want = reference_project_to_M(u, nl).values
        except InitializationFailure:
            with pytest.raises(InitializationFailure):
                project_to_M(u, nl)
            continue
        assert np.array_equal(project_to_M(u, nl).values, want)


def test_monotone_slopes_on_flow_states_are_bitwise_the_reference(flow_inputs):
    _, seen = flow_inputs
    for u in seen:
        assert np.array_equal(monotone_slopes(u), reference_monotone_slopes(u))


@pytest.mark.parametrize("t", [0.5, 0.97, 1.03, 2.0])
def test_dilate_on_flow_states_is_bitwise_the_reference(flow_inputs, t):
    _, seen = flow_inputs
    for u in seen[::5]:
        want = reference_dilate(u, t).values
        assert np.array_equal(dilate(u, t).values, want)
        assert np.array_equal(dilate(u, t, monotone_slopes(u)).values, want)


def test_projection_overflow_is_initialization_failure():
    # V of the initial bump asks for a dilation too large for a float
    with pytest.raises(InitializationFailure, match="projection diverged"):
        minimize_on_M(canonical_family(20.0, 2.2, 1.0), make_grid(20.0, 750))


def test_mountain_pass_maximizer_at_one(ground_cubic, nl_cubic):
    # |1 - t*^-2| ~ 2 |t* - 1| is the registry check limit.pohozaev_on_arrival
    mp = mountain_pass_b(ground_cubic.omega, nl_cubic)
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


@pytest.fixture(scope="module")
def ground_shots(grid30):
    """The shot of each GROUND_CASES nonlinearity on grid30."""
    return {case: shoot_ground_state(canonical_family(*case), grid30) for case in GROUND_CASES}


@pytest.fixture(scope="module")
def shot_cubic(ground_shots):
    return ground_shots[(1.0, 4.0, 0.0)]


def test_shooting_matches_flow_cubic(nl_cubic, ground_cubic, shot_cubic):
    w = shot_cubic
    i_shoot = energy(w, nl_cubic, 0.0).I_value
    assert i_shoot == pytest.approx(ground_cubic.b_value, rel=1e-3)
    assert w.values[0] == pytest.approx(OMEGA0_CUBIC_REF, rel=1e-3)


@pytest.mark.parametrize("case", GROUND_CASES)
def test_batched_labels_match_one_shot_oracle(case, grid30):
    # 40 lanes over [0.1, 100], with the fixed point a = 1 of f for mu = 1,
    # and 9 lanes across the bracket of the scan, which march furthest
    nl = canonical_family(*case)
    amps = np.concatenate((np.logspace(-1, 2, 40), np.linspace(*_auto_bracket(nl, grid30), 9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        over = _classify_shot(nl, grid30, amps)
    assert over.tolist() == [march_overshoots(nl, grid30, a) for a in amps]


def _scan_amplitudes(nl):
    """The 255 amplitudes of the scan of _auto_bracket: log spaced up to 100
    from the last amplitude whose centre is not a maximum, f(a) <= a, below
    the first one on a ladder of 100 a decade from 1e-12."""
    ladder = np.logspace(-12, 2, 1401)
    first = int(np.argmax(nl.f(ladder) > ladder))
    assert first > 0 and nl.f(ladder[first - 1]) <= ladder[first - 1]
    return np.geomspace(ladder[first - 1], 100.0, 255)


@pytest.mark.parametrize("case", GROUND_CASES + [(1.0, 2.5, 0.0), (1.0, 5.5, 0.0)])
def test_pruned_scan_gives_the_unpruned_bracket(case, grid30):
    # the scan marches its 255 lanes together and drops each lane once it is
    # decided; marched alone to its own decision, every lane gets the same
    # label, and the first transition is the bracket of _auto_bracket
    nl = canonical_family(*case)
    amps = _scan_amplitudes(nl)
    over = np.array([march_overshoots(nl, grid30, a) for a in amps])
    assert _classify_shot(nl, grid30, amps).tolist() == over.tolist()
    # the lowest lane's centre is not a maximum, so it undershoots
    assert not over[0]
    i = int(np.flatnonzero(~over[:-1] & over[1:])[0])
    assert _auto_bracket(nl, grid30) == (amps[i], amps[i + 1])


def test_scan_without_transition_raises(grid30):
    # f(a) > a from a = 50 up, but the ground state of mu=0.02, q=3 is 50
    # times mu=1's, amplitude 210, above the scan's 100: every lane undershoots
    nl = canonical_family(0.02, 3.0, 0.0)
    for grid in (make_grid(30.0, 750), grid30):
        assert not _classify_shot(nl, grid, _scan_amplitudes(nl)).any()
        with pytest.raises(BracketFailure,
                           match="^no undershoot/overshoot transition on the amplitude scan$"):
            shoot_ground_state(nl, grid)


def test_grid_bubbles_on_the_scan_raise_resolution_failure(grid30):
    # the scan's transition is a grid bubble's: its core spans about 0.2 h,
    # and A - 6V misses 0 by about A; on grid30 the n=750 level is a bubble
    # too, so the shot falls back to grid30's own scan, which ends in one
    for case, grid, bubble in [
        ((1.0, 2.3, 0.5), grid30, r"17\.66 with .* = 0\.203 h at h = 0\.01, .* = 1 "),
        ((1.0, 5.5, 0.0), make_grid(30.0, 750),
         r"9\.896 with .* = 0\.213 h at h = 0\.04005, .* = 1\.01 "),
    ]:
        nl = canonical_family(*case)
        assert _classify_shot(nl, grid, _scan_amplitudes(nl)).any()
        with pytest.raises(ResolutionFailure, match=r"grid bubble: omega\(0\) = " + bubble):
            shoot_ground_state(nl, grid)


def test_graft_gap_exceeds_the_widest_scan_spacing():
    # the scan spaces its lanes log-evenly from at least 1e-12 up to 100, so
    # the two bracketing lanes agree to _GRAFT_GAP at the centre and the
    # graft's leading run always holds it
    widest = (100.0 / 1e-12) ** (1.0 / 254) - 1.0
    assert widest < limit_solver._GRAFT_GAP
    for case in GROUND_CASES + [(20.0, 2.2, 1.0)]:
        amps = _scan_amplitudes(canonical_family(*case))
        assert np.max(amps[1:] / amps[:-1]) - 1.0 <= widest


# the scans whose record is checked against reference_march
SCAN_RECORD_CASES = ([(c, 30.0, n) for n in (750, 3000) for c in GROUND_CASES]
                     + [((1.0, 2.5, 0.0), 30.0, 3000), ((1.0, 5.5, 0.0), 30.0, 3000),
                        ((20.0, 2.2, 1.0), 40.0, 750)])


@pytest.mark.parametrize("case, R, n", SCAN_RECORD_CASES)
def test_one_march_shot_is_bitwise_the_two_march_reference(case, R, n, grid30):
    # the pair read from the scan's record is the second march of the two
    # bracketing lanes, NaN after each lane's deciding node included, so the
    # graft and the Newton solve, and with them the single-level shot, are
    # unchanged
    nl = canonical_family(*case)
    grid = grid30 if n == 3000 else make_grid(R, n)
    assert np.array_equal(limit_solver._bracketing_pair(nl, grid), reference_pair(nl, grid),
                          equal_nan=True)
    shot = limit_solver._scan_shot(nl, grid)[0]
    assert np.array_equal(shot.values, reference_shoot_ground_state(nl, grid).values)
    if n == 750:
        # below the ladder floor the shot is the single-level shot
        assert np.array_equal(shoot_ground_state(nl, grid).values, shot.values)


@pytest.mark.parametrize("case", GROUND_CASES + [(1.0, 2.5, 0.0)])
def test_nested_shot_is_the_single_level_shot(case, grid30, ground_shots):
    # the shot at n=3000 Newton-solves the prolonged n=750 shot; both solve
    # the grid equation to _SHOT_TOL, measured at most 4.6e-13 relative H1
    # apart (q=5)
    nl = canonical_family(*case)
    shot = ground_shots[case] if case in ground_shots else shoot_ground_state(nl, grid30)
    assert _h1_gap(shot, limit_solver._scan_shot(nl, grid30)[0]) <= 1e-11


def test_shot_falls_back_to_the_fine_scan(grid30):
    # the n=750 scan of q=5.5 ends in a grid bubble, so the shot at n=3000
    # is its own grid's scan, bit for bit
    nl = canonical_family(1.0, 5.5, 0.0)
    with pytest.raises(ResolutionFailure):
        limit_solver._scan_shot(nl, make_grid(30.0, 750))
    assert np.array_equal(shoot_ground_state(nl, grid30).values,
                          limit_solver._scan_shot(nl, grid30)[0].values)


def test_bubble_on_coarse_levels_falls_back_to_the_fine_scan():
    # mu=1, q=5, cw=1 is a grid bubble at n=750 and n=3000 (core 0.2 h) and
    # resolved at n=12000, where the shot converges from its own scan:
    # omega(0) = 9.8405 (measured)
    nl = canonical_family(1.0, 5.0, 1.0)
    for n in (750, 3000):
        with pytest.raises(ResolutionFailure, match="grid bubble"):
            limit_ground_state(nl, make_grid(30.0, n))
    gs = limit_ground_state(nl, make_grid(30.0, 12000))
    assert gs.levels == (12000,)
    assert gs.omega.values[0] == pytest.approx(9.8405, rel=1e-4)
    assert gs.residual <= limit_solver._SHOT_TOL


def test_grid_independent_bracket_failure_is_raised_once(monkeypatch):
    # f(a) <= a at every amplitude up to 100 on any grid, so the shot at
    # n=12000 raises from the n=750 scan and scans no finer level
    calls = []
    scan = limit_solver._auto_bracket

    def counted(nl, grid, *args, **kwargs):
        calls.append(grid.n)
        return scan(nl, grid, *args, **kwargs)

    monkeypatch.setattr(limit_solver, "_auto_bracket", counted)
    with pytest.raises(BracketFailure, match="the centre is a minimum at every amplitude"):
        shoot_ground_state(canonical_family(1e-6, 2.2, 0.0), make_grid(30.0, 12000))
    assert calls == [750]


def test_one_march_per_shot(grid30, monkeypatch):
    # the scan's march records the bracketing lanes, so a shot marches once,
    # on the coarsest grid of the ladder; q=5.5 has no transition at n=750,
    # so its shot at n=3000 marches once more, on its own grid
    calls = []
    march = limit_solver._classify_shot

    def counted(nl, grid, *args, **kwargs):
        calls.append(grid.n)
        return march(nl, grid, *args, **kwargs)

    monkeypatch.setattr(limit_solver, "_classify_shot", counted)
    for case, grid, marched in [((1.0, 3.0, 0.0), make_grid(30.0, 750), [750]),
                                ((1.0, 3.0, 0.0), grid30, [750]),
                                ((1.0, 5.5, 0.0), grid30, [750, 3000])]:
        calls.clear()
        shoot_ground_state(canonical_family(*case), grid)
        assert calls == marched, case


def test_march_record_is_linear_in_n(grid30):
    # the record holds the march's blocks, each _BLOCK + 1 nodes of the lanes
    # live at its start, not a dense (n, 255) array; a lane decided inside a
    # block keeps its tail there.  mu=1, q=2.5, cw=0 keeps the most lanes live
    # longest of the cases measured: 32.0 n values at n=3000 with _BLOCK = 16,
    # against 29.5 n up to each lane's deciding node (the ground cases: 10.0 n
    # to 20.0 n)
    record = {}
    _auto_bracket(canonical_family(1.0, 2.5, 0.0), grid30, record)
    assert sum(block.size for _, _, block in record["blocks"]) <= 40 * grid30.n


@pytest.mark.parametrize("case, R, n", SCAN_RECORD_CASES)
def test_march_record_gives_every_lane(case, R, n, grid30):
    # every lane of the scan, read from the block record up to the node that
    # decides it (_marched_lane, which _bracketing_pair reads too), is the
    # dense march of reference_march bit for bit, NaN beyond that node
    nl = canonical_family(*case)
    grid = grid30 if n == 3000 else make_grid(R, n)
    amps, record = _scan_amplitudes(nl), {}
    over = _classify_shot(nl, grid, amps, record)
    dense = np.full((grid.n, amps.size), np.nan)
    assert over.tolist() == reference_march(nl, grid, amps, out=dense).tolist()
    for j in range(amps.size):
        lane = _marched_lane(record, j)
        assert lane.tobytes() == dense[:lane.size, j].tobytes(), j
        assert np.isnan(dense[lane.size:, j]).all(), j


def _wavy_cubic_with_logs(s):
    """_wavy_cubic without its clamp: ln s of every value, so f warns on the
    negative values of a lane past its overshoot, and 0 where s <= 0."""
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.0, s**3 * (1.0 + 0.95 * np.sin(6.0 * np.log(s))), 0.0)


def _odd_quintic(s):
    """s^3 + s^5 on both half-lines: past an overshoot from a = 100 at n=750
    a lane swings to -2.7e6, 9.7e28 and -9.0e141, and overflows a node later.
    A canonical lane does not: f vanishes on negatives, so past an overshoot
    the recurrence is linear, and on the 188 scans of the robustness matrix
    the largest value a block holds is 1.9e7 (mu=20, q=5.5, cw=1 on
    R=40, n=750)."""
    s = np.asarray(s, dtype=float)
    return s**3 + s**5


@pytest.mark.parametrize("f, n, tail", [(_odd_quintic, 750, "overflows"),
                                        (_wavy_cubic_with_logs, 3000, "goes negative")])
def test_lanes_marched_past_their_decision_raise_no_warning(f, n, tail):
    # a lane decided inside a block marches on to the block's end; its values
    # there are never read, and the warnings of f and of the recurrence on
    # them stay inside the march
    nl, grid = user_nonlinearity(f, mu=0.01, q=4.0), make_grid(30.0, n)
    amps, record = _scan_amplitudes(nl), {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        over = _classify_shot(nl, grid, amps, record)
    assert over.tolist() == [march_overshoots(nl, grid, a) for a in amps]
    blocks = [block for _, _, block in record["blocks"]]
    if tail == "overflows":
        assert any(np.isinf(block).any() for block in blocks)
    else:
        assert any((block < 0.0).any() for block in blocks)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
            f(-1.0)


@pytest.mark.parametrize("case, n", [(c, n) for n in (750, 3000) for c in GROUND_CASES]
                         + [((1.0, 2.5, 0.0), 3000), ((1.0, 5.5, 0.0), 3000)])
def test_shot_is_the_newton_solved_flow_state(case, n, grid30, ground_shots):
    # both routes solve the grid equation, so the shot equals the flow's omega
    # Newton-solved at lam = 0, which the flow route's own finish already is
    # (the solve takes 0 steps); measured: at most 8.6e-13 relative H1
    # (mu=20, q=3, cw=1)
    nl = canonical_family(*case)
    grid = grid30 if n == 3000 else make_grid(30.0, n)
    on_grid30 = n == 3000 and case in ground_shots
    shot = ground_shots[case] if on_grid30 else shoot_ground_state(nl, grid)
    flow = solve_at_lambda(minimize_on_M(nl, grid).omega, nl, 0.0).u
    assert _h1_gap(shot, flow) <= 1e-9


@pytest.mark.parametrize("case, n", [(c, 3000) for c in GROUND_CASES]
                         + [((1.0, 4.0, 0.0), 12000)])
def test_routes_reach_the_same_discrete_solution(case, n, grid30):
    # the flow route ends in the shot's lam = 0 Newton solve, so both records
    # hold the ground state of the same grid equation; measured: b at most
    # 3.0e-15 relative and omega 8.5e-13 relative H1 apart (mu=20, q=3, cw=1)
    nl = canonical_family(*case)
    grid = grid30 if n == 3000 else make_grid(30.0, n)
    flow, shot = minimize_on_M(nl, grid), limit_ground_state(nl, grid)
    assert abs(flow.b_value - shot.b_value) <= 1e-12 * shot.b_value
    assert _h1_gap(flow.omega, shot.omega) <= 1e-10


@pytest.mark.parametrize("case", GROUND_CASES)
def test_shot_amplitude_converges_to_the_continuum_transition(case, grid30, ground_shots):
    # the amplitude of the grid equation's ground state against the transition
    # of the continuum shots of solve_ivp; measured relative gaps at n=750 and
    # 3000: q=3 8.3e-4 and 8.9e-5, q=4 2.2e-3 and 3.6e-4, q=5 1.5e-2 and
    # 1.4e-3, mu=20, q=3, cw=1 8.3e-4 and 8.9e-5.  The bounds are twice the
    # largest gap on each grid, and each gap falls by at least 4 (measured:
    # 6.1 to 10.7).  Up to r = 5 the profiles lie as close to the continuum
    # shot, relative to a (measured: at most 1.1e-2 and 1.4e-3)
    nl = canonical_family(*case)
    shots = {750: shoot_ground_state(nl, make_grid(30.0, 750)), 3000: ground_shots[case]}
    a_fine = shots[3000].values[0]
    a_lo, a_hi = 0.99 * a_fine, 1.01 * a_fine
    assert shot_label(nl, a_lo, grid30.R) == "undershoot"
    assert shot_label(nl, a_hi, grid30.R) == "overshoot"
    a = bisect_amplitude(nl, a_lo, a_hi, grid30.R)
    continuum = shot_dense(nl, a, grid30.R)
    gaps = {}
    for n, w in shots.items():
        r = w.grid.nodes
        inner = (r > 0.0) & (r <= 5.0)
        assert np.max(np.abs(w.values[inner] - continuum(r[inner])[0])) <= {750: 3e-2, 3000: 3e-3}[n] * a
        gaps[n] = abs(w.values[0] - a) / a
    assert gaps[750] <= 3e-2 and gaps[3000] <= 3e-3
    assert gaps[3000] <= gaps[750] / 4.0


@pytest.mark.parametrize("case", GROUND_CASES)
def test_shot_amplitude_matches_bisection_oracle(case, grid30, ground_shots):
    # the Newton solve takes the shot from the prolonged n=750 shot, 0.07 to
    # 1.6 % off in amplitude, onto the transition that one-lane bisection of
    # the reference march finds from the scan's bracket on grid30; measured:
    # at most 4.1e-13 relative (q=5, whose solve stops at residual 1.7e-12)
    nl = canonical_family(*case)
    a_ref = march_transition(nl, grid30, *_auto_bracket(nl, grid30))
    assert ground_shots[case].values[0] == pytest.approx(a_ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", GROUND_CASES)
def test_shooting_amplitude_within_1e11_of_tight_transition(case, grid30, ground_shots):
    # the march has no integration error, so its undershoot/overshoot
    # transition is the grid equation's own; the Newton solve, not the
    # scan's bracket, sets the amplitude, and it lies within 1e-11 of that
    # transition (measured: within 4.1e-13 at n=3000)
    nl = canonical_family(*case)
    a = ground_shots[case].values[0]
    assert _classify_shot(nl, grid30, [a * (1.0 - 1e-11), a * (1.0 + 1e-11)]).tolist() == [
        False, True]


def test_small_amplitude_shoots_from_the_scan():
    # the scan starts where the centre of mu=20, q=2.2, cw=1 may first be a
    # maximum, at a = 3.1e-7, so it brackets the transition near 1.37e-6 that
    # a scan over [0.1, 100] missed; the level is the continuum one, measured
    # 1.51214e-11 at n=750 and 1.51217e-11 at n=3000
    nl = canonical_family(20.0, 2.2, 1.0)
    grid = make_grid(40.0, 750)
    a_lo, a_hi = _auto_bracket(nl, grid)
    assert 1e-6 < a_lo < 1.37e-6 < a_hi < 1e-5
    w = shoot_ground_state(nl, grid)
    assert energy(w, nl, 0.0).I_value == pytest.approx(1.5121e-11, rel=1e-3)


def test_small_state_shot_is_the_tight_solve():
    # |omega_0|_H1 = 1.8e-5, so an absolute stop at the coupled solver's 1e-9
    # left the shot 7.6e-6 relative H1 from the solve run on to 1e-16; the
    # shot's own stop, _SHOT_TOL, leaves it 4.7e-8 away (measured)
    nl = canonical_family(20.0, 2.2, 1.0)
    shot = shoot_ground_state(nl, make_grid(40.0, 750))
    assert _h1_gap(shot, solve_at_lambda(shot, nl, 0.0, SolverOptions(tol=1e-16)).u) <= 1e-6


def test_shooting_profile_positive_decreasing(shot_cubic):
    w = shot_cubic
    assert np.all(w.values[:-1] > 0)
    assert np.all(np.diff(w.values[:-1]) < 1e-12)


def test_stagnation_on_tiny_budget(grid30, nl_cubic, monkeypatch):
    # after 3 flow steps the projected gradient is still 1.25 in the dual norm
    monkeypatch.setattr(limit_solver, "_FLOW_MAX_ITER", 3)
    with pytest.raises(Stagnation):
        minimize_on_M(nl_cubic, grid30)


@pytest.mark.parametrize("case, R", [(c, 30.0) for c in GROUND_CASES] + [((20.0, 2.2, 1.0), 40.0)])
def test_flow_handover_gives_the_tight_flow_ground_state(case, R, monkeypatch):
    # the Newton finish from the relative handover lands on the ground state
    # of a flow run 200x tighter; on R=40 with q=2.2, |grad u|_2 is 0.054,
    # and the flow's state fills the ball (t0 = 0.022) far from omega_0,
    # whose amplitude is 1.4e-6: the finish fails from either handover
    nl = canonical_family(*case)
    grid = make_grid(R, 750)
    if case == (20.0, 2.2, 1.0):
        with pytest.raises(PositivityLoss):
            minimize_on_M(nl, grid)
        monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 1e-4)
        with pytest.raises(NonConvergence):
            minimize_on_M(nl, grid)
        return
    gs = minimize_on_M(nl, grid)
    monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 1e-4)
    tight = minimize_on_M(nl, grid)
    assert abs(gs.b_value - tight.b_value) <= 1e-10
    assert np.max(np.abs(gs.omega.values - tight.omega.values)) <= 1e-10


@pytest.mark.parametrize("n", [750, 3000])
@pytest.mark.parametrize("case", GROUND_CASES)
def test_handover_stops_the_same_flow_earlier(case, n, monkeypatch):
    # the handover only decides where the flow stops: on every level of the
    # ladder, the state returned after k steps is the k-th accepted iterate
    # of the same flow run on to the tighter handover 0.02
    nl = canonical_family(*case)
    flow = limit_solver._flow
    runs = []

    def recorded(u, nl):
        out = flow(u, nl)
        runs.append((u, out))
        return out

    monkeypatch.setattr(limit_solver, "_flow", recorded)
    limit_solver._ladder(nl, make_grid(30.0, n))
    assert [start.grid.n for start, _ in runs] == {750: [750], 3000: [750, 3000]}[n]
    monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 0.02)
    projected_gradient = limit_solver._projected_gradient
    for start, (u, k) in runs:
        # the flow takes one projected gradient at each accepted iterate,
        # the projected start first
        iterates = []
        monkeypatch.setattr(limit_solver, "_projected_gradient",
                            lambda v, nl: iterates.append(v) or projected_gradient(v, nl))
        _, k_tight = flow(start, nl)
        assert k <= k_tight == len(iterates) - 1
        assert np.array_equal(u.values, iterates[k].values)


@pytest.mark.parametrize("case", GROUND_CASES)
def test_handover_keeps_the_ground_state_of_the_tighter_handover(case, monkeypatch):
    nl, grid = canonical_family(*case), make_grid(30.0, 3000)
    gs = minimize_on_M(nl, grid)
    monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 0.02)
    tight = minimize_on_M(nl, grid)
    assert abs(gs.b_value - tight.b_value) <= 1e-12 * tight.b_value
    assert _h1_gap(gs.omega, tight.omega) <= 1e-10
    assert gs.iterations < tight.iterations


def _count_projected_gradients(monkeypatch) -> list:
    calls = []
    projected_gradient = limit_solver._projected_gradient

    def counted(u, nl):
        calls.append(1)
        return projected_gradient(u, nl)

    monkeypatch.setattr(limit_solver, "_projected_gradient", counted)
    return calls


def test_iterations_count_flow_steps(grid30, nl_cubic, ground_cubic, monkeypatch):
    # every pass of the flow on each of the L levels takes one projected
    # gradient, and the Newton finish none, so k accepted steps over L levels
    # take k + L; grid30 runs the ladder 750 -> 3000
    calls = _count_projected_gradients(monkeypatch)
    gs = minimize_on_M(nl_cubic, grid30)
    assert gs.levels == (750, 3000)
    assert gs.iterations == len(calls) - 2 == ground_cubic.iterations
    assert ground_cubic.iterations > 0
    # a start that already meets the handover takes no flow step on any level
    # (the Newton finish from that start, the initial bump, loses positivity)
    calls.clear()
    monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 1e9)
    assert limit_solver._ladder(nl_cubic, grid30)[1] == 0
    assert len(calls) == 2


def test_iterations_count_flow_steps_on_one_level(nl_cubic, monkeypatch):
    # below the ladder floor one level runs: k accepted steps take k + 1
    grid = make_grid(30.0, 750)
    calls = _count_projected_gradients(monkeypatch)
    gs = minimize_on_M(nl_cubic, grid)
    assert gs.levels == (750,)
    assert gs.iterations == len(calls) - 1 > 0
    calls.clear()
    monkeypatch.setattr(limit_solver, "_FLOW_HANDOVER", 1e9)
    assert limit_solver._ladder(nl_cubic, grid)[1] == 0
    assert len(calls) == 1


def _h1_gap(a, b) -> float:
    """|a - b|_H1 / |b|_H1 of two fields on one grid."""
    return math.sqrt(h1_norm_sq(a - b) / h1_norm_sq(b))


@pytest.mark.parametrize("case, n", [(c, 3000) for c in GROUND_CASES]
                         + [((1.0, 2.5, 0.0), 3000), ((1.0, 5.5, 0.0), 3000),
                            ((1.0, 4.0, 0.0), 12000)])
def test_ladder_matches_the_direct_solve(case, n, monkeypatch):
    nl = canonical_family(*case)
    grid = make_grid(30.0, n)
    laddered = minimize_on_M(nl, grid)
    monkeypatch.setattr(limit_solver, "_LADDER_FLOOR", n + 1)
    assert laddered.levels == {3000: (750, 3000), 12000: (750, 3000, 12000)}[n]
    if case == (1.0, 5.5, 0.0):
        # the one-grid flow of q=5.5 hands over where the Newton finish fails
        with pytest.raises(NonConvergence, match="line search failed"):
            minimize_on_M(nl, grid)
        return
    direct = minimize_on_M(nl, grid)
    assert direct.levels == (n,)
    assert abs(laddered.b_value - direct.b_value) <= 1e-12 * direct.b_value
    assert _h1_gap(laddered.omega, direct.omega) <= 1e-10


@pytest.mark.parametrize("case", GROUND_CASES + [(1.0, 5.5, 0.0), (0.5, 4.0, 1.0)])
def test_below_the_ladder_floor_the_state_is_the_one_level_solve(case):
    # n=750 runs no ladder: every field and figure equals the flow of one
    # level, and a failure is the same failure
    grid = make_grid(30.0, 750)
    nl = canonical_family(*case)
    try:
        want = reference_minimize_on_M(nl, grid)
    except SolverFailure as failure:
        with pytest.raises(type(failure), match=f"^{re.escape(str(failure))}$") as err:
            minimize_on_M(nl, grid)
        assert type(err.value) is type(failure)
        return
    _assert_same_state(minimize_on_M(nl, grid), want)


def _assert_same_state(got, want):
    assert np.array_equal(got.u.values, want.u.values)
    assert np.array_equal(got.omega.values, want.omega.values)
    for field in ("M_value", "p_value", "b_value", "t0_dilation", "t_star", "iterations",
                  "levels", "residual"):
        assert getattr(got, field) == getattr(want, field), field


def _count_initial_bumps(monkeypatch) -> list[int]:
    """The n of every grid that _initial_bump starts a flow on."""
    calls = []
    bump = limit_solver._initial_bump

    def counted(nl, grid):
        calls.append(grid.n)
        return bump(nl, grid)

    monkeypatch.setattr(limit_solver, "_initial_bump", counted)
    return calls


def test_failed_ladder_raises_the_direct_failure(monkeypatch):
    # the Newton finish fails from the flow on the fine grid alone too, with
    # its own message
    nl, grid = canonical_family(2.0, 4.0, 1.0), make_grid(30.0, 3000)
    with pytest.raises(NonConvergence):
        reference_minimize_on_M(nl, grid)
    calls = _count_initial_bumps(monkeypatch)
    with pytest.raises(NonConvergence):
        minimize_on_M(nl, grid)
    assert calls == [750]


def test_failed_ladder_is_the_outcome(monkeypatch):
    # the ladder's Newton finish fails at mu=0.5, q=4, cw=1; the flow on the
    # fine grid alone from the initial bump is not run again
    calls = _count_initial_bumps(monkeypatch)
    with pytest.raises(NonConvergence, match="line search failed"):
        minimize_on_M(canonical_family(0.5, 4.0, 1.0), make_grid(30.0, 3000))
    assert calls == [750]


def test_handover_on_the_last_allowed_step_is_accepted(grid30, nl_cubic, ground_cubic,
                                                        monkeypatch):
    monkeypatch.setattr(limit_solver, "_FLOW_MAX_ITER", ground_cubic.iterations)
    gs = minimize_on_M(nl_cubic, grid30)
    assert gs.iterations == ground_cubic.iterations
    assert gs.b_value == ground_cubic.b_value


def test_coarse_grid_q5_level_matches_fine_grid():
    # at n=750 the flow hands over after 12 steps, and the Newton finish
    # solves the grid equation: b = 9.5879 against 9.5829 at n=3000
    nl = canonical_family(1.0, 5.0, 0.0)
    coarse = minimize_on_M(nl, make_grid(30.0, 750)).b_value
    fine = minimize_on_M(nl, make_grid(30.0, 3000)).b_value
    assert coarse == pytest.approx(fine, rel=1e-3)


def test_coarse_grid_flow_certificate_is_not_vacuous():
    # the flow's q=5.5 state at n=750 has a projected gradient whose pairing
    # dual_norm clips from -3.9e-4 to 0 while max |pg| is about 1e4; the
    # certificate is the Newton solve's residual, and the solve fails there
    nl = canonical_family(1.0, 5.5, 0.0)
    with pytest.raises(NonConvergence):
        minimize_on_M(nl, make_grid(30.0, 750))


@pytest.mark.parametrize("cw", [0.0, 1.0])
def test_flow_record_whose_dilation_leaves_the_ball_keeps_its_level(cw):
    # mu=20, q=2.5 on R=20: the Newton finish converges on the shot's
    # omega_0 (b = 5.0914e-4), whose dilation onto {V = 1} stalls at
    # |V - 1| = 1.42e-11 in project_to_M; the record leaves u None, as the
    # shot's does, and only checks._constraint_on_M fails on it
    nl, grid = canonical_family(20.0, 2.5, cw), make_grid(20.0, 750)
    with pytest.raises(InitializationFailure, match="projection stalled"):
        project_to_M(limit_ground_state(nl, grid).omega, nl)
    gs = minimize_on_M(nl, grid)
    assert gs.u is None and gs.iterations > 0
    assert gs.b_value == pytest.approx(limit_ground_state(nl, grid).b_value, rel=1e-12, abs=0)


def test_limit_ground_state_is_the_shot(nl_cubic, grid30, shot_cubic, ground_cubic):
    # the record is the shot's omega_0 with its levels, and runs no flow
    gs = limit_ground_state(nl_cubic, grid30)
    assert np.array_equal(gs.omega.values, shot_cubic.values)
    assert gs.residual == dual_norm(grid30, gradient_residual(gs.omega, nl_cubic, 0.0)[0].values)
    assert gs.residual <= limit_solver._SHOT_TOL
    mp = mountain_pass_b(gs.omega, nl_cubic)
    assert (gs.b_value, gs.t_star) == (mp.b, mp.t_star)
    terms = scaling_terms(gs.omega, nl_cubic)
    assert gs.t0_dilation == terms.V ** (1.0 / 3.0)
    # M in closed form: the level of omega_0 dilated onto {V = 1}, which
    # the record does not build; the level of the resampled dilation lies
    # 3.8e-6 below it (measured), the order of omega_0's Pohozaev defect
    assert gs.u is None
    assert gs.M_value == 0.5 * terms.A / gs.t0_dilation
    u = project_to_M(gs.omega, nl_cubic)
    assert gs.M_value == pytest.approx(0.5 * grad_norm_sq(u), rel=1e-5)
    assert gs.p_value == pytest.approx(2.0 * math.sqrt(3.0) / 9.0 * gs.M_value**1.5, rel=1e-15)
    assert gs.levels == (750, 3000)
    assert gs.iterations == 0
    # the flow route ends in the same Newton solve (test_routes_reach_the_same_discrete_solution)
    assert gs.b_value == pytest.approx(ground_cubic.b_value, rel=1e-6)
    assert ground_cubic.residual <= limit_solver._SHOT_TOL


def test_limit_ground_state_records_the_levels_the_shot_ran_on(nl_cubic, grid30, monkeypatch):
    # a failed coarse route falls back to the fine grid's own scan, so the
    # shot ran on one level
    newton = limit_solver._shot_newton

    def fine_only(u, nl):
        if u.grid.n == 3000 and 3000 not in scanning:
            raise sp_solver.NonConvergence("stub")
        return newton(u, nl)

    scan = limit_solver._scan_shot

    def scanned(nl, grid):
        scanning.append(grid.n)
        return scan(nl, grid)

    scanning = []
    monkeypatch.setattr(limit_solver, "_shot_newton", fine_only)
    monkeypatch.setattr(limit_solver, "_scan_shot", scanned)
    assert limit_ground_state(nl_cubic, grid30).levels == (3000,)
    assert scanning == [750, 3000]


def test_continuation_anchored_on_the_shot_takes_no_newton_step_at_zero(nl_cubic, grid30,
                                                                        monkeypatch):
    gs = limit_ground_state(nl_cubic, grid30)
    solves = []
    solve = sp_solver.solve_at_lambda

    def recorded(u, nl, lam, opts=None):
        point = solve(u, nl, lam, opts)
        solves.append((lam, point.iterations))
        return point

    monkeypatch.setattr(sp_solver, "solve_at_lambda", recorded)
    sp_solver.continuation(nl_cubic, [0.05], gs)
    assert solves[0] == (0.0, 0)


def test_grid_bubble_raises_resolution_failure():
    # the shot of mu=0.25, q=3, cw=1 at n=750 solves the grid equation to a
    # grid bubble: its core spans 0.2 h, and A - 6V misses 0 by 1.01 A
    # (0.9993 A to 1.014 A on the bubbles of the robustness matrix); the
    # shot raises where its Newton solve ends, and the record with it
    nl, grid = canonical_family(0.25, 3.0, 1.0), make_grid(30.0, 750)
    for solve in (shoot_ground_state, limit_ground_state):
        with pytest.raises(ResolutionFailure, match=(
                r"omega\(0\) = 7\.432 with core width .* = 0\.202 h at h = 0\.04005, "
                r"Pohozaev defect \|A - 6V\| / A = 1\.01 \(above 0\.1\)")):
            solve(nl, grid)


@pytest.mark.parametrize("case", GROUND_CASES + [(20.0, 2.5, 0.0)])
def test_resolved_shots_pass_the_resolution_guard(case, grid30):
    # a resolved omega_0 meets A = 6V up to O(h^2), far below the guard
    nl = canonical_family(*case)
    terms = scaling_terms(limit_ground_state(nl, grid30).omega, nl)
    assert abs(terms.A - 6.0 * terms.V) / terms.A <= 1e-3 * limit_solver._RESOLUTION_DEFECT


def _wavy_cubic(s):
    """s^3 (1 + 0.95 sin(6 ln s)) for s > 0 and 0 below: f'(a) < 0 at the
    centre a = 1.9316 of its ground state at mu=0.01, q=4 on make_grid(30,
    3000), so omega_0 has no core width 1/sqrt(f'(a))."""
    s = np.maximum(np.asarray(s, dtype=float), 1e-300)
    return s**3 * (1.0 + 0.95 * np.sin(6.0 * np.log(s)))


NO_CORE = r"omega\(0\) = 1\.932 with f'\(omega\(0\)\) = -11\.18 <= 0"


def test_resolution_failure_names_a_centre_without_core_width(grid30, monkeypatch):
    # every shot fails the resolution test at a negative threshold; its
    # message reports f'(omega(0)) <= 0 instead of taking its square root
    nl = user_nonlinearity(_wavy_cubic, mu=0.01, q=4.0)
    monkeypatch.setattr(limit_solver, "_RESOLUTION_DEFECT", -1.0)
    with pytest.raises(ResolutionFailure, match=f"grid bubble: {NO_CORE} at h = 0\\.01, "):
        limit_ground_state(nl, grid30)


def test_compactness_failure_names_a_centre_without_core_width(grid30, monkeypatch):
    # a threshold c* = 0 puts every level at or above it
    nl = user_nonlinearity(_wavy_cubic, mu=0.01, q=4.0)
    monkeypatch.setattr(checks, "compactness_threshold", lambda cw: 0.0)
    with pytest.raises(checks.CompactnessFailure, match=f"c\\* = 0; {NO_CORE}$"):
        checks.ground_state(RunConfig(mu=0.01, q=4.0), nl, grid30)
