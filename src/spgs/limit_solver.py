"""Ground states of the uncoupled limit problem -Delta u + u = f(u).

Two routes to the ground state omega_0 of the grid equation
-Delta_h u + u = f(u), which end in the same Newton solve at lam = 0
(_shot_newton), so both carry omega_0's lam = 0 residual as their
certificate and reach the same discrete solution.  The method of record
(limit_ground_state) shoots the grid equation itself (scan, graft, and the
Newton solve that sets the amplitude).  The second route (minimize_on_M),
which no subcommand runs, starts that solve from a dilation-projected
constrained flow on the set {int G(u) = 1}, rescaled onto the Pohozaev
manifold by the Coleman-Glazer-Martin dilation.  Both run on a ladder of 4x coarser grids
(nested iteration): the flow hands its state on from the coarsest level,
and the shot scans only there and Newton-solves once per finer level.  The
least-energy and mountain-pass levels and their interrelations follow from
the scaling terms of omega_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .functionals import ScalingTerms, T0_value, V_value, scaling_terms
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    dual_norm,
    grad_norm_sq,
    integrate_values,
    laplacian_apply,
    make_grid,
    monotone_slopes,
    solve_riesz,
)
from .nonlinearity import Nonlinearity

# resampled dilations project_to_M may try; flows at n >= 750 need five at most
_PROJECTION_STEPS = 8

# the flow hands over to the Newton solve at lam = 0 once the dual norm of the
# projected gradient is at most this fraction of |grad u|_2, which bounds the
# dual norm of T0'(u) = -Delta u, so the test does not depend on the scale of
# the problem.  It sets only where the flow stops, never its iterates.  On
# mu in {0.25, 1, 5, 20} x q in {2.2, 2.5, 3, 4, 5, 5.5} x cw in {0, 1} on
# (R, n) in {(30, 750), (30, 3000), (40, 750), (20, 750), (30, 12000)}, 125
# of the 240 converge at 0.05 in 2 246 flow steps, each on the shot's omega_0
# (b within 3.9e-14 relative); 128 converge at 0.02 in 3 883 steps, 124 at
# 0.07 and 115 at 0.1.  0.05 was set for the bordered polish that finished
# the flow before the Newton solve did
_FLOW_HANDOVER = 0.05

# flow steps per level before Stagnation; mu=1, q=2.5, cw=0 takes 64 on R=30
# at any n from the initial bump
_FLOW_MAX_ITER = 3000

# the flow's line search: at most _FLOW_HALVINGS halvings of the step eta per
# flow step, acceptance on the Armijo decrease _ARMIJO eta slope, and growth
# by _STEP_GROWTH after each accepted step up to _STEP_CAP.  Measured on the
# flows of the `ground` benchmark workload (n=3000) and of the `branch`
# set-up (n=12000): an accepted step takes at most 2 halvings, its decrease
# is at least 0.034 of eta slope, and eta reaches at most 2.25
_FLOW_HALVINGS = 40
_ARMIJO = 1e-4
_STEP_GROWTH = 1.5
_STEP_CAP = 1e3

# nested iteration (Brandt, Math. Comp. 31, 1977), for the flow (_ladder)
# and the shot (_shoot) alike: a grid of n nodes first solves on the grid of
# (n - 1)//4 + 1 nodes over the same R while that grid has at least
# _LADDER_FLOOR nodes (_coarse_grid), so 12000 runs 750 -> 3000 -> 12000 and
# n < 2997 runs one level.  At n=750 the core of q=5 spans 0.77 h; a level at
# n=187 would resolve no core of q >= 4
_LADDER_FLOOR = 750


class SolverFailure(RuntimeError):
    """A solve that did not reach a certified result; the command line maps
    every subclass to exit code 3."""


class InitializationFailure(SolverFailure):
    """No admissible starting bump with positive constraint value was found."""


class Stagnation(SolverFailure):
    """The constrained flow exhausted its iteration budget."""


class BracketFailure(SolverFailure):
    """The amplitude scan of shooting found no undershoot/overshoot transition."""


class _NoMaximum(BracketFailure):
    """f(a) <= a at every amplitude of the scan, so no centre is a maximum
    on any grid: a finer level cannot mend it, and _shoot raises it from the
    coarsest level."""


class ResolutionFailure(SolverFailure):
    """The shot solved the grid equation, but to a grid bubble: a core that
    the grid does not resolve, told by its Pohozaev defect |A - 6V| / A."""


@dataclass
class MountainPassResult:
    b: float
    t_star: float


@dataclass
class LimitGroundState:
    """A limit ground state omega_0 of the grid equation, its levels from its
    scaling terms (_record), and the cost of the route that computed it.
    residual is the dual norm of omega_0's lam = 0 residual, the certificate
    of the Newton solve that both routes end in; levels holds the n of every
    grid the route ran on, coarsest first ((n,) for one level).

    From the shot (limit_ground_state): u is None and iterations 0.  From
    the flow (minimize_on_M): u is omega_0 dilated onto {V = 1}
    (project_to_M), or None where that dilation does not fit the ball, and
    iterations counts the accepted flow steps summed over the levels.
    """

    u: RadialFunction | None
    omega: RadialFunction
    M_value: float
    p_value: float
    b_value: float
    t0_dilation: float
    t_star: float = 1.0
    iterations: int = 0
    levels: tuple[int, ...] = ()
    residual: float = math.nan


def _g_field(nl: Nonlinearity, values: np.ndarray) -> np.ndarray:
    return np.asarray(nl.f(values), dtype=float) - values


def project_to_M(u: RadialFunction, nl: Nonlinearity) -> RadialFunction:
    """Dilate u so that int G(u) = 1 on the grid.

    V scales as t^3 along u(./t), so t = V^(-1/3) projects up to the
    resampling error.  The fixed point t <- t V(u(./t))^(-1/p) removes that
    error, with p = 3 in the first step and then the exponent of V measured
    between the last two dilations: on coarse grids, resampling a narrow
    profile moves it well away from 3.  Each step checks V on the grid.
    Every trial dilates u itself, so the slopes of its monotone cubic are
    built once and shared by all trials.
    """
    t, v, p = 1.0, V_value(u, nl), 3.0
    slopes = monotone_slopes(u)
    for _ in range(_PROJECTION_STEPS):
        if not v > 0:
            raise InitializationFailure(f"constraint value must be positive, got {v}")
        try:
            t_next = t * v ** (-1.0 / p)
        except OverflowError:
            t_next = math.inf
        if not math.isfinite(t_next):
            raise InitializationFailure(
                f"constraint projection diverged: V = {v:.3e} after dilation by {t:.3e}")
        w = dilate(u, t_next, slopes)
        v_next = V_value(w, nl)
        if abs(v_next - 1.0) <= 1e-13:
            return w
        if v_next > 0 and t_next != t:
            p = math.log(v_next / v) / math.log(t_next / t)
        p = p if p > 0 else 3.0
        t, v = t_next, v_next
    raise InitializationFailure(f"constraint projection stalled at |V - 1| = {abs(v - 1.0):.2e}")


def _initial_bump(nl: Nonlinearity, grid: RadialGrid) -> RadialFunction:
    """Scaled compact bump with positive constraint value.

    Amplitude at the sampled maximizer of G; width grown until V > 0.
    """
    s = np.linspace(1e-3, 20.0, 4000)
    gvals = nl.G(s)
    if not np.any(gvals > 0):
        raise InitializationFailure("G never becomes positive on the sampled range")
    # modest amplitude just past the sign change of G; chasing the maximum of
    # G runs into concentration basins for fast-growing nonlinearities
    xi = 2.0 * float(s[np.argmax(gvals > 0)])
    r = grid.nodes
    for rho in np.linspace(1.0, 0.4 * grid.R, 30):
        vals = xi * np.maximum(0.0, 1.0 - (r / rho) ** 2) ** 2
        u = RadialFunction(grid, vals)
        if V_value(u, nl) > 0:
            return u
    raise InitializationFailure("no bump width gave a positive constraint value")


def _projected_gradient(u: RadialFunction, nl: Nonlinearity):
    """T0 gradient with its component along the constraint gradient removed.

    Returns (projected gradient, T0'(u) = -Delta u, V'(u) = f(u) - u).
    """
    grid = u.grid
    t0g = -laplacian_apply(u)
    vg = _g_field(nl, u.values)
    denom = integrate_values(grid, vg * vg)
    theta = integrate_values(grid, t0g * vg) / denom if denom > 0 else 0.0
    pg = t0g - theta * vg
    pg[-1] = 0.0
    return pg, t0g, vg


def _flow(u: RadialFunction, nl: Nonlinearity):
    """Preconditioned projected-gradient descent on {V = 1} from the
    projection of u, with backtracking and dilation reprojection per step,
    until the projected gradient is small relative to |grad u|_2
    (_FLOW_HANDOVER).  A flow that has not reached the handover after
    _FLOW_MAX_ITER steps raises Stagnation.

    Returns (u, accepted steps).
    """
    grid = u.grid
    u = project_to_M(u, nl)

    eta = 1.0
    steps = 0
    t0_here = T0_value(u)
    while True:
        pg, t0g, vg = _projected_gradient(u, nl)
        pg_nrm = dual_norm(grid, pg)
        if pg_nrm <= _FLOW_HANDOVER * math.sqrt(2.0 * t0_here):
            break
        if steps == _FLOW_MAX_ITER:
            raise Stagnation(
                f"constrained flow did not reach tolerance in {_FLOW_MAX_ITER} steps "
                f"(projected gradient {pg_nrm:.3e})"
            )
        # precondition first, then make the step tangent to the constraint in
        # the preconditioned metric; projecting before preconditioning loses
        # tangency and the dilation reprojection cancels the descent
        t0g[-1] = 0.0
        vg[-1] = 0.0
        d1 = solve_riesz(grid, t0g)
        d2 = solve_riesz(grid, vg)
        denom = integrate_values(grid, vg * d2)
        th = integrate_values(grid, vg * d1) / denom if denom != 0.0 else 0.0
        d = d1 - th * d2
        slope = integrate_values(grid, t0g * d)
        if slope <= 0.0:
            break
        accepted = False
        for _ in range(_FLOW_HALVINGS):
            trial = RadialFunction(grid, u.values - eta * d)
            try:
                trial = project_to_M(trial, nl)
            except InitializationFailure:
                eta *= 0.5
                continue
            t0_trial = T0_value(trial)
            if t0_trial < t0_here - _ARMIJO * eta * slope:
                u, t0_here = trial, t0_trial
                eta = min(eta * _STEP_GROWTH, _STEP_CAP)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        steps += 1
    return u, steps


def _coarse_grid(grid: RadialGrid) -> RadialGrid | None:
    """The next level down of nested iteration: the grid of (n - 1)//4 + 1
    nodes over the same R, or None if it has fewer than _LADDER_FLOOR."""
    n_c = (grid.n - 1) // 4 + 1
    return make_grid(grid.R, n_c) if n_c >= _LADDER_FLOOR else None


def _ladder(nl: Nonlinearity, grid: RadialGrid):
    """The flow on grid, started from the handover state of the flow on the
    coarser grid of _coarse_grid, prolonged by the monotone cubic of dilate,
    or from _initial_bump if there is none.

    Returns (u, accepted steps over all levels, n of every level).
    """
    coarse_grid = _coarse_grid(grid)
    if coarse_grid is None:
        start, steps, levels = _initial_bump(nl, grid), 0, ()
    else:
        coarse, steps, levels = _ladder(nl, coarse_grid)
        start = dilate(coarse, 1.0, onto=grid)
    u, k = _flow(start, nl)
    return u, steps + k, levels + (grid.n,)


def _newton_polish(u: RadialFunction, nl: Nonlinearity
                   ) -> tuple[RadialFunction, ScalingTerms, float]:
    """The flow's finish: the shot's Newton solve at lam = 0 (_shot_newton)
    from the flow's state u dilated onto the Pohozaev manifold
    (cgm_rescale).  Returns what _shot_newton returns and raises what it
    raises."""
    return _shot_newton(cgm_rescale(u, nl)[0], nl)


def minimize_on_M(nl: Nonlinearity, grid: RadialGrid) -> LimitGroundState:
    """The ground state omega_0 of the grid equation from constrained
    minimization of T0 over {V = 1}, finished by the shot's Newton solve.

    The constrained flow (_flow) runs to its handover on a ladder of grids
    (_ladder): while the grid of (n - 1)//4 + 1 nodes has at least
    _LADDER_FLOOR nodes, the flow first solves there and hands its state on,
    prolonged, to the finer grid.  The finest level's state, dilated onto the
    Pohozaev manifold, starts the Newton solve at lam = 0 (_newton_polish),
    so the record is the shot's (_record) with u = project_to_M(omega_0), or
    None where that dilation does not fit the ball: the solve has converged,
    and only what measures that dilation (checks._constraint_on_M) fails.  A
    SolverFailure on any level, or of the Newton solve, is the outcome.  The
    state's iterations are its accepted flow steps summed over its levels,
    the n of every grid whose flow ran.
    """
    u, steps, levels = _ladder(nl, grid)
    gs = _record(_newton_polish(u, nl), levels)
    gs.iterations = steps
    try:
        gs.u = project_to_M(gs.omega, nl)
    except InitializationFailure:
        pass  # omega_0 dilated onto {V = 1} does not fit the ball
    return gs


def cgm_rescale(u0: RadialFunction, nl: Nonlinearity) -> tuple[RadialFunction, float]:
    """Coleman-Glazer-Martin dilation mapping the constrained minimizer onto
    the Pohozaev manifold: t = |grad u0|_2 / sqrt(6), omega = u0(./t)."""
    v = V_value(u0, nl)
    if abs(v - 1.0) > 1e-6:
        raise ValueError(f"input is not on the constraint set, V = {v}")
    t = math.sqrt(grad_norm_sq(u0) / 6.0)
    return dilate(u0, t), t


def mountain_pass_b(omega: RadialFunction, nl: Nonlinearity) -> MountainPassResult:
    """Maximum of the limit energy (A/2) t - V t^3 along the dilation path
    through omega, reached at t* = sqrt(A / 6V) with value (A/3) t*.

    For a converged ground state t* = 1 and b = (1/3) |grad omega|_2^2.
    """
    return _mountain_pass(scaling_terms(omega, nl))


def _mountain_pass(terms: ScalingTerms) -> MountainPassResult:
    """mountain_pass_b from the scaling terms of omega at lam = 0."""
    if not terms.V > 0:
        raise ValueError(f"no mountain-pass geometry: int G(omega) = {terms.V} <= 0")
    t_star = terms.peak()
    return MountainPassResult(b=terms.gamma(t_star), t_star=t_star)


# the graft starts at the last node of the leading run where both bracketing
# lanes are positive and differ by at most this fraction of the smaller; the
# scan's lanes are at most (100/1e-12)^(1/254) - 1 = 13.5 % apart, so the
# run always holds the centre
_GRAFT_GAP = 0.2

# the shot's Newton solve stops at this dual-norm residual: the floor is at
# most 6.3e-13 up to n=12000, and at 1e-9 amplitudes end up to 1.2e-10 off
_SHOT_TOL = 1e-11


# nodes per block of the scan's march (_classify_shot).  Median march time
# of the 188 scans of mu in {0.25, 1, 5, 20} x q in {2.2, 2.5, 3, 4, 5, 5.5}
# x cw in {0, 1} on (R, n) in {(30, 750), (40, 750), (20, 750), (30, 3000)},
# 21 repeats, one BLAS thread: 451 ms marched node by node, and 415, 380,
# 364, 353, 354, 376 and 461 ms at 8, 12, 16, 24, 32, 64 and 128 nodes; the
# seven scans of the cli benchmark 10.7 ms, and 8.1 ms at 16.  At 16 one
# scan reads slower, by 11 % (mu=0.25, q=2.2, cw=1 on R=40: 49 nodes, so
# the last block runs 15 past the last decision); at 32, 16 scans read over
# 5 % slower, short marches whose last block runs long
_BLOCK = 16

# lanes of each problem's amplitude scan (_auto_bracket)
_SCAN_LANES = 255


def _classify_shot(nls: list[Nonlinearity], grid: RadialGrid, amps, record: dict | None = None
                   ) -> list[np.ndarray]:
    """Overshoot flags of the shots of the grid equation from the centre
    amplitudes, amps[k] for the nonlinearity nls[k], all problems marched
    together on grid, one lane per amplitude.

    Row i of -Delta_h u + u = f(u) is the two-term recurrence
    u_{i+1} = u_i + [c_{i-1} (u_i - u_{i-1}) + m_i (u_i - f(u_i))] / c_i in
    the conductances c and masses m of the grid, with c_{-1} = 0.  A lane
    overshoots when u_{i+1} <= 0, and undershoots when u_{i+1} > u_i while
    still positive, or when it reaches R with neither.  A centre that is not
    a maximum, f(a) <= a, undershoots at the start.

    The lanes stand in problem order, so each problem's live lanes are one
    contiguous segment, and the compaction keeps that order.  The live lanes
    advance _BLOCK nodes at a time into one (_BLOCK + 1, lanes) array, whose
    row 0 holds their values at the block's first node; per node the block
    pays one call of each live problem's f, on its own segment (on the whole
    row where one problem is live), and the recurrence once for all lanes.
    At the block's end each lane's first deciding node is read from the
    array, and the decided lanes drop out.  A lane decided inside a block
    marches on to the block's end, so f sees values past a lane's decision
    (negative after an overshoot, rising after an undershoot) for at most
    _BLOCK - 1 nodes; those values are never read, and the floating-point
    warnings they raise (overflow, or a log of a negative value in a user's
    f) are silenced; a live lane stays in (0, a] and raises none of its own.
    Every array handed to f is a contiguous row or slice of a row, because
    numpy's SIMD pow gives each element the same bits wherever it sits only
    on contiguous input: so each lane gets the values it would get marched
    alone, bit for bit.

    A dict record receives the march's own arrays, not copies: "amps", all
    problems' amplitudes in order; "starts", the index there of each
    problem's first lane; "blocks", one (first node, live lanes, block)
    triple per block, the block's column k holding lane lanes[k] from its
    first node on (read by _marched_lane); and "last", each lane's last step
    (-1 if never marched).
    """
    fs = [nl.f for nl in nls]
    amps = [np.asarray(a, dtype=float) for a in amps]
    ends = list(accumulate(map(len, amps)))
    starts = [0] + ends[:-1]
    c = grid.conductance
    # u_{i+1} = u_i + alpha_i (u_i - u_{i-1}) + beta_i (u_i - f(u_i))
    alpha = np.concatenate(([0.0], c[:-1] / c[1:])).tolist()
    beta = (grid.mass[:-1] / c).tolist()
    # the lanes whose centre is a maximum; no f is called on an empty segment
    peak = np.concatenate([f(a) > a if a.size else a.astype(bool) for f, a in zip(fs, amps)])
    amps = np.concatenate(amps)
    last = np.where(peak, grid.n - 2, -1)
    over = np.zeros(amps.size, dtype=bool)
    blocks = []
    lanes = np.flatnonzero(last >= 0)
    u = prev = amps[lanes]
    if record is not None:
        record.update(amps=amps, starts=starts, blocks=blocks, last=last)
    start = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while lanes.size and start < grid.n - 1:
            size = min(_BLOCK, grid.n - 1 - start)
            block = np.empty((size + 1, lanes.size))
            block[0] = u
            rows = list(block)
            # where several problems are live: each one's f, the rows of its
            # segment and its part of g
            f, segs = fs[0], None
            if len(fs) > 1:
                bounds = lanes.searchsorted(ends).tolist()
                live = [(f, a, b) for f, a, b in zip(fs, [0] + bounds, bounds) if a < b]
                f = live[0][0]
                if len(live) > 1:
                    g = np.empty(lanes.size)
                    segs = [(f, list(block[:size, a:b]), g[a:b]) for f, a, b in live]
            for i in range(start, start + size):
                u = rows[i - start]
                if segs is None:
                    g = u - f(u)
                else:
                    for fk, seg, gk in segs:
                        useg = seg[i - start]
                        np.subtract(useg, fk(useg), out=gk)
                g *= beta[i]
                nxt = rows[i - start + 1]
                np.subtract(u, prev, out=nxt)
                nxt *= alpha[i]
                nxt += u
                nxt += g
                prev = u
            blocks.append((start, lanes, block))
            # each lane's first deciding step in the block, if it has one
            done = block[1:] > block[:-1]
            done |= block[1:] <= 0.0
            decided = done.any(axis=0)
            cols = np.flatnonzero(decided)
            steps = done.argmax(axis=0)[cols]
            last[lanes[cols]] = start + steps
            over[lanes[cols[block[steps + 1, cols] <= 0.0]]] = True
            keep = ~decided
            lanes, u, prev = lanes[keep], block[size, keep], block[size - 1, keep]
            start += size
    return [over[a:b] for a, b in zip(starts, ends)]


def _marched_lane(record: dict, j: int) -> np.ndarray:
    """Lane j of the march that filled record (_classify_shot) at nodes 0 to
    last[j] + 1, the node that decides it: its amplitude, then its column of
    each block that holds it, each block from the node after its first."""
    stop = int(record["last"][j]) + 2
    lane = np.empty(stop)
    lane[0] = record["amps"][j]
    for start, lanes, block in record["blocks"]:
        if start + 1 >= stop:
            break
        end = min(start + block.shape[0], stop)
        lane[start + 1:end] = block[1:end - start, lanes.searchsorted(j)]
    return lane


def _auto_bracket(nls: list[Nonlinearity], grid: RadialGrid, record=None) -> list:
    """For each nonlinearity of nls, its first undershoot/overshoot
    transition (a_lo, a_hi) on a log scan of 255 amplitudes up to 100, or the
    BracketFailure it raised; the scans of all problems share one march
    (_classify_shot), one lane segment each, and a dict record receives it,
    from which _marched_lane reads any lane up to its deciding node.

    A shot whose centre is not a maximum, f(a) <= a, undershoots at its
    start, so a scan starts at the last amplitude before the first f(a) > a
    on a log ladder of 1401 over [1e-12, 100]: for mu=1 at a = 1, and for
    mu=20, q=2.2, cw=1 at 3.1e-7, below its transition at 1.37e-6 (R=40).
    Where f(a) <= a on the whole ladder the problem's failure is _NoMaximum,
    and its segment is empty.  The transition may be a grid bubble's;
    _shot_newton tells it by its Pohozaev defect.  A scan on which every lane
    undershoots gives BracketFailure.
    """
    ladder, amps = np.logspace(-12, 2, 1401), []
    for nl in nls:
        peak = np.flatnonzero(nl.f(ladder) > ladder)
        amps.append(np.geomspace(ladder[max(peak[0] - 1, 0)], 100.0, _SCAN_LANES) if peak.size
                    else np.empty(0))
    overs = (_classify_shot(nls, grid, amps, record) if any(a.size for a in amps)
             else [None] * len(amps))
    brackets = []
    for a, over in zip(amps, overs):
        if not a.size:
            brackets.append(_NoMaximum("the centre is a minimum at every amplitude up to 100"))
            continue
        up = np.flatnonzero(~over[:-1] & over[1:])
        if not up.size:
            brackets.append(BracketFailure(
                "no undershoot/overshoot transition on the amplitude scan"))
        else:
            brackets.append((float(a[up[0]]), float(a[up[0] + 1])))
    return brackets


def _bracketing_pair(nls: list[Nonlinearity], grid: RadialGrid) -> list:
    """For each nonlinearity of nls, the two bracketing lanes of its scan
    (_auto_bracket) at every node, read from the record of the shared march
    by _marched_lane, NaN after the node that decides each; or the
    BracketFailure its scan gave.  The record is dropped once every pair is
    read, so what the march leaves is two lanes per problem."""
    record = {}
    pairs = _auto_bracket(nls, grid, record)
    for k, bracket in enumerate(pairs):
        if isinstance(bracket, SolverFailure):
            continue
        start = record["starts"][k]
        pair = pairs[k] = np.full((grid.n, 2), np.nan)
        j = start + np.searchsorted(record["amps"][start:start + _SCAN_LANES], bracket[0])
        for col in range(2):
            lane = _marched_lane(record, j + col)
            pair[:lane.size, col] = lane
    return pairs


# _shot_newton rejects a solution whose Pohozaev defect |A - 6V| / A
# exceeds this.  A discrete solution that resolves its core meets A = 6V up
# to O(h^2); a grid bubble, whose V is near 0 or negative, misses it by O(1).
# Over mu in {0.25, 1, 5, 20}, q in {2.2, 2.5, 3, 4, 5, 5.5} and cw in
# {0, 1} on (R, n) = (30, 750), (30, 3000), (30, 12000), (20, 750) and
# (40, 750), the 157 resolved shots read -9.2e-5 to 3.7e-3 (mu=20, q=5,
# cw=1 on R=40, n=750) and the 78 bubbles 0.9993 to 1.014
_RESOLUTION_DEFECT = 0.1


def _shot_newton(u: RadialFunction, nl: Nonlinearity
                 ) -> tuple[RadialFunction, ScalingTerms, float]:
    """The damped Newton solve at lam = 0 from u, to _SHOT_TOL: one
    tridiagonal solve per step.  Returns omega_0, its scaling terms and the
    dual norm of its lam = 0 residual, the solve's own.  It raises
    NonConvergence or PositivityLoss if the solve fails, and
    ResolutionFailure if omega_0 is a grid bubble: a Pohozaev defect
    |A - 6V| / A above _RESOLUTION_DEFECT."""
    # sp_solver imports this module, so the import waits for the call
    from .sp_solver import SolverOptions, solve_at_lambda

    point = solve_at_lambda(u, nl, 0.0, SolverOptions(tol=_SHOT_TOL))
    omega, terms = point.u, scaling_terms(point.u, nl)
    defect = abs(terms.A - 6.0 * terms.V) / terms.A
    if not defect <= _RESOLUTION_DEFECT:
        raise ResolutionFailure(
            f"the shot is a grid bubble: {_core_phrase(omega, nl)} at h = {omega.grid.h:.4g}, "
            f"Pohozaev defect |A - 6V| / A = {defect:.3g} (above {_RESOLUTION_DEFECT:g})")
    return omega, terms, point.grad_residual_norm


def _core_phrase(omega: RadialFunction, nl: Nonlinearity) -> str:
    """omega's centre a = omega(0) and the width 1/sqrt(f'(a)) of its core in
    grid steps, for a failure message; where f'(a) <= 0 there is no such
    width, and the phrase gives f'(a) instead."""
    a = float(omega.values[0])
    fp = float(nl.fprime(a))
    if not fp > 0:
        return f"omega(0) = {a:.4g} with f'(omega(0)) = {fp:.4g} <= 0"
    return (f"omega(0) = {a:.4g} with core width 1/sqrt(f'(omega(0))) = "
            f"{1.0 / math.sqrt(fp) / omega.grid.h:.3g} h")


def _scan_shot(nl: Nonlinearity, grid: RadialGrid
               ) -> tuple[RadialFunction, ScalingTerms, float]:
    """The shot from grid's own scan (_graft_shot of nl's _bracketing_pair),
    in one march."""
    return _graft_shot(nl, grid, _bracketing_pair([nl], grid)[0])


def _graft_shot(nl: Nonlinearity, grid: RadialGrid, pair
                ) -> tuple[RadialFunction, ScalingTerms, float]:
    """The shot from a scan on grid, in three steps: the amplitude scan
    (_auto_bracket) brackets the centre amplitude between an undershoot and
    an overshoot of _classify_shot, and pair holds the two bracketing lanes
    (_bracketing_pair), or is the BracketFailure the scan gave, which is
    raised; the mean of the two lanes, up to the last node of the leading run
    where both are positive and agree to _GRAFT_GAP, is grafted onto
    c exp(-r)/r; and the Newton solve (_shot_newton) sets the amplitude and
    tests the resolution."""
    if isinstance(pair, SolverFailure):
        raise pair
    lo, hi = pair.T
    agree = (lo > 0.0) & (hi > 0.0) & (np.abs(hi - lo) <= _GRAFT_GAP * np.minimum(lo, hi))
    k = grid.n - 1 if agree.all() else int(np.argmin(agree)) - 1
    r = grid.nodes
    vals = np.empty(grid.n)
    vals[:k + 1] = 0.5 * (lo[:k + 1] + hi[:k + 1])
    vals[k + 1:] = vals[k] * r[k] / r[k + 1:] * np.exp(r[k] - r[k + 1:])
    vals[-1] = 0.0
    return _shot_newton(RadialFunction(grid, vals), nl)


def _caught(fn, *args):
    """fn(*args), or the SolverFailure it raised."""
    try:
        return fn(*args)
    except SolverFailure as exc:
        return exc


def _shoot_all(nls: list[Nonlinearity], grid: RadialGrid) -> list:
    """The shot on grid for each nonlinearity of nls by nested iteration:
    the shot on the coarser grid of _coarse_grid, prolonged by dilate and
    Newton-solved on grid, or grid's own scan if there is no coarser grid or
    that route raised a SolverFailure that a finer grid can mend (any but
    _NoMaximum), a grid bubble's ResolutionFailure among them.  The scans of
    the coarsest level share one march (_bracketing_pair), and each problem
    grafts from its own pair (_graft_shot); a finer level's scan is its
    problem's own (_scan_shot).  Returns, per problem, the shot as
    _shot_newton returns it and the n of every level it ran on, from the
    scanned level up, or the SolverFailure it raised."""
    coarse_grid = _coarse_grid(grid)
    if coarse_grid is None:
        return [_caught(lambda nl, pair: (_graft_shot(nl, grid, pair), (grid.n,)), nl, pair)
                for nl, pair in zip(nls, _bracketing_pair(nls, grid))]
    return [_caught(_prolonged_shot, nl, grid, coarse)
            for nl, coarse in zip(nls, _shoot_all(nls, coarse_grid))]


def _prolonged_shot(nl: Nonlinearity, grid: RadialGrid, coarse):
    """One level of _shoot_all: the coarse level's outcome for nl prolonged and
    Newton-solved on grid, or grid's own scan where that fails."""
    if isinstance(coarse, _NoMaximum):
        raise coarse
    if not isinstance(coarse, SolverFailure):
        try:
            return _shot_newton(dilate(coarse[0][0], 1.0, onto=grid), nl), coarse[1] + (grid.n,)
        except SolverFailure:
            pass
    return _scan_shot(nl, grid), (grid.n,)


def _shoot(nl: Nonlinearity, grid: RadialGrid):
    """_shoot_all for the one problem nl: its shot and levels, or its
    failure raised."""
    shot = _shoot_all([nl], grid)[0]
    if isinstance(shot, SolverFailure):
        raise shot
    return shot


def shoot_ground_state(nl: Nonlinearity, grid: RadialGrid) -> RadialFunction:
    """The ground state omega_0 of the grid equation -Delta_h u + u = f(u)
    by shooting (Berestycki, Lions & Peletier, Indiana Univ. Math. J. 30,
    1981), independent of the flow route.

    On the coarsest level of the flow's ladder (_coarse_grid), the shot
    scans the amplitudes of its grid's own recurrence, grafts the mean of the
    two bracketing lanes onto c exp(-r)/r and Newton-solves at lam = 0 to
    _SHOT_TOL (_scan_shot); every finer level prolongs the shot of the level
    below and Newton-solves it once more, so 3000 scans 750 nodes and 12000
    runs 750 -> 3000 -> 12000.  Every level's Newton solve ends with the
    resolution test of _shot_newton, so a grid bubble raises
    ResolutionFailure on the level it forms on.  A level whose coarse route
    raises a SolverFailure (a bubble or a scan without a transition there,
    or a failed Newton solve) falls back to its own scan, so a shot that
    fails raises the failure of the scan on grid: ResolutionFailure,
    BracketFailure, NonConvergence or PositivityLoss.  Where f(a) <= a at
    every amplitude of the scan, the BracketFailure does not depend on the
    grid and is raised once, from the coarsest level.  This is the case of
    one problem of _shoot_all, whose problems share the coarsest level's
    march.
    """
    return _shoot(nl, grid)[0][0]


def limit_ground_state(nl: Nonlinearity, grid: RadialGrid) -> LimitGroundState:
    """The limit ground state of record: the shot's omega_0
    (shoot_ground_state), a solution of the grid equation
    -Delta_h u + u = f(u) to _SHOT_TOL that passed the resolution test, with
    its levels from the scaling terms of that test and no flow.

    omega is omega_0 and residual the dual norm of its lam = 0 residual, the
    finest Newton solve's own (at most _SHOT_TOL); b and t* are the
    dilation-path maximum through omega_0 (mountain_pass_b);
    t0_dilation = V(omega_0)^(1/3), the dilation omega_0(. t0) onto {V = 1},
    whose level is M = A(omega_0) / (2 t0), and p = (2 sqrt 3 / 9) M^(3/2),
    the level of the constrained minimizer.  u is None: omega_0 dilated onto
    {V = 1} is built only where it is measured (project_to_M), so a dilation
    that does not fit the ball fails no solve.  levels are those the shot
    ran on.  A shot that fails raises its failure (ResolutionFailure,
    BracketFailure, NonConvergence or PositivityLoss).
    """
    return _record(*_shoot(nl, grid))


def _record(shot: tuple[RadialFunction, ScalingTerms, float], levels: tuple[int, ...]
            ) -> LimitGroundState:
    """The record of omega_0 from the Newton solve's (omega_0, scaling terms,
    residual) and the route's levels, with u None and no iterations: b and
    t* from the dilation path through omega_0 (_mountain_pass),
    t0_dilation = V^(1/3), M = A / (2 t0) and p = (2 sqrt 3 / 9) M^(3/2)."""
    omega, terms, residual = shot
    mp = _mountain_pass(terms)
    t0 = terms.V ** (1.0 / 3.0)
    M = 0.5 * terms.A / t0
    return LimitGroundState(
        u=None, omega=omega, M_value=M, p_value=2.0 * math.sqrt(3.0) / 9.0 * M**1.5,
        b_value=mp.b, t0_dilation=t0, t_star=mp.t_star, levels=levels, residual=residual,
    )
