import math

import numpy as np
import pytest

from oracles import bounded_S
from spgs import (
    SOBOLEV_S_CLOSED_FORM,
    best_Cq,
    canonical_family,
    checks,
    constants,
    constants_report,
    grad_norm_sq,
    limit_ground_state,
    limit_solver,
    make_grid,
    minimize_on_M,
    mu_threshold,
    norm_lq,
    sobolev_S,
)
from spgs.config import RunConfig
from spgs.constants import _bubble, _quotient_hq
from spgs.grid import solve_riesz
from spgs.limit_solver import ResolutionFailure, Stagnation


def test_closed_form_value():
    assert SOBOLEV_S_CLOSED_FORM == pytest.approx(
        3.0 * math.pi * (math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0), rel=1e-15
    )


def test_sobolev_S_close_to_closed_form(grid30):
    S = sobolev_S(grid30)
    assert S == pytest.approx(SOBOLEV_S_CLOSED_FORM, rel=1e-2)
    # truncation can only push the variational value up
    assert S >= SOBOLEV_S_CLOSED_FORM - 1e-10


@pytest.mark.parametrize("n, gap", [(750, 6.1e-3), (3000, 2.3e-3)])
def test_sobolev_S_is_the_least_bubble_quotient(n, gap):
    # the least quotient over the bubble widths, against scipy's bounded
    # search and against 400 widths on the scanned range [h/4, R/8]; S lies
    # 6.04e-3 and 2.24e-3 above the closed form at n = 750 and 3000 (measured)
    grid = make_grid(30.0, n)
    S = sobolev_S(grid)
    assert S == pytest.approx(bounded_S(grid), rel=1e-12, abs=0)
    for eps in np.geomspace(grid.h / 4.0, grid.R / 8.0, 400):
        u = _bubble(grid, eps)
        assert S <= grad_norm_sq(u) / norm_lq(u, 6.0) ** 2
    assert SOBOLEV_S_CLOSED_FORM <= S <= (1.0 + gap) * SOBOLEV_S_CLOSED_FORM


def test_sobolev_S_solves_nothing(count_calls):
    riesz_solves = count_calls(solve_riesz)
    sobolev_S(make_grid(30.0, 750))
    assert riesz_solves == []


def test_best_Cq_matches_ground_state_identity(grid30, nl_cubic):
    c4 = best_Cq(4.0, grid30)
    omega = limit_ground_state(nl_cubic, grid30).omega
    # the pure-power ground state attains the quotient: C_q = |w|_q^(q-2)
    # up to the discretization error
    identity = norm_lq(omega, 4.0) ** 2
    assert c4 == pytest.approx(identity, rel=1e-4)
    # C_q is the quotient of the shot's omega_0 itself
    assert c4 == _quotient_hq(omega, 4.0)


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
def test_best_Cq_is_the_quotient_of_its_ground_state(q):
    coarse_grid = make_grid(30.0, 750)
    coarse = best_Cq(q, coarse_grid)
    omega = limit_ground_state(canonical_family(1.0, q, 0.0), coarse_grid).omega
    assert coarse == _quotient_hq(omega, q)


# the shot's omega_0 solves the grid equation, so its quotient is the
# discrete value, and at n = 750 that lies O(h^2) below the limit; the flow's
# quotient met this bound at q = 3 and 4 only by cancellation (at q = 4 its
# n = 750 value lies 4.9e-6 above the extrapolated limit, its n = 3000 value
# 9.3e-7 below)
_COARSE_GAP = "the shot's C_q at n=750 lies {} below its n=3000 value (measured)"


@pytest.mark.parametrize("q", [
    2.5,
    pytest.param(3.0, marks=pytest.mark.xfail(strict=True, reason=_COARSE_GAP.format("1.2e-5"))),
    pytest.param(4.0, marks=pytest.mark.xfail(strict=True, reason=_COARSE_GAP.format("1.4e-5"))),
])
def test_best_Cq_on_the_coarse_grid_matches_the_fine_grid(q, grid30):
    # |omega|_q^(q-2) in its place lies 1.5e-3 off at q=4
    assert best_Cq(q, make_grid(30.0, 750)) == pytest.approx(best_Cq(q, grid30), rel=1e-5)


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
def test_best_Cq_converges_at_second_order(q, grid30):
    # from n = 750 to 3000 to 12000 the gap falls by 16.0, 16.1 and 18.1 for
    # q = 2.5, 3 and 4, and the n = 3000 value lies at most 7.7e-7 from the
    # n = 12000 one (measured)
    coarse = best_Cq(q, make_grid(30.0, 750))
    fine, finest = best_Cq(q, grid30), best_Cq(q, make_grid(30.0, 12000))
    assert fine == pytest.approx(finest, rel=1e-6)
    assert 12.0 <= (fine - coarse) / (finest - fine) <= 24.0


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 5.0])
def test_best_Cq_is_at_most_the_flow_quotient(q):
    # both are quotients of actual fields, so both bound the discrete
    # infimum from above; the flow route ends in the shot's Newton solve, so
    # its omega_0 is the shot's and the two quotients agree to rounding
    # (measured: 2 ulp apart at q = 3, where the shot's is the larger)
    grid = make_grid(30.0, 750)
    flow = _quotient_hq(minimize_on_M(canonical_family(1.0, q, 0.0), grid).omega, q)
    assert best_Cq(q, grid) == pytest.approx(flow, rel=1e-12, abs=0)


def test_best_Cq_falls_back_to_the_finer_shot_where_the_shot_fails():
    # the shot of q = 5.5 at n = 750 is a grid bubble (core 0.21 h), so C_q is
    # the quotient of the shot one level up, on the grid of 4n - 3 = 2997
    # nodes whose _coarse_grid is the run's: 7.0036, against 7.0028 from the
    # shot at n = 12000
    grid = make_grid(30.0, 750)
    nl = canonical_family(1.0, 5.5, 0.0)
    with pytest.raises(ResolutionFailure):
        limit_ground_state(nl, grid)
    finer = make_grid(30.0, 2997)
    assert limit_solver._coarse_grid(finer).n == grid.n
    cq = best_Cq(5.5, grid)
    assert cq == _quotient_hq(limit_ground_state(nl, finer).omega, 5.5)
    assert cq == pytest.approx(7.003597, abs=1e-6)
    assert best_Cq(5.5, make_grid(30.0, 12000)) < cq
    assert constants_report(grid, [4.0, 5.5]).Cq_n == {5.5: 2997}


def test_best_Cq_raises_where_no_finer_level_resolves():
    # q = 5.9 at n = 750 needs 64n - 63 = 47937 nodes, past _FINER_LEVELS:
    # the shots on 750, 2997 and 11985 are grid bubbles, and the finest
    # level's failure is raised (omega(0) = 32.37 at h = 30 / 11984)
    grid = make_grid(30.0, 750)
    with pytest.raises(ResolutionFailure, match="omega\\(0\\) = 32.37 .* h = 0.002503"):
        best_Cq(5.9, grid)
    with pytest.raises(ResolutionFailure):
        constants_report(grid, [4.0, 5.9])


@pytest.mark.parametrize("q, scanned", [(5.5, [750, 2997]), (5.8, [750, 2997, 11985])])
def test_best_Cq_scans_each_level_once(q, scanned, monkeypatch):
    # a finer level's coarse route is the level that just failed, so each
    # level is scanned once, the run's grid first: one march of q's lanes
    # alone per level
    march, calls = limit_solver._classify_shot, []

    def recorded(nls, grid, *args):
        calls.append((grid.n, len(nls)))
        return march(nls, grid, *args)

    monkeypatch.setattr(limit_solver, "_classify_shot", recorded)
    assert best_Cq(q, make_grid(30.0, 750)) == pytest.approx(
        {5.5: 7.003597, 5.8: 6.221574}[q], abs=1e-6)
    assert calls == [(n, 1) for n in scanned]


def test_best_Cq_rejects_bad_exponent(grid30):
    with pytest.raises(ValueError):
        best_Cq(2.0, grid30)
    with pytest.raises(ValueError):
        best_Cq(6.0, grid30)


def test_mu_threshold_formula():
    S, Cq, q = 5.5, 8.7, 4.0
    expected = ((3.0 * q - 6.0) / (2.0 * q * S**1.5)) ** ((q - 2.0) / 2.0) * Cq ** (q / 2.0)
    assert mu_threshold(q, S, Cq) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        mu_threshold(4.0, -1.0, Cq)
    with pytest.raises(ValueError):
        mu_threshold(7.0, S, Cq)


def test_level_bound_above_threshold(grid30):
    # above the coupling threshold the least-energy level of the mixed
    # critical family stays strictly below the pure-power bound
    S = sobolev_S(grid30)
    q = 4.0
    c4 = best_Cq(q, grid30)
    mu = 2.0 * mu_threshold(q, S, c4)
    gs = minimize_on_M(canonical_family(mu, q, 1.0), grid30)
    bound = (q - 2.0) / (2.0 * q) * mu ** (-2.0 / (q - 2.0)) * c4 ** (q / (q - 2.0))
    assert gs.b_value < bound
    assert gs.b_value > 0


def test_constants_report_structure(grid30):
    rep = constants_report(grid30, [3.0, 4.0])
    assert set(rep.Cq) == {3.0, 4.0}
    assert set(rep.mu_thresholds) == {3.0, 4.0}
    assert rep.S > 0
    assert all(v > 0 for v in rep.Cq.values())
    assert all(v > 0 for v in rep.mu_thresholds.values())


def test_reported_mu_threshold_is_the_diagnosed_one(monkeypatch):
    # constants reports the mu* that checks.ground_state diagnoses a failed
    # solve against: both plug the closed-form S into mu_threshold
    grid = make_grid(30.0, 750)
    diagnosed = []

    def stalled(nl, grid):
        raise Stagnation("stalled")

    def recorded(*args):
        diagnosed.append(mu_threshold(*args))
        return diagnosed[-1]

    monkeypatch.setattr(checks, "limit_ground_state", stalled)
    monkeypatch.setattr(checks, "mu_threshold", recorded)
    cfg = RunConfig(mu=100.0, q=4.0, critical_weight=1.0)
    with pytest.raises(Stagnation):
        checks.ground_state(cfg, cfg.nonlinearity(), grid)
    assert constants_report(grid, [4]).mu_thresholds[4] == diagnosed[0]
