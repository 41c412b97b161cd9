import math

import pytest

from spgs import (
    SOBOLEV_S_CLOSED_FORM,
    best_Cq,
    canonical_family,
    checks,
    constants_report,
    make_grid,
    minimize_on_M,
    mu_threshold,
    norm_lq,
    sobolev_S,
)
from spgs.config import RunConfig
from spgs.constants import _quotient_hq
from spgs.limit_solver import Stagnation


def test_closed_form_value():
    assert SOBOLEV_S_CLOSED_FORM == pytest.approx(
        3.0 * math.pi * (math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0), rel=1e-15
    )


def test_sobolev_S_close_to_closed_form(grid30):
    S = sobolev_S(grid30)
    assert S == pytest.approx(SOBOLEV_S_CLOSED_FORM, rel=1e-2)
    # truncation can only push the variational value up
    assert S >= SOBOLEV_S_CLOSED_FORM - 1e-10


def test_best_Cq_matches_ground_state_identity(grid30, ground_cubic):
    c4 = best_Cq(4.0, grid30)
    # the pure-power ground state attains the quotient: C_q = |w|_q^(q-2)
    # up to the discretization error
    identity = norm_lq(ground_cubic.omega, 4.0) ** 2
    assert c4 == pytest.approx(identity, rel=1e-4)
    # C_q is the quotient of that ground state itself
    assert c4 == _quotient_hq(ground_cubic.omega, 4.0)


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
def test_best_Cq_is_the_quotient_of_its_ground_state(q, grid30):
    coarse_grid = make_grid(30.0, 750)
    coarse = best_Cq(q, coarse_grid)
    omega = minimize_on_M(canonical_family(1.0, q, 0.0), coarse_grid).omega
    assert coarse == _quotient_hq(omega, q)
    # |omega|_q^(q-2) in its place lies 1.5e-3 off at q=4
    assert coarse == pytest.approx(best_Cq(q, grid30), rel=1e-5)


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

    def stalled(nl, grid, tol):
        raise Stagnation("stalled")

    def recorded(*args):
        diagnosed.append(mu_threshold(*args))
        return diagnosed[-1]

    monkeypatch.setattr(checks, "minimize_on_M", stalled)
    monkeypatch.setattr(checks, "mu_threshold", recorded)
    cfg = RunConfig(mu=100.0, q=4.0, critical_weight=1.0)
    with pytest.raises(Stagnation):
        checks.ground_state(cfg, cfg.nonlinearity(), grid)
    assert constants_report(grid, [4]).mu_thresholds[4] == diagnosed[0]
