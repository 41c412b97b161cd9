"""End-to-end acceptance criteria.

Criteria 1, 2, 7 and 10 and most of 3 are entries of the check registry
(spgs.checks, also run one by one in tests/test_checks.py); their tests here
report the registry entries on the default configuration, so each tolerance
is written once.  Each test prints one summary line with its measured margins
so a full run reads as a checklist; tolerances are part of the contract of the
suite.
"""

import math

import pytest

from spgs import (
    SOBOLEV_S_CLOSED_FORM,
    asymptotics_report,
    best_Cq,
    canonical_family,
    continuation,
    dilate,
    energy,
    find_t0,
    make_grid,
    minimize_on_M,
    mu_threshold,
    shoot_ground_state,
    sobolev_S,
)
from spgs import checks
from spgs.checks import gaussian_poisson_errors
from spgs.config import RunConfig
from spgs.functionals import scaling_terms
from spgs.sp_solver import path_max_D


@pytest.fixture
def report(capsys):
    """Print one pass/fail line per criterion, bypassing output capture."""

    def _report(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _report


@pytest.fixture(scope="module")
def registry():
    """Run named registry checks on one shared default-config context."""
    ctx = checks.Context(RunConfig())
    by_name = {c.name: c for c in checks.CHECKS}
    return lambda *names: [by_name[name].run(ctx) for name in names]


def _report_registry(report, title, results):
    report(title, all(r["passed"] for r in results),
           "; ".join(f"{r['name']} {r['detail']}" for r in results))


def test_criterion_1_poisson_gaussian_oracle(report, registry):
    _report_registry(report, "criterion 1 (potential closed form)",
                     registry("poisson.phi_oracle", "poisson.coupling_oracle"))


def test_criterion_2_coupling_dilation_scaling(report, registry):
    _report_registry(report, "criterion 2 (t^5 interaction scaling)",
                     registry("poisson.coupling_scaling_t0.5", "poisson.coupling_scaling_t2"))


def test_criterion_3_limit_levels(report, ground_cubic):
    # the other identities of the limit levels are registry checks (limit.*);
    # b = p holds to 1e-5 only where it is calibrated, on the cubic model
    gs = ground_cubic
    bp_err = abs(gs.b_value - gs.p_value) / gs.p_value
    report("criterion 3 (least-energy level equals mountain-pass level)", bp_err <= 1e-5,
           f"b vs p {bp_err:.2e} (tol 1e-5)")


def test_criterion_4_two_route_agreement(report, grid30):
    details = []
    ok = True
    for q in (3.0, 4.0, 5.0):
        nl = canonical_family(1.0, q, 0.0)
        gs = minimize_on_M(nl, grid30)
        w = shoot_ground_state(nl, grid30)
        i_shoot = energy(w, nl, 0.0).I_value
        rel = abs(i_shoot - gs.b_value) / gs.b_value
        ok = ok and rel <= 1e-3
        details.append(f"q={q:g}: rel {rel:.2e}")
    report("criterion 4 (flow vs shooting)", ok,
           ", ".join(details) + " (tol 1e-3)")


def test_criterion_4_flow_matches_shot_at_mu20_q2_5(grid30):
    # the flow hands over far from omega_0, and the Newton solve at lam = 0
    # that finishes the route lands on the shot's b = 5.0914e-4
    nl = canonical_family(20.0, 2.5, 0.0)
    b = minimize_on_M(nl, grid30).b_value
    i_shoot = energy(shoot_ground_state(nl, grid30), nl, 0.0).I_value
    assert abs(i_shoot - b) / b <= 1e-3


def test_criterion_5_constants_chain(report, grid30):
    S = sobolev_S(grid30)
    s_err = abs(S - SOBOLEV_S_CLOSED_FORM) / SOBOLEV_S_CLOSED_FORM
    q = 4.0
    c4 = best_Cq(q, grid30)
    mu = 2.0 * mu_threshold(q, S, c4)
    gs = minimize_on_M(canonical_family(mu, q, 1.0), grid30)
    bound = (q - 2.0) / (2.0 * q) * mu ** (-2.0 / (q - 2.0)) * c4 ** (q / (q - 2.0))
    margin = (bound - gs.b_value) / bound
    ok = s_err <= 1e-2 and gs.b_value < bound
    report("criterion 5 (embedding constants and level bound)", ok,
           f"S rel err {s_err:.2e} (tol 1e-2), level {gs.b_value:.6f} < "
           f"bound {bound:.6f} (margin {margin:.1%}) at mu = 2 x threshold")


SCHEDULE = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def branch(nl_cubic, ground_cubic):
    return continuation(nl_cubic, SCHEDULE, ground_cubic)


def test_criterion_6_small_coupling_asymptotics(report, branch, nl_cubic, ground_cubic):
    rep = asymptotics_report(branch, nl_cubic)
    t0 = find_t0(ground_cubic.omega, nl_cubic)
    D0 = path_max_D(ground_cubic.omega, nl_cubic, 0.0, t0)
    d0_err = abs(D0 - rep.b_ref) / rep.b_ref
    ok = (0.9 <= rep.slope_phi_d12 <= 1.1
          and 1.8 <= rep.slope_gamma_gap <= 2.2
          and 1.8 <= rep.slope_D_gap <= 2.2
          and rep.h1_dist_monotone
          and rep.energy_ordering_ok
          and d0_err <= 1e-6)
    report("criterion 6 (coupling asymptotics)", ok,
           f"slopes: potential {rep.slope_phi_d12:.3f} (in [0.9,1.1]), "
           f"energy gap {rep.slope_gamma_gap:.3f}, ceiling gap "
           f"{rep.slope_D_gap:.3f} (in [1.8,2.2]); distance monotone "
           f"{rep.h1_dist_monotone}; ceiling at zero rel err {d0_err:.2e} (tol 1e-6)")


def test_criterion_7_gradient_consistency(report, registry):
    _report_registry(report, "criterion 7 (variational gradient consistency)",
                     registry("functionals.gradient_consistency"))


def test_criterion_8_dilation_stationarity(report, branch, nl_cubic):
    worst_rel = max(pt.pohozaev_res_rel for pt in branch.points)
    # independent cross-check: numerical dilation derivative at one point
    pt = branch.points[1]
    dt = 1e-4
    gp = energy(dilate(pt.u, 1.0 + dt), nl_cubic, pt.lam).Gamma_value
    gm = energy(dilate(pt.u, 1.0 - dt), nl_cubic, pt.lam).Gamma_value
    fd = (gp - gm) / (2.0 * dt)
    analytic = scaling_terms(pt.u, nl_cubic, pt.lam).dilation_balance()[0]
    fd_err = abs(fd - analytic) / abs(pt.gamma_energy)
    ok = worst_rel <= 1e-3 and fd_err <= 1e-3
    report("criterion 8 (coupled dilation balance)", ok,
           f"worst relative residual {worst_rel:.2e} (tol 1e-3), numerical "
           f"derivative cross-check {fd_err:.2e} (tol 1e-3)")


def test_criterion_9_grid_convergence(report, nl_cubic):
    # true-error orders for the potential oracle under factor-2 refinement
    errs = [gaussian_poisson_errors(make_grid(12.0, n))["coupling_rel_error"]
            for n in (1000, 2000, 4000)]
    p_phi = min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))

    # Richardson orders for the solver levels
    Ms = []
    for n in (751, 1501, 3001):
        gs = minimize_on_M(nl_cubic, make_grid(30.0, n))
        Ms.append(gs.M_value)
    p_M = math.log2(abs(Ms[0] - Ms[1]) / abs(Ms[1] - Ms[2]))
    ok = p_phi >= 1.8 and p_M >= 1.8
    report("criterion 9 (grid convergence orders)", ok,
           f"interaction integral order {p_phi:.2f}, constrained minimum order "
           f"{p_M:.2f} (both >= 1.8)")


def test_criterion_10_hypothesis_screening(report, registry):
    _report_registry(report, "criterion 10 (hypothesis screening)",
                     registry("nonlinearity.hypotheses_pass",
                              "nonlinearity.identity_fails_limit",
                              "nonlinearity.halved_kappa_fails_growth"))
