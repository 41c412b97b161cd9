import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import bounded_kappa
from test_limit_solver import _wavy_cubic
from spgs import canonical_family, check_hypotheses, smallest_kappa, user_nonlinearity


def test_canonical_cubic_values():
    nl = canonical_family(1.0, 4.0, 0.0)
    s = np.array([0.0, 1.0, 2.0, -3.0])
    assert np.allclose(nl.f(s), [0.0, 1.0, 8.0, 0.0])
    assert np.allclose(nl.F(s), [0.0, 0.25, 4.0, 0.0])
    assert np.allclose(nl.fprime(s), [0.0, 3.0, 12.0, 0.0])


def test_canonical_critical_mix():
    nl = canonical_family(2.0, 3.0, 0.5)
    s = 1.7
    assert nl.f(np.asarray(s)) == pytest.approx(0.5 * s**5 + 2.0 * s**2)
    assert nl.F(np.asarray(s)) == pytest.approx(0.5 * s**6 / 6.0 + 2.0 * s**3 / 3.0)


@pytest.mark.parametrize("cw", [0.0, 1.0])
@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 5.0, 5.5])
def test_canonical_family_bitwise_equals_general_form(q, cw):
    # the general form, with the critical terms also where cw = 0
    mu = 1.7
    ladder = np.logspace(-300, 50, 701)
    s = np.concatenate(([0.0, -0.0], ladder, -ladder))
    sp = np.maximum(s, 0.0)
    want = {"f": cw * sp**5 + mu * sp ** (q - 1.0),
            "F": cw * sp**6 / 6.0 + mu * sp**q / q,
            "fprime": 5.0 * cw * sp**4 + mu * (q - 1.0) * sp ** (q - 2.0)}
    nl = canonical_family(mu, q, cw)
    for name, ref in want.items():
        assert getattr(nl, name)(s).tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("cw", [0.0, 1.0])
@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 5.0, 5.5])
def test_canonical_family_at_unit_mu_skips_only_the_factor(q, cw):
    # at mu = 1 f and F leave out the multiply by 1.0, which changes no bit
    ladder = np.logspace(-300, 100, 801)
    s = np.concatenate(([0.0, -0.0, 1e100, -1e100], ladder, -ladder))
    sp = np.maximum(s, 0.0)
    nl = canonical_family(1.0, q, cw)
    with np.errstate(over="ignore"):
        want = {"f": 1.0 * sp ** (q - 1.0), "F": 1.0 * sp**q / q}
        if cw:
            want["f"] += cw * sp**5
            want["F"] += cw * sp**6 / 6.0
        for name, ref in want.items():
            assert getattr(nl, name)(s).tobytes() == ref.tobytes(), name
            for k, x in enumerate(s[:4]):
                assert getattr(nl, name)(x).tobytes() == ref[k].tobytes(), (name, x)


@pytest.mark.parametrize("mu", [1.0, 1.7])
@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 5.0, 5.5])
def test_canonical_family_at_unit_cw_skips_only_the_factor(q, mu):
    # at cw = 1 f and F leave out the multiply by 1.0 of their critical term,
    # which changes no bit: the unskipped expressions, overflow included
    ladder = np.logspace(-300, 100, 801)
    s = np.concatenate(([0.0, -0.0, 1e100, -1e100], ladder, -ladder))
    sp = np.maximum(s, 0.0)
    nl = canonical_family(mu, q, 1.0)
    with np.errstate(over="ignore"):
        want = {"f": mu * sp ** (q - 1.0) + 1.0 * sp**5,
                "F": mu * sp**q / q + 1.0 * sp**6 / 6.0,
                "fprime": mu * (q - 1.0) * sp ** (q - 2.0) + 5.0 * 1.0 * sp**4}
        for name, ref in want.items():
            assert getattr(nl, name)(s).tobytes() == ref.tobytes(), name
            for k, x in enumerate(s[:4]):
                assert getattr(nl, name)(x).tobytes() == ref[k].tobytes(), (name, x)


def test_G_shifted_primitive():
    nl = canonical_family(1.0, 4.0, 0.0)
    assert nl.G(2.0) == pytest.approx(2.0**4 / 4.0 - 2.0)
    assert nl.G(-1.0) == pytest.approx(-0.5)


def test_canonical_rejects_bad_parameters():
    with pytest.raises(ValueError):
        canonical_family(0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        canonical_family(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        canonical_family(1.0, 6.0, 0.0)
    with pytest.raises(ValueError):
        canonical_family(1.0, 4.0, 1.5)


def test_smallest_kappa_cubic_closed_form():
    # max of (s^3 - s/2)/s^5 sits at s = 1 with value 1/2
    nl = canonical_family(1.0, 4.0, 0.0)
    assert nl.kappa == pytest.approx(0.5, rel=1e-9)


def test_smallest_kappa_general_family():
    # critical point of (mu s^(q-1) - s/2)/s^5 at s^(q-2) = 2/(mu (6-q))
    for mu, q in ((1.0, 3.0), (2.5, 4.5), (0.7, 5.0)):
        s_star = (2.0 / (mu * (6.0 - q))) ** (1.0 / (q - 2.0))
        exact = (mu * s_star ** (q - 1.0) - 0.5 * s_star) / s_star**5
        got = smallest_kappa(lambda s, mu=mu, q=q: mu * np.maximum(s, 0.0) ** (q - 1.0))
        assert got == pytest.approx(exact, rel=1e-8)


def test_smallest_kappa_matches_bounded_search_oracle():
    for mu, q, cw in ((1.0, 3.0, 0.0), (1.0, 4.0, 0.0), (1.0, 5.0, 0.0), (20.0, 3.0, 1.0)):
        nl = canonical_family(mu, q, cw)
        assert nl.kappa == pytest.approx(bounded_kappa(nl.f), rel=1e-10)


# every (mu, q, cw) of this grid whose maximizer s*, s*^(q-2) = 2/(mu (6-q)),
# lies in the range [1e-6, 1e6] that smallest_kappa scans
_KAPPA_CASES = [
    (mu, q, cw) for mu in (0.05, 0.25, 1.0, 5.0, 20.0)
    for q in (2.1, 2.2, 2.5, 3.0, 4.0, 5.0, 5.5, 5.9) for cw in (0.0, 1.0)
    if 1e-6 <= (2.0 / (mu * (6.0 - q))) ** (1.0 / (q - 2.0)) <= 1e6
]


@pytest.mark.parametrize("mu, q, cw", _KAPPA_CASES)
def test_canonical_kappa_is_the_scanned_maximum(mu, q, cw):
    nl = canonical_family(mu, q, cw)
    assert nl.kappa == pytest.approx(smallest_kappa(nl.f), rel=1e-13, abs=0)


# smallest_kappa on _KAPPA_CASES, in their order, and on the wavy cubic of
# test_limit_solver.py, as its own golden-section loop returned them before
# the polish was shared with sobolev_S: the shared polish keeps every bit
_KAPPA_BITS = [
    9.433840063383117e-23, 1.0, 2.4543493986129787e-10,
    1.000000000245435, 5.273437500000003e-06, 1.0000052734375,
    0.0012500000000000002, 1.00125, 0.01096506651829825,
    1.0109650665182983, 0.02339419250116798, 1.023394192501168,
    0.04180758997364232, 1.0418075899736423, 4.235358712693467e-15,
    1.0000000000000042, 8.99681097353251e-09, 1.000000008996811,
    9.587302338331942e-05, 1.0000958730233833, 0.0032958984375000004,
    1.0032958984375002, 0.03125, 1.03125,
    0.09375000000000001, 1.09375, 0.14720783356916398,
    1.147207833569164, 0.21784492415743978, 1.2178449241574398,
    5120234503.104658, 5120234504.104662, 9892.098278301462,
    9893.098278301472, 6.283134460449221, 7.283134460449225,
    0.84375, 1.8437500000000002, 0.5,
    1.5, 0.5952753944880748, 1.5952753944880749,
    0.7177934365066833, 1.7177934365066834, 0.9029108507964809,
    1.9029108507964811, 9.433840063382331e+17, 9.433840063382331e+17,
    2454349.398612976, 2454350.398612978, 527.34375,
    528.3437500000001, 12.500000000000002, 13.500000000000002,
    5.08953303111545, 6.08953303111545, 4.516711433106258,
    5.5167114331062574, 4.704756862012265, 5.704756862012266,
    160848242187.50006, 160848242188.50006, 135000.00000000006,
    135001.0000000001, 200.00000000000003, 201.00000000000003,
    32.31652035047826, 33.316520350478264, 22.023731636231968,
    23.023731636231968, 19.500000000000004, 20.500000000000004,
]
_WAVY_KAPPA_BITS = 1.040342746774719


def test_smallest_kappa_keeps_its_bits():
    got = [smallest_kappa(canonical_family(*case).f) for case in _KAPPA_CASES]
    assert got == _KAPPA_BITS
    assert smallest_kappa(_wavy_cubic) == _WAVY_KAPPA_BITS


def test_canonical_kappa_past_the_largest_float_is_inf():
    # (mu (6 - q) / 2)^(4 / (q - 2)) = 1.9995^4000 at q = 2.001; no growth
    # bound is violated, and its relative slack is the full 1
    nl = canonical_family(1.0, 2.001, 0.0)
    assert nl.kappa == math.inf
    growth = check_hypotheses(nl)["growth_bound"]
    assert growth.passed and growth.margin == 1.0


def test_user_nonlinearity_fills_missing_pieces():
    nl = user_nonlinearity(lambda s: np.maximum(s, 0.0) ** 3, mu=1.0, q=4.0)
    s = np.array([0.5, 1.5])
    assert np.allclose(nl.fprime(s), 3.0 * s**2, rtol=1e-6)
    assert np.allclose(nl.F(s), s**4 / 4.0, rtol=1e-8)
    assert nl.kappa == pytest.approx(0.5, rel=1e-6)
    # a power law that is not smooth at zero
    root = user_nonlinearity(lambda s: np.maximum(s, 0.0) ** 1.3, mu=1.0, q=2.3, kappa=1.0)
    assert np.allclose(root.F(s), s**2.3 / 2.3, rtol=1e-12)
    assert root.F(-1.0) == 0.0


def test_check_hypotheses_canonical_passes():
    for cw in (0.0, 1.0):
        rep = check_hypotheses(canonical_family(1.0, 4.0, cw))
        assert all(c.passed for c in rep.checks), rep.checks


def test_check_hypotheses_negative_fixture_linear():
    # linear growth at zero violates the superlinearity requirement
    nl = user_nonlinearity(lambda s: np.maximum(s, 0.0), mu=1.0, q=4.0, kappa=1.0)
    rep = check_hypotheses(nl)
    assert not rep["vanishing_slope_at_zero"].passed
    assert not rep["subcritical_lower_bound"].passed


def test_check_hypotheses_negative_fixture_sign():
    # even extension does not vanish on the negative half-line
    nl = user_nonlinearity(lambda s: np.abs(s) ** 3, mu=1.0, q=4.0, kappa=0.5)
    rep = check_hypotheses(nl)
    assert not rep["vanishes_on_negatives"].passed


def test_check_hypotheses_negative_fixture_kappa():
    # halving the declared growth constant must break the upper bound
    nl = canonical_family(1.0, 4.0, 0.0)
    rep = check_hypotheses(replace(nl, kappa=nl.kappa / 2.0))
    assert not rep["growth_bound"].passed
    assert rep["subcritical_lower_bound"].passed


def test_report_lookup_raises_on_unknown_name():
    rep = check_hypotheses(canonical_family(1.0, 4.0, 0.0))
    with pytest.raises(KeyError):
        rep["no_such_check"]
