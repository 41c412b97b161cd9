import math
from dataclasses import replace

import numpy as np
import pytest

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


def test_user_nonlinearity_fills_missing_pieces():
    nl = user_nonlinearity(lambda s: np.maximum(s, 0.0) ** 3, mu=1.0, q=4.0)
    s = np.array([0.5, 1.5])
    assert np.allclose(nl.fprime(s), 3.0 * s**2, rtol=1e-6)
    assert np.allclose(nl.F(s), s**4 / 4.0, rtol=1e-8)
    assert nl.kappa == pytest.approx(0.5, rel=1e-6)


def test_check_hypotheses_canonical_passes():
    for cw in (0.0, 1.0):
        rep = check_hypotheses(canonical_family(1.0, 4.0, cw))
        assert rep.all_passed, rep.as_dict()


def test_check_hypotheses_sample_floor():
    nl = canonical_family(1.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        check_hypotheses(nl, samples=50)


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
