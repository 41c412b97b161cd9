"""Pluggable nonlinearities with primitives, derivatives and a hypothesis checker.

The admissible class: f continuous, vanishing on the negative half-line and
superlinear at zero, with at most quintic (critical) growth and a subcritical
lower bound mu * s^(q-1).  The checker verifies these on a finite sample
ladder; it reports, never proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Nonlinearity:
    """Nonlinear term f with primitive F and derivative fprime.

    kappa is the declared constant of the pointwise growth bound
    f(s) <= s/2 + kappa * s^5 on s >= 0.
    """

    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    mu: float
    q: float
    critical_weight: float
    kappa: float

    def G(self, s):
        """G(s) = F(s) - s^2/2, the shifted primitive driving the constraint set."""
        s = np.asarray(s, dtype=float)
        return self.F(s) - 0.5 * s**2


def _fd_derivative(f: Callable) -> Callable:
    def fprime(s):
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        return (f(s + h) - f(s - h)) / (2.0 * h)

    return fprime


def _golden_min(fn: Callable, xs: np.ndarray, vals: np.ndarray, width: float):
    """Least value of fn near the least sample vals[k] = fn(xs[k]) of a scan:
    golden-section search between the scan neighbours of xs[k], down to an
    interval of the given width, never above vals[k]."""
    k = int(np.argmin(vals))
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = fn(d)
    return min(vals[k], fc, fd)


def smallest_kappa(f: Callable) -> float:
    """Smallest valid constant in f(s) <= s/2 + kappa s^5, by maximizing
    (f(s) - s/2)/s^5 over s in [1e-6, 1e6]: a log scan of 400 points, then
    the golden-section polish of _golden_min on the negated ratio, to 1e-12
    in log s."""

    def neg_ratio(x):
        s = np.exp(x)
        return -float((f(np.asarray(s)) - 0.5 * s) / s**5)

    xs = np.linspace(np.log(1e-6), np.log(1e6), 400)
    s = np.exp(xs)
    vals = -((np.asarray(f(s), dtype=float) - 0.5 * s) / s**5)
    return max(-_golden_min(neg_ratio, xs, vals, 1e-12), 0.0)


def canonical_family(mu: float, q: float, critical_weight: float) -> Nonlinearity:
    """f(s) = critical_weight * s_+^5 + mu * s_+^(q-1), closed-form F and f'.

    kappa is the smallest constant valid for this family, in closed form:
    (f(s) - s/2)/s^5 = cw + mu s^(q-6) - s^(-4)/2 is largest at
    s*^(q-2) = 2 / (mu (6 - q)), where it is
    cw + (q - 2) / (2 (6 - q)) * (mu (6 - q) / 2)^(4 / (q - 2)).  Near q = 2
    that power can exceed the largest float, and kappa is then inf.
    """
    mu = float(mu)
    q = float(q)
    cw = float(critical_weight)
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not 2.0 < q < 6.0:
        raise ValueError(f"q must lie in (2, 6), got {q}")
    if not 0.0 <= cw <= 1.0:
        raise ValueError(f"critical_weight must lie in [0, 1], got {cw}")

    # without a critical term its zero terms are skipped: adding 0 s^k changes
    # no value (short of s^k overflowing, where it gave NaN), yet it doubles
    # the cost of f on every field of the flow and on every node of a shot;
    # likewise the factors mu = 1 and cw = 1 of f and F, as 1.0 * x is x for
    # every x, -0.0 included (f' multiplies them into its scalar coefficients
    # first, so it has no array product to leave out)
    def f(s):
        sp = np.maximum(np.asarray(s, dtype=float), 0.0)
        sub = sp ** (q - 1.0) if mu == 1.0 else mu * sp ** (q - 1.0)
        if not cw:
            return sub
        return sub + (sp**5 if cw == 1.0 else cw * sp**5)

    def F(s):
        sp = np.maximum(np.asarray(s, dtype=float), 0.0)
        sub = (sp**q if mu == 1.0 else mu * sp**q) / q
        if not cw:
            return sub
        return sub + (sp**6 if cw == 1.0 else cw * sp**6) / 6.0

    def fprime(s):
        sp = np.maximum(np.asarray(s, dtype=float), 0.0)
        sub = mu * (q - 1.0) * sp ** (q - 2.0)
        return sub + 5.0 * cw * sp**4 if cw else sub

    try:
        kappa = cw + (q - 2.0) / (2.0 * (6.0 - q)) * (0.5 * mu * (6.0 - q)) ** (4.0 / (q - 2.0))
    except OverflowError:
        kappa = math.inf
    return Nonlinearity(f=f, F=F, fprime=fprime, mu=mu, q=q, critical_weight=cw, kappa=kappa)


def user_nonlinearity(f: Callable, mu: float, q: float, critical_weight: float = 0.0,
                      F: Callable | None = None, fprime: Callable | None = None,
                      kappa: float | None = None) -> Nonlinearity:
    """Wrap a user-supplied f; missing pieces are filled numerically.

    A missing derivative falls back to centered finite differences with step
    1e-6 * max(1, |s|); a missing primitive is integrated by 64-point
    Gauss-Legendre quadrature on [0, s], exact to rounding for power laws
    s^a and spectrally accurate for smooth f.  An f with a kink inside (0, s)
    should come with its F.
    """
    if fprime is None:
        fprime = _fd_derivative(f)
    if F is None:
        # Gauss-Legendre in tau = sqrt(x/s) on [0, 1]: the substitution turns
        # the power law x^a of f at zero into the smooth tau^(2a+1), and
        # dx = 2 s tau dtau with dtau = dxi/2 gives the weights w tau
        xi, w = np.polynomial.legendre.leggauss(64)
        tau = 0.5 * (xi + 1.0)
        weight = w * tau

        def F(s):
            sp = np.maximum(np.asarray(s, dtype=float), 0.0)[..., None]
            return np.sum(weight * sp * np.asarray(f(sp * tau**2), dtype=float), axis=-1)

    if kappa is None:
        kappa = smallest_kappa(f)
    return Nonlinearity(f=f, F=F, fprime=fprime, mu=float(mu), q=float(q),
                        critical_weight=float(critical_weight), kappa=float(kappa))


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    worst_s: float
    margin: float
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck] = field(default_factory=list)

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """Sample the four admissibility conditions on a log ladder of 400 points
    over [1e-8, 1e4].

    Failures become report entries, not exceptions.  The checks:
      vanishes_on_negatives   f(s) = 0 for s <= 0
      vanishing_slope_at_zero f(s)/s -> 0 as s -> 0+
      subcritical_lower_bound f(s) >= mu s^(q-1)
      growth_bound            f(s) <= s/2 + kappa s^5 with the declared kappa
    """
    ladder = np.logspace(-8, 4, 400)
    report = HypothesisReport()

    neg = -ladder
    fneg = np.abs(np.asarray(nl.f(neg), dtype=float))
    k = int(np.argmax(fneg))
    report.checks.append(HypothesisCheck(
        name="vanishes_on_negatives",
        passed=bool(fneg[k] <= 1e-14),
        worst_s=float(neg[k]),
        margin=float(fneg[k]),
        detail="max |f(s)| over sampled s < 0",
    ))

    ratio = np.asarray(nl.f(ladder), dtype=float) / ladder
    small = ladder <= 1e-4
    worst = float(np.max(ratio[small]))
    k = int(np.argmax(ratio[small]))
    # the ratio must be small at the bottom of the ladder and trending down
    decades = ratio[ladder <= 1e-5]
    trending = decades.size < 2 or decades[0] <= decades[-1] + 1e-14
    report.checks.append(HypothesisCheck(
        name="vanishing_slope_at_zero",
        passed=bool(ratio[0] <= 1e-2 and trending),
        worst_s=float(ladder[small][k]),
        margin=worst,
        detail="f(s)/s on the small-s decades",
    ))

    lower = nl.mu * ladder ** (nl.q - 1.0)
    gap = np.asarray(nl.f(ladder), dtype=float) - lower
    tol = 1e-12 * np.maximum(lower, 1.0)
    bad = gap < -tol
    k = int(np.argmin(gap / np.maximum(lower, 1e-300)))
    report.checks.append(HypothesisCheck(
        name="subcritical_lower_bound",
        passed=bool(not np.any(bad)),
        worst_s=float(ladder[k]),
        margin=float((gap / np.maximum(lower, 1e-300))[k]),
        detail="relative slack of f(s) - mu s^(q-1)",
    ))

    upper = 0.5 * ladder + nl.kappa * ladder**5
    gap = upper - np.asarray(nl.f(ladder), dtype=float)
    tol = 1e-10 * np.maximum(upper, 1.0)
    bad = gap < -tol
    # an infinite bound (kappa = inf) has the full relative slack 1
    slack = np.divide(gap, np.maximum(upper, 1e-300), out=np.ones_like(gap),
                      where=np.isfinite(upper))
    k = int(np.argmin(slack))
    report.checks.append(HypothesisCheck(
        name="growth_bound",
        passed=bool(not np.any(bad)),
        worst_s=float(ladder[k]),
        margin=float(slack[k]),
        detail="relative slack of s/2 + kappa s^5 - f(s)",
    ))

    return report
