"""Pluggable nonlinearities with primitives, derivatives and a hypothesis checker.

The admissible class: f continuous, vanishing on the negative half-line and
superlinear at zero, with at most quintic (critical) growth and a subcritical
lower bound mu * s^(q-1).  The checker verifies these on a finite sample
ladder; it reports, never proves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar


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
    label: str = "custom"

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


def smallest_kappa(f: Callable, s_lo: float = 1e-6, s_hi: float = 1e6) -> float:
    """Smallest valid constant in f(s) <= s/2 + kappa s^5, by maximizing
    (f(s) - s/2)/s^5 over s > 0 (coarse log scan plus golden-section polish)."""

    def neg_ratio(x):
        s = np.exp(x)
        return -float((f(np.asarray(s)) - 0.5 * s) / s**5)

    xs = np.linspace(np.log(s_lo), np.log(s_hi), 400)
    vals = np.array([neg_ratio(x) for x in xs])
    k = int(np.argmin(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    res = minimize_scalar(neg_ratio, bracket=None, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    best = -min(res.fun, vals[k])
    return max(best, 0.0)


def canonical_family(mu: float, q: float, critical_weight: float) -> Nonlinearity:
    """f(s) = critical_weight * s_+^5 + mu * s_+^(q-1), closed-form F and f'.

    kappa is the smallest constant valid for this family, found numerically.
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

    def f(s):
        s = np.asarray(s, dtype=float)
        sp = np.maximum(s, 0.0)
        return cw * sp**5 + mu * sp ** (q - 1.0)

    def F(s):
        s = np.asarray(s, dtype=float)
        sp = np.maximum(s, 0.0)
        return cw * sp**6 / 6.0 + mu * sp**q / q

    def fprime(s):
        s = np.asarray(s, dtype=float)
        sp = np.maximum(s, 0.0)
        return 5.0 * cw * sp**4 + mu * (q - 1.0) * sp ** (q - 2.0)

    kappa = smallest_kappa(f)
    return Nonlinearity(
        f=f, F=F, fprime=fprime, mu=mu, q=q, critical_weight=cw, kappa=kappa,
        label=f"canonical(mu={mu}, q={q}, cw={cw})",
    )


def user_nonlinearity(f: Callable, mu: float, q: float, critical_weight: float = 0.0,
                      F: Callable | None = None, fprime: Callable | None = None,
                      kappa: float | None = None, label: str = "custom") -> Nonlinearity:
    """Wrap a user-supplied f; missing pieces are filled numerically.

    A missing derivative falls back to centered finite differences with step
    1e-6 * max(1, |s|); a missing primitive is integrated by quadrature.
    """
    if fprime is None:
        fprime = _fd_derivative(f)
    if F is None:
        from scipy.integrate import quad

        def F_single(s):
            if s <= 0:
                return 0.0
            return quad(lambda x: float(f(np.asarray(x))), 0.0, s, limit=200)[0]

        F = np.vectorize(F_single)
    if kappa is None:
        kappa = smallest_kappa(f)
    return Nonlinearity(f=f, F=F, fprime=fprime, mu=float(mu), q=float(q),
                        critical_weight=float(critical_weight), kappa=float(kappa),
                        label=label)


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

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            c.name: {
                "passed": c.passed,
                "worst_s": c.worst_s,
                "margin": c.margin,
                "detail": c.detail,
            }
            for c in self.checks
        }


def check_hypotheses(nl: Nonlinearity, samples: int = 400) -> HypothesisReport:
    """Sample the four admissibility conditions on a log ladder over [1e-8, 1e4].

    Failures become report entries, not exceptions.  The checks:
      vanishes_on_negatives   f(s) = 0 for s <= 0
      vanishing_slope_at_zero f(s)/s -> 0 as s -> 0+
      subcritical_lower_bound f(s) >= mu s^(q-1)
      growth_bound            f(s) <= s/2 + kappa s^5 with the declared kappa
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    ladder = np.logspace(-8, 4, samples)
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
    k = int(np.argmin(gap / np.maximum(upper, 1e-300)))
    report.checks.append(HypothesisCheck(
        name="growth_bound",
        passed=bool(not np.any(bad)),
        worst_s=float(ladder[k]),
        margin=float((gap / np.maximum(upper, 1e-300))[k]),
        detail="relative slack of s/2 + kappa s^5 - f(s)",
    ))

    return report
