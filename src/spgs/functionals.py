"""Variational quantities: energies, weak-form residuals and Pohozaev balances.

Every functional of u along the dilation path t -> u(./t) is a polynomial in
t built from four integrals, held by ScalingTerms and computed once per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    RadialFunction,
    dual_norm,
    grad_norm_sq,
    integrate_values,
    laplacian_apply,
)
from .nonlinearity import Nonlinearity
from .poisson import solve_phi


@dataclass(frozen=True)
class EnergyBreakdown:
    """Components of the coupled energy at a given field.

    Gamma_value = I_value + nonlocal, where nonlocal = (lam/4) int phi_u u^2
    is nonnegative, so the coupled energy always dominates the limit energy.
    """

    kinetic: float
    mass: float
    nonlocal_term: float
    potential: float
    I_value: float
    Gamma_value: float


@dataclass(frozen=True)
class ScalingTerms:
    """The four terms behind every functional on the dilation path of u.

    A = |grad u|_2^2, B = |u|_2^2, C = int F(u) and the nonlocal energy
    K = (lam/4) int phi_u u^2 at the coupling lam.  Under u -> u(./t) they
    scale as t, t^3, t^3 and t^5, so the coupled energy of u(./t) is
    gamma(t) = (A/2) t - V t^3 + K t^5 with V = C - B/2.
    """

    A: float
    B: float
    C: float
    K: float

    @property
    def V(self) -> float:
        """Constraint functional int G(u) = C - B/2."""
        return self.C - 0.5 * self.B

    def gamma(self, t: float) -> float:
        """Coupled energy of u(./t)."""
        return 0.5 * self.A * t - self.V * t**3 + self.K * t**5

    def peak(self) -> float:
        """Local maximizer of gamma on t > 0, or inf when gamma only increases.

        gamma'(t) = A/2 - 3 V t^2 + 5 K t^4 is a quadratic in t^2; its smaller
        root t^2 = A / (3 V + sqrt(9 V^2 - 10 K A)) is the maximizer, in a form
        without cancellation as K -> 0, where it tends to A / (6 V).
        """
        disc = 9.0 * self.V**2 - 10.0 * self.K * self.A
        denom = 3.0 * self.V + math.sqrt(disc) if disc >= 0.0 else 0.0
        return math.sqrt(self.A / denom) if denom > 0.0 else math.inf

    def breakdown(self) -> EnergyBreakdown:
        """Energy components of u itself (t = 1)."""
        kinetic = 0.5 * self.A
        mass = 0.5 * self.B
        i_val = kinetic + mass - self.C
        return EnergyBreakdown(
            kinetic=kinetic,
            mass=mass,
            nonlocal_term=self.K,
            potential=self.C,
            I_value=i_val,
            Gamma_value=i_val + self.K,
        )

    def dilation_balance(self) -> tuple[float, float]:
        """gamma'(1) = A/2 + 3B/2 + 5K - 3C, absolute and relative to the sum
        of its term magnitudes; it vanishes at critical points of the energy."""
        kin, mass3, nl5, pot3 = 0.5 * self.A, 1.5 * self.B, 5.0 * self.K, 3.0 * self.C
        res = kin + mass3 + nl5 - pot3
        scale = kin + mass3 + abs(pot3) + nl5
        return res, (abs(res) / scale if scale != 0.0 else 0.0)


def scaling_terms(u: RadialFunction, nl: Nonlinearity, lam: float = 0.0) -> ScalingTerms:
    """The four scaling terms of u; the Poisson solve runs only for lam > 0."""
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    return ScalingTerms(
        A=grad_norm_sq(u),
        B=integrate_values(u.grid, u.values**2),
        C=integrate_values(u.grid, nl.F(u.values)),
        K=0.25 * lam * solve_phi(u, lam).coupling if lam > 0 else 0.0,
    )


def energy(u: RadialFunction, nl: Nonlinearity, lam: float) -> EnergyBreakdown:
    """Energy breakdown of both the coupled and the limit functional."""
    return scaling_terms(u, nl, lam).breakdown()


def gradient_residual(u: RadialFunction, nl: Nonlinearity, lam: float) -> RadialFunction:
    """Strong-form residual -Delta u + u + lam phi_u u - f(u) on the grid.

    Its pairing against test fields through the quadrature weights is the
    directional derivative of the coupled energy.
    """
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    res = -laplacian_apply(u) + u.values - np.asarray(nl.f(u.values), dtype=float)
    if lam > 0:
        phi = solve_phi(u, lam).phi
        res = res + lam * phi.values * u.values
    return RadialFunction(u.grid, res)


def residual_dual_norm(u: RadialFunction, nl: Nonlinearity, lam: float) -> float:
    """Dual norm of the residual in the discrete H^1 pairing."""
    res = gradient_residual(u, nl, lam)
    return dual_norm(u.grid, res.values)


def pohozaev_P(u: RadialFunction, nl: Nonlinearity) -> float:
    """P(u) = |grad u|_2^2 - 6 int G(u); zero on the Pohozaev manifold."""
    terms = scaling_terms(u, nl)
    return terms.A - 6.0 * terms.V


def pohozaev_residual_lambda(u: RadialFunction, nl: Nonlinearity, lam: float) -> float:
    """Dilation-stationarity balance of the coupled energy.

    d/dt Gamma_lam(u(./t)) at t = 1 equals
    (1/2)|grad u|^2 + (3/2)|u|_2^2 + (5 lam/4) int phi_u u^2 - 3 int F(u).
    Vanishes at critical points; reported as a diagnostic, never enforced.
    """
    return scaling_terms(u, nl, lam).dilation_balance()[0]


def pohozaev_residual_lambda_relative(u: RadialFunction, nl: Nonlinearity, lam: float) -> float:
    """lambda-Pohozaev residual normalized by the magnitude of its terms."""
    return scaling_terms(u, nl, lam).dilation_balance()[1]


def V_value(u: RadialFunction, nl: Nonlinearity) -> float:
    """Constraint functional V(u) = int G(u)."""
    return scaling_terms(u, nl).V


def T0_value(u: RadialFunction) -> float:
    """Constraint functional T0(u) = (1/2) int |grad u|^2."""
    return 0.5 * grad_norm_sq(u)
