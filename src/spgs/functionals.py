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
    grad_norm_sq,
    integrate_values,
    laplacian_apply,
)
from .nonlinearity import Nonlinearity
from .poisson import PoissonSolution, solve_phi


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

    @property
    def I_value(self) -> float:
        """Limit energy A/2 + B/2 - C of u itself (t = 1)."""
        return 0.5 * self.A + 0.5 * self.B - self.C

    @property
    def Gamma_value(self) -> float:
        """Coupled energy I + K of u itself; K >= 0, so it dominates I."""
        return self.I_value + self.K

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

    def dilation_balance(self) -> tuple[float, float]:
        """gamma'(1) = A/2 + 3B/2 + 5K - 3C, absolute and relative to the sum
        of its term magnitudes; it vanishes at critical points of the energy."""
        kin, mass3, nl5, pot3 = 0.5 * self.A, 1.5 * self.B, 5.0 * self.K, 3.0 * self.C
        res = kin + mass3 + nl5 - pot3
        scale = kin + mass3 + abs(pot3) + nl5
        return res, (abs(res) / scale if scale != 0.0 else 0.0)


def _local_terms(u: RadialFunction, nl: Nonlinearity) -> tuple[float, float]:
    """B = |u|_2^2 and C = int F(u), the two terms of V."""
    return (integrate_values(u.grid, u.values**2),
            integrate_values(u.grid, nl.F(u.values)))


def scaling_terms(u: RadialFunction, nl: Nonlinearity, lam: float = 0.0) -> ScalingTerms:
    """The four scaling terms of u; the Poisson solve runs only for lam > 0."""
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    B, C = _local_terms(u, nl)
    return ScalingTerms(
        A=grad_norm_sq(u),
        B=B,
        C=C,
        K=0.25 * lam * solve_phi(u, lam).coupling if lam > 0 else 0.0,
    )


def energy(u: RadialFunction, nl: Nonlinearity, lam: float) -> ScalingTerms:
    """Scaling terms of u, whose I_value and Gamma_value are the limit and
    the coupled energy; an alias of scaling_terms with lam required."""
    return scaling_terms(u, nl, lam)


def gradient_residual(u: RadialFunction, nl: Nonlinearity,
                      lam: float) -> tuple[RadialFunction, PoissonSolution]:
    """Strong-form residual -Delta u + u + lam phi_u u - f(u) on the grid,
    with the Poisson solution of u at lam that it used.

    Its pairing against test fields through the quadrature weights is the
    directional derivative of the coupled energy.  Every call makes one
    solve_phi call, which at lam = 0 returns the zero potential unsolved.
    """
    if lam < 0:
        raise ValueError(f"coupling parameter must be nonnegative, got {lam}")
    res = -laplacian_apply(u) + u.values - np.asarray(nl.f(u.values), dtype=float)
    psol = solve_phi(u, lam)
    if lam > 0:
        res = res + lam * psol.phi.values * u.values
    return RadialFunction(u.grid, res), psol


def pohozaev_P(u: RadialFunction, nl: Nonlinearity) -> float:
    """P(u) = |grad u|_2^2 - 6 int G(u); zero on the Pohozaev manifold."""
    terms = scaling_terms(u, nl)
    return terms.A - 6.0 * terms.V


def V_value(u: RadialFunction, nl: Nonlinearity) -> float:
    """Constraint functional V(u) = int G(u) = C - B/2, without A.

    The same B and C, and the same difference, as ScalingTerms.V."""
    B, C = _local_terms(u, nl)
    return C - 0.5 * B


def T0_value(u: RadialFunction) -> float:
    """Constraint functional T0(u) = (1/2) int |grad u|^2."""
    return 0.5 * grad_norm_sq(u)
