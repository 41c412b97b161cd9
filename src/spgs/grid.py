"""Radial discretization of R^3: grids, quadrature, norms and differential operators.

Functions on R^3 are represented by their radial profile sampled on a uniform
grid over [0, R].  All integrals are taken against the volume measure
4*pi*r^2 dr, so `integrate` returns genuine three-dimensional integrals of the
radial extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, R] with 3D quadrature weights.

    weights[i] is the quadrature weight of node i against 4*pi*r^2 dr:
    sum(weights * g(nodes)) approximates the integral of g over R^3.
    """

    R: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def h(self) -> float:
        return self.R / (self.n - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadialGrid)
            and self.R == other.R
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.R, self.n))


@dataclass(frozen=True)
class RadialFunction:
    """Radially symmetric field sampled on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in RadialFunction")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values - other.values)

    def __mul__(self, a: float) -> "RadialFunction":
        return RadialFunction(self.grid, self.values * float(a))

    __rmul__ = __mul__


def _check_same_grid(u: RadialFunction, v: RadialFunction) -> None:
    if u.grid != v.grid:
        raise ValueError("RadialFunctions live on different grids")


def make_grid(R: float, n: int) -> RadialGrid:
    """Build a uniform grid with trapezoid weights against 4*pi*r^2 dr.

    The plain trapezoid rule integrates the measure itself with an O(h^2)
    defect, so an Euler-Maclaurin endpoint correction (second-order one-sided
    derivative at r = R) is folded into the last three weights.  Constants are
    then integrated exactly: sum(weights) == (4/3)*pi*R^3 to machine precision.
    """
    R = float(R)
    if not math.isfinite(R) or R <= 0:
        raise ValueError(f"outer radius must be finite and positive, got {R}")
    n = int(n)
    if n < 16:
        raise ValueError(f"node count must be at least 16, got {n}")

    nodes = np.linspace(0.0, R, n)
    h = R / (n - 1)
    gt = 4.0 * np.pi * nodes**2  # integrand prefactor at the nodes
    weights = h * gt
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # Euler-Maclaurin endpoint term -(h^2/12) g'(R); g'(0) vanishes by the r^2
    # factor.  One-sided 3-point derivative keeps quadratics (hence g == 1) exact.
    weights[-1] -= (h / 24.0) * 3.0 * gt[-1]
    weights[-2] += (h / 24.0) * 4.0 * gt[-2]
    weights[-3] -= (h / 24.0) * 1.0 * gt[-3]
    weights.setflags(write=False)
    nodes.setflags(write=False)
    return RadialGrid(R=R, n=n, nodes=nodes, weights=weights)


def from_callable(grid: RadialGrid, fn) -> RadialFunction:
    return RadialFunction(grid, np.asarray(fn(grid.nodes), dtype=float))


def integrate(g: RadialFunction) -> float:
    """3D integral of the radial extension of g."""
    return float(np.dot(g.grid.weights, g.values))


def integrate_values(grid: RadialGrid, values: np.ndarray) -> float:
    return float(np.dot(grid.weights, values))


def inner(u: RadialFunction, v: RadialFunction) -> float:
    """L^2(R^3) inner product."""
    _check_same_grid(u, v)
    return float(np.dot(u.grid.weights, u.values * v.values))


def grad_norm_sq(u: RadialFunction) -> float:
    """Dirichlet energy 4*pi * int_0^R u'(r)^2 r^2 dr.

    Uses centered differences at the cell faces r_{i+1/2} with the midpoint
    rule, which is the exact quadratic form of the conservative discrete
    Laplacian (summation by parts holds at the discrete level).
    """
    grid = u.grid
    h = grid.h
    faces = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    du = np.diff(u.values) / h
    return float(4.0 * np.pi * h * np.sum(faces**2 * du**2))


def norm_lq(u: RadialFunction, q: float) -> float:
    """L^q(R^3) norm of the radial extension."""
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    return float(integrate_values(u.grid, np.abs(u.values) ** q) ** (1.0 / q))


def h1_norm_sq(u: RadialFunction) -> float:
    """Squared H^1 norm, gradient part plus L^2 part."""
    return grad_norm_sq(u) + integrate_values(u.grid, u.values**2)


def dilate(u: RadialFunction, t: float) -> RadialFunction:
    """Return r -> u(r/t) resampled on the same grid.

    Monotone cubic interpolation avoids overshoot that would create spurious
    negative values in positive profiles.  Radii beyond the original support
    map to zero, and the Dirichlet tail value is preserved.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"dilation scale must be positive and finite, got {t}")
    if t == 1.0:
        return RadialFunction(u.grid, u.values.copy())
    interp = PchipInterpolator(u.grid.nodes, u.values, extrapolate=False)
    r_src = u.grid.nodes / t
    vals = interp(r_src)
    vals = np.where(np.isnan(vals), 0.0, vals)
    vals[-1] = 0.0 if abs(u.values[-1]) == 0.0 else vals[-1]
    return RadialFunction(u.grid, vals)


def laplacian_apply(u: RadialFunction) -> np.ndarray:
    """Conservative radial Laplacian u'' + (2/r) u' at the nodes.

    Flux form (r^2 u')' / r^2 in the interior; at r = 0 the operator limit
    3 u''(0) is used with the reflected ghost value, i.e. 6 (u_1 - u_0)/h^2.
    The last node is left untouched (Dirichlet rows handle it).
    """
    grid = u.grid
    h = grid.h
    r = grid.nodes
    faces = 0.5 * (r[1:] + r[:-1])
    flux = faces**2 * np.diff(u.values) / h
    out = np.zeros_like(u.values)
    out[1:-1] = (flux[1:] - flux[:-1]) / (h * r[1:-1] ** 2)
    out[0] = 6.0 * (u.values[1] - u.values[0]) / h**2
    out[-1] = 0.0
    return out


def laplacian_bands(grid: RadialGrid) -> np.ndarray:
    """Banded (ab) representation of -laplacian_apply with a Dirichlet last row.

    Returns the 3 x n array consumed by scipy.linalg.solve_banded for the
    operator v -> -Delta v, with row n-1 replaced by the identity.
    """
    h = grid.h
    r = grid.nodes
    n = grid.n
    faces = 0.5 * (r[1:] + r[:-1])
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)

    diag[0] = 6.0 / h**2
    upper[1] = -6.0 / h**2

    rin = r[1:-1]
    fm = faces[:-1] ** 2
    fp = faces[1:] ** 2
    diag[1:-1] = (fm + fp) / (h**2 * rin**2)
    lower[0:-2] = -fm / (h**2 * rin**2)
    upper[2:] = -fp / (h**2 * rin**2)

    diag[-1] = 1.0
    lower[-2] = 0.0

    ab = np.zeros((3, n))
    ab[0, 1:] = upper[1:]
    ab[1, :] = diag
    ab[2, :-1] = lower[:-1]
    return ab


def solve_helmholtz(grid: RadialGrid, shift: np.ndarray | float, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Delta + shift) w = rhs with w(R) = 0, tridiagonal in O(n)."""
    ab = laplacian_bands(grid).copy()
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (grid.n,))
    ab[1, :-1] = ab[1, :-1] + shift[:-1]
    b = np.asarray(rhs, dtype=float).copy()
    b[-1] = 0.0
    return solve_banded((1, 1), ab, b)


def dual_norm(grid: RadialGrid, residual: np.ndarray) -> float:
    """H^-1 style dual norm of a strong-form residual field.

    The residual is paired against test fields through the quadrature weights;
    its Riesz representative w solves (-Delta + 1) w = residual, and the dual
    norm is sqrt(<residual, w>) in the discrete pairing.
    """
    w = solve_helmholtz(grid, 1.0, residual)
    val = float(np.dot(grid.weights, residual * w))
    return math.sqrt(max(val, 0.0))

