"""Radial discretization of R^3: grids, quadrature, norms and differential operators.

Functions on R^3 are represented by their radial profile sampled on a uniform
grid over [0, R].  All integrals are taken against the volume measure
4*pi*r^2 dr, so `integrate_values` returns genuine three-dimensional integrals
of the radial extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, R] with 3D quadrature weights and the
    conservative stencil of the radial Laplacian.

    weights[i] is the quadrature weight of node i against 4*pi*r^2 dr:
    sum(weights * g(nodes)) approximates the integral of g over R^3.

    The stencil is written once, in flux form: conductance[i] = 4 pi
    r_{i+1/2}^2 / h couples nodes i and i+1, and mass[i] is the volume of the
    cell of node i (4 pi h r_i^2, the ball of radius h/2 at the centre, half a
    cell at R).  Then -Delta_h u = -diff(conductance * diff(u)) / mass, so
    mass * (-Delta_h) is symmetric and sum(conductance * diff(u)**2) is its
    quadratic form.  bands holds the three diagonals of -Delta_h (upper,
    main, lower, in the layout of scipy.linalg.solve_banded), with the last
    row replaced by the Dirichlet identity.  riesz_lu is the helmholtz_lu
    factor of the Riesz operator -Delta_h + 1, which solve_riesz back-solves.
    All arrays are read-only.
    """

    R: float
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    conductance: np.ndarray
    mass: np.ndarray
    bands: np.ndarray
    riesz_lu: tuple[np.ndarray, ...]

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

    faces = 0.5 * (nodes[1:] + nodes[:-1])
    conductance = 4.0 * np.pi * faces**2 / h
    mass = h * gt
    mass[0] = np.pi * h**3 / 6.0
    mass[-1] *= 0.5
    # row i of -Delta_h: (c_{i-1} + c_i) u_i - c_{i-1} u_{i-1} - c_i u_{i+1},
    # divided by m_i; the last row is the identity
    bands = np.zeros((3, n))
    bands[0, 1:] = -conductance / mass[:-1]
    bands[1, 0] = conductance[0] / mass[0]
    bands[1, 1:-1] = (conductance[:-1] + conductance[1:]) / mass[1:-1]
    bands[1, -1] = 1.0
    bands[2, :-2] = -conductance[:-1] / mass[1:-1]
    # -Delta_h + 1 is strictly diagonally dominant, so the factor cannot fail
    riesz_lu = _shifted_lu(bands, 1.0)
    for a in (nodes, weights, conductance, mass, bands, *riesz_lu):
        a.setflags(write=False)
    return RadialGrid(R=R, n=n, nodes=nodes, weights=weights,
                      conductance=conductance, mass=mass, bands=bands,
                      riesz_lu=riesz_lu)


def integrate_values(grid: RadialGrid, values: np.ndarray) -> float:
    return float(np.dot(grid.weights, values))


def grad_norm_sq(u: RadialFunction) -> float:
    """Dirichlet energy 4*pi * int_0^R u'(r)^2 r^2 dr.

    Face differences weighted by the conductances: the exact quadratic form
    of the discrete Laplacian (summation by parts holds at the discrete level).
    """
    return float(np.dot(u.grid.conductance, np.diff(u.values) ** 2))


def norm_lq(u: RadialFunction, q: float) -> float:
    """L^q(R^3) norm of the radial extension."""
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    return float(integrate_values(u.grid, np.abs(u.values) ** q) ** (1.0 / q))


def h1_norm_sq(u: RadialFunction) -> float:
    """Squared H^1 norm, gradient part plus L^2 part."""
    return grad_norm_sq(u) + integrate_values(u.grid, u.values**2)


def _end_slope(m0: float, m1: float) -> float:
    """One-sided three-point end slope from the end secant m0 and its
    neighbour m1, zeroed or capped where it would break monotonicity."""
    d = 0.5 * (3.0 * m0 - m1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def dilate(u: RadialFunction, t: float) -> RadialFunction:
    """Return r -> u(r/t) resampled on the same grid.

    Monotone piecewise cubic interpolation (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 1980) avoids overshoot that would create spurious negative
    values in positive profiles: the node slopes are the harmonic mean of
    neighbouring secants of one sign and zero at a local extremum.  Radii
    beyond the original support map to zero, and the Dirichlet tail value is
    preserved.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"dilation scale must be positive and finite, got {t}")
    if t == 1.0:
        return RadialFunction(u.grid, u.values.copy())
    grid = u.grid
    y = u.values
    # secants and node slopes, both per cell
    m = np.diff(y)
    prod = m[:-1] * m[1:]
    same = prod > 0.0
    d = np.zeros_like(y)
    d[1:-1][same] = 2.0 * prod[same] / (m[:-1][same] + m[1:][same])
    d[0] = _end_slope(m[0], m[1])
    d[-1] = _end_slope(m[-1], m[-2])

    r_src = grid.nodes / t
    inside = r_src <= grid.R
    x = r_src[inside] / grid.h
    i = np.minimum(x.astype(np.intp), grid.n - 2)
    s = x - i
    c = 1.0 - s
    vals = np.zeros_like(y)
    vals[inside] = (y[i] * (1.0 + 2.0 * s) * c * c + y[i + 1] * (1.0 + 2.0 * c) * s * s
                    + s * c * (d[i] * c - d[i + 1] * s))
    vals[-1] = 0.0 if abs(y[-1]) == 0.0 else vals[-1]
    return RadialFunction(grid, vals)


def laplacian_apply(u: RadialFunction) -> np.ndarray:
    """Conservative radial Laplacian u'' + (2/r) u' at the nodes.

    Differences of the face fluxes conductance * diff(u), divided by the node
    masses; at r = 0 this is 6 (u_1 - u_0)/h^2, the operator limit 3 u''(0)
    with the reflected ghost value.  The last node is left at 0 (Dirichlet
    rows handle it).
    """
    grid = u.grid
    out = np.zeros_like(u.values)
    out[:-1] = np.diff(grid.conductance * np.diff(u.values), prepend=0.0) / grid.mass[:-1]
    return out


def _shifted_lu(bands: np.ndarray, shift: np.ndarray | float) -> tuple[np.ndarray, ...]:
    """LAPACK dgttrf factor (dl, d, du, du2, ipiv) of the tridiagonal bands
    plus diag(shift) on every row but the last (Dirichlet) one."""
    diag = bands[1].copy()
    diag[:-1] += np.broadcast_to(np.asarray(shift, dtype=float), diag.shape)[:-1]
    *lu, info = dgttrf(bands[2, :-1], diag, bands[0, 1:])
    if info > 0:
        raise LinAlgError("singular matrix")
    return tuple(lu)


def helmholtz_lu(grid: RadialGrid, shift: np.ndarray | float) -> tuple[np.ndarray, ...]:
    """Factor -Delta + shift with w(R) = 0 once, in O(n), for solve_lu.

    A shift that makes the operator singular raises LinAlgError.
    """
    return _shifted_lu(grid.bands, shift)


def solve_lu(lu: tuple[np.ndarray, ...], rhs: np.ndarray) -> np.ndarray:
    """Back-solve a helmholtz_lu factor; rhs is one field (n,) or k fields
    as the columns of an (n, k) array, whose last row is taken as 0.

    A non-finite rhs raises ValueError, as scipy's check_finite does.
    """
    b = np.array(rhs, dtype=float)
    b[-1] = 0.0
    return dgttrs(*lu, np.asarray_chkfinite(b), overwrite_b=1)[0]


def solve_riesz(grid: RadialGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Delta + 1) w = rhs with w(R) = 0 through the factor of make_grid."""
    return solve_lu(grid.riesz_lu, rhs)


def solve_helmholtz(grid: RadialGrid, shift: np.ndarray | float, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Delta + shift) w = rhs with w(R) = 0, tridiagonal in O(n).

    Factors the shifted matrix on every call, once for all columns of an
    (n, k) rhs; solve_riesz serves shift 1.
    """
    return solve_lu(helmholtz_lu(grid, shift), rhs)


def dual_norm(grid: RadialGrid, residual: np.ndarray) -> float:
    """H^-1 style dual norm of a strong-form residual field.

    The residual is paired against test fields through the quadrature weights;
    its Riesz representative w solves (-Delta + 1) w = residual, and the dual
    norm is sqrt(<residual, w>) in the discrete pairing.
    """
    w = solve_riesz(grid, residual)
    val = float(np.dot(grid.weights, residual * w))
    return math.sqrt(max(val, 0.0))

