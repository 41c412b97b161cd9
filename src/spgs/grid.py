"""Radial discretization of R^3: grids, quadrature, norms and differential operators.

Functions on R^3 are represented by their radial profile sampled on a uniform
grid over [0, R].  All integrals are taken against the volume measure
4*pi*r^2 dr, so `integrate_values` returns genuine three-dimensional integrals
of the radial extension.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg re-exports

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum


def load_scipy():
    """scipy's LAPACK extension, the file scipy/linalg/_flapack, loaded from
    that file without importing the scipy package or scipy.linalg.

    Their __init__ modules pull in scipy._lib and through it numpy.f2py,
    numpy.testing and numpy.ma: most of the time and close to half the memory
    of `import spgs`, for two LAPACK routines.  The module is left out of
    sys.modules, so a later import of scipy.linalg binds it as its own
    attribute, from the same routines.  A missing file fails with an
    ImportError that names the directory it looked in.
    """
    spec = find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("spgs needs scipy", name="scipy")
    where = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        file = os.path.join(where, "_flapack" + suffix)
        if os.path.isfile(file):
            break
    else:
        raise ImportError(f"scipy's _flapack not found in {where}")
    name = "scipy.linalg._flapack"
    registered = name in sys.modules
    module = module_from_spec(spec_from_file_location(name, file))
    module.__spec__.loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module


# dgttrf and dgttrs are the f2py routines that scipy.linalg.lapack exports, so
# every factor and solve is unchanged
_flapack = load_scipy()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs


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
        if not np.isfinite(values).all():
            raise ValueError("non-finite values in RadialFunction")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values - other.values)


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


def pair(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b), the one reduction of two arrays in spgs.

    numpy's own summation loop (einsum), not BLAS ddot, which splits sums of
    more than 10 000 terms over threads: the bits of the result, and of every
    output, do not depend on the BLAS thread count.  It calls einsum's C
    kernel, c_einsum, directly: np.einsum without optimize returns
    c_einsum(*operands) and adds only its Python dispatch, about as long as
    the sum itself at n = 750.
    """
    return float(c_einsum("i,i", a, b))


def integrate_values(grid: RadialGrid, values: np.ndarray) -> float:
    """Integral over R^3 of the radial field with these node values; the
    pairing of two fields u, v is integrate_values(grid, u * v)."""
    return pair(grid.weights, values)


def grad_norm_sq(u: RadialFunction) -> float:
    """Dirichlet energy 4*pi * int_0^R u'(r)^2 r^2 dr.

    Face differences weighted by the conductances: the exact quadratic form
    of the discrete Laplacian (summation by parts holds at the discrete level).
    """
    return pair(u.grid.conductance, (u.values[1:] - u.values[:-1]) ** 2)


_TINY = np.finfo(float).tiny  # the smallest normal float


def lq_integral(u: RadialFunction, q: float) -> float:
    """Integral of |u|^q over R^3, q >= 1.

    Nodes where |u|^q falls below the smallest normal float count as 0: each
    adds less than that to the sum, and libm's pow takes a slow path, 30 to
    40 times its usual cost, exactly where its result underflows.
    """
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    a = np.abs(u.values)
    power = np.zeros(a.size)
    np.power(a, q, out=power, where=a >= _TINY ** (1.0 / q))
    return integrate_values(u.grid, power)


def norm_lq(u: RadialFunction, q: float) -> float:
    """L^q(R^3) norm of the radial extension."""
    return float(lq_integral(u, q) ** (1.0 / q))


def h1_norm_sq(u: RadialFunction) -> float:
    """Squared H^1 norm, gradient part plus L^2 part."""
    return grad_norm_sq(u) + integrate_values(u.grid, u.values**2)


def _sign(x: float) -> float:
    """np.sign of a Python float: -1.0 or 1.0, and x itself for a zero or NaN."""
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x


def _end_slope(m0: float, m1: float) -> float:
    """One-sided three-point end slope from the end secant m0 and its
    neighbour m1, zeroed or capped where it would break monotonicity, in
    Python floats."""
    d = 0.5 * (3.0 * m0 - m1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def monotone_slopes(u: RadialFunction) -> np.ndarray:
    """Node slopes, per cell, of the monotone piecewise cubic through u.

    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980): the harmonic mean of
    neighbouring secants of one sign, zero at a local extremum, and
    one-sided three-point slopes at the ends (_end_slope).
    """
    y = u.values
    m = y[1:] - y[:-1]
    prod = m[:-1] * m[1:]
    d = np.zeros(y.size)
    np.divide(2.0 * prod, m[:-1] + m[1:], out=d[1:-1], where=prod > 0.0)
    d[0] = _end_slope(m.item(0), m.item(1))
    d[-1] = _end_slope(m.item(-1), m.item(-2))
    return d


def dilate(u: RadialFunction, t: float, slopes: np.ndarray | None = None,
           onto: RadialGrid | None = None) -> RadialFunction:
    """Return r -> u(r/t) resampled on the grid onto, by default u's own.

    The monotone piecewise cubic of monotone_slopes avoids overshoot that
    would create spurious negative values in positive profiles.  slopes are
    those of u, passed by callers that dilate one field several times;
    otherwise they are built here.  With t = 1 and a finer grid onto over the
    same R, this prolongs u from a coarse grid.  The nodes of onto whose
    source radius r/t lies within the R of u form a prefix of that grid;
    radii beyond the original support map to zero, and the Dirichlet tail
    value is preserved.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"dilation scale must be positive and finite, got {t}")
    grid = u.grid
    onto = grid if onto is None else onto
    if t == 1.0 and onto == grid:
        return RadialFunction(grid, u.values.copy())
    y = u.values
    d = monotone_slopes(u) if slopes is None else slopes

    r_src = onto.nodes / t
    # r_src increases with the nodes, so the radii within R are a prefix
    k = int(r_src.searchsorted(grid.R, side="right"))
    s = r_src[:k]
    s /= grid.h
    i = s.astype(np.intp)
    np.minimum(i, grid.n - 2, out=i)
    s -= i
    c = 1.0 - s
    # y_i (1 + 2s) c c + y_{i+1} (1 + 2c) s s + s c (d_i c - d_{i+1} s) in
    # place, in this order of operations, so every bit is the expression's;
    # y[1:].take(i) is y[i + 1], and i in [0, n - 2] makes mode="clip" exact
    vals = np.zeros(onto.n)
    lo, hi, w = y.take(i, mode="clip"), y[1:].take(i, mode="clip"), 2.0 * s
    w += 1.0
    lo *= w
    lo *= c
    lo *= c
    np.multiply(c, 2.0, out=w)
    w += 1.0
    hi *= w
    hi *= s
    hi *= s
    np.add(lo, hi, out=vals[:k])
    np.multiply(s, c, out=w)
    d.take(i, out=lo, mode="clip")
    lo *= c
    d[1:].take(i, out=hi, mode="clip")
    hi *= s
    lo -= hi
    lo *= w
    vals[:k] += lo
    vals[-1] = 0.0 if abs(y[-1]) == 0.0 else vals[-1]
    return RadialFunction(onto, vals)


def laplacian_apply(u: RadialFunction) -> np.ndarray:
    """Conservative radial Laplacian u'' + (2/r) u' at the nodes.

    Differences of the face fluxes conductance * diff(u), divided by the node
    masses; at r = 0 this is 6 (u_1 - u_0)/h^2, the operator limit 3 u''(0)
    with the reflected ghost value.  The last node is left at 0 (Dirichlet
    rows handle it).
    """
    grid = u.grid
    flux = grid.conductance * (u.values[1:] - u.values[:-1])
    out = np.empty_like(u.values)
    out[0] = flux[0] / grid.mass[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[1:-1] /= grid.mass[1:-1]
    out[-1] = 0.0
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
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return dgttrs(*lu, b, overwrite_b=1)[0]


def solve_riesz(grid: RadialGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Delta + 1) w = rhs with w(R) = 0 through the factor of make_grid."""
    return solve_lu(grid.riesz_lu, rhs)


def dual_norm(grid: RadialGrid, residual: np.ndarray) -> float:
    """H^-1 style dual norm of a strong-form residual field.

    The residual is paired against test fields through the quadrature weights;
    its Riesz representative w solves (-Delta + 1) w = residual, and the dual
    norm is sqrt(<residual, w>) in the discrete pairing.
    """
    w = solve_riesz(grid, residual)
    val = integrate_values(grid, residual * w)
    return math.sqrt(max(val, 0.0))

