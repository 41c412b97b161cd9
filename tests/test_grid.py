import math
import warnings

import numpy as np
import pytest

from oracles import banded_helmholtz_solve, pchip_dilate
from spgs import RadialFunction, dilate, grad_norm_sq, h1_norm_sq, make_grid, norm_lq
from spgs.grid import (
    dual_norm,
    helmholtz_lu,
    integrate_values,
    laplacian_apply,
    solve_helmholtz,
    solve_lu,
    solve_riesz,
)


def test_weights_integrate_constants_exactly():
    for R, n in ((30.0, 3000), (12.0, 4000), (7.3, 101), (1.0, 16)):
        g = make_grid(R, n)
        vol = 4.0 * math.pi * R**3 / 3.0
        assert abs(float(np.sum(g.weights)) - vol) <= 1e-10 * vol


def test_gaussian_moments():
    # int exp(-r^2) r^2 over R^3 = (3/2) pi^(3/2) * (1/2) ... computed directly:
    # 4 pi int r^4 exp(-r^2) dr = 4 pi * 3 sqrt(pi)/8 = (3/2) pi^(3/2)
    g = make_grid(12.0, 4000)
    val = integrate_values(g, g.nodes**2 * np.exp(-g.nodes**2))
    exact = 1.5 * math.pi**1.5
    assert abs(val - exact) <= 1e-8 * exact


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(-1.0, 100)
    with pytest.raises(ValueError):
        make_grid(math.inf, 100)
    with pytest.raises(ValueError):
        make_grid(10.0, 15)


def test_radial_function_validation():
    g = make_grid(10.0, 64)
    with pytest.raises(ValueError):
        RadialFunction(g, np.zeros(63))
    vals = np.zeros(64)
    vals[3] = math.nan
    with pytest.raises(ValueError):
        RadialFunction(g, vals)


def test_equal_grids_hash_equal():
    a, b = make_grid(30, 100), make_grid(30.0, 100)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, make_grid(30, 101)}) == 2


def test_mismatched_grids_rejected():
    u = RadialFunction(make_grid(10.0, 64), np.zeros(64))
    v = RadialFunction(make_grid(11.0, 64), np.zeros(64))
    with pytest.raises(ValueError):
        u + v


def test_grad_norm_gaussian():
    # |grad exp(-r^2/2)|^2 = r^2 exp(-r^2), integral (3/2) pi^(3/2)
    g = make_grid(12.0, 4000)
    u = RadialFunction(g, np.exp(-g.nodes**2 / 2.0))
    exact = 1.5 * math.pi**1.5
    assert abs(grad_norm_sq(u) - exact) <= 1e-6 * exact


def test_h1_norm_gaussian():
    g = make_grid(12.0, 4000)
    u = RadialFunction(g, np.exp(-g.nodes**2 / 2.0))
    exact = 1.5 * math.pi**1.5 + (math.pi / 1.0) ** 1.5
    assert abs(h1_norm_sq(u) - exact) <= 1e-6 * exact


def test_summation_by_parts():
    # <-Delta u, v> through the weights equals the Dirichlet form, the
    # polarization of grad_norm_sq, for compactly supported fields
    g = make_grid(20.0, 2000)
    u = RadialFunction(g, np.exp(-g.nodes**2))
    v = RadialFunction(g, np.exp(-((g.nodes - 2.0) ** 2)))
    lhs = float(np.dot(g.weights, -laplacian_apply(u) * v.values))
    rhs = 0.25 * (grad_norm_sq(u + v) - grad_norm_sq(u - v))
    assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), 1.0)


def test_laplacian_on_quadratic():
    # u = R^2 - r^2: Delta u = -6; the flux form carries a known h^2/(2 r^2)
    # defect near the origin, exact at the center node itself
    g = make_grid(10.0, 200)
    u = RadialFunction(g, g.R**2 - g.nodes**2)
    lap = laplacian_apply(u)
    assert abs(lap[0] + 6.0) <= 1e-10
    away = (g.nodes >= 1.0) & (g.nodes < g.R)
    assert np.max(np.abs(lap[away] + 6.0)) <= g.h**2


def test_laplacian_second_order_convergence():
    # nodal defect is O(1) at radii of order h (r^2-weighted quadrature makes
    # it harmless globally), so measure convergence away from the origin
    errs = []
    for n in (500, 1000, 2000):
        g = make_grid(10.0, n)
        u = RadialFunction(g, np.exp(-g.nodes**2))
        exact = (4.0 * g.nodes**2 - 6.0) * np.exp(-g.nodes**2)
        away = (g.nodes >= 0.5) & (g.nodes < g.R)
        errs.append(np.max(np.abs(laplacian_apply(u)[away] - exact[away])))
    order = min(math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))
    assert order >= 1.8


def test_norm_lq_and_validation():
    g = make_grid(12.0, 4000)
    u = RadialFunction(g, np.exp(-g.nodes**2 / 2.0))
    # |u|_q^q = (pi * 2/q)^(3/2) for the Gaussian family
    for q in (2.0, 4.0):
        exact = (2.0 * math.pi / q) ** 1.5
        assert abs(norm_lq(u, q) ** q - exact) <= 1e-8 * exact
    with pytest.raises(ValueError):
        norm_lq(u, 0.5)


def test_dilate_scalings():
    g = make_grid(20.0, 4000)
    u = RadialFunction(g, np.exp(-g.nodes**2 / 2.0))
    t = 1.5
    ut = dilate(u, t)
    # L^2 scales as t^3, gradient as t
    l2 = integrate_values(g, u.values**2)
    l2t = integrate_values(g, ut.values**2)
    assert abs(l2t - t**3 * l2) <= 1e-6 * l2
    assert abs(grad_norm_sq(ut) - t * grad_norm_sq(u)) <= 1e-5 * grad_norm_sq(u)


def test_dilate_identity_and_bad_scale():
    g = make_grid(10.0, 100)
    u = RadialFunction(g, np.exp(-g.nodes))
    same = dilate(u, 1.0)
    assert np.array_equal(same.values, u.values)
    with pytest.raises(ValueError):
        dilate(u, 0.0)
    with pytest.raises(ValueError):
        dilate(u, -2.0)


def test_dilate_preserves_zero_tail():
    g = make_grid(10.0, 500)
    vals = np.maximum(0.0, 1.0 - g.nodes / 2.0)
    u = RadialFunction(g, vals)
    shrunk = dilate(u, 0.5)
    assert np.all(shrunk.values[g.nodes > 1.2] == 0.0)


@pytest.mark.parametrize("n", [750, 3000])
@pytest.mark.parametrize("t", [0.7, 1.3])
def test_dilate_matches_pchip_oracle(n, t):
    g = make_grid(30.0, n)
    r = g.nodes
    for vals in (4.0 * np.exp(-r**2 / 4.0), np.sin(r) * np.exp(-r / 5.0),
                 3.0 * np.maximum(0.0, 1.0 - (r / 5.0) ** 2) ** 2):
        u = RadialFunction(g, vals)
        err = np.max(np.abs(dilate(u, t).values - pchip_dilate(u, t).values))
        assert err <= 1e-14 * np.max(np.abs(vals))


def test_dilate_subnormal_tail_is_quiet():
    # the tail of this bump underflows to subnormals and zeros, where the
    # harmonic-mean slope of scipy's PCHIP overflows
    g = make_grid(30.0, 750)
    u = RadialFunction(g, 5.0 * np.exp(-(g.nodes / 0.12) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5, 0.9, 1.1, 2.0):
            assert np.all(dilate(u, t).values >= 0.0)


def test_solve_helmholtz_manufactured():
    # w = exp(-r^2), rhs = (-Delta + 1) w known in closed form
    g = make_grid(15.0, 3000)
    r = g.nodes
    w_exact = np.exp(-r**2)
    rhs = (-4.0 * r**2 + 6.0) * w_exact + w_exact
    w = solve_helmholtz(g, 1.0, rhs)
    assert np.max(np.abs(w - w_exact)) <= 2e-4


def test_solve_helmholtz_leaves_grid_bands_unchanged():
    g = make_grid(15.0, 800)
    bands = g.bands.copy()
    rhs = np.exp(-g.nodes)
    shift = 1.0 + np.exp(-g.nodes**2)
    first = solve_helmholtz(g, shift, rhs)
    solve_helmholtz(g, 2.0, rhs)
    assert np.array_equal(g.bands, bands)
    assert np.array_equal(solve_helmholtz(g, shift, rhs), first)


def test_grid_arrays_are_read_only():
    g = make_grid(15.0, 800)
    arrays = {k: v for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"nodes", "weights", "conductance", "mass", "bands"}
    assert len(g.riesz_lu) == 5
    for a in (*arrays.values(), *g.riesz_lu):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # solving leaves the factor as it was
    factor = [a.copy() for a in g.riesz_lu]
    solve_riesz(g, np.exp(-g.nodes))
    assert all(np.array_equal(a, b) for a, b in zip(g.riesz_lu, factor))


@pytest.mark.parametrize("n", [750, 3000, 12000])
def test_riesz_factor_solve_matches_solve_banded_bitwise(n):
    g = make_grid(30.0, n)
    rhs = np.random.default_rng(n).standard_normal(n)
    w = solve_riesz(g, rhs)
    assert np.array_equal(w, banded_helmholtz_solve(g, 1.0, rhs))


@pytest.mark.parametrize("n", [750, 3000, 12000])
def test_helmholtz_factor_solve_matches_solve_banded_bitwise(n):
    # variable shifts, indefinite ones included, and two right sides at once
    g = make_grid(30.0, n)
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((n, 2))
    for shift in (1.0 + rng.random(n), 1.0 - 3.0 * np.exp(-g.nodes**2)):
        ref = banded_helmholtz_solve(g, shift, rhs)
        assert np.array_equal(solve_helmholtz(g, shift, rhs), ref)
        lu = helmholtz_lu(g, shift)
        assert np.array_equal(solve_lu(lu, rhs[:, 0]), ref[:, 0])
        assert np.array_equal(solve_lu(lu, rhs[:, 1]), ref[:, 1])


def test_singular_helmholtz_factor_raises():
    # a zero interior diagonal leaves an odd-sized tridiagonal block, which is
    # singular
    g = make_grid(30.0, 16)
    with pytest.raises(np.linalg.LinAlgError):
        helmholtz_lu(g, -g.bands[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_riesz_solve_rejects_non_finite_rhs(bad):
    g = make_grid(15.0, 800)
    rhs = np.exp(-g.nodes)
    rhs[g.n // 2] = bad
    with pytest.raises(ValueError):
        solve_riesz(g, rhs)
    # the Dirichlet row ignores the last entry of rhs, as solve_helmholtz does
    rhs = np.exp(-g.nodes)
    rhs[-1] = bad
    assert np.array_equal(solve_riesz(g, rhs), solve_helmholtz(g, 1.0, rhs))


def _banded_apply(g, u):
    """-Delta_h u from the bands, rows 0..n-2."""
    b = g.bands
    out = b[1] * u
    out[:-1] += b[0, 1:] * u[1:]
    out[1:] += b[2, :-1] * u[:-1]
    return out[:-1]


@pytest.mark.parametrize("n", [750, 3000])
def test_mass_times_laplacian_is_symmetric(n):
    # m (-Delta_h) couples nodes i and i+1 by -c_i from both sides, so it is
    # symmetric on the rows above the Dirichlet row
    g = make_grid(30.0, n)
    upper = g.mass[:-2] * g.bands[0, 1:-1]  # row i, column i+1
    lower = g.mass[1:-1] * g.bands[2, :-2]  # row i+1, column i
    scale = np.max(np.abs(g.mass[:-1] * g.bands[1, :-1]))
    assert np.max(np.abs(upper - lower)) <= 1e-14 * scale
    assert np.allclose(upper, -g.conductance[:-1], rtol=1e-14, atol=0.0)
    # the bands are the operator that laplacian_apply applies
    u = np.random.default_rng(n).standard_normal(n)
    lap = -laplacian_apply(RadialFunction(g, u))[:-1]
    assert np.max(np.abs(_banded_apply(g, u) - lap)) <= 1e-13 * np.max(np.abs(lap))


@pytest.mark.parametrize("n", [750, 3000])
def test_mass_pairing_is_the_dirichlet_form(n):
    # sum m v (-Delta_h u) = sum c du dv exactly (summation by parts with the
    # node masses) for fields that vanish at R
    g = make_grid(30.0, n)
    rng = np.random.default_rng(n)
    u, v = rng.standard_normal((2, n))
    u[-1] = v[-1] = 0.0
    lhs = float(np.dot(g.mass, v * -laplacian_apply(RadialFunction(g, u))))
    rhs = float(np.dot(g.conductance, np.diff(u) * np.diff(v)))
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
    assert grad_norm_sq(RadialFunction(g, u)) == pytest.approx(
        float(np.dot(g.mass, u * -laplacian_apply(RadialFunction(g, u)))), rel=1e-13)


def test_dual_norm_nonnegative_and_scales():
    g = make_grid(10.0, 500)
    res = np.exp(-g.nodes)
    a = dual_norm(g, res)
    assert a > 0
    assert abs(dual_norm(g, 2.0 * res) - 2.0 * a) <= 1e-12 * a
