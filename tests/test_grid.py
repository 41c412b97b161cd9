import ast
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    banded_helmholtz_solve,
    lapack_helmholtz_lu,
    lapack_helmholtz_solve,
    pchip_dilate,
    reference_dilate,
    reference_end_slope,
    reference_laplacian,
    reference_monotone_slopes,
)
from spgs import RadialFunction, dilate, grad_norm_sq, h1_norm_sq, make_grid, norm_lq
from spgs.grid import (
    LinAlgError,
    _end_slope,
    dual_norm,
    helmholtz_lu,
    integrate_values,
    laplacian_apply,
    monotone_slopes,
    pair,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radial_function_rejects_non_finite_values(bad):
    g = make_grid(15.0, 800)
    for node in (0, g.n // 2, g.n - 2):
        vals = np.exp(-g.nodes)
        vals[node] = bad
        with pytest.raises(ValueError, match="^non-finite values in RadialFunction$"):
            RadialFunction(g, vals)


def test_largest_floats_are_finite_values():
    # a finiteness test that sums the values would overflow here, and
    # RuntimeWarning is an error in this suite
    g = make_grid(15.0, 800)
    huge = np.full(g.n, 1e308)
    assert np.array_equal(RadialFunction(g, huge).values, huge)
    assert solve_riesz(g, huge).shape == (g.n,)


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


@pytest.mark.parametrize("q", [2.0, 12.0 / 5.0, 3.0, 5.5, 6.0])
def test_norm_lq_is_unchanged_by_underflowing_tails(q):
    # |u|^q below the smallest normal float counts as 0, which leaves the
    # norm of a profile with a tail of tiny, subnormal or zero values as it
    # is, and the same bits as the sum over every |u|^q
    g = make_grid(30.0, 3000)
    vals = 2.0 * np.exp(-g.nodes**2 / 8.0)
    vals[-1] = 0.0
    tail = vals.copy()
    tail[2000:] = np.resize([1e-100, -1e-150, 1e-200, 1e-300, 5e-324, -0.0], 1000)
    tail[-1] = 0.0
    with np.errstate(under="ignore"):
        every = integrate_values(g, np.abs(tail) ** q) ** (1.0 / q)
    assert norm_lq(RadialFunction(g, tail), q) == every == norm_lq(RadialFunction(g, vals), q)
    # a field whose |u|^q is normal at every node keeps all of them
    low = np.full(g.n, 1.01 * np.finfo(float).tiny ** (1.0 / q))
    low[-1] = 0.0
    every = integrate_values(g, low**q) ** (1.0 / q)
    assert norm_lq(RadialFunction(g, low), q) == every > 0.0


@pytest.mark.parametrize("n", [16, 750, 3000, 12000, 48000])
def test_pair_is_bitwise_einsum(n):
    # also past the 10 000 terms at which BLAS would split the sum, and on
    # views: offset, reversed and the read-only arrays of a grid
    g = make_grid(30.0, n)
    y = np.sin(3.0 * g.nodes) * np.exp(-g.nodes / 7.0)
    for a, b in ((g.weights, y), (g.conductance, y[1:]), (y[::-1], g.mass),
                 (y[1:], y[:-1]), (g.nodes, g.weights)):
        assert np.float64(pair(a, b)).tobytes() == np.einsum("i,i", a, b).tobytes()


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


def test_prolongation_matches_pchip_oracle():
    # the monotone cubic through a 750-node profile, sampled on the 3000
    # nodes over the same R: the prolongation of the flow's ladder
    coarse, fine = make_grid(30.0, 750), make_grid(30.0, 3000)
    r = coarse.nodes
    for vals in (4.0 * np.exp(-r**2 / 4.0), np.sin(r) * np.exp(-r / 5.0),
                 3.0 * np.maximum(0.0, 1.0 - (r / 5.0) ** 2) ** 2):
        u = RadialFunction(coarse, vals)
        got = dilate(u, 1.0, onto=fine)
        assert got.grid == fine
        err = np.max(np.abs(got.values - pchip_dilate(u, 1.0, fine).values))
        assert err <= 1e-14 * np.max(np.abs(vals))


def test_prolongation_keeps_the_dirichlet_node_zero():
    # R / h of the 3000-node grid rounds to 2999.0000000000005, so the last
    # fine node falls just past the last coarse cell
    coarse, fine = make_grid(30.0, 3000), make_grid(30.0, 12000)
    vals = np.exp(-coarse.nodes / 3.0)
    vals[-1] = 0.0
    got = dilate(RadialFunction(coarse, vals), 1.0, onto=fine).values
    assert got[-1] == 0.0
    assert np.all(got[:-1] > 0.0)


def test_dilate_subnormal_tail_is_quiet():
    # the tail of this bump underflows to subnormals and zeros, where the
    # harmonic-mean slope of scipy's PCHIP overflows
    g = make_grid(30.0, 750)
    u = RadialFunction(g, 5.0 * np.exp(-(g.nodes / 0.12) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5, 0.9, 1.1, 2.0):
            assert np.all(dilate(u, t).values >= 0.0)


def _flat_and_sign_changing(g):
    """A profile with flat stretches and sign changes, whose end slopes are
    capped at r = 0 and zeroed at R, with a nonzero tail value."""
    vals = np.clip(np.sin(g.nodes) * np.exp(-g.nodes / 20.0), -0.3, 0.3)
    vals[:3] = (0.0, 1.0, -5.0)
    vals[-3:] = (0.2, 5.2, 6.2)
    return RadialFunction(g, vals)


# end secants of every sign, signed zeros, subnormals and secants whose
# three-point slope overflows, is capped (m1 of the other sign and large) or
# is zeroed (m1 of the same sign and larger than 3 m0)
_SECANTS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, -2.5, 3.0, -3.0, 7.0, -7.0,
            1e308, -1e308, math.inf, -math.inf]


@pytest.mark.parametrize("m0", _SECANTS)
def test_end_slope_is_bitwise_the_reference(m0):
    # the Python-float end slope against the np.sign rule on numpy scalars,
    # for every pair of signs, zeros included, and the four outcomes
    for m1 in _SECANTS:
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(reference_end_slope(np.float64(m0), np.float64(m1)))
        got = _end_slope(m0, m1)
        assert type(got) is float
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (m0, m1)


def test_end_slope_takes_each_branch():
    assert _end_slope(1.0, -1.0) == 2.0  # three-point slope
    assert _end_slope(1.0, 7.0) == 0.0  # wrong sign: zeroed
    assert _end_slope(1.0, -7.0) == 3.0  # secants of two signs: capped at 3 m0
    assert _end_slope(0.0, 1.0) == 0.0


@pytest.mark.parametrize("n", [750, 3000])
def test_dilate_is_bitwise_the_reference_on_flat_and_sign_changing_profile(n):
    u = _flat_and_sign_changing(make_grid(30.0, n))
    m = np.diff(u.values)
    slopes = monotone_slopes(u)
    # the branches this profile exercises: capped and zeroed end slopes,
    # zero slopes on flat stretches and at extrema, sign changes
    assert slopes[0] == 3.0 * m[0] and slopes[-1] == 0.0
    assert np.sum(slopes[1:-1] == 0.0) > n // 4
    assert np.any(u.values[:-1] * u.values[1:] < 0.0)
    assert np.array_equal(slopes, reference_monotone_slopes(u))
    for t in (0.5, 0.97, 1.03, 2.0):
        want = reference_dilate(u, t).values
        assert np.array_equal(dilate(u, t).values, want)
        assert np.array_equal(dilate(u, t, slopes).values, want)
        assert np.array_equal(dilate(u, t, onto=make_grid(30.0, n)).values, want)


@pytest.mark.parametrize("n", [750, 3000])
def test_laplacian_apply_is_bitwise_the_reference(n):
    g = make_grid(30.0, n)
    r = g.nodes
    fields = [_flat_and_sign_changing(g), RadialFunction(g, 4.0 * np.exp(-r**2 / 4.0)),
              RadialFunction(g, np.where(r < 1.0, -0.0, np.cos(r)))]
    for u in fields:
        assert np.array_equal(laplacian_apply(u), reference_laplacian(u))


def test_solve_helmholtz_manufactured():
    # w = exp(-r^2), rhs = (-Delta + 1) w known in closed form
    g = make_grid(15.0, 3000)
    r = g.nodes
    w_exact = np.exp(-r**2)
    rhs = (-4.0 * r**2 + 6.0) * w_exact + w_exact
    w = solve_lu(helmholtz_lu(g, 1.0), rhs)
    assert np.max(np.abs(w - w_exact)) <= 2e-4


def test_solve_helmholtz_leaves_grid_bands_unchanged():
    g = make_grid(15.0, 800)
    bands = g.bands.copy()
    rhs = np.exp(-g.nodes)
    shift = 1.0 + np.exp(-g.nodes**2)
    first = solve_lu(helmholtz_lu(g, shift), rhs)
    solve_lu(helmholtz_lu(g, 2.0), rhs)
    assert np.array_equal(g.bands, bands)
    assert np.array_equal(solve_lu(helmholtz_lu(g, shift), rhs), first)


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
    assert all(np.array_equal(a, b) for a, b in zip(g.riesz_lu, lapack_helmholtz_lu(g, 1.0)))
    assert np.array_equal(w, lapack_helmholtz_solve(g, 1.0, rhs))


@pytest.mark.parametrize("n", [750, 3000, 12000])
def test_helmholtz_factor_solve_matches_solve_banded_bitwise(n):
    # variable shifts, indefinite ones included, and one or two right sides;
    # scipy.linalg.lapack's dgttrf and dgttrs are the second reference
    g = make_grid(30.0, n)
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((n, 2))
    for shift in (1.0 + rng.random(n), 1.0 - 3.0 * np.exp(-g.nodes**2)):
        ref = banded_helmholtz_solve(g, shift, rhs)
        assert np.array_equal(solve_lu(helmholtz_lu(g, shift), rhs), ref)
        lu = helmholtz_lu(g, shift)
        assert all(np.array_equal(a, b) for a, b in zip(lu, lapack_helmholtz_lu(g, shift)))
        assert np.array_equal(solve_lu(lu, rhs[:, 0]), ref[:, 0])
        assert np.array_equal(solve_lu(lu, rhs[:, 1]), ref[:, 1])
        for b in (rhs[:, 0], rhs):
            assert np.array_equal(solve_lu(lu, b), lapack_helmholtz_solve(g, shift, b))


def test_singular_helmholtz_factor_raises():
    # a zero interior diagonal leaves an odd-sized tridiagonal block, which is
    # singular
    assert LinAlgError is scipy.linalg.LinAlgError
    g = make_grid(30.0, 16)
    with pytest.raises(scipy.linalg.LinAlgError):
        helmholtz_lu(g, -g.bands[1])


def _fresh_python(code: str, *path: Path) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*path, src)))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_scipy_linalg_imports_after_spgs():
    # spgs loads scipy's LAPACK extension from its file; scipy.linalg, imported
    # afterwards, still binds it and exports the same routines
    out = _fresh_python(
        "import spgs.grid as g, numpy as np, scipy.linalg as sl; "
        "from scipy.linalg import lapack; "
        "assert g.dgttrf is lapack.dgttrf and g.dgttrs is lapack.dgttrs; "
        "assert sl._flapack.dgttrs is g.dgttrs; "
        "print(sl.solve_banded((1, 1), np.array([[0, 1.], [2, 2], [1, 0]]), np.ones(2)))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[0.33333333", "0.33333333]"]


def test_missing_lapack_extension_names_the_directory(tmp_path):
    # a scipy without linalg/_flapack fails the import of spgs, naming where
    # it looked
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = _fresh_python("import spgs", tmp_path)
    assert out.returncode == 1
    assert "ImportError" in out.stderr
    assert str(tmp_path / "scipy" / "linalg") in out.stderr


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_riesz_solve_rejects_non_finite_rhs(bad):
    g = make_grid(15.0, 800)
    for node in (0, g.n // 2, g.n - 2):
        rhs = np.exp(-g.nodes)
        rhs[node] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            solve_riesz(g, rhs)
    # the Dirichlet row ignores the last entry of rhs, as every solve_lu does
    rhs = np.exp(-g.nodes)
    rhs[-1] = bad
    assert np.array_equal(solve_riesz(g, rhs), solve_lu(helmholtz_lu(g, 1.0), rhs))


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


# numpy products that reach BLAS, whose sums split over threads
_BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot"}


def _blas_reductions(source: str) -> list[tuple[int, str]]:
    """(line, what) of every call of a BLAS product or of linalg.norm, every
    import of one from numpy, and every @ operator in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.split(".")[-1] in _BLAS_PRODUCTS or name.endswith("linalg.norm"):
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in _BLAS_PRODUCTS | {"norm"}]
    return found


def test_scan_finds_every_blas_reduction():
    source = ("import numpy as np\nfrom numpy.linalg import norm\n"
              "a = np.dot(x, y) + x.dot(y) + np.linalg.norm(x) + np.vecdot(x, y)\n"
              "b = x @ y\nb @= y\n")
    assert sorted(_blas_reductions(source)) == [
        (2, "norm"), (3, "np.dot"), (3, "np.linalg.norm"), (3, "np.vecdot"), (3, "x.dot"),
        (4, "@"), (5, "@")]


def test_pair_is_the_only_reduction_of_two_arrays():
    # every sum of products in spgs goes through grid.pair, whose einsum loop
    # gives the same bits at any BLAS thread count
    src = Path(__file__).resolve().parents[1] / "src" / "spgs"
    found = {p.name: _blas_reductions(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}

