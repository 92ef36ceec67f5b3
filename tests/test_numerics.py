import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfun.errors import DomainError, IllConditioned, NoConvergence
from expfun.model import load_spec
from expfun.numerics import (
    _PANEL_CELLS,
    _PANEL_HEAD,
    _PANEL_MATRIX,
    _PANEL_NODES,
    _PANEL_T,
    _WG,
    _WK,
    _XK,
    QuadratureRequest,
    extrapolate_limit,
    integrate,
    integrate_cells,
    integrate_uniform_cells,
    quad,
)

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def test_constant_integral():
    val, err = integrate(QuadratureRequest(lambda x: np.ones_like(x), 0.0, 1.0))
    assert abs(val - 1.0) <= 1e-12
    assert err <= 1e-12


def test_quarter_power_singularity():
    # integral of x**(-1/4) over (0,1) is 4/3; exercises the p-substitution
    val, err = integrate(
        QuadratureRequest(lambda x: x**-0.25, 0.0, 1.0, singularity_p=-0.25)
    )
    assert abs(val - 4.0 / 3.0) <= max(1e-9 * 4 / 3, err)


def test_stable_tail_laplace_transform():
    # integral over (0,inf) of exp(-u) * u**(-1/4)/(1/4) du = 4*Gamma(3/4)
    tail = lambda u: 4.0 * u**-0.25 * np.exp(-u)
    val, err = integrate(
        QuadratureRequest(tail, 0.0, np.inf, singularity_p=-0.25)
    )
    expected = 4.0 * math.gamma(0.75)
    assert abs(val - expected) <= max(2e-9 * expected, 2 * err)
    assert abs(val - expected) / expected < 1e-8


# Twenty analytic integrals; the reported error estimate must bound the true
# error to within a factor of two in practice.
_SUITE = [
    (lambda x: x**2, 0.0, 1.0, None, 1.0 / 3.0),
    (lambda x: np.exp(x), 0.0, 1.0, None, math.e - 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, None, 2.0),
    (lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, None, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, None, 2.0 / 3.0),
    (lambda x: x**-0.5, 0.0, 1.0, -0.5, 2.0),
    (lambda x: x**-0.75 * (1.0 - x), 0.0, 1.0, -0.75, 16.0 / 5.0),
    (lambda x: np.exp(-x), 0.0, np.inf, None, 1.0),
    (lambda x: np.exp(-(x**2)), 0.0, np.inf, None, math.sqrt(math.pi) / 2.0),
    (lambda x: x * np.exp(-x), 0.0, np.inf, None, 1.0),
    (lambda x: np.exp(-2 * x) * np.cos(x), 0.0, np.inf, None, 0.4),
    (lambda x: x**-2.0, 1.0, np.inf, None, 1.0),
    (lambda x: x**-3.0, 1.0, np.inf, None, 0.5),
    (lambda x: np.cos(10 * x), 0.0, 1.0, None, math.sin(10.0) / 10.0),
    (lambda x: np.sin(x) ** 2, 0.0, 2 * math.pi, None, math.pi),
    (lambda x: 1.0 / (1.0 + x), 0.0, 1.0, None, math.log(2.0)),
    (lambda x: x**-0.25 * np.exp(-x), 0.0, np.inf, -0.25, math.gamma(0.75)),
    (lambda x: np.tanh(x), 0.0, 1.0, None, math.log(math.cosh(1.0))),
    (
        lambda x: np.exp(-x) * np.sin(3 * x),
        0.0,
        5.0,
        None,
        (3.0 - math.exp(-5.0) * (math.sin(15.0) + 3.0 * math.cos(15.0))) / 10.0,
    ),
    (lambda x: np.log1p(x), 0.0, 1.0, None, 2.0 * math.log(2.0) - 1.0),
]


@pytest.mark.parametrize("f,lo,hi,p,exact", _SUITE)
def test_error_estimate_bounds_true_error(f, lo, hi, p, exact):
    val, err = integrate(QuadratureRequest(f, lo, hi, singularity_p=p))
    true_err = abs(val - exact)
    assert true_err <= 2.0 * err + 1e-13 * max(1.0, abs(exact))
    assert true_err <= 1e-7 * max(1.0, abs(exact))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9))
def test_additivity_over_splits(c):
    f = lambda x: np.exp(-x) * np.cos(3 * x)
    v, e = integrate(QuadratureRequest(f, 0.0, 1.0))
    v1, e1 = integrate(QuadratureRequest(f, 0.0, c))
    v2, e2 = integrate(QuadratureRequest(f, c, 1.0))
    assert abs(v - v1 - v2) <= e + e1 + e2 + 1e-13


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_no_convergence_on_divergent_integrand():
    with pytest.raises(NoConvergence):
        integrate(QuadratureRequest(lambda x: 1.0 / x, 0.0, 1.0))


@pytest.mark.parametrize("k", range(23))
def test_kronrod_rule_is_exact_on_monomials(k):
    # K15 integrates x**k exactly for k <= 22 and G7 for k <= 13; fsum adds
    # exactly, so what is left is the rounding of the constants and products
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    rules = [(_XK, _WK)] + ([(_XK[1::2], _WG)] if k <= 13 else [])
    for nodes, weights in rules:
        terms = (weights * nodes**k).tolist()
        assert abs(math.fsum(terms) - exact) <= 1e-15 * math.fsum(map(abs, terms))


def test_gauss_nodes_are_the_odd_kronrod_nodes():
    nodes, _ = np.polynomial.legendre.leggauss(7)
    np.testing.assert_array_max_ulp(_XK[1::2], nodes, maxulp=2)


def test_integrate_cells_calls_the_integrand_once():
    edges = np.linspace(0.0, 2.0, 41)
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x)

    integrate_cells(f, edges)
    assert calls == [15 * (edges.size - 1)]


_GL16 = np.polynomial.legendre.leggauss(16)


def gl16_cells(f, edges):
    """The 16-point Gauss-Legendre rule on every segment, as a reference."""
    nodes, weights = _GL16
    los, his = edges[:-1], edges[1:]
    half, mid = 0.5 * (his - los), 0.5 * (his + los)
    fx = f((mid[:, None] + half[:, None] * nodes).ravel()).reshape(los.size, nodes.size)
    return half * (fx @ weights)


@pytest.mark.parametrize("recipe", sorted(p.stem for p in RECIPES.glob("*.json")))
def test_integrate_cells_matches_gauss_legendre_on_kernel_cells(recipe):
    # the kernel cells of kernel_weights on the default grid (delta 0.998,
    # 4500 cells); the first cell holds the singularity and is excluded
    tail = load_spec(RECIPES / f"{recipe}.json").tail
    edges = -math.log(0.998) * np.arange(4501)

    def f(u):
        return tail.tail_many(u) * np.exp(u)

    vals, _ = integrate_cells(f, edges, 1e-9, 1e-15, p_first=tail.kernel_singularity())
    ref = gl16_cells(f, edges)
    # subnormal values (stretched_exp_n3 far out) carry fewer than 53 bits
    tol = 1e-13 * np.abs(ref[1:]) + np.finfo(float).tiny
    assert np.all(np.abs(vals[1:] - ref[1:]) <= tol)


def test_integrate_cells_matches_scalar():
    edges = np.geomspace(0.5, 40.0, 25)
    f = lambda x: np.exp(-x) * x**1.5
    vals, errs = integrate_cells(f, edges)
    for k in range(edges.size - 1):
        ref = quad(f, edges[k], edges[k + 1], rel_tol=1e-12)
        assert abs(vals[k] - ref) <= max(1e-9 * abs(ref), 1e-13, 2 * errs[k])


def test_integrate_cells_singular_first_segment():
    edges = np.array([0.0, 0.002, 0.004, 0.008])
    f = lambda x: np.where(x > 0, x, 1.0) ** -0.25 * np.exp(x)
    vals, _ = integrate_cells(f, edges, p_first=-0.25)
    ref0 = quad(f, 0.0, 0.002, singularity_p=-0.25, rel_tol=1e-12)
    assert abs(vals[0] - ref0) <= 1e-9 * ref0


@pytest.mark.parametrize("k", range(_PANEL_NODES))
def test_panel_rule_is_exact_on_monomials(k):
    # the interpolant of t**k (k < K) is t**k itself: its part integrals
    # are exact, and its two highest Legendre coefficients vanish below
    # degree K - 2; the matrix carries the rounding of a degree-20
    # Legendre antiderivative, a few dozen ulps of a part's 0.125
    ends = np.linspace(-1.0, 1.0, _PANEL_CELLS + 1)
    exact = np.diff(ends ** (k + 1)) / (k + 1)
    rule = _PANEL_MATRIX @ _PANEL_T**k
    assert np.all(np.abs(rule[:_PANEL_CELLS] - exact) <= 1e-14)
    if k < _PANEL_NODES - 2:
        assert np.all(np.abs(rule[_PANEL_CELLS:]) <= 1e-14)


def test_uniform_cells_match_closed_form():
    # 4500 cells: the head, 138 panels and 20 cells past the last panel
    step, n = 0.002, 4500
    vals, errs = integrate_uniform_cells(lambda u: np.exp(-u / 3.0), step, n, 1e-9, 1e-15)
    m = np.arange(n)
    exact = 3.0 * np.exp(-m * step / 3.0) * -np.expm1(-step / 3.0)
    assert np.all(np.abs(vals - exact) <= 1e-9 * exact)
    panels = slice(_PANEL_HEAD, n - (n - _PANEL_HEAD) % _PANEL_CELLS)
    assert np.all(np.abs(vals - exact)[panels] <= errs[panels])


def test_uniform_cells_short_of_a_panel_are_one_integrate_cells_call():
    n = _PANEL_HEAD + _PANEL_CELLS - 1
    f = lambda u: np.where(u > 0, u, 1.0) ** -0.25 * np.exp(u)
    vals, errs = integrate_uniform_cells(f, 0.002, n, 1e-9, 1e-15, p_first=-0.25)
    ref_vals, ref_errs = integrate_cells(f, 0.002 * np.arange(n + 1), 1e-9, 1e-15, p_first=-0.25)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(errs, ref_errs)


def test_uniform_cells_reject_a_non_finite_integrand():
    # the panels that hold it go to integrate_cells, which names the interval
    f = lambda u: np.where(np.abs(u - 0.5) < 0.01, np.nan, np.exp(-u))
    with pytest.raises(NoConvergence, match="not finite"):
        integrate_uniform_cells(f, 0.002, 4500, 1e-9, 1e-15)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_uniform_cells_send_back_a_panel_with_a_non_finite_sample(bad):
    # one sample of the sixth panel is not finite; one infinite sample makes
    # every cell of the panel and its estimate infinite, which passes the
    # relative test, so the panel must fail on the sample itself.  The
    # per-cell rule samples elsewhere and integrates the panel's cells
    step, n = 0.002, 4500
    half = 0.5 * _PANEL_CELLS * step
    u0 = (_PANEL_HEAD + 5 * _PANEL_CELLS) * step + half * (1.0 + _PANEL_T[0])
    f = lambda u: np.where(np.abs(u - u0) < 1e-12, bad, np.exp(-u))
    vals, _ = integrate_uniform_cells(f, step, n, 1e-9, 1e-15)
    exact = np.exp(-np.arange(n) * step) * -np.expm1(-step)
    assert np.all(np.abs(vals - exact) <= 1e-9 * exact)


def test_extrapolate_linear_function():
    samples = [(0.1, 2.0 + 3.0 * 0.1), (0.05, 2.0 + 3.0 * 0.05), (0.025, 2.0 + 3.0 * 0.025)]
    limit, unc = extrapolate_limit(samples)
    assert abs(limit - 2.0) <= 1e-9
    assert unc <= 1e-9


def test_extrapolate_smooth_ratio():
    f = lambda x: math.sqrt(math.pi) * math.exp(-(x**2)) * math.sqrt(1.0 - x**2)
    samples = [(x, f(x)) for x in (0.04, 0.02, 0.01)]
    limit, unc = extrapolate_limit(samples)
    assert abs(limit - math.sqrt(math.pi)) <= 1e-4


def test_extrapolate_constant_samples():
    samples = [(0.3, 5.5), (0.2, 5.5), (0.1, 5.5)]
    limit, unc = extrapolate_limit(samples)
    assert limit == pytest.approx(5.5, abs=1e-12)
    assert unc <= 1e-10


def test_extrapolate_rejects_noise():
    xs = [0.5, 0.4, 0.3, 0.2, 0.1, 0.05]
    samples = [(x, 1.0 + 0.8 * math.sin(200.0 * x)) for x in xs]
    with pytest.raises(IllConditioned):
        extrapolate_limit(samples)


def test_extrapolate_input_validation():
    with pytest.raises(DomainError):
        extrapolate_limit([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0)])
    with pytest.raises(DomainError):
        extrapolate_limit([(0.2, 1.0), (0.1, 1.0)])
