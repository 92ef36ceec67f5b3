import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from expfun import numerics
from expfun import solver as solver_module
from expfun._kernels_py import _LEAF
from expfun.backend import back_substitute
from expfun.errors import DenominatorError, DomainError, NonPositive, TruncationError
from expfun.model import SubordinatorSpec, load_spec, positive_moments
from expfun.numerics import integrate_cells
from expfun.solver import (
    GeometricGrid,
    KernelWeights,
    build_grid,
    kernel_weights,
    residual,
    solve,
)
from expfun.tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    StableTail,
    StretchedExpTail,
    TabulatedTail,
    ZeroTail,
)
from expfun.validation import moment_agreement_check

RECIPES = Path(__file__).resolve().parent.parent / "recipes"
UNIFORM = SubordinatorSpec(1.0, 1.0, ZeroTail())
GAMMA = SubordinatorSpec(0.0, 0.0, GammaExpTail(1.0, 1.5, 2.0))
# log-linear interpolation between knots: the slope of log Pibar jumps at
# each knot, so the nested rule disagrees on the cells that straddle one
KINKED = TabulatedTail(
    ((0.25, 4.0), (0.5, 1.5), (1.0, 1.0), (1.5, 0.2), (3.0, 0.05), (5.0, 1e-3))
)


@pytest.fixture(scope="module")
def uniform_density():
    grid = build_grid(UNIFORM, 0.999, 2000)
    return solve(UNIFORM, grid)


@pytest.fixture(scope="module")
def gamma_density():
    grid = build_grid(GAMMA, 0.99, 1500)
    return solve(GAMMA, grid)


def gamma_exact(x):
    return 2.0**2.5 / math.sqrt(math.pi) * np.sqrt(x) * np.exp(-2.0 * x)


# -- grids -------------------------------------------------------------------


def test_build_grid_drift_case():
    grid = build_grid(UNIFORM, 0.999, 2000)
    assert grid.x_max == 1.0
    assert grid.x0 == pytest.approx(0.999**2000, rel=1e-12)
    assert grid.x0 == pytest.approx(0.13533, rel=1e-3)
    assert grid.nodes.shape == (2001,)
    assert np.all(np.diff(grid.nodes) > 0)


def test_build_grid_truncation_scan():
    grid = build_grid(GAMMA, 0.998, 4500)
    assert 11.0 < grid.x_max < 14.0
    assert grid.tail_bound <= 1e-6


def test_build_grid_rejects_override_with_drift():
    with pytest.raises(TruncationError):
        build_grid(UNIFORM, 0.999, 2000, x_max_override=2.0)


def test_build_grid_validation():
    with pytest.raises(DomainError):
        GeometricGrid(1.0, 1.5, 100)
    with pytest.raises(DomainError):
        GeometricGrid(1.0, 0.5, 5)


# -- kernel weights ----------------------------------------------------------


def test_weights_zero_tail():
    grid = build_grid(UNIFORM, 0.999, 2000)
    w = kernel_weights(UNIFORM, grid)
    assert np.all(w.values == 0.0)


def test_weights_compound_poisson_closed_form():
    # W_m = rate * (e^{(1-d)(m+1)L} - e^{(1-d)mL})/(1-d) for Pibar = rate e^{-d u}
    spec = SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(2.0, 0.5))
    grid = GeometricGrid(10.0, math.exp(-0.001), 1000)
    w = kernel_weights(spec, grid).values
    L = grid.log_step
    m = np.arange(1000)
    closed = 2.0 * (np.exp(0.5 * (m + 1) * L) - np.exp(0.5 * m * L)) / 0.5
    assert np.max(np.abs(w / closed - 1.0)) < 1e-9
    assert w[0] == pytest.approx(2.0 * (math.exp(0.0005) - 1.0) / 0.5, rel=1e-9)


def per_cell_weights(spec, grid, rel_tol=1e-9, abs_tol=1e-15):
    """The kernel weights from one Gauss-Kronrod rule per cell, the way
    ``kernel_weights`` computed them before the panel rule."""
    tail = spec.tail
    edges = grid.log_step * np.arange(grid.n_cells + 1)
    vals, errs = integrate_cells(
        lambda u: tail.tail_many(u) * np.exp(u),
        edges, rel_tol, abs_tol, p_first=tail.kernel_singularity(),
    )
    return KernelWeights(vals, errs)


def test_weights_are_reproducible_and_match_per_cell_quadrature():
    # a panel's cell edges and samples sit up to eps * u from those of the
    # per-cell rule, with u <= (m + 1) L on cell m; the two edges and the
    # samples of each rule move W_m by up to 4 eps (m + 1) W_m between them
    grid = GeometricGrid(10.0, 0.9985, 2048)
    bound = 4.0 * np.finfo(float).eps * np.arange(1, grid.n_cells + 1)
    for tail in (GammaExpTail(1.0, 1.5, 2.0), LampertiKilledTail(0.5, 1.5)):
        spec = SubordinatorSpec(0.0, 0.0, tail)
        weights = kernel_weights(spec, grid)
        again = kernel_weights(spec, grid)
        assert np.array_equal(again.values, weights.values)
        assert np.array_equal(again.error_estimates, weights.error_estimates)
        ref = per_cell_weights(spec, grid).values
        assert np.all(np.abs(weights.values - ref) <= bound * ref)


def assert_heights_match_per_cell_weights(spec, grid):
    d = solve(spec, grid)
    ref = solve(spec, grid, per_cell_weights(spec, grid)).heights
    pos = ref > 0
    assert np.array_equal(d.heights > 0, pos)
    assert np.max(np.abs(d.heights[pos] / ref[pos] - 1.0)) <= 1e-12


@pytest.mark.parametrize("cells", [4500, 18000])
@pytest.mark.parametrize("recipe", sorted(p.stem for p in RECIPES.glob("*.json")))
def test_panel_weights_keep_the_heights_on_recipes(recipe, cells):
    spec = load_spec(RECIPES / f"{recipe}.json")
    # the span of the default grid, 0.998**4500
    grid = build_grid(spec, 0.998 ** (4500 / cells), cells)
    assert_heights_match_per_cell_weights(spec, grid)


@pytest.mark.parametrize("recipe", sorted(p.stem for p in RECIPES.glob("*.json")))
def test_weight_error_estimates_bound_the_error(recipe):
    spec = load_spec(RECIPES / f"{recipe}.json")
    grid = build_grid(spec, 0.998, 4500)
    w = kernel_weights(spec, grid)
    ref = per_cell_weights(spec, grid, 1e-13, 1e-300).values
    assert np.all(np.abs(w.values - ref) <= w.error_estimates)
    # where f underflows (stretched_exp_n3 past u = 8.9) a panel's
    # polynomial dips below 0 by a few subnormals; W_m >= 0 must hold
    assert np.all(w.values >= 0.0)


def test_weights_fall_back_on_panels_holding_a_kink(monkeypatch):
    # f is log-linear between the knots of a tabulated tail, so it has a
    # kink at each knot, and the polynomial of the panel that holds one
    # misses the tolerance; that panel goes to Gauss-Kronrod
    spec = SubordinatorSpec(0.0, 0.0, KINKED)
    grid = build_grid(spec, 0.998, 4500)
    calls = []
    original = numerics.integrate_cells

    def recording(f, edges, *args):
        calls.append(edges)
        return original(f, edges, *args)

    monkeypatch.setattr(numerics, "integrate_cells", recording)
    w = kernel_weights(spec, grid)
    monkeypatch.undo()
    head, size = numerics._PANEL_HEAD, numerics._PANEL_CELLS
    last = head + (grid.n_cells - head) // size * size
    knots = [int(z / grid.log_step) for z, _ in KINKED.knots]
    panels = [head + (k - head) // size * size for k in knots if k >= head]
    assert len(panels) == len(KINKED.knots)
    starts = [int(round(edges[0] / grid.log_step)) for edges in calls]
    assert starts == [0] + panels + [last]
    f = lambda u: KINKED.tail_many(u) * np.exp(u)
    for start, edges in zip(starts, calls):
        cells = slice(start, start + edges.size - 1)
        vals, errs = integrate_cells(f, edges, 1e-9, 1e-15)
        assert np.array_equal(w.values[cells], vals)
        assert np.array_equal(w.error_estimates[cells], errs)


def test_truncation_cap():
    # absurdly slow jump activity pushes every moment bound past the cap
    spec = SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(1e-15, 1.0))
    with pytest.raises(TruncationError):
        build_grid(spec, 0.998, 1000)


def test_weights_stable_singular_first_cell():
    spec = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
    grid = GeometricGrid(1.0, 0.998, 500)
    w = kernel_weights(spec, grid).values
    L = grid.log_step
    # graded reference at double resolution: split the first cell and use
    # the substitution on each half
    from expfun.numerics import quad

    ref = quad(
        lambda u: 4.0 * u**-0.25 * np.exp(u), 0.0, 0.5 * L, rel_tol=1e-12, singularity_p=-0.25
    ) + quad(lambda u: 4.0 * u**-0.25 * np.exp(u), 0.5 * L, L, rel_tol=1e-12)
    assert w[0] == pytest.approx(ref, rel=1e-8)
    assert np.all(np.isfinite(w))
    # weights fall off for a decreasing tail beyond the first cell
    assert np.all(np.diff(w[1:50]) < 0)


# -- solve -------------------------------------------------------------------


def test_uniform_solution_is_flat(uniform_density):
    d = uniform_density
    n = d.grid.n_cells
    keep = slice(0, int(0.99 * n))
    assert np.max(np.abs(d.heights[keep] - 1.0)) <= 1e-2
    # with the left-gap model the flat solution is recovered almost exactly
    assert np.max(np.abs(d.heights[keep] - 1.0)) <= 1e-10
    assert d.covered_mass + d.left_gap_mass_bound == pytest.approx(1.0, abs=1e-12)


def dense_sweep_reference(nodes, widths, weights, denoms, q, start):
    """Rows 0..start-1 of the discrete system as a dense upper-triangular
    solve, with the provisional y[start] = 1 moved to the right-hand side."""
    n = np.arange(start)
    m = np.arange(start + 1)
    offset = np.clip(m[None, :] - n[:, None], 0, None)
    coupling = nodes[:start, None] * weights[offset] + q * widths[None, : start + 1]
    a = np.triu(-coupling[:, :start], k=1)
    a[n, n] = denoms[:start]
    y = np.zeros(widths.shape[0])
    y[:start] = solve_triangular(a, coupling[:, start], lower=False)
    y[start] = 1.0
    return y


def reference_back_substitute(nodes, widths, weights, denoms, q, start):
    """The row-by-row O(N^2) sweep: one dot product per row."""
    y = np.zeros(widths.shape[0])
    y[start] = 1.0
    suffix = y[start] * widths[start]
    for n in range(start - 1, -1, -1):
        kernel = nodes[n] * np.dot(y[n + 1 : start + 1], weights[1 : start - n + 1])
        y[n] = (kernel + q * suffix) / denoms[n]
        suffix += y[n] * widths[n]
    return y


def sweep_inputs(spec, grid):
    """The arguments ``solve`` hands to the sweep, with its layer rule."""
    weights = kernel_weights(spec, grid).values
    nodes, widths = grid.nodes, grid.widths
    denoms = 1.0 - spec.drift * nodes[:-1] - nodes[:-1] * weights[0] - spec.kill * widths
    bad = np.nonzero(denoms[: grid.n_cells - 1] <= 0.0)[0]
    start = grid.n_cells - 1 if not bad.size else int(bad[0]) - 1
    return nodes, widths, weights, denoms, spec.kill, start


def assert_sweep_matches_reference(args):
    start = args[-1]
    y = back_substitute(*args)
    ref = reference_back_substitute(*args)
    assert np.all(y[start + 1 :] == 0.0)
    pos = ref > 0
    assert np.array_equal(y > 0, pos)
    assert np.max(np.abs(y[pos] / ref[pos] - 1.0)) <= 1e-12


@pytest.mark.parametrize("recipe", sorted(p.stem for p in RECIPES.glob("*.json")))
def test_sweep_matches_loop_on_recipes(recipe):
    spec = load_spec(RECIPES / f"{recipe}.json")
    assert_sweep_matches_reference(sweep_inputs(spec, build_grid(spec, 0.998, 4500)))


def test_sweep_guard_near_the_origin():
    # the stretched_exp_n3 heights near x -> 0 lie far below the FFT
    # rounding of the blocks above them; without the direct re-summation
    # they are off by far more than 1e-12
    spec = load_spec(RECIPES / "stretched_exp_n3.json")
    grid = build_grid(spec, math.exp(4500 * math.log(0.998) / 9000), 9000)
    assert_sweep_matches_reference(sweep_inputs(spec, grid))


# the boundaries of the sweep's leaves and of 64-row ones, which for a
# longer leaf fall inside the first leaves
LEAF_BOUNDARY_ROWS = sorted(
    {n * leaf + k for leaf in (64, _LEAF) for n, k in ((1, -1), (1, 0), (1, 1), (2, 1), (4, 3))}
)


@pytest.mark.parametrize("rows", LEAF_BOUNDARY_ROWS)
@pytest.mark.parametrize("layer", [0, 5])
@pytest.mark.parametrize("kill", [0.0, 0.5])
def test_sweep_matches_loop_at_leaf_boundaries(rows, layer, kill):
    spec = SubordinatorSpec(0.0, kill, GammaExpTail(1.0, 1.5, 2.0))
    n_cells = rows + layer
    # the span of the dense-solve test below, where every diagonal is positive
    grid = GeometricGrid(2.0, math.exp(60 * math.log(0.95) / n_cells), n_cells)
    args = list(sweep_inputs(spec, grid))
    assert args[-1] == n_cells - 1
    args[-1] -= layer  # pin ``layer`` top cells to zero
    assert_sweep_matches_reference(args)


@pytest.mark.parametrize("layer", [0, 7])
def test_sweep_matches_dense_solve(layer):
    spec = SubordinatorSpec(0.0, 0.5, GammaExpTail(1.0, 1.5, 2.0))
    # x_max kept small so that every diagonal is positive on this coarse grid
    grid = GeometricGrid(2.0, 0.95, 60)
    weights = kernel_weights(spec, grid).values
    nodes, widths = grid.nodes, grid.widths
    denoms = 1.0 - nodes[:-1] * weights[0] - spec.kill * widths
    assert np.all(denoms > 0)
    start = grid.n_cells - 1 - layer
    y = back_substitute(nodes, widths, weights, denoms, spec.kill, start)
    assert np.all(y[start + 1 :] == 0.0)
    ref = dense_sweep_reference(nodes, widths, weights, denoms, spec.kill, start)
    assert np.allclose(y, ref, rtol=1e-12, atol=0.0)


# survey specs (benchmarks/survey.py, indices 0, 6, 7, 14, 17, 25, 36 and
# 66) that solve on the survey's grid: all five families, drift and kill
# rate each with and without the other, and two that the guard re-sums
SURVEY_SWEEPS = [
    SubordinatorSpec(0.0, 0.0, StretchedExpTail(0.5625947561513536, 2)),
    SubordinatorSpec(
        0.6894595635620157, 0.0, LampertiKilledTail(0.17158685452017008, 3.7818136720886377)
    ),
    SubordinatorSpec(
        0.71155184304429, 0.7089268897389099,
        GammaExpTail(0.8950134426315502, 3.697143990500299, 1.8531964638744443),
    ),
    SubordinatorSpec(
        1.045103121426476, 1.5822821163919245,
        CompoundPoissonExpTail(4.74982400719505, 2.4082166686836612),
    ),
    SubordinatorSpec(
        1.7908775558689891, 0.9859764514252728, StretchedExpTail(0.332651623241746, 3)
    ),
    SubordinatorSpec(0.8892296710053268, 0.06941139357421931, StableTail(0.08876019971138376)),
    SubordinatorSpec(0.0, 0.39559214392558467, StretchedExpTail(0.18730400450676588, 3)),
    SubordinatorSpec(0.0, 1.3052242860566052, StableTail(0.40519381736386395)),
]


@pytest.mark.parametrize("spec", SURVEY_SWEEPS, ids=[0, 6, 7, 14, 17, 25, 36, 66])
def test_sweep_matches_loop_on_survey_specs(spec):
    args = sweep_inputs(spec, build_grid(spec, 0.998, 4500))
    # the last leaf is a partial one
    assert (args[-1] + 1) % _LEAF != 0
    assert_sweep_matches_reference(args)


@pytest.mark.parametrize("spec", SURVEY_SWEEPS, ids=[0, 6, 7, 14, 17, 25, 36, 66])
def test_panel_weights_keep_the_heights_on_survey_specs(spec):
    assert_heights_match_per_cell_weights(spec, build_grid(spec, 0.998, 4500))


def test_solve_rescales_heights_that_would_overflow():
    # the heights span more than the double range down this grid; unscaled,
    # the sweep overflowed and solve returned NaN heights
    spec = SubordinatorSpec(0.0, 0.834177093343886, StableTail(0.7428112037297729))
    d = solve(spec, build_grid(spec, 0.99987488, 72000))
    assert np.all(np.isfinite(d.heights)) and np.all(d.heights >= 0)
    positive = d.heights[d.heights > 0]
    assert math.log(positive.max()) - math.log(positive.min()) > math.log(np.finfo(float).max)
    assert d.covered_mass + d.left_gap_mass_bound == pytest.approx(1.0, abs=1e-12)
    moments = positive_moments(spec, 3)
    for n in (1, 2, 3):
        assert d.moment_of(n) == pytest.approx(moments.value(n), rel=2e-3)
    # the residual's singular first cell must not round onto Pibar(0) = inf
    assert np.isfinite(residual(spec, d))


def test_solve_rejects_non_finite_heights(monkeypatch):
    def overflowing(*args):
        y = back_substitute(*args)
        y[0] = np.inf
        return y

    monkeypatch.setattr(solver_module, "back_substitute", overflowing)
    with pytest.raises(NonPositive, match="non-finite"):
        solve(GAMMA, build_grid(GAMMA, 0.99, 200))


def test_killed_drift_q2():
    spec = SubordinatorSpec(1.0, 2.0, ZeroTail())
    grid = build_grid(spec, 0.999, 2000)
    d = solve(spec, grid)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    keep = mids < 0.99
    exact = 2.0 * (1.0 - mids[keep])
    assert np.max(np.abs(d.heights[keep] - exact)) <= 1e-2


def test_killed_drift_q3_boundary_layer():
    # q/c = 3 makes the top diagonals negative; the thin layer is pinned to
    # zero and the rest still matches 3(1-x)^2
    spec = SubordinatorSpec(1.0, 3.0, ZeroTail())
    grid = build_grid(spec, 0.999, 3000)
    d = solve(spec, grid)
    assert d.top_zero_cells > 0
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    keep = mids < 0.99
    exact = 3.0 * (1.0 - mids[keep]) ** 2
    assert np.max(np.abs(d.heights[keep] - exact)) <= 1e-2


def test_gamma_solution_matches_closed_form(gamma_density):
    d = gamma_density
    mids = 0.5 * (d.grid.nodes[:-1] + d.grid.nodes[1:])
    assert np.max(np.abs(d.heights - gamma_exact(mids))) <= 1e-2
    assert d.moment_of(1.0) == pytest.approx(0.75, abs=0.004)
    assert d.moment_of(0.0) == pytest.approx(1.0, abs=1e-12)


def test_gamma_left_gap_exponent(gamma_density):
    # true density grows like x**(1/2) at the origin
    assert gamma_density.gap_exponent == pytest.approx(0.5, abs=0.05)
    assert gamma_density.left_gap_mass_bound < 1e-6


def test_stable_drift_boundary_layer():
    spec = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
    grid = build_grid(spec, 0.998, 1500)
    d = solve(spec, grid)
    assert d.top_zero_cells > 0
    # the zeroed layer must stay within the top 5% of the support
    assert grid.nodes[grid.n_cells - 1 - d.top_zero_cells] > 0.95 * grid.x_max
    assert np.all(d.heights >= 0)
    ms = positive_moments(spec, 2)
    assert d.moment_of(1.0) == pytest.approx(ms.value(1), rel=0.02)


def test_lamperti_killed_beta_below_one_solves():
    # beta < 1 puts a v**(beta-1) singularity into the defining integral of
    # Pibar; the default grid must still solve, with moments inside the
    # CLI's first-order allowance
    a, beta = 0.3, 0.5
    spec = SubordinatorSpec(
        0.0, math.gamma(beta) / math.gamma(beta - a), LampertiKilledTail(a, beta)
    )
    grid = build_grid(spec, 0.998, 4500)
    d = solve(spec, grid)
    rep = moment_agreement_check(spec, d, threshold=max(5e-3, 10.0 * grid.log_step))
    assert rep.passed, rep.statistic


def test_rejects_deterministic_model():
    spec = SubordinatorSpec(1.0, 0.0, ZeroTail())
    grid = GeometricGrid(1.0, 0.999, 100)
    with pytest.raises(DomainError):
        solve(spec, grid)


def test_denominator_error_with_advice():
    spec = SubordinatorSpec(1.0, 0.0, CompoundPoissonExpTail(40.0, 1.0))
    grid = build_grid(spec, 0.99, 200)
    with pytest.raises(DenominatorError, match=r"delta closer to 1 with more cells"):
        solve(spec, grid)


# -- evaluate / survival / cdf / moments --------------------------------------


def test_evaluate_and_survival(uniform_density):
    d = uniform_density
    assert d.evaluate(0.5) == pytest.approx(1.0, abs=1e-2)
    assert d.survival(0.25) == pytest.approx(0.75, abs=1e-2)
    assert d.evaluate(d.grid.x0 * 0.5) == 0.0
    with pytest.raises(DomainError):
        d.evaluate(0.0)
    with pytest.raises(DomainError):
        d.evaluate(1.5)
    with pytest.raises(DomainError):
        d.survival(-1.0)


def test_cdf_continuity_and_range(uniform_density):
    d = uniform_density
    xs = np.linspace(1e-6, 1.0, 777)
    F = d.cdf(xs)
    assert np.all(np.diff(F) >= -1e-14)
    assert F[0] >= 0 and F[-1] == pytest.approx(1.0, abs=1e-12)
    # uniform law: F(x) = x, including below the first grid node
    assert np.max(np.abs(F - xs)) <= 2e-3
    x0 = d.grid.x0
    assert d.cdf(np.array([x0 * 0.9]))[0] == pytest.approx(0.9 * x0, rel=0.05)


def test_moment_of_divergence_guard(gamma_density):
    # gap model grows like x**0.5, so orders <= -1.5 diverge at the origin
    with pytest.raises(DomainError):
        gamma_density.moment_of(-1.6)
    val = gamma_density.moment_of(-1.0)
    assert np.isfinite(val)


def test_csv_export(tmp_path, uniform_density):
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    uniform_density.to_csv(path1)
    uniform_density.to_csv(path2)
    b1 = path1.read_bytes()
    assert b1 == path2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x,k"
    assert len(lines) == uniform_density.grid.n_cells + 1
    x, k = map(float, lines[1000].split(","))
    assert uniform_density.evaluate(x) == pytest.approx(k, rel=1e-10)


# -- residual ----------------------------------------------------------------


def test_residual_uniform(uniform_density):
    assert residual(UNIFORM, uniform_density) <= 1e-3


def test_residual_decreases_under_refinement():
    coarse = solve(GAMMA, build_grid(GAMMA, 0.99, 800))
    fine = solve(GAMMA, build_grid(GAMMA, math.sqrt(0.99), 1600))
    r1 = residual(GAMMA, coarse)
    r2 = residual(GAMMA, fine)
    assert r1 / r2 >= 1.5


def reference_residuals(spec, density, cells):
    """The residual at the midpoint of each given cell by one full
    integrate_cells call in y over the cell's partial cell and every cell
    above it."""
    nodes = density.grid.nodes
    p = spec.tail.kernel_singularity()
    out = []
    for k in cells:
        x_p = float(math.sqrt(nodes[k] * nodes[k + 1]))
        lhs = (1.0 - spec.drift * x_p) * density.heights[k]

        def g(y):
            return spec.tail.tail_many(np.log(y / x_p))

        if isinstance(spec.tail, ZeroTail):
            kernel_part = 0.0
        else:
            edges = np.concatenate([[x_p], nodes[k + 1 :]])
            vals, _ = integrate_cells(g, edges, 1e-8, 1e-14, p_first=p)
            kernel_part = float(np.dot(vals, density.heights[k:]))
        partial = density.heights[k] * (nodes[k + 1] - x_p)
        rhs = kernel_part + spec.kill * (partial + float(density._suffix_mass[k + 1]))
        out.append(abs(lhs - rhs))
    return np.array(out)


@pytest.mark.parametrize(
    "spec, delta",
    [
        (GAMMA, 0.99),  # no kernel singularity
        (SubordinatorSpec(1.0, 0.0, StableTail(0.25)), 0.998),  # p < 0, c > 0
        (SubordinatorSpec(1.0, 0.5, StableTail(0.25)), 0.998),  # c > 0 and q > 0
        (SubordinatorSpec(0.0, 1.0 / math.gamma(0.5), LampertiKilledTail(0.5, 1.0)), 0.995),
        (UNIFORM, 0.99),
        (SubordinatorSpec(0.0, 0.0, KINKED), 0.99),
        (SubordinatorSpec(0.5, 0.5, KINKED), 0.995),
    ],
    ids=["gamma", "stable_drift", "stable_drift_kill", "lamperti_killed", "zero_tail",
         "kinked", "kinked_drift_kill"],
)
def test_residual_matches_per_probe_reference(spec, delta):
    d = solve(spec, build_grid(spec, delta, 800))
    by_cell = solver_module._cell_residuals(spec, d)
    sup = residual(spec, d)
    assert by_cell.size == solver_module.residual_cell_count(d.grid) == 792
    assert sup == by_cell.max()
    cells = np.union1d(np.arange(0, by_cell.size, 16), [by_cell.argmax()])
    assert np.abs(by_cell[cells] - reference_residuals(spec, d, cells)).max() <= 1e-6 * sup


def test_residual_falls_back_on_kinked_cells(monkeypatch):
    spec = SubordinatorSpec(0.0, 0.0, KINKED)
    d = solve(spec, build_grid(spec, 0.99, 800))
    los = []
    original = numerics.integrate

    def counting(req):
        los.append(req.lo)
        return original(req)

    monkeypatch.setattr(numerics, "integrate", counting)
    residual(spec, d)
    # the table's cells are grid cells, so a fallback starts at a node
    assert np.isin(los, d.grid.nodes).sum() > 0


# survey specs (benchmarks/survey.py, indices 32, 103 and 218) that solve
# at 8x the default cells, where a singular first cell mapped in y from
# x_p rounds back onto Pibar(0) = inf
SINGULAR_FIRST_CELL = [
    SubordinatorSpec(0.0, 0.0, StableTail(0.6931566829892775)),
    SubordinatorSpec(
        0.0, 1.3450766206595859,
        GammaExpTail(0.31773670101798945, 3.098349883203764, 2.1441592949181483),
    ),
    SubordinatorSpec(0.0, 0.0, LampertiKilledTail(0.6417903820257251, 3.682111646264144)),
]


@pytest.mark.parametrize("spec", SINGULAR_FIRST_CELL, ids=["stable", "gamma_exp", "lamperti"])
def test_residual_is_finite_where_the_first_cell_is_singular(spec):
    d = solve(spec, build_grid(spec, 0.998 ** (1 / 8), 36000))
    assert np.isfinite(residual(spec, d))


@pytest.mark.parametrize("name", ["stable_with_drift", "lamperti_killed"])
def test_residual_flags_a_wrong_weight(name):
    # the residual never reads W_m, so a solve from a wrong W_1 must show;
    # a weight error below about 1e-3 hides under the discretisation error
    spec = load_spec(RECIPES / f"{name}.json")
    grid = build_grid(spec, 0.998, 4500)
    w = kernel_weights(spec, grid)
    values = w.values.copy()
    values[1] *= 1.1
    wrong = solve(spec, grid, KernelWeights(values, w.error_estimates))
    assert residual(spec, wrong) >= 1.25 * residual(spec, solve(spec, grid, w))


def test_l1_refinement_consistency():
    # first-order convergence: halving the log step should roughly halve
    # the L1 error against the closed form
    def l1_error(delta, n):
        grid = build_grid(GAMMA, delta, n)
        d = solve(GAMMA, grid)
        mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        return float(np.dot(np.abs(d.heights - gamma_exact(mids)), grid.widths))

    e1 = l1_error(0.99, 1000)
    e2 = l1_error(math.sqrt(0.99), 2000)
    assert e2 < e1
    assert e1 <= 4.0 * e2
