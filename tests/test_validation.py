import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from expfun import solver as solver_module
from expfun.errors import DomainError, InsufficientGrid
from expfun.model import SubordinatorSpec, load_spec
from expfun.numerics import integrate_cells
from expfun.reference import (
    killed_drift_law,
    killed_drift_tilted_law,
    powered_gamma_law,
)
from expfun.solver import build_grid, solve
from expfun.tails import GammaExpTail, LampertiKilledTail, StableTail, ZeroTail
from expfun.validation import (
    compare_to_reference,
    dual_large_x_check,
    moment_agreement_check,
    q_positive_limit_check,
    renewal_check,
    small_x_ratio_check,
    tilt_consistency,
)

UNIFORM = SubordinatorSpec(1.0, 1.0, ZeroTail())
GHALF = SubordinatorSpec(0.0, 0.0, GammaExpTail(0.5, 1.0, 1.0))
GAMMA = SubordinatorSpec(0.0, 0.0, GammaExpTail(1.0, 1.5, 2.0))
EX3 = SubordinatorSpec(0.0, 1.0 / math.gamma(0.5), LampertiKilledTail(0.5, 1.0))


@pytest.fixture(scope="module")
def uniform_density():
    return solve(UNIFORM, build_grid(UNIFORM, 0.999, 2000))


@pytest.fixture(scope="module")
def ghalf_density():
    return solve(GHALF, build_grid(GHALF, 0.997, 3200))


@pytest.fixture(scope="module")
def gamma_density():
    return solve(GAMMA, build_grid(GAMMA, 0.997, 3200))


def test_small_x_ratio_ghalf(ghalf_density):
    # exact ratio is sqrt(pi) e^{-x^2} sqrt(1-x^2) with limit sqrt(pi)
    rep = small_x_ratio_check(GHALF, ghalf_density, threshold=0.02)
    assert rep.passed, rep.summary()
    assert rep.statistic == pytest.approx(math.sqrt(math.pi), rel=0.02)
    assert rep.details["alpha"] == 1.0
    assert "recursion" in rep.oracle_source


def test_small_x_ratio_gamma_fractional(gamma_density):
    # alpha = 1/2; oracle E[I^(-1/2)] = sqrt(2) Gamma(1)/Gamma(3/2)
    rep = small_x_ratio_check(GAMMA, gamma_density, threshold=0.02)
    assert rep.passed, rep.summary()
    expected = math.sqrt(2.0) / math.gamma(1.5)
    assert rep.oracle_value == pytest.approx(expected, rel=5e-3)
    assert "density" in rep.oracle_source


def test_small_x_ratio_stable_plateau():
    # alpha = 0 makes the oracle E[I^0] = 1; convergence is slow for the
    # polynomial tail, so the wide uncertainty band must cover the gap
    spec = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
    dens = solve(spec, build_grid(spec, 0.998, 4500))
    rep = small_x_ratio_check(spec, dens, threshold=0.05)
    assert rep.oracle_value == 1.0
    assert abs(rep.statistic - 1.0) <= 0.25
    assert rep.passed, rep.summary()


def test_small_x_requires_zero_kill(uniform_density):
    with pytest.raises(DomainError):
        small_x_ratio_check(UNIFORM, uniform_density)


def test_insufficient_grid():
    # grid stops at x0 = 0.15, far above x_max/100: the ratio law is not
    # observable and the check must say so
    dens = solve(GHALF, build_grid(GHALF, 0.995, 800))
    with pytest.raises(InsufficientGrid):
        small_x_ratio_check(GHALF, dens)


@pytest.mark.parametrize(
    "spec, cells, reason",
    [
        # decay index 91: Pibar(log 1/x) underflows to 0 in the lowest decade
        (SubordinatorSpec(1.0, 0.0, LampertiKilledTail(0.0546875, 5.0)), 562, "normal double"),
        # x_max = 1551 puts the lowest decade at 0.19 < x < 1.9, where
        # log(1/x) < 0 lies outside the tail's domain
        (SubordinatorSpec(0.0, 0.0, LampertiKilledTail(0.05, 0.994)), 4500, "x < 1"),
    ],
    ids=["underflow", "above_one"],
)
def test_ratio_checks_need_a_representable_tail(spec, cells, reason):
    # found with the draw of tests/test_properties.py: both raised a
    # RuntimeWarning; the grids span the survey's log-range
    dens = solve(spec, build_grid(spec, 0.998 ** (4500 / cells), cells))
    for check in (small_x_ratio_check, dual_large_x_check):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InsufficientGrid, match=reason):
                check(spec, dens)


def test_q_limit_uniform(uniform_density):
    rep = q_positive_limit_check(UNIFORM, uniform_density)
    assert rep.passed, rep.summary()
    assert rep.statistic == pytest.approx(1.0, rel=1e-6)


def test_q_limit_killed_drift_two():
    spec = SubordinatorSpec(1.0, 2.0, ZeroTail())
    dens = solve(spec, build_grid(spec, 0.999, 2000))
    rep = q_positive_limit_check(spec, dens)
    assert rep.passed
    assert rep.statistic == pytest.approx(2.0, rel=5e-3)


def test_q_limit_lamperti_killed():
    q = math.gamma(1.0) / math.gamma(0.5)
    spec = SubordinatorSpec(0.0, q, LampertiKilledTail(0.5, 1.0))
    dens = solve(spec, build_grid(spec, 0.997, 3000))
    rep = q_positive_limit_check(spec, dens)
    assert rep.passed, rep.summary()
    assert rep.statistic == pytest.approx(q, rel=0.01)


def test_dual_large_x_ghalf(ghalf_density):
    rep = dual_large_x_check(GHALF, ghalf_density)
    # target is qstar * sqrt(pi) = 1
    assert rep.oracle_value == pytest.approx(1.0, rel=1e-9)
    assert rep.passed, rep.summary()


def test_dual_large_x_gamma(gamma_density):
    rep = dual_large_x_check(GAMMA, gamma_density)
    assert rep.passed, rep.summary()
    assert rep.details["qstar"] == pytest.approx(0.25, rel=1e-9)


def test_compare_to_reference(uniform_density, gamma_density, ghalf_density):
    rep = compare_to_reference(UNIFORM, uniform_density, killed_drift_law(1.0, 1.0))
    assert rep.passed and rep.statistic <= 1e-2
    rep = compare_to_reference(GAMMA, gamma_density, powered_gamma_law(1.0, 1.5, 2.0))
    assert rep.passed, rep.summary()
    rep = compare_to_reference(GHALF, ghalf_density, powered_gamma_law(0.5, 1.0, 1.0))
    assert rep.passed, rep.summary()
    rep = compare_to_reference(
        GAMMA, gamma_density, powered_gamma_law(1.0, 1.5, 2.0), norm="l1"
    )
    assert rep.passed


def test_compare_rejects_moment_only_law(gamma_density):
    from expfun.reference import lamperti_killed_law

    with pytest.raises(DomainError):
        compare_to_reference(GAMMA, gamma_density, lamperti_killed_law(0.3, 1.2))


def test_tilt_consistency_killed_drift():
    rep = tilt_consistency(UNIFORM, 1.0, 0.999, 2000)
    assert rep.passed, rep.summary()
    assert rep.statistic <= 2e-2


def test_tilt_consistency_gamma():
    rep = tilt_consistency(GAMMA, 0.5, 0.997, 3200)
    assert rep.passed, rep.summary()


def test_tilt_consistency_small_rho_guard():
    rep = tilt_consistency(UNIFORM, 1e-6, 0.999, 1500, threshold=1e-2)
    assert rep.passed, rep.summary()


def test_tilted_solution_matches_beta_law():
    from expfun.model import rho_tilt

    tilted = rho_tilt(UNIFORM, 1.0)
    grid = build_grid(tilted, 0.999, 2000)
    dens = solve(tilted, grid)
    rep = compare_to_reference(tilted, dens, killed_drift_tilted_law(1.0, 1.0, 1.0))
    assert rep.passed, rep.summary()


def test_renewal_check_killed_drift(uniform_density):
    # u_q(x) = exp(-q x / c)/c for the killed drift
    rep = renewal_check(
        UNIFORM, uniform_density, lambda x: np.exp(-x), threshold=5e-3
    )
    assert rep.passed, rep.summary()


def test_renewal_check_detects_wrong_kernel(uniform_density):
    rep = renewal_check(UNIFORM, uniform_density, lambda x: 0.5 * np.exp(-0.5 * x))
    assert not rep.passed


def per_probe_renewal(density, renewal_density, cells, uq_singularity=None):
    """The right side of the renewal identity at the midpoint y of each
    given cell by one integrate_cells call in t = y e^x over the cell's
    partial cell and every cell above it."""
    nodes = density.grid.nodes
    out = []
    for k in cells:
        y = math.sqrt(nodes[k] * nodes[k + 1])
        edges = np.concatenate([[y], nodes[k + 1 :]])
        vals, _, _ = integrate_cells(
            lambda t: renewal_density(np.log(t / y)) / t, edges, 1e-8, 1e-14,
            p_first=uq_singularity,
        )
        out.append(float(np.dot(vals, density.heights[k:])))
    return np.array(out)


def ex3_renewal(x):
    return np.expm1(2.0 * np.asarray(x, dtype=float)) ** -0.5 / math.gamma(1.5)


@pytest.mark.parametrize(
    "spec, delta, renewal_density, p",
    [(UNIFORM, 0.999, lambda x: np.exp(-x), None), (EX3, 0.998, ex3_renewal, -0.5)],
    ids=["uniform", "lamperti_killed"],
)
def test_renewal_matches_per_probe_reference(monkeypatch, spec, delta, renewal_density, p):
    density = solve(spec, build_grid(spec, delta, 2000))
    tables = []
    original = solver_module.integrate_uniform_cells

    def recording(f, *args, **kwargs):
        tables.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(solver_module, "integrate_uniform_cells", recording)
    rep = renewal_check(spec, density, renewal_density, uq_singularity=p)
    monkeypatch.undo()
    assert tables == [renewal_density]
    assert rep.passed, rep.summary()
    mids = density.grid.midpoints
    cells = np.searchsorted(mids, rep.probes)
    assert np.array_equal(mids[cells], rep.probes)
    # the window holds every cell with 0.02 < F < 0.9
    cdf = density.cdf(mids)
    assert np.array_equal(cells, np.nonzero((cdf > 0.02) & (cdf < 0.9))[0])
    pick = np.unique(np.linspace(0, cells.size - 1, 32).astype(int))
    ref = per_probe_renewal(density, renewal_density, cells[pick], p)
    assert np.all(np.abs(rep.measured[pick] - ref) <= 1e-6 * np.abs(ref))
    assert np.array_equal(rep.oracle[pick], [density.survival(y) for y in rep.probes[pick]])


def test_moment_agreement(gamma_density):
    # at L = 3e-3 the moments for n <= 3 are off by 1.5e-6: inside 1e-5,
    # outside 5e-7
    rep = moment_agreement_check(GAMMA, gamma_density, n_max=3, threshold=1e-5)
    assert rep.passed, rep.summary()
    rep = moment_agreement_check(GAMMA, gamma_density, n_max=3, threshold=5e-7)
    assert not rep.passed


def test_report_csv_and_summary(tmp_path, uniform_density):
    rep = q_positive_limit_check(UNIFORM, uniform_density)
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "probe,measured,oracle"
    assert len(lines) == rep.probes.size + 1
    assert "PASS" in rep.summary()
    assert "oracle" in rep.summary()


@pytest.mark.parametrize(
    "recipe, factor", [("stretched_exp_n1", 1.15), ("powered_gamma_a1", 1.03)]
)
def test_ratio_checks_catch_a_scaled_lowest_decade(recipe, factor):
    # both x -> 0 ratio laws pass on the default grid and fail once the
    # heights of the lowest decade are scaled.  stretched_exp_n1's ratio
    # converges like 1/log(1/x), the variable both checks extrapolate in
    # there, which leaves them an uncertainty near 3%
    spec = load_spec(Path(__file__).resolve().parent.parent / "recipes" / f"{recipe}.json")
    density = solve(spec, build_grid(spec, 0.998, 4500))
    lowest = density.grid.midpoints <= 10.0 * density.grid.x0
    scaled = dataclasses.replace(density, heights=np.where(lowest, factor, 1.0) * density.heights)
    for check in (small_x_ratio_check, dual_large_x_check):
        assert check(spec, density, threshold=0.02).passed
        assert not check(spec, scaled, threshold=0.02).passed
