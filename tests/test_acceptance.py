"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see them live).

Criteria that pin grid parameters use them verbatim.  The moment-fidelity
criteria leave the grid free; they run at a smaller log step, chosen when
the scheme was first order with moment bias close to n(n+1)L/4, which kept
the default step L = 2e-3 from 0.5% at n = 5.  The product-integration
scheme is second order and reads about 1e-5 at the default step.
"""

import math
import time

import numpy as np
import pytest

from expfun.mc import (
    ks_distance,
    lamperti_density_estimate,
    monotone_histogram_check,
    simulate,
)
from expfun.model import SubordinatorSpec, dual_sn, laplace_exponent, rho_tilt
from expfun.reference import (
    killed_drift_tilted_law,
    powered_gamma_dual_density,
    stable_reciprocal_moment,
)
from expfun.solver import build_grid, solve
from expfun.tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    StableTail,
    ZeroTail,
)
from expfun.validation import (
    compare_to_reference,
    dual_large_x_check,
    q_positive_limit_check,
    renewal_check,
    small_x_ratio_check,
    tilt_consistency,
)

UNIFORM = SubordinatorSpec(1.0, 1.0, ZeroTail())
GAMMA = SubordinatorSpec(0.0, 0.0, GammaExpTail(1.0, 1.5, 2.0))
GHALF = SubordinatorSpec(0.0, 0.0, GammaExpTail(0.5, 1.0, 1.0))
STABLE_DRIFT = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
EX3_KILL = math.gamma(1.0) / math.gamma(0.5)
EX3 = SubordinatorSpec(0.0, EX3_KILL, LampertiKilledTail(0.5, 1.0))

FINE_DELTA = math.exp(-4e-4)
FINE_CELLS = 25000
EX3_DELTA = math.exp(-8e-4)
EX3_CELLS = 12000


def _announce(num, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {state}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def uniform_acc():
    t0 = time.perf_counter()
    grid = build_grid(UNIFORM, 0.999, 4000)
    density = solve(UNIFORM, grid)
    return density, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gamma_acc():
    t0 = time.perf_counter()
    grid = build_grid(GAMMA, 0.998, 4500)
    density = solve(GAMMA, grid)
    return density, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ghalf_acc():
    grid = build_grid(GHALF, 0.998, 4500)
    return solve(GHALF, grid)


@pytest.fixture(scope="module")
def ex3_acc():
    grid = build_grid(EX3, EX3_DELTA, EX3_CELLS)
    return solve(EX3, grid)


def _midpoints(density):
    return density.grid.centres


def test_criterion_01_uniform_law(uniform_acc):
    density, elapsed = uniform_acc
    n = density.grid.n_cells
    keep = slice(0, int(0.99 * n))
    err = float(np.max(np.abs(density.heights[keep] - 1.0)))
    ok = err <= 1e-2 and elapsed <= 60.0
    _announce(
        1, ok,
        f"uniform law at delta=0.999 N=4000: max|y-1| = {err:.3e} (<= 1e-2), "
        f"runtime {elapsed:.2f}s (<= 60s)",
    )


def test_criterion_02_gamma_density(gamma_acc):
    density, elapsed = gamma_acc
    mids = _midpoints(density)
    exact = 2.0**2.5 / math.sqrt(math.pi) * np.sqrt(mids) * np.exp(-2.0 * mids)
    linf = float(np.max(np.abs(density.heights - exact)))
    ok = linf <= 1e-2 and elapsed <= 300.0
    _announce(
        2, ok,
        f"powered-gamma (a=1, s=3/2, beta=2) at delta=0.998 N=4500: "
        f"Linf = {linf:.3e} (<= 1e-2), runtime {elapsed:.2f}s (<= 5min)",
    )


def test_criterion_03_ghalf_density_and_ratio(ghalf_acc):
    density = ghalf_acc
    mids = _midpoints(density)
    exact = 2.0 * mids * np.exp(-(mids**2))
    linf = float(np.max(np.abs(density.heights - exact)))
    rep = small_x_ratio_check(GHALF, density, threshold=0.01)
    target = math.sqrt(math.pi)
    ok = linf <= 1e-2 and rep.passed and abs(rep.oracle_value - target) < 1e-6
    _announce(
        3, ok,
        f"powered-gamma (a=1/2, s=1, beta=1): Linf = {linf:.3e} (<= 1e-2); "
        f"small-x ratio limit {rep.statistic:.5f} vs sqrt(pi) = {target:.5f} "
        f"within 1% + {rep.uncertainty:.1e}",
    )


def _recursion_moment_quadrature_phi(spec, n):
    value = 1.0
    for i in range(1, n + 1):
        value *= i / (spec.kill + laplace_exponent(spec, float(i), method="quadrature"))
    return value


def test_criterion_04_moment_fidelity():
    from expfun.tails import StretchedExpTail

    cases = [("stable a=1/4 with drift", STABLE_DRIFT)]
    for n_exp in (1, 2, 3):
        cases.append(
            (f"stretched-exp n={n_exp}",
             SubordinatorSpec(0.0, 0.0, StretchedExpTail(0.25, n_exp)))
        )
    worst = 0.0
    details = []
    for name, spec in cases:
        grid = build_grid(spec, FINE_DELTA, FINE_CELLS)
        density = solve(spec, grid)
        case_worst = max(
            abs(density.moment_of(float(n)) / _recursion_moment_quadrature_phi(spec, n) - 1.0)
            for n in range(1, 6)
        )
        worst = max(worst, case_worst)
        details.append(f"{name}: {case_worst:.2e}")
    ok = worst <= 5e-3
    _announce(
        4, ok,
        f"moments n=1..5 vs recursion with quadrature phi, worst relative "
        f"error {worst:.3e} (<= 5e-3); " + "; ".join(details),
    )


def test_criterion_05_lamperti_killed_moments_and_limit(ex3_acc):
    density = ex3_acc
    worst = 0.0
    for n in range(1, 5):
        oracle = stable_reciprocal_moment(0.5, n)
        worst = max(worst, abs(density.moment_of(float(n)) / oracle - 1.0))
    rep = q_positive_limit_check(EX3, density, threshold=0.02)
    ok = worst <= 1e-2 and rep.passed
    _announce(
        5, ok,
        f"lamperti-killed (a=1/2, beta=1, q=1/sqrt(pi)): moments n=1..4 worst "
        f"rel {worst:.3e} (<= 1e-2); density limit at 0 {rep.statistic:.5f} vs "
        f"q = {EX3_KILL:.5f} within 2%",
    )


def test_criterion_06_tilt_consistency():
    rep1 = tilt_consistency(UNIFORM, 1.0, 0.999, 4000)
    rep2 = tilt_consistency(GAMMA, 0.5, 0.998, 4500)
    tilted = rho_tilt(UNIFORM, 1.0)
    grid = build_grid(tilted, 0.999, 4000)
    tilted_density = solve(tilted, grid)
    rep3 = compare_to_reference(
        tilted, tilted_density, killed_drift_tilted_law(1.0, 1.0, 1.0), threshold=1e-2
    )
    ok = rep1.passed and rep2.passed and rep3.passed
    _announce(
        6, ok,
        f"tilt consistency: killed-drift rho=1 L1 = {rep1.statistic:.3e} and "
        f"powered-gamma rho=1/2 L1 = {rep2.statistic:.3e} (<= 2e-2); tilted "
        f"killed-drift vs Beta(2,1) law Linf = {rep3.statistic:.3e} (<= 1e-2)",
    )


def test_criterion_07_duality(ghalf_acc):
    density = ghalf_acc
    from expfun.reference import dual_transform

    _, qstar = dual_sn(GHALF)
    k_dual = dual_transform(density, qstar)
    xs = np.geomspace(0.5, 20.0, 64)
    closed = powered_gamma_dual_density(0.5, 1.0, 1.0, xs)
    linf = float(np.max(np.abs(k_dual(xs) - closed)))
    rep = dual_large_x_check(GHALF, density, threshold=0.02)
    target = qstar * math.sqrt(math.pi)
    ok = linf <= 2e-2 and rep.passed and abs(rep.oracle_value - target) < 1e-9
    _announce(
        7, ok,
        f"duality for powered-gamma (a=1/2, s=1, beta=1): Linf on [0.5, 20] = "
        f"{linf:.3e} (<= 2e-2); tail ratio {rep.statistic:.5f} vs "
        f"qstar*sqrt(pi) = {target:.5f} within 2% + {rep.uncertainty:.1e}",
    )


def test_criterion_08_monte_carlo_agreement(uniform_acc, gamma_acc, ex3_acc):
    m = 100000
    gamma_cp = SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(2.0, 0.5))
    runs = [
        ("uniform", UNIFORM, uniform_acc[0], 101),
        ("powered-gamma a=1", gamma_cp, gamma_acc[0], 102),
        ("lamperti-killed (compensated)", EX3, ex3_acc, 103),
    ]
    details = []
    ok = True
    for name, spec, density, seed in runs:
        samples = simulate(spec, m, seed)
        ks = ks_distance(samples, density)
        ok = ok and ks.passed
        details.append(
            f"{name}: KS {ks.statistic:.5f} <= {ks.band:.5f} + {ks.slack:.5f}"
        )
    rerun = simulate(UNIFORM, m, 101)
    first = simulate(UNIFORM, m, 101)
    identical = np.array_equal(rerun.values, first.values)
    ok = ok and identical
    _announce(
        8, ok,
        "Monte-Carlo agreement at M=1e5: " + "; ".join(details)
        + f"; deterministic rerun bit-identical: {identical}",
    )


def test_criterion_09_lamperti_clock_estimator():
    spec = SubordinatorSpec(1.0, 2.0, ZeroTail())
    probes = np.linspace(0.05, 0.95, 10)
    out = lamperti_density_estimate(spec, probes, 100000, 77)
    worst_z = 0.0
    ok = True
    for t, est, se in out:
        z = abs(est - 2.0 * (1.0 - t)) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 3.0
    _announce(
        9, ok,
        f"clock-inversion density estimate for (c=1, q=2): 10 probes vs "
        f"2(1-t), worst deviation {worst_z:.2f} se (<= 3)",
    )


def test_criterion_10_monotone_histograms():
    drift_rep = monotone_histogram_check(UNIFORM, 100000, 201, bins=40)
    cp_spec = SubordinatorSpec(0.0, 1.0, CompoundPoissonExpTail(2.0, 0.5))
    cp_rep = monotone_histogram_check(cp_spec, 100000, 202, bins=40)
    ok = drift_rep.passed and cp_rep.passed
    _announce(
        10, ok,
        f"increasing-driver histograms nonincreasing and convex within 3-se "
        f"bands; fitted limits {drift_rep.details['limit']:.4f} and "
        f"{cp_rep.details['limit']:.4f} vs q = 1 within bands "
        f"{drift_rep.details['limit_band']:.4f} / {cp_rep.details['limit_band']:.4f}",
    )


def test_criterion_11_renewal_identity(uniform_acc, ex3_acc):
    uniform_density, _ = uniform_acc
    rep1 = renewal_check(
        UNIFORM, uniform_density, lambda x: np.exp(-x), threshold=5e-3
    )

    def ex3_renewal(x):
        x = np.asarray(x, dtype=float)
        return np.expm1(2.0 * x) ** -0.5 / math.gamma(1.5)

    rep2 = renewal_check(
        EX3, ex3_acc, ex3_renewal, threshold=5e-3, uq_singularity=-0.5
    )
    ok = rep1.passed and rep2.passed
    _announce(
        11, ok,
        f"renewal identity: killed-drift sup error {rep1.statistic:.3e}, "
        f"lamperti-killed sup error {rep2.statistic:.3e} (both <= 5e-3)",
    )
