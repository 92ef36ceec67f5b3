import math
from pathlib import Path

import numpy as np
import pytest

from expfun.errors import CutoffError, DomainError
from expfun.mc import (
    _LAMPERTI_BLOCK,
    default_cutoff,
    ks_distance,
    lamperti_density_estimate,
    monotone_histogram_check,
    sample_moment,
    simulate,
)
from expfun.model import SubordinatorSpec, load_spec, positive_moments
from expfun.reference import (
    killed_drift_law,
    powered_gamma_law,
    stable_half_reciprocal_law,
)
from expfun.solver import build_grid, solve
from expfun.tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    StableTail,
    StretchedExpTail,
    ZeroTail,
)

RECIPES = Path(__file__).resolve().parent.parent / "recipes"
UNIFORM = SubordinatorSpec(1.0, 1.0, ZeroTail())
GAMMA_CP = SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(2.0, 0.5))
EX3 = SubordinatorSpec(
    0.0, math.gamma(1.0) / math.gamma(0.5), LampertiKilledTail(0.5, 1.0)
)


@pytest.fixture(scope="module")
def uniform_samples():
    return simulate(UNIFORM, 30000, 42)


@pytest.fixture(scope="module")
def gamma_samples():
    return simulate(GAMMA_CP, 30000, 7)


def test_uniform_against_exact_cdf(uniform_samples):
    ks = ks_distance(uniform_samples, killed_drift_law(1.0, 1.0))
    assert ks.passed, ks
    assert ks.statistic < 2.0 * ks.band


def test_wrong_law_is_rejected(uniform_samples):
    ks = ks_distance(uniform_samples, powered_gamma_law(1.0, 1.5, 2.0))
    assert not ks.passed


def test_gamma_compound_poisson_exact(gamma_samples):
    ks = ks_distance(gamma_samples, powered_gamma_law(1.0, 1.5, 2.0))
    assert ks.passed, ks
    assert gamma_samples.cutoff == 0.0  # finite activity simulates exactly


def test_gamma_against_solver_cdf(gamma_samples):
    density = solve(GAMMA_CP, build_grid(GAMMA_CP, 0.99, 1500))
    ks = ks_distance(gamma_samples, density)
    assert ks.slack > 0
    assert ks.passed, ks


def test_determinism_bit_for_bit():
    a = simulate(UNIFORM, 5000, 123)
    b = simulate(UNIFORM, 5000, 123)
    assert np.array_equal(a.values, b.values)
    c = simulate(GAMMA_CP, 5000, 123)
    d = simulate(GAMMA_CP, 5000, 123)
    assert np.array_equal(c.values, d.values)
    assert not np.array_equal(c.values, simulate(GAMMA_CP, 5000, 124).values)


def test_sample_moments_match_recursion(gamma_samples):
    ms = positive_moments(GAMMA_CP, 2)
    for n in (1, 2):
        mean, se = sample_moment(gamma_samples, n)
        assert abs(mean - ms.value(n)) <= 4.0 * se


def test_compensated_lamperti_killed_matches_closed_law():
    samples = simulate(EX3, 20000, 11)
    assert samples.cutoff > 0
    ks = ks_distance(samples, stable_half_reciprocal_law())
    assert ks.passed, ks


def test_powered_gamma_half_matches_closed_law():
    # jumps above the default cutoff come from the exact GammaExpTail generator
    spec = SubordinatorSpec(0.0, 0.0, GammaExpTail(0.5, 1.0, 1.0))
    samples = simulate(spec, 20000, 2024)
    assert samples.cutoff > 0
    ks = ks_distance(samples, powered_gamma_law(0.5, 1.0, 1.0))
    assert ks.passed, ks


def test_stretched_exp_against_solver_cdf():
    # finite activity: exact paths, every jump a Gamma((1-b)/n) power
    spec = SubordinatorSpec(0.0, 0.0, StretchedExpTail(0.25, 1))
    samples = simulate(spec, 20000, 2024)
    assert samples.cutoff == 0.0
    ks = ks_distance(samples, solve(spec, build_grid(spec, 0.998, 4500)))
    assert ks.passed, ks


def test_cutoff_halving_stability():
    eps = default_cutoff(EX3)
    a = simulate(EX3, 20000, 3, cutoff=eps)
    b = simulate(EX3, 20000, 4, cutoff=eps / 2.0)
    density = solve(EX3, build_grid(EX3, 0.997, 3000))
    ka = ks_distance(a, density)
    kb = ks_distance(b, density)
    assert abs(ka.statistic - kb.statistic) < ka.band


def test_stable_drift_cutoff_sensitivity():
    spec = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
    a = simulate(spec, 20000, 5, cutoff=1e-3)
    b = simulate(spec, 20000, 6, cutoff=5e-4)
    ma, sea = sample_moment(a, 1)
    mb, seb = sample_moment(b, 1)
    assert abs(ma - mb) <= 3.0 * math.hypot(sea, seb)
    ms = positive_moments(spec, 1)
    assert abs(ma - ms.value(1)) <= 4.0 * sea


def test_cutoff_errors():
    spec = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
    with pytest.raises(CutoffError):
        simulate(spec, 100, 0, cutoff=0.0)  # infinite activity needs eps > 0
    with pytest.raises(CutoffError):
        simulate(spec, 100, 0, cutoff=100.0)  # beyond the first decade
    with pytest.raises(DomainError):
        simulate(spec, 0, 0)


# simulate(recipe, 64, 2026).values at indices 0, 21, 42 and 63, recorded
# before the round builder was shared with the clock-inversion estimator
PINNED_SAMPLES = {
    "powered_gamma_a_half": [
        0.6659870879330406, 1.5293208162372616, 0.6212434426283469, 0.9242773819389014
    ],
    "stretched_exp_n1": [
        2.1976674531099314, 2.122394337450524, 3.10024409544006, 0.9561591130324365
    ],
    "powered_gamma_a1": [
        0.7242571042566034, 0.5327800066484978, 0.1807332570995144, 0.43768858075792805
    ],
    "stable_with_drift": [
        0.20741850657305588, 0.0672516802833907, 0.027209093956518163, 0.0848436855348068
    ],
    "lamperti_killed": [
        2.0635531641795404, 1.2645616267964566, 1.8773770395775262, 1.5893517620731878
    ],
}


@pytest.mark.parametrize("recipe", sorted(PINNED_SAMPLES))
def test_simulate_stream_is_pinned(recipe):
    # a moved draw or a reordered jump size changes these at O(1); a change
    # of rounding alone stays far inside rtol
    values = simulate(load_spec(RECIPES / f"{recipe}.json"), 64, 2026).values
    assert np.allclose(values[[0, 21, 42, 63]], PINNED_SAMPLES[recipe], rtol=1e-12, atol=0)


def test_increasing_mode_needs_kill():
    with pytest.raises(DomainError):
        simulate(GAMMA_CP, 100, 0, increasing=True)


def test_increasing_drift_law():
    # xi = +drift with kill: I = (exp(c e_q) - 1)/c has cdf 1-(1+x)^(-q/c)
    s = simulate(UNIFORM, 30000, 22, increasing=True)
    ks = ks_distance(s, lambda x: 1.0 - (1.0 + np.asarray(x)) ** -1.0)
    assert ks.passed, ks


def test_lamperti_estimates_killed_drift_density():
    spec = SubordinatorSpec(1.0, 2.0, ZeroTail())
    out = lamperti_density_estimate(spec, [0.1, 0.25, 0.5, 0.9], 40000, 3)
    for t, est, se in out:
        assert abs(est - 2.0 * (1.0 - t)) <= 3.0 * se


def test_lamperti_uniform_and_out_of_support():
    out = lamperti_density_estimate(UNIFORM, [0.5, 1.5], 20000, 1)
    t, est, se = out[0]
    assert abs(est - 1.0) <= 3.0 * se
    # beyond 1/c the functional never reaches the probe
    assert out[1][1] == 0.0


def test_lamperti_with_jumps():
    # with jumps the estimator values reach exp(zeta) near the end of the
    # clock, so the tail is heavy and the empirical standard error
    # underestimates at moderate sample counts; allow an absolute slack on
    # top of the 3-se band (the estimator is unbiased: at M = 1.2e6 the
    # t = 0.5 probe sits within 0.2 se of the solver value)
    spec = SubordinatorSpec(1.0, 1.0, CompoundPoissonExpTail(1.0, 1.0))
    out = lamperti_density_estimate(spec, [0.2, 0.5, 0.8], 60000, 8)
    density = solve(spec, build_grid(spec, 0.999, 2000))
    for t, est, se in out:
        assert abs(est - density.evaluate(t)) <= 3.0 * se + 0.08


@pytest.mark.parametrize("seed", [0, 1])
def test_lamperti_estimator_reads_simulate_paths(seed):
    # at rate 20 the path with the largest functional almost surely jumps,
    # so the estimator only agrees with simulate if it reads the same jumps
    spec = SubordinatorSpec(1.0, 1.0, CompoundPoissonExpTail(20.0, 1.0))
    n = 4000
    assert n <= _LAMPERTI_BLOCK  # one block: the round simulate runs
    top = float(np.max(simulate(spec, n, seed).values))
    above, below = lamperti_density_estimate(spec, [top + 1e-6, top - 1e-6], n, seed)
    assert above[1] == 0.0
    assert below[1] > 0.0


@pytest.mark.parametrize("n_samples", [0, -1])
def test_lamperti_rejects_too_few_samples(n_samples):
    with pytest.raises(DomainError):
        lamperti_density_estimate(UNIFORM, [0.5], n_samples, 0)


def test_lamperti_rejects_unsupported_models():
    with pytest.raises(DomainError):
        lamperti_density_estimate(GAMMA_CP, [0.5], 100, 0)  # q = 0
    spec = SubordinatorSpec(1.0, 1.0, StableTail(0.25))
    with pytest.raises(DomainError):
        lamperti_density_estimate(spec, [0.5], 100, 0)  # infinite activity


def test_monotone_histogram_drift():
    rep = monotone_histogram_check(UNIFORM, 50000, 9, bins=40)
    assert rep.passed, rep.details
    assert rep.details["limit_ok"]
    assert abs(rep.details["limit"] - 1.0) <= rep.details["limit_band"]


def test_monotone_histogram_compound_poisson():
    spec = SubordinatorSpec(0.0, 1.0, CompoundPoissonExpTail(2.0, 0.5))
    rep = monotone_histogram_check(spec, 50000, 21, bins=40)
    assert rep.passed, rep.details


@pytest.mark.parametrize("bins", [0, 1, 2])
def test_monotone_histogram_rejects_too_few_bins(bins):
    # the x -> 0 fit needs at least two bins below the top one
    with pytest.raises(DomainError):
        monotone_histogram_check(UNIFORM, 1000, 9, bins=bins)


def test_sample_csv_round_trip(tmp_path, uniform_samples):
    path = tmp_path / "samples.csv"
    uniform_samples.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert "seed" in lines[0] and "cutoff" in lines[0]
    assert lines[1] == "I"
    vals = np.array([float(v) for v in lines[2:]])
    assert vals.size == uniform_samples.n_samples
    assert np.allclose(vals, uniform_samples.values, rtol=1e-10)


def test_ks_needs_enough_samples():
    s = simulate(UNIFORM, 50, 1)
    with pytest.raises(DomainError):
        ks_distance(s, killed_drift_law(1.0, 1.0))
