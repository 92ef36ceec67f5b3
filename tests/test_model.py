import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfun.errors import DomainError, MissingDensity, NotConvergent, SpecFileError
from expfun.model import (
    SubordinatorSpec,
    class_index,
    dual_sn,
    laplace_exponent,
    load_spec,
    negative_moment,
    phi_prime_at_zero,
    positive_moments,
    rho_tilt,
    save_spec,
    spec_from_dict,
    tail,
)
from expfun.numerics import quad
from expfun.tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    StableTail,
    StretchedExpTail,
    TabulatedTail,
    ZeroTail,
)

UNIFORM = SubordinatorSpec(1.0, 1.0, ZeroTail())
GAMMA = SubordinatorSpec(0.0, 0.0, GammaExpTail(1.0, 1.5, 2.0))
GHALF = SubordinatorSpec(0.0, 0.0, GammaExpTail(0.5, 1.0, 1.0))
STABLE_DRIFT = SubordinatorSpec(1.0, 0.0, StableTail(0.25))
EX3 = SubordinatorSpec(
    0.0, math.gamma(1.0) / math.gamma(0.5), LampertiKilledTail(0.5, 1.0)
)

SPECS = [
    UNIFORM,
    GAMMA,
    GHALF,
    STABLE_DRIFT,
    EX3,
    SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(2.0, 0.5)),
    SubordinatorSpec(0.0, 0.0, StretchedExpTail(0.25, 1)),
    SubordinatorSpec(0.0, 0.0, StretchedExpTail(0.25, 2)),
]


def test_rejects_degenerate_model():
    with pytest.raises(DomainError, match="drift to -infinity"):
        SubordinatorSpec(0.0, 0.0, ZeroTail())
    with pytest.raises(DomainError):
        SubordinatorSpec(-1.0, 0.0, ZeroTail())


def test_laplace_pure_drift():
    assert laplace_exponent(UNIFORM, 3.0) == 3.0


def test_laplace_gamma_exp_closed_value():
    assert laplace_exponent(GAMMA, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_laplace_stable_with_drift():
    got = laplace_exponent(STABLE_DRIFT, 1.0)
    assert got == pytest.approx(1.0 + 4.0 * math.gamma(0.75), rel=1e-8)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s.tail).__name__)
def test_closed_form_agrees_with_quadrature(spec):
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        a = laplace_exponent(spec, lam)
        b = laplace_exponent(spec, lam, method="quadrature")
        assert a == pytest.approx(b, rel=1e-7)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s.tail).__name__)
def test_phi_zero_monotone_concave(spec):
    lams = np.linspace(0.0, 8.0, 17)
    phis = np.array([laplace_exponent(spec, float(l)) for l in lams])
    assert phis[0] == 0.0
    assert np.all(np.diff(phis) > 0)
    mid = np.array(
        [laplace_exponent(spec, float(0.5 * (a + b))) for a, b in zip(lams[:-1], lams[1:])]
    )
    assert np.all(mid >= 0.5 * (phis[:-1] + phis[1:]) - 1e-10 * np.abs(phis[1:]))


def test_laplace_domain_errors():
    with pytest.raises(DomainError):
        laplace_exponent(GHALF, -1.0)  # decay index is exactly 1
    with pytest.raises(DomainError):
        laplace_exponent(SPECS[5], -0.5)  # compound poisson decay 1/2
    # inside the strip everything works, closed and quadrature agree
    a = laplace_exponent(GHALF, -0.6)
    b = laplace_exponent(GHALF, -0.6, method="quadrature")
    assert a == pytest.approx(b, rel=1e-7)
    assert a < 0


def test_positive_moments_uniform():
    ms = positive_moments(UNIFORM, 3)
    assert ms.value(0) == 1.0
    assert ms.value(3) == pytest.approx(1.0 / 4.0, rel=1e-14)
    # uniform(0,1) has E[I^n] = 1/(n+1)
    for n in range(4):
        assert ms.value(n) == pytest.approx(1.0 / (n + 1.0), rel=1e-13)


def test_positive_moments_lamperti_killed():
    ms = positive_moments(EX3, 4)
    for n in range(5):
        expected = math.factorial(n) * math.gamma(1.0) / math.gamma(0.5 * n + 1.0)
        assert ms.value(n) == pytest.approx(expected, rel=1e-9)


def test_moment_recursion_identity_from_quadrature_phi():
    # re-assert E[I^n](q + phi(n)) = n E[I^(n-1)] with an independently
    # recomputed phi
    for spec in (UNIFORM, GAMMA, EX3):
        ms = positive_moments(spec, 5)
        for n in range(1, 6):
            phi_n = laplace_exponent(spec, float(n), method="quadrature")
            lhs = ms.value(n) * (spec.kill + phi_n)
            rhs = n * ms.value(n - 1)
            assert lhs == pytest.approx(rhs, rel=1e-7)


def test_gamma_exp_moments_match_powered_gamma_law():
    # the exponential functional of the gamma-exp model has the law of
    # beta**(-1) * gamma_s**a, so E[I^n] = beta**(-n) Gamma(an+s)/Gamma(s)
    for a, s, beta in [(1.0, 1.5, 2.0), (0.5, 1.0, 1.0), (0.7, 1.3, 0.8)]:
        spec = SubordinatorSpec(0.0, 0.0, GammaExpTail(a, s, beta))
        ms = positive_moments(spec, 6)
        for n in range(7):
            expected = beta**-n * math.gamma(a * n + s) / math.gamma(s)
            assert ms.value(n) == pytest.approx(expected, rel=1e-9)


def test_negative_moment_trivial_and_integer():
    assert negative_moment(GHALF, 0.0).value == 1.0
    nm = negative_moment(GHALF, 1.0)
    assert nm.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)
    assert nm.value == pytest.approx(phi_prime_at_zero(GHALF), rel=1e-12)
    cp = SubordinatorSpec(0.0, 0.0, CompoundPoissonExpTail(2.0, 0.5))
    # E[I^-1] = phi'(0) = rate/decay = 4; cross-check by integrating 1/x
    # against the Gamma(3/2, 2) density of the matching functional
    assert negative_moment(cp, 1.0).value == pytest.approx(4.0, rel=1e-9)
    dens = lambda x: 2.0**1.5 / math.gamma(1.5) * np.sqrt(x) * np.exp(-2.0 * x)
    oracle = quad(lambda x: dens(x) / x, 0.0, np.inf, singularity_p=-0.5)
    assert oracle == pytest.approx(4.0, rel=1e-8)


def test_negative_moment_errors():
    with pytest.raises(DomainError):
        negative_moment(UNIFORM, 1.0)  # q > 0
    with pytest.raises(DomainError):
        negative_moment(GHALF, 2.0)  # needs phi(-1); decay index is 1
    with pytest.raises(DomainError):
        negative_moment(STABLE_DRIFT, 1.0)  # infinite mean jump
    with pytest.raises(MissingDensity):
        negative_moment(GAMMA, 0.25)
    with pytest.raises(MissingDensity):
        negative_moment(GHALF, 1.5)


class _PowerLawDensity:
    """Stand-in density with moment_of; the Gamma(3/2, 2) law."""

    def moment_of(self, r):
        return 2.0**-r * math.gamma(1.5 + r) / math.gamma(1.5)


def test_negative_moment_fractional_seeding():
    nm = negative_moment(GAMMA, 0.5, density=_PowerLawDensity())
    expected = math.sqrt(2.0) * math.gamma(1.0) / math.gamma(1.5)
    assert nm.value == pytest.approx(expected, rel=1e-12)
    assert nm.provenance == "density-integral"


def test_class_index_values():
    alpha, diag = class_index(StableTail(0.25), probe_offsets=[1.0])
    assert alpha == 0.0
    assert abs(diag["ratios"][0] - 1.0) < 0.1
    alpha, diag = class_index(GammaExpTail(0.5, 1.0, 1.0), probe_offsets=[1.0])
    assert alpha == 1.0
    assert diag["ratios"][0] == pytest.approx(math.exp(-1.0), abs=0.05)
    alpha, _ = class_index(StretchedExpTail(0.25, 1))
    assert alpha == 1.0
    alpha, _ = class_index(StretchedExpTail(0.25, 2))
    assert alpha == math.inf
    alpha, _ = class_index(LampertiKilledTail(0.5, 1.0))
    assert alpha == 2.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_index_finite_for_stretched_exp(n):
    # Pibar must stay a normal double over the whole probe window plus offsets
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, diag = class_index(StretchedExpTail(0.25, n))
    ratios = np.array(diag["window_ratios"])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)


def test_class_index_ratio_band():
    # |ratio - exp(-alpha y)| <= 0.05 at the variant probe point
    for t in [StableTail(0.25), GammaExpTail(0.5, 1.0, 1.0), StretchedExpTail(0.25, 1),
              LampertiKilledTail(0.5, 1.0), CompoundPoissonExpTail(2.0, 0.5)]:
        alpha, diag = class_index(t, probe_offsets=[0.5, 1.0, 2.0])
        for r, e in zip(diag["ratios"], diag["expected"]):
            assert abs(r - e) <= 0.05


def test_class_index_fitted_for_tabulated():
    knots = tuple((z, 5.0 * math.exp(-0.9 * z)) for z in np.linspace(0.5, 12.0, 24))
    alpha, diag = class_index(TabulatedTail(knots))
    assert alpha == pytest.approx(0.9, rel=1e-6)


def test_class_index_not_convergent():
    # knots sampled from exp(-z^2) decay faster than any exponential; the
    # fitted rate cannot stabilize over the window
    knots = tuple((z, math.exp(-(z**2))) for z in np.linspace(0.5, 6.0, 12))
    with pytest.raises(NotConvergent):
        class_index(TabulatedTail(knots))


def test_rho_tilt_killed_drift():
    tilted = rho_tilt(UNIFORM, 1.0)
    assert tilted.kill == 0.0
    assert tilted.drift == 1.0
    for lam in (1.0, 2.0, 3.0):
        assert laplace_exponent(tilted, lam) == pytest.approx(lam + lam / (lam + 1.0), rel=1e-12)
        # generic identity phi_rho(lam) = lam (phi(lam+rho) + q) / (lam+rho)
        expected = lam * (laplace_exponent(UNIFORM, lam + 1.0) + 1.0) / (lam + 1.0)
        assert laplace_exponent(tilted, lam) == pytest.approx(expected, rel=1e-12)


def test_rho_tilt_gamma_exp_formula():
    rho = 0.5
    a, s, beta = 1.0, 1.5, 2.0
    tilted = rho_tilt(GAMMA, rho)
    for theta in (0.5, 1.0, 2.0, 3.0):
        expected = (
            beta
            * theta
            * math.gamma(a * (theta + rho - 1.0) + s)
            / math.gamma(a * (theta + rho) + s)
        )
        assert laplace_exponent(tilted, theta) == pytest.approx(expected, rel=1e-10)


def test_rho_tilt_formula_vs_quadrature():
    for spec in (UNIFORM, GAMMA, EX3):
        tilted = rho_tilt(spec, 0.75)
        for lam in (1.0, 2.0, 3.0):
            a = laplace_exponent(tilted, lam)
            b = laplace_exponent(tilted, lam, method="quadrature")
            assert a == pytest.approx(b, rel=1e-7)
    with pytest.raises(DomainError):
        rho_tilt(UNIFORM, 0.0)


def test_dual_sn():
    psi, qstar = dual_sn(SubordinatorSpec(1.0, 0.0, ZeroTail()))
    assert qstar == 1.0
    assert psi(3.0) == pytest.approx(3.0, rel=1e-14)
    psi2, qstar2 = dual_sn(GAMMA)
    assert qstar2 == pytest.approx(0.25, rel=1e-12)
    assert psi2(2.0) == pytest.approx(2.0 * 2.5 / 2.0, rel=1e-12)
    psi3, _ = dual_sn(GHALF)
    for lam in (0.5, 1.0, 2.0):
        expected = lam * math.gamma(lam / 2.0 + 1.0) / math.gamma((lam + 1.0) / 2.0)
        assert psi3(lam) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(DomainError):
        dual_sn(STABLE_DRIFT)  # infinite mean jump
    with pytest.raises(DomainError):
        dual_sn(UNIFORM)  # q > 0


def test_tail_accessor():
    assert tail(STABLE_DRIFT, 1.0) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        tail(STABLE_DRIFT, 0.0)


def test_spec_round_trip(tmp_path):
    for spec in SPECS:
        path = tmp_path / "model.json"
        save_spec(spec, path)
        assert load_spec(path) == spec


def test_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec(bad)
    with pytest.raises(SpecFileError):
        spec_from_dict({"drift": 1.0})
    with pytest.raises(SpecFileError):
        spec_from_dict({"drift": 0.0, "kill": 0.0, "tail": {"variant": "zero"}})
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"drift": 1.0, "kill": 1.0, "tail": {"variant": "zero"}}))
    assert load_spec(ok) == UNIFORM


@settings(max_examples=20, deadline=None)
@given(
    rate=st.floats(min_value=0.2, max_value=5.0),
    decay=st.floats(min_value=0.2, max_value=3.0),
    q=st.floats(min_value=0.0, max_value=2.0),
)
def test_moment_recursion_property(rate, decay, q):
    spec = SubordinatorSpec(0.5, q, CompoundPoissonExpTail(rate, decay))
    ms = positive_moments(spec, 4)
    for n in range(1, 5):
        phi_n = laplace_exponent(spec, float(n))
        assert ms.value(n) * (q + phi_n) == pytest.approx(n * ms.value(n - 1), rel=1e-10)
