import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp2f1

from expfun.errors import DomainError, NoConvergence, SpecFileError
from expfun.numerics import quad
from expfun.tails import (
    _INVERSE_BLOCK,
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    LevyTail,
    StableTail,
    StretchedExpTail,
    TabulatedTail,
    TiltedTail,
    ZeroTail,
    tail_from_dict,
)

TABULATED = TabulatedTail(
    tuple((z, 2.0 * math.exp(-0.7 * z - 0.1 * z * z)) for z in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0))
)


def tail_id(t):
    if not isinstance(t, LevyTail):
        return None  # pytest's default id for the other parameters
    d = t.to_dict()
    if d["variant"] == "tilted":
        return "tilted-" + tail_id(t.base)
    if d["variant"] == "tabulated":
        return "tabulated"
    return "-".join([d["variant"]] + [f"{v:g}" for k, v in d.items() if k != "variant"])


ALL_TAILS = [
    StableTail(0.25),
    GammaExpTail(0.5, 1.0, 1.0),
    GammaExpTail(1.0, 1.5, 2.0),
    CompoundPoissonExpTail(2.0, 0.5),
    LampertiKilledTail(0.5, 1.0),
    StretchedExpTail(0.25, 1),
    StretchedExpTail(0.25, 2),
    TiltedTail(ZeroTail(), 1.0, 1.0),
    TabulatedTail(tuple((z, 2.0 * math.exp(-0.7 * z)) for z in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0))),
]


EXPONENTIAL_TAILS = [t for t in ALL_TAILS if math.isfinite(t.decay_index())]


@pytest.mark.parametrize(
    "tail", EXPONENTIAL_TAILS + [TiltedTail(StableTail(0.5), 1.0, 0.0)], ids=tail_id
)
def test_power_factor_matches_the_tail(tail):
    # Pibar(z) e**(alpha z) from z = 20 to z = 40 moves by a power of 2
    # where it carries a power of z, and is constant to 1e-6 elsewhere
    z = np.array([20.0, 40.0])
    r = tail.tail_many(z) * np.exp(tail.decay_index() * z)
    moved = abs(r[1] / r[0] - 1.0)
    assert moved > 0.1 if tail.has_power_factor() else moved < 1e-6


def test_stable_tail_value():
    assert StableTail(0.25).tail_one(1.0) == pytest.approx(4.0, rel=1e-14)


def test_gamma_exp_tail_value():
    # (1/Gamma(3/2)) * (e^(2z) - 1)^(-1/2) at z = log 2 equals 2/sqrt(3 pi)
    got = GammaExpTail(0.5, 1.0, 1.0).tail_one(math.log(2.0))
    assert got == pytest.approx(2.0 / math.sqrt(3.0 * math.pi), rel=1e-12)


def test_gamma_exp_tail_near_zero():
    # Pibar(z) ~ beta a**(1-a)/Gamma(a+1) z**(a-1): finite and exact where
    # exp(-z/a) rounds to 1
    a, s, beta = 0.27, 2.79, 1.23
    z = np.geomspace(1e-300, 1e-14, 60)
    vals = GammaExpTail(a, s, beta).tail_many(z)
    assert np.all(np.isfinite(vals))
    limit = beta * a ** (1.0 - a) / math.gamma(a + 1.0)
    np.testing.assert_allclose(z ** (1.0 - a) * vals, limit, rtol=1e-12)
    # below t = 1, expm1(t)**(a-1) is the formula without cancellation
    z = np.geomspace(1e-12, a, 60)
    t = z / a
    direct = beta / math.gamma(a + 1.0) * np.exp(-(s - 1.0) * t) * np.expm1(t) ** (a - 1.0)
    np.testing.assert_allclose(GammaExpTail(a, s, beta).tail_many(z), direct, rtol=1e-14)


def test_lamperti_density_near_zero():
    # the Levy density tends to (z/a)**(-(1+a))/Gamma(1-a) as z -> 0
    a = 0.5
    z = np.geomspace(1e-150, 1e-14, 60)
    vals = LampertiKilledTail(a, 1.5).density_many(z)
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose((z / a) ** (1.0 + a) * vals, 1.0 / math.gamma(1.0 - a), rtol=1e-12)


def test_compound_poisson_total_mass_at_origin():
    cp = CompoundPoissonExpTail(2.0, 0.5)
    assert cp.tail_one(1e-12) == pytest.approx(2.0, rel=1e-9)
    assert cp.total_mass() == 2.0


def test_lamperti_killed_closed_form_beta_one():
    # for beta = 1 the defining integral has the antiderivative
    # ((1 - exp(-z/a))**(-a) - 1) / Gamma(1-a)
    lk = LampertiKilledTail(0.5, 1.0)
    for z in (1e-3, 0.05, 0.4, 1.0, 3.0):
        closed = ((1.0 - math.exp(-2.0 * z)) ** -0.5 - 1.0) / math.sqrt(math.pi)
        assert lk.tail_one(z) == pytest.approx(closed, rel=1e-13)


def test_lamperti_killed_general_beta_vs_hypergeometric():
    # beta < 1, a near beta, and beta/a = 160, where the two terms of the
    # incomplete-beta formula cancel to about a/beta of their size
    for a, beta in [(0.3, 1.4), (0.5, 0.7), (0.3, 0.5), (0.9, 0.95), (0.05, 8.0)]:
        lk = LampertiKilledTail(a, beta)
        for z in (0.05, 0.3, 1.0, 2.5):
            w = math.exp(-z / a)
            oracle = (
                a
                / math.gamma(1.0 - a)
                * w**beta
                / beta
                * float(hyp2f1(1.0 + a, beta, beta + 1.0, w))
            )
            assert lk.tail_one(z) == pytest.approx(oracle, rel=1e-12)


@st.composite
def lamperti_params(draw):
    a = draw(st.floats(min_value=0.05, max_value=0.95))
    beta = draw(st.floats(min_value=a, max_value=20.0, exclude_min=True))
    return a, beta


# the smallest normal double; below it the formula's difference of two
# subnormal terms has too few digits to be monotone
_TINY = np.finfo(float).tiny


@settings(max_examples=60, deadline=None)
@given(
    params=lamperti_params(),
    zs=st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=2, max_size=24),
)
def test_lamperti_tail_property(params, zs):
    lk = LampertiKilledTail(*params)
    z = np.sort(zs)
    vals = lk.tail_many(z)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
    assert np.array_equal(vals, [lk.tail_one(float(v)) for v in z])
    normal = vals[1:] >= _TINY
    assert np.all(vals[1:][normal] <= vals[:-1][normal])


@pytest.mark.parametrize("t", ALL_TAILS + [LampertiKilledTail(0.5, 1.5)], ids=tail_id)
def test_tail_is_a_pure_function_of_z(t):
    # unsorted, with a repeat, spanning the singular end and the far tail
    z = np.concatenate([np.geomspace(1e-4, 9.0, 37), [0.5, 1e-3, 0.5, 30.0, 2e-4]])
    batch = t.tail_many(z)
    assert np.array_equal(batch, [t.tail_many(z[i : i + 1])[0] for i in range(z.size)])
    assert np.array_equal(batch, [t.tail_one(float(v)) for v in z])


def test_stretched_exp_against_quadrature():
    for n in (1, 2, 3):
        t = StretchedExpTail(0.25, n)
        for z in (0.1, 0.8, 1.6):
            ref = quad(lambda x: x**-0.25 * np.exp(-(x**n)), z, np.inf, rel_tol=1e-12)
            assert t.tail_one(z) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("b, n", [(1.05, 3), (1.25, 3), (1.5, 2)])
def test_stretched_exp_negative_order_far_tail(b, n):
    # b > 1 makes the gamma order (1 - b)/n negative, where the downward
    # recurrence for Gamma(s, x) cancels at large x = z**n
    t = StretchedExpTail(b, n)
    z_last = math.log(1.0 / _TINY) ** (1.0 / n)
    zs = np.concatenate([[0.05, 0.3, 0.9], np.linspace(1.0, z_last, 24)])
    checked = 0
    for z in zs:
        ref = quad(t.density_many, z, np.inf, rel_tol=1e-14, abs_tol=1e-320)
        if ref < _TINY:
            continue
        assert t.tail_one(z) == pytest.approx(ref, rel=1e-11, abs=0.0), z
        checked += 1
    # the far end, where Pibar is still a normal double, is reached
    assert checked >= zs.size - 2


def test_tabulated_interpolation_and_extrapolation():
    knots = tuple((z, 3.0 * math.exp(-1.3 * z)) for z in (0.2, 0.6, 1.1, 2.0, 3.5))
    t = TabulatedTail(knots)
    for z, v in knots:
        assert t.tail_one(z) == pytest.approx(v, rel=1e-12)
    # log-linear between knots reproduces the exponential exactly
    assert t.tail_one(1.5) == pytest.approx(3.0 * math.exp(-1.3 * 1.5), rel=1e-12)
    # beyond the table the fitted decay extends the last segment
    assert t.fitted_decay() == pytest.approx(1.3, rel=1e-9)
    assert t.tail_one(6.0) == pytest.approx(3.0 * math.exp(-1.3 * 6.0), rel=1e-6)
    # below the table the tail is frozen at the first knot
    assert t.tail_one(0.05) == pytest.approx(knots[0][1], rel=1e-12)


def test_tilted_tail_formula():
    base = GammaExpTail(1.0, 1.5, 2.0)
    t = TiltedTail(base, 0.5, 0.7)
    z = np.array([0.3, 1.0, 2.5])
    expect = np.exp(-0.5 * z) * (base.tail_many(z) + 0.7)
    assert np.allclose(t.tail_many(z), expect, rtol=1e-14)


@pytest.mark.parametrize("t", ALL_TAILS, ids=lambda t: type(t).__name__ + str(ALL_TAILS.index(t) if False else ""))
def test_tail_nonnegative_and_nonincreasing(t):
    zs = np.geomspace(1e-3, 12.0, 60)
    vals = t.tail_many(zs)
    assert np.all(vals >= 0)
    assert np.all(np.diff(vals) <= 1e-12 * np.maximum(vals[:-1], 1.0))


@pytest.mark.parametrize("t", ALL_TAILS[:7], ids=lambda t: type(t).__name__)
def test_tail_integrable_near_zero(t):
    # integral of Pibar over (0, 1) must be finite for a subordinator
    val = quad(t.tail_many, 0.0, 1.0, rel_tol=1e-7, singularity_p=t.kernel_singularity())
    assert np.isfinite(val) and val >= 0


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=0.9),
    z1=st.floats(min_value=0.01, max_value=5.0),
    dz=st.floats(min_value=0.01, max_value=5.0),
)
def test_stable_monotone_property(a, z1, dz):
    t = StableTail(a)
    assert t.tail_one(z1) >= t.tail_one(z1 + dz)


def test_small_jump_mean_matches_quadrature():
    for t in [StableTail(0.25), CompoundPoissonExpTail(2.0, 0.5), LampertiKilledTail(0.5, 1.0)]:
        eps = 0.05
        # integral of x Pi(dx) over (0, eps] = integral of Pibar over (0, eps] - eps*Pibar(eps)
        head = quad(t.tail_many, 0.0, eps, rel_tol=1e-10, singularity_p=t.kernel_singularity())
        ref = head - eps * t.tail_one(eps)
        assert t.small_jump_mean(eps) == pytest.approx(ref, rel=1e-7)


def philox(seed):
    """A generator of the kind ``mc`` hands the samplers."""
    return np.random.Generator(np.random.Philox(seed))


def restricted_mass(t, eps):
    return t.tail_one(eps) if eps > 0 else t.total_mass()


def test_samplers_invert_the_tail():
    u = np.linspace(0.02, 0.98, 25)
    cases = [
        (StableTail(0.25), 0.01, 1e-12),
        (CompoundPoissonExpTail(2.0, 0.5), 0.0, 1e-12),
        (LampertiKilledTail(0.5, 1.0), 1e-3, 1e-12),
        (StretchedExpTail(0.25, 1), 0.0, 1e-12),
        (GammaExpTail(0.5, 1.0, 1.0), 1e-3, 1e-12),
        (TABULATED, 0.0, 1e-12),
        # the generic safeguarded-Newton inverse
        (StretchedExpTail(1.5, 2), 1e-3, 1e-12),
        (TiltedTail(GammaExpTail(0.5, 1.0, 1.0), 0.7, 0.3), 1e-3, 1e-12),
        (TiltedTail(CompoundPoissonExpTail(2.0, 0.5), 0.5, 0.2), 0.0, 1e-12),
        (LampertiKilledTail(0.5, 1.5), 1e-3, 1e-12),
    ]
    for t, eps, tol in cases:
        base = restricted_mass(t, eps)
        x = t.inverse_tail(u * base)
        assert np.all(x >= eps * (1 - 1e-9))
        back = t.tail_many(x) / base
        assert np.max(np.abs(back - u)) < tol


# every sampler that maps uniform draws through ``inverse_tail``: closed-form
# inverses, the Newton path, and the two generator tails where they fall back
INVERSE_PATH_CASES = [
    (StableTail(0.25), 0.01),
    (CompoundPoissonExpTail(2.0, 0.5), 0.0),
    (LampertiKilledTail(0.5, 1.0), 1e-3),
    (LampertiKilledTail(0.5, 1.5), 1e-3),
    (GammaExpTail(1.0, 1.5, 2.0), 0.0),
    (StretchedExpTail(0.25, 1), 1e-3),
    (StretchedExpTail(1.5, 2), 1e-3),
    (TABULATED, 0.0),
    (TiltedTail(GammaExpTail(0.5, 1.0, 1.0), 0.7, 0.3), 1e-3),
    (TiltedTail(CompoundPoissonExpTail(2.0, 0.5), 0.5, 0.2), 0.0),
]


@pytest.mark.parametrize("t, eps", INVERSE_PATH_CASES, ids=tail_id)
def test_inverse_path_sampler_is_one_uniform_call(t, eps):
    # the stream of these tails is the one they drew before the sampler
    # took a Generator: one rng.random(size) call, scaled and inverted
    base = restricted_mass(t, eps)
    for size in (1000, (40, 25)):
        got = t.sample_restricted(eps, philox(3), size)
        want = t.inverse_tail(philox(3).random(size) * base)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


# tails with an exact generator, each at the cutoff it serves
GENERATOR_CASES = [
    (StretchedExpTail(0.25, 1), 0.0),
    (StretchedExpTail(0.25, 2), 0.0),
    (StretchedExpTail(0.5, 3), 0.0),
    (GammaExpTail(0.5, 1.0, 1.0), 1e-3),
    (GammaExpTail(0.3, 2.0, 1.5), 1e-3),
]


@pytest.mark.parametrize("t, eps", GENERATOR_CASES, ids=tail_id)
def test_exact_generator_matches_restricted_law(t, eps):
    x = t.sample_restricted(eps, philox(11), (400, 500))
    assert x.shape == (400, 500)
    assert np.all(np.isfinite(x)) and np.all(x > eps)
    assert np.array_equal(x, t.sample_restricted(eps, philox(11), (400, 500)))
    # one-sample KS against 1 - Pibar(max(z, eps))/Pibar(eps); 1.63/sqrt(n)
    # is the 1% critical value of the Kolmogorov distribution
    xs = np.sort(x.ravel())
    n = xs.size
    cdf = 1.0 - t.tail_many(np.maximum(xs, eps)) / restricted_mass(t, eps)
    i = np.arange(1, n + 1)
    stat = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert stat <= 1.63 / math.sqrt(n)


def test_infinite_restriction_needs_a_cutoff():
    for t in (GammaExpTail(0.5, 1.0, 1.0), StretchedExpTail(1.5, 1), StableTail(0.5)):
        with pytest.raises(DomainError, match="infinite mass"):
            t.sample_restricted(0.0, philox(1), 10)


def reference_inverse_tail(tail, w):
    """Generic inverse by monotone bisection: the bracket [1e-12, hi] with hi
    doubled from 1, then 80 halvings; the reference for the Newton inverse."""
    w = np.asarray(w, dtype=float)
    lo = np.full(w.shape, 1e-12)
    hi = np.ones_like(w)
    for _ in range(80):
        too_high = tail.tail_many(hi) > w
        if not np.any(too_high):
            break
        hi = np.where(too_high, hi * 2.0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = tail.tail_many(mid) > w
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


# tails that take the generic inverse, with the relative tolerance against
# the bisection; every Pibar here is a closed form (Lamperti's through
# ``betainc``).  Roots lie in [0.05, 5], where the computed log Pibar
# has a slope of at least 0.025 in log z and is smooth to a few ulps, so
# the root itself is fixed to about 1e-14.
GENERIC_INVERSE_CASES = [
    (GammaExpTail(0.5, 1.0, 1.0), 1e-13),
    (GammaExpTail(0.3, 2.0, 1.5), 1e-13),
    (StretchedExpTail(1.5, 2), 1e-13),
    (StretchedExpTail(1.0, 3), 1e-13),
    (StretchedExpTail(0.25, 1), 1e-13),
    (StretchedExpTail(0.5, 2), 1e-13),
    (TiltedTail(GammaExpTail(0.5, 1.0, 1.0), 0.7, 0.3), 1e-13),
    (TiltedTail(CompoundPoissonExpTail(2.0, 0.5), 0.5, 0.2), 1e-13),
    (TiltedTail(StableTail(0.5), 1.0, 0.5), 1e-13),
    (TiltedTail(TABULATED, 0.4, 0.0), 1e-13),
    (LampertiKilledTail(0.5, 1.5), 1e-13),
    (LampertiKilledTail(0.3, 0.7), 1e-13),
]


@pytest.mark.parametrize("n", [1, _INVERSE_BLOCK - 1, _INVERSE_BLOCK + 1])
@pytest.mark.parametrize("t, rtol", GENERIC_INVERSE_CASES, ids=tail_id)
def test_newton_inverse_matches_bisection(t, rtol, n):
    z = np.geomspace(0.05, 5.0, n) if n > 1 else np.array([0.7])
    w = t.tail_many(z)
    got = t.inverse_tail(w)
    assert got.shape == w.shape
    ref = reference_inverse_tail(t, w)
    assert np.max(np.abs(got / ref - 1.0)) < rtol


def test_newton_inverse_keeps_2d_shape():
    t = LampertiKilledTail(0.5, 1.5)
    w = np.linspace(0.03, 0.97, 21).reshape(3, 7) * t.tail_one(1e-3)
    x = t.inverse_tail(w)
    assert x.shape == (3, 7)
    assert np.array_equal(x.ravel(), t.inverse_tail(w.ravel()))
    y = t.sample_restricted(1e-3, philox(5), (3, 7))
    assert y.shape == (3, 7)
    assert np.array_equal(y.ravel(), t.sample_restricted(1e-3, philox(5), 21))


def test_newton_inverse_clamps_below_the_bracket():
    # Pibar(z) = z**-0.5/0.5 = w has the root 4e-18, below the 1e-12 floor
    got = LevyTail.inverse_tail(StableTail(0.5), np.array([1e9]))
    assert got[0] == pytest.approx(1e-12, rel=1e-12)


def test_inverse_tail_raises_when_no_bracket():
    # Pibar >= 0.5 e**(-1e-30 z) stays above w = 0.1 up to z = 2**80
    t = TiltedTail(StableTail(0.5), 1e-30, 0.5)
    with pytest.raises(NoConvergence, match=r"tilted inverse_tail.*w = 0\.1\b"):
        t.inverse_tail([0.1])


DENSITY_CASES = ALL_TAILS + [
    ZeroTail(),
    LampertiKilledTail(0.3, 0.7),
    StretchedExpTail(1.5, 2),
    StretchedExpTail(1.0, 3),
    TiltedTail(GammaExpTail(0.5, 1.0, 1.0), 0.7, 0.3),
    TiltedTail(TABULATED, 0.4, 0.2),
]


@pytest.mark.parametrize("t", DENSITY_CASES, ids=tail_id)
def test_density_is_minus_tail_derivative(t):
    # off the knots of the tabulated tails, where the density jumps
    z = np.array([0.03, 0.3, 0.77, 1.3, 2.9, 6.1])
    h = 1e-6 * z
    both = t.tail_many(np.concatenate([z - h, z + h]))
    diff = (both[: z.size] - both[z.size :]) / (2.0 * h)
    dens = t.density_many(z)
    assert dens.shape == z.shape
    assert np.all(dens >= 0)
    assert np.allclose(dens, diff, rtol=1e-6, atol=1e-300)


@pytest.mark.parametrize("t", [CompoundPoissonExpTail(2.0, 0.5), GammaExpTail(0.5, 1.0, 1.0)], ids=tail_id)
def test_density_integrates_to_tail(t):
    for z in (0.01, 0.4, 3.0):
        val = quad(t.density_many, z, np.inf, rel_tol=1e-12)
        assert val == pytest.approx(t.tail_one(z), rel=1e-10)


def test_zero_tail_has_no_jumps():
    z = ZeroTail()
    assert z.tail_one(1.0) == 0.0
    assert z.total_mass() == 0.0
    with pytest.raises(DomainError):
        z.tail_one(-1.0)


def test_round_trip_serialization():
    for t in ALL_TAILS + [ZeroTail()]:
        assert tail_from_dict(t.to_dict()) == t


def test_bad_variant_rejected():
    with pytest.raises(SpecFileError):
        tail_from_dict({"variant": "nope"})
    with pytest.raises(SpecFileError):
        tail_from_dict({"variant": "stable", "a": 1.5})
    with pytest.raises(DomainError):
        GammaExpTail(0.5, 0.2, 1.0)
    # s = a leaves Pibar(inf) = beta/Gamma(a+1) > 0: not a jump measure
    for a, s, beta in [(0.5, 0.5, 1.0), (1.0, 1.0, 2.0)]:
        with pytest.raises(DomainError, match="need s > a"):
            GammaExpTail(a, s, beta)
    with pytest.raises(DomainError):
        LampertiKilledTail(0.5, 0.5)
    with pytest.raises(DomainError):
        TabulatedTail(((1.0, 2.0), (2.0, 3.0), (3.0, 1.0)))
