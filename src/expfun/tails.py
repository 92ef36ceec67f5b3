"""Jump-tail families for subordinator models.

Each variant provides the tail function ``Pibar(z) = Pi((z, inf))`` of a
Levy measure on (0, inf), together with whatever structure the rest of
the package needs: closed-form Laplace integrals when available, the
exponential decay index of the tail, the algebraic singularity exponent
at 0+ (the kernel weights integrate ``Pibar(u) e**u`` across u = 0), the
truncated first moment used for small-jump compensation, the Levy density
``density_many``, and a sampler for jumps restricted to (eps, inf).

``tail_many`` is the batch entry point; hot paths hand it whole arrays.
Without a closed form, phi, the mean jump and the small-jump mean all
come from one quadrature of exp(-lam u) Pibar(u), ``laplace_integral``.

``sample_restricted`` draws from a numpy ``Generator``.  Two variants have
exact generators that invert no special function: ``StretchedExpTail``
with b < 1 at eps = 0 raises a Gamma((1-b)/n) draw to the power 1/n, and
``GammaExpTail`` with a < 1 takes the smaller of two closed-form draws.
Every other case inverts the tail at uniform draws.  Several variants do
that in closed form; the rest use ``LevyTail.inverse_tail``, a
safeguarded Newton iteration in u = log z on log Pibar, with slope
-z pi(z)/Pibar(z) from the density.
Its bracket is [1e-12, hi] with hi the first of 1, 2, 4, ..., 2**80 where
Pibar <= w (``NoConvergence`` when there is none); a Newton step that
leaves the bracket or stalls becomes a bisection.  Draws go through in
blocks of 16384, which keeps the iteration's scratch arrays in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, digamma, exp1, gammaincc, gammaln, rgamma

from .errors import DomainError, NoConvergence, SpecFileError
from .numerics import QuadratureRequest, integrate

_QUAD_REL = 1e-9
_QUAD_ABS = 1e-12

# generic inverse_tail: the bracket [1e-12, hi] with hi doubled from 1 at
# most 80 times (so up to 2**80 ~ 1.2e24)
_LOG_Z_MIN = math.log(1e-12)
_DOUBLINGS = 80
# a draw is done after a Newton step d <= sqrt(eps) in u = log z: Newton
# converges quadratically, so the new iterate is off by about
# (g''/2g') d**2 ~ 1e-16 (g''/2g' is O(1) on the smooth tails here); a
# bisection step ends a draw only once the bracket is a few ulps of u wide
_NEWTON_TOL = math.sqrt(np.finfo(float).eps)
_U_TOL = 4.0 * np.finfo(float).eps
# the u-bracket is at most log(2**80 / 1e-12) ~ 83 wide, and halving it to
# _U_TOL takes 57 bisections; every step either bisects or is a Newton step
# at most half as long as the step before last, so 120 steps leave room for
# both kinds (a draw still open after them keeps its last iterate)
_NEWTON_STEPS = 120
# draws per block: 16384 doubles are 128 KiB per array, and one block keeps
# about a dozen such arrays (w, bracket, iterate, steps, tail, slope, ...)
# live, ~1.5 MiB: that fits a per-core L2 cache of 2 MiB, and it caps the
# scratch memory however many jumps a simulation round draws (a 513k-draw
# round at once would hold ~50 MiB of temporaries)
_INVERSE_BLOCK = 16384


class LevyTail:
    """Base interface; concrete variants are frozen dataclasses."""

    variant: str = "abstract"

    # -- evaluation ---------------------------------------------------------
    def tail_many(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def density_many(self, z: np.ndarray) -> np.ndarray:
        """Levy density pi(z) = -dPibar/dz, elementwise."""
        raise NotImplementedError

    def tail_one(self, z: float) -> float:
        if z <= 0:
            raise DomainError("tail function is defined for z > 0")
        return float(self.tail_many(np.array([z]))[0])

    # -- structure ----------------------------------------------------------
    def total_mass(self) -> float:
        """Pi((0, inf)); infinite for infinite-activity variants."""
        raise NotImplementedError

    def mean_jump(self) -> float:
        """Integral of x Pi(dx) over (0, inf) = integral of Pibar; may be inf."""
        return self.laplace_integral(0.0)

    def kernel_singularity(self) -> Optional[float]:
        """Exponent p in (-1, 0) with Pibar(z) ~ C z**p as z -> 0, if singular."""
        return None

    def decay_index(self) -> float:
        """Index alpha with Pibar(x+y)/Pibar(x) -> exp(-alpha y); inf when the
        decay is faster than every exponential."""
        raise NotImplementedError

    def has_power_factor(self) -> bool:
        """Whether Pibar(z) exp(alpha z), alpha the decay index, carries a
        power of z as z -> inf; then a ratio law at x -> 0 approaches its
        limit like 1/log(1/x), not like a power of x."""
        return False

    def laplace_closed(self, lam: float) -> Optional[float]:
        """Closed form of lam * integral exp(-lam*u) Pibar(u) du, when known."""
        return None

    def laplace_integral(self, lam: float, hi: float = math.inf) -> float:
        """Integral of exp(-lam*u) Pibar(u) over (0, hi), by quadrature.

        For lam < 0, exp(-lam*u) overflows far out where Pibar has already
        underflowed to 0, so the integrand is exp(log Pibar(u) - lam*u).
        """
        if lam == 0.0:
            f = self.tail_many
        elif lam > 0.0:
            def f(u):
                return np.exp(-lam * u) * self.tail_many(u)
        else:
            def f(u):
                with np.errstate(divide="ignore"):
                    return np.exp(np.log(self.tail_many(u)) - lam * u)
        val, _ = integrate(
            QuadratureRequest(f, 0.0, hi, _QUAD_REL, _QUAD_ABS, self.kernel_singularity())
        )
        return val

    def small_jump_mean(self, eps: float) -> float:
        """Integral of x Pi(dx) over (0, eps]; the compensation drift."""
        if eps <= 0:
            return 0.0
        return self.laplace_integral(0.0, eps) - eps * self.tail_one(eps)

    # -- sampling -----------------------------------------------------------
    def inverse_tail(self, w: np.ndarray) -> np.ndarray:
        """Solve Pibar(z) = w for z, elementwise, by safeguarded Newton.

        The iteration runs in u = log z on g(u) = log Pibar(e**u) - log w,
        whose slope is g'(u) = -z pi(z)/Pibar(z) with pi = ``density_many``.
        The bracket starts at [1e-12, hi], with hi doubled from 1 until
        Pibar(hi) <= w; a root below 1e-12 clamps there.  A Newton step that
        is not finite, leaves the bracket or shrinks too slowly becomes a
        bisection in u, so each draw converges at least as fast as bisection
        would.  Draws go through in blocks of ``_INVERSE_BLOCK``.
        """
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, _INVERSE_BLOCK):
            stop = start + _INVERSE_BLOCK
            out[start:stop] = self._inverse_block(flat[start:stop])
        return out.reshape(w.shape)

    def _inverse_block(self, w: np.ndarray) -> np.ndarray:
        # upper bracket end: the first of 1, 2, 4, ..., 2**80 with Pibar <= w;
        # the block shares one table of Pibar there, grown until it covers
        # the smallest w
        w_min = float(np.min(w))
        table = [float(self.tail_many(np.ones(1))[0])]
        while not table[-1] <= w_min:
            if len(table) > _DOUBLINGS:
                raise NoConvergence(
                    f"{self.variant} inverse_tail: Pibar stays above w = "
                    f"{w_min:.6g} up to z = 2**{_DOUBLINGS}, so the sampler "
                    "finds no root"
                )
            table.append(float(self.tail_many(np.array([2.0 ** len(table)]))[0]))
        # first index with Pibar <= w: search the running minimum, which
        # crosses w at the same index as the table itself
        k = np.searchsorted(-np.minimum.accumulate(table), -w)
        z = 2.0 ** k
        tail = np.asarray(table)[k]
        # Pibar underflows to 0 far out, and pi/Pibar is then 0/0: such
        # steps are not finite and bisect
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = np.log(w)
            u = np.log(z)
            g = np.log(tail) - log_w
            slope = -z * self.density_many(z) / tail
            # bracket in u: g > 0 at lo (unchecked at 1e-12), g <= 0 at up
            lo = np.full_like(w, _LOG_Z_MIN)
            up = u.copy()
            # the last two steps, for the test that Newton shrinks fast enough
            step = up - lo
            step_old = step.copy()
            out = np.empty_like(w)
            act = np.arange(w.size)
            for _ in range(_NEWTON_STEPS):
                newton = u - g / slope
                bisect = (
                    ~np.isfinite(newton)
                    | (newton < lo)
                    | (newton > up)
                    | (np.abs(2.0 * g) > np.abs(step_old * slope))
                )
                x = np.where(bisect, 0.5 * (lo + up), newton)
                step_old = step
                step = x - u
                done = np.abs(step) <= np.where(
                    bisect, _U_TOL * np.maximum(1.0, np.abs(x)), _NEWTON_TOL
                )
                out[act[done]] = x[done]
                keep = ~done
                if not np.any(keep):
                    break
                act, u, lo, up = act[keep], x[keep], lo[keep], up[keep]
                step, step_old = step[keep], step_old[keep]
                z = np.exp(u)
                tail = self.tail_many(z)
                g = np.log(tail) - log_w[act]
                slope = -z * self.density_many(z) / tail
                above = g > 0
                lo = np.where(above, u, lo)
                up = np.where(above, up, u)
            else:
                out[act] = u
        return np.exp(out)

    def sample_restricted(self, eps: float, rng: np.random.Generator, size) -> np.ndarray:
        """Jump sizes from the normalized restriction of Pi to (eps, inf).

        Draws an array of shape ``size`` from ``rng``.  The default maps one
        ``rng.random(size)`` call through the tail inverse; variants with an
        exact generator override it.
        """
        base = self.tail_one(eps) if eps > 0 else self.total_mass()
        if not np.isfinite(base):
            raise DomainError("restriction to (0, inf) has infinite mass; need eps > 0")
        return self.inverse_tail(rng.random(size) * base)

    # -- diagnostics / serialization ----------------------------------------
    def probe_x(self) -> float:
        """Abscissa where the decay-index asymptotics is accurate."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroTail(LevyTail):
    """No jumps at all."""

    variant = "zero"

    def tail_many(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def density_many(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def total_mass(self):
        return 0.0

    def mean_jump(self):
        return 0.0

    def decay_index(self):
        return math.inf

    def laplace_closed(self, lam):
        return 0.0

    def small_jump_mean(self, eps):
        return 0.0

    def probe_x(self):
        return 1.0

    def to_dict(self):
        return {"variant": "zero"}


@dataclass(frozen=True)
class StableTail(LevyTail):
    """Pi(dx) = x**(-1-a) dx, so Pibar(z) = z**(-a)/a; polynomial tail."""

    a: float
    variant = "stable"

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise DomainError("stable index a must lie in (0, 1)")

    def tail_many(self, z):
        z = np.asarray(z, dtype=float)
        return z**-self.a / self.a

    def density_many(self, z):
        return np.asarray(z, dtype=float) ** (-1.0 - self.a)

    def total_mass(self):
        return math.inf

    def mean_jump(self):
        return math.inf

    def kernel_singularity(self):
        return -self.a

    def decay_index(self):
        return 0.0

    def has_power_factor(self):
        return True

    def laplace_closed(self, lam):
        if lam < 0:
            return None
        return math.gamma(1.0 - self.a) * lam**self.a / self.a

    def small_jump_mean(self, eps):
        return eps ** (1.0 - self.a) / (1.0 - self.a)

    def inverse_tail(self, w):
        return (self.a * np.asarray(w, dtype=float)) ** (-1.0 / self.a)

    def probe_x(self):
        return max(50.0, 40.0 * self.a)

    def to_dict(self):
        return {"variant": "stable", "a": self.a}


@dataclass(frozen=True)
class GammaExpTail(LevyTail):
    """Pibar(z) = (beta/Gamma(a+1)) exp(-(s-1)z/a) (exp(z/a)-1)**(a-1).

    The Laplace exponent of the matching subordinator is
    beta * lam * Gamma(a(lam-1)+s) / Gamma(a*lam+s); the exponential
    functional follows the law of a powered gamma variable.
    """

    a: float
    s: float
    beta: float
    variant = "gamma_exp"

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise DomainError("a must lie in (0, 1]")
        if self.s <= self.a:
            # Pibar ~ (beta/Gamma(a+1)) e**((a-s) z/a) as z -> inf
            raise DomainError(
                "need s > a: otherwise Pibar does not vanish as z -> inf (at "
                "s = a it tends to beta/Gamma(a+1)), so it is not a jump tail"
            )
        if self.beta <= 0:
            raise DomainError("beta must be positive")

    def tail_many(self, z):
        t = np.asarray(z, dtype=float) / self.a
        # log(1 - e**-t) through expm1 keeps its digits where exp(-t) rounds to 1
        log_em1 = t + np.log(-np.expm1(-t))
        log_val = (
            math.log(self.beta)
            - gammaln(self.a + 1.0)
            - (self.s - 1.0) * t
            + (self.a - 1.0) * log_em1
        )
        return np.exp(log_val)

    def density_many(self, z):
        # -d/dz log Pibar = ((s-1) + (1-a)/(1-e**(-t)))/a with t = z/a
        t = np.asarray(z, dtype=float) / self.a
        hazard = ((self.s - 1.0) + (1.0 - self.a) / -np.expm1(-t)) / self.a
        return self.tail_many(z) * hazard

    def total_mass(self):
        return self.beta if self.a == 1.0 else math.inf

    def mean_jump(self):
        return self.beta * math.gamma(self.s - self.a) / math.gamma(self.s)

    def kernel_singularity(self):
        return None if self.a == 1.0 else self.a - 1.0

    def decay_index(self):
        return (self.s - self.a) / self.a

    def laplace_closed(self, lam):
        if lam <= -self.decay_index():
            return None
        return self.beta * lam * math.exp(
            gammaln(self.a * (lam - 1.0) + self.s) - gammaln(self.a * lam + self.s)
        )

    def inverse_tail(self, w):
        if self.a == 1.0:
            d = self.s - 1.0
            return np.log(self.beta / np.asarray(w, dtype=float)) / d
        return super().inverse_tail(w)

    def sample_restricted(self, eps, rng, size):
        # with x = 1 - e**(-z/a), Pibar is proportional to x**(a-1) (1-x)**(s-a),
        # so Pibar(z)/Pibar(eps) is the survival (x/x_eps)**(a-1) of an
        # improper draw (none when x >= 1) times the survival
        # e**(-(s-a)(z-eps)/a) of an exponential one, and Z is the smaller of
        # the two.  Both survivals are inverted at U = e**(-E) with E a
        # standard exponential, uniform on (0, 1] without forming log(0).
        # a = 1 keeps its closed-form inverse; at eps = 0 the base class
        # raises for the infinite mass
        if self.a == 1.0 or eps <= 0:
            return super().sample_restricted(eps, rng, size)
        a = self.a
        log_x = math.log(-math.expm1(-eps / a)) + rng.standard_exponential(size) / (1.0 - a)
        z = eps + a * rng.standard_exponential(size) / (self.s - a)
        hit = log_x < 0.0
        z[hit] = np.minimum(z[hit], -a * np.log(-np.expm1(log_x[hit])))
        return z

    def probe_x(self):
        return max(12.0 * self.a, 2.0)

    def to_dict(self):
        return {"variant": "gamma_exp", "a": self.a, "s": self.s, "beta": self.beta}


@dataclass(frozen=True)
class CompoundPoissonExpTail(LevyTail):
    """Finite activity: jumps at rate ``rate`` with Exp(``decay``) sizes."""

    rate: float
    decay: float
    variant = "compound_poisson_exp"

    def __post_init__(self):
        if self.rate <= 0 or self.decay <= 0:
            raise DomainError("rate and decay must be positive")

    def tail_many(self, z):
        return self.rate * np.exp(-self.decay * np.asarray(z, dtype=float))

    def density_many(self, z):
        return self.rate * self.decay * np.exp(-self.decay * np.asarray(z, dtype=float))

    def total_mass(self):
        return self.rate

    def mean_jump(self):
        return self.rate / self.decay

    def decay_index(self):
        return self.decay

    def laplace_closed(self, lam):
        if lam <= -self.decay:
            return None
        return self.rate * lam / (lam + self.decay)

    def small_jump_mean(self, eps):
        d = self.decay
        return (self.rate / d) * -math.expm1(-d * eps) - self.rate * eps * math.exp(-d * eps)

    def inverse_tail(self, w):
        return np.log(self.rate / np.asarray(w, dtype=float)) / self.decay

    def probe_x(self):
        return 1.0

    def to_dict(self):
        return {"variant": "compound_poisson_exp", "rate": self.rate, "decay": self.decay}


@dataclass(frozen=True)
class LampertiKilledTail(LevyTail):
    """Tail of the Lamperti-type subordinator paired with kill rate
    Gamma(beta)/Gamma(beta-a).

    Pibar(z) = (1/Gamma(1-a)) * integral over (z, inf) of
    exp((1+a-beta)x/a) (exp(x/a)-1)**(-(1+a)) dx.  Substituting
    v = exp(-x/a) turns it into (a/Gamma(1-a)) B(x; beta, -a), the
    incomplete beta integral of v**(beta-1) (1-v)**(-1-a) over (0, x) with
    x = exp(-z/a).  Integrating d/dv [v**beta (1-v)**(-a)] =
    (beta-a) v**(beta-1) (1-v)**(-a) + a v**(beta-1) (1-v)**(-1-a) over
    (0, x) gives B(x; beta, -a) = x**beta (1-x)**(-a)/a
    - (beta/a - 1) B(beta, 1-a) betainc(beta, 1-a, x) (DLMF 8.17), for
    every 0 < a < 1 and beta > a.
    """

    a: float
    beta: float
    variant = "lamperti_killed"

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise DomainError("a must lie in (0, 1)")
        if self.beta <= self.a:
            raise DomainError("need beta > a for a finite kill rate")

    def density_many(self, z):
        # decays like exp(-beta*z/a), blows up like (z/a)**(-(1+a)) at 0
        t = np.asarray(z, dtype=float) / self.a
        log_val = -self.beta * t - (1.0 + self.a) * np.log(-np.expm1(-t))
        return np.exp(log_val - gammaln(1.0 - self.a))

    def tail_many(self, z):
        # x = exp(-t) with t = z/a, and 1 - x = -expm1(-t) keeps its digits
        t = np.asarray(z, dtype=float) / self.a
        a, b = self.a, self.beta
        head = np.exp(-b * t) * (-np.expm1(-t)) ** -a / a
        lower = beta_fn(b, 1.0 - a) * betainc(b, 1.0 - a, np.exp(-t))
        return a / math.gamma(1.0 - a) * (head - (b / a - 1.0) * lower)

    def total_mass(self):
        return math.inf

    def mean_jump(self):
        return (
            self.a
            * math.exp(gammaln(self.beta) - gammaln(self.beta - self.a))
            * (digamma(self.beta) - digamma(self.beta - self.a))
        )

    def kernel_singularity(self):
        return -self.a

    def decay_index(self):
        return self.beta / self.a

    def laplace_closed(self, lam):
        if lam <= -self.decay_index():
            return None
        kill = math.exp(gammaln(self.beta) - gammaln(self.beta - self.a))
        x1 = self.a * lam + self.beta
        x2 = self.a * (lam - 1.0) + self.beta
        if x2 > 0:
            ratio = math.exp(gammaln(x1) - gammaln(x2))
        else:
            # -a < x2 <= 0, and 1/Gamma is finite there: 0 at the pole x2 = 0
            ratio = math.gamma(x1) * float(rgamma(x2))
        return ratio - kill

    def inverse_tail(self, w):
        if self.beta == 1.0:
            g = math.gamma(1.0 - self.a)
            w = np.asarray(w, dtype=float)
            return -self.a * np.log1p(-((1.0 + g * w) ** (-1.0 / self.a)))
        return super().inverse_tail(w)

    def probe_x(self):
        return 8.0 * self.a + 1.0

    def to_dict(self):
        return {"variant": "lamperti_killed", "a": self.a, "beta": self.beta}


def _upper_gamma(s, x):
    """Non-regularized upper incomplete gamma.  For s < 0 it takes the
    downward recurrence Gamma(s, x) = (Gamma(s+1, x) - x**s exp(-x)) / s
    up to x = 1.  Above, where the recurrence's two terms agree to about
    1 - s/x, it takes the continued fraction x**s e**(-x) / (x + 1 - s
    - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (x + 5 - s - ...))) (DLMF
    8.9.2) by the modified Lentz method, in at most about 80 terms; a
    term's factor settles a few ulps from 1, hence the 16-ulp stop."""
    x = np.asarray(x, dtype=float)
    if s > 0:
        return gammaincc(s, x) * math.gamma(s)
    if s == 0.0:
        return exp1(x)
    out = np.array((_upper_gamma(s + 1.0, x) - x**s * np.exp(-x)) / s)
    far = np.isfinite(x) & (x > 1.0)
    if np.any(far):
        b = x[far] + 1.0 - s
        c, d, h = np.full_like(b, 1e300), 1.0 / b, 1.0 / b
        for i in range(1, 1000):
            b = b + 2.0
            d = 1.0 / (b - i * (i - s) * d)
            c = b - i * (i - s) / c
            h = h * (d * c)
            if np.all(np.abs(d * c - 1.0) <= 16.0 * np.finfo(float).eps):
                break
        out[far] = x[far] ** s * np.exp(-x[far]) * h
    return out


@dataclass(frozen=True)
class StretchedExpTail(LevyTail):
    """Pi(dx) = x**(-b) exp(-x**n) dx with n in {1, 2, 3}."""

    b: float = 0.25
    n: int = 1
    variant = "stretched_exp"

    def __post_init__(self):
        if not 0.0 < self.b < 2.0:
            raise DomainError("need b in (0, 2) for an integrable jump measure")
        if self.n not in (1, 2, 3):
            raise DomainError("n must be 1, 2 or 3")

    def tail_many(self, z):
        z = np.asarray(z, dtype=float)
        return _upper_gamma((1.0 - self.b) / self.n, z**self.n) / self.n

    def density_many(self, z):
        z = np.asarray(z, dtype=float)
        return z**-self.b * np.exp(-(z**self.n))

    def total_mass(self):
        if self.b < 1.0:
            return math.gamma((1.0 - self.b) / self.n) / self.n
        return math.inf

    def mean_jump(self):
        return math.gamma((2.0 - self.b) / self.n) / self.n

    def kernel_singularity(self):
        return 1.0 - self.b if self.b > 1.0 else None

    def decay_index(self):
        return 1.0 if self.n == 1 else math.inf

    def has_power_factor(self):
        # Gamma(1 - b, z) ~ z**(-b) e**(-z)
        return self.n == 1

    def small_jump_mean(self, eps):
        # integral of x**(1-b) exp(-x**n) over (0, eps]
        lo = math.gamma((2.0 - self.b) / self.n) / self.n
        return lo - float(_upper_gamma((2.0 - self.b) / self.n, eps**self.n)) / self.n

    def sample_restricted(self, eps, rng, size):
        # X = Z**n has the measure X**((1-b)/n - 1) e**(-X) dX / n: a
        # Gamma((1-b)/n) law (a draw below the smallest double rounds to 0,
        # which happens often as b -> 1).  A positive cutoff takes the tail
        # inverse
        if self.b >= 1.0 or eps > 0:
            return super().sample_restricted(eps, rng, size)
        return rng.standard_gamma((1.0 - self.b) / self.n, size) ** (1.0 / self.n)

    def probe_x(self):
        # class_index reads Pibar up to z = 2 x_p + 2 (window end plus the
        # largest default offset).  With X = z**n and s = (1-b)/n in (-1, 1),
        # Pibar = Gamma(s, X)/n >= X**(s-1) e**(-X) / (2n) for X >= 2, which
        # for X <= 680 is at least exp(-680 - 2 log 680 - log 6) ~ 2e-302: a
        # normal double (the smallest is 2.2e-308), so no ratio is 0/0.  The
        # cap binds for n = 3 (x_p ~ 3.4) and for n = 2 only when b > 0.3.
        return min(max(10.0, 40.0 * self.b), 0.5 * (680.0 ** (1.0 / self.n) - 2.0))

    def to_dict(self):
        return {"variant": "stretched_exp", "b": self.b, "n": self.n}


@dataclass(frozen=True)
class TabulatedTail(LevyTail):
    """Tail given by knots (z_j, Pibar(z_j)), log-linearly interpolated.

    Extrapolation rule: constant at ``knots[0][1]`` below the first knot,
    exponential decay beyond the last knot with the rate fitted to the
    last three knots by least squares on log Pibar.
    """

    knots: tuple
    variant = "tabulated"

    def __post_init__(self):
        if len(self.knots) < 3:
            raise DomainError("need at least 3 knots")
        zs = np.array([k[0] for k in self.knots], dtype=float)
        vs = np.array([k[1] for k in self.knots], dtype=float)
        if np.any(zs <= 0) or np.any(np.diff(zs) <= 0):
            raise DomainError("knot abscissae must be positive and increasing")
        if np.any(vs <= 0) or np.any(np.diff(vs) >= 0):
            raise DomainError("knot values must be positive and strictly decreasing")

    def _arrays(self):
        zs = np.array([k[0] for k in self.knots], dtype=float)
        logv = np.log([k[1] for k in self.knots])
        return zs, logv

    def fitted_decay(self) -> float:
        zs, logv = self._arrays()
        z3, v3 = zs[-3:], logv[-3:]
        slope = np.polyfit(z3, v3, 1)[0]
        return float(-slope)

    def tail_many(self, z):
        z = np.asarray(z, dtype=float)
        zs, logv = self._arrays()
        out = np.interp(z, zs, logv)
        rate = self.fitted_decay()
        above = z > zs[-1]
        out = np.where(above, logv[-1] - rate * (z - zs[-1]), out)
        return np.exp(np.where(z < zs[0], logv[0], out))

    def density_many(self, z):
        # Pibar times the slope of -log Pibar on the segment holding z (the
        # right-hand one at a knot): 0 below the table, the fitted decay above
        z = np.asarray(z, dtype=float)
        zs, logv = self._arrays()
        rates = np.concatenate([[0.0], -np.diff(logv) / np.diff(zs), [self.fitted_decay()]])
        return self.tail_many(z) * rates[np.searchsorted(zs, z, side="right")]

    def total_mass(self):
        return float(self.knots[0][1])

    def decay_index(self):
        return self.fitted_decay()

    def inverse_tail(self, w):
        zs, logv = self._arrays()
        logw = np.log(np.asarray(w, dtype=float))
        # log Pibar is decreasing in z; interpolate z as a function of it
        out = np.interp(-logw, -logv, zs)
        rate = self.fitted_decay()
        below = logw < logv[-1]
        return np.where(below, zs[-1] + (logv[-1] - logw) / rate, out)

    def probe_x(self):
        return 0.7 * float(self.knots[-1][0])

    def to_dict(self):
        return {"variant": "tabulated", "knots": [[float(z), float(v)] for z, v in self.knots]}


@dataclass(frozen=True)
class TiltedTail(LevyTail):
    """Exponential tilt used by the power transform:
    Pibar_rho(z) = exp(-rho z) (Pibar(z) + q) with q the kill rate of the
    model being tilted."""

    base: LevyTail
    rho: float
    kill_base: float
    variant = "tilted"

    def __post_init__(self):
        if self.rho <= 0:
            raise DomainError("tilt exponent rho must be positive")
        if self.kill_base < 0:
            raise DomainError("base kill rate cannot be negative")

    def tail_many(self, z):
        z = np.asarray(z, dtype=float)
        return np.exp(-self.rho * z) * (self.base.tail_many(z) + self.kill_base)

    def density_many(self, z):
        z = np.asarray(z, dtype=float)
        lifted = self.rho * (self.base.tail_many(z) + self.kill_base)
        return np.exp(-self.rho * z) * (lifted + self.base.density_many(z))

    def total_mass(self):
        return self.base.total_mass() + self.kill_base

    def kernel_singularity(self):
        return self.base.kernel_singularity()

    def decay_index(self):
        if self.kill_base > 0:
            return self.rho
        return self.base.decay_index() + self.rho

    def has_power_factor(self):
        return self.base.has_power_factor()

    def laplace_closed(self, lam):
        shifted = lam + self.rho
        part = self.base.laplace_closed(shifted)
        if part is None:
            if shifted <= -self.base.decay_index():
                return None
            part = shifted * self.base.laplace_integral(shifted)
        return lam * (part + self.kill_base) / (lam + self.rho)

    def probe_x(self):
        return self.base.probe_x()

    def to_dict(self):
        return {
            "variant": "tilted",
            "rho": self.rho,
            "kill_base": self.kill_base,
            "base": self.base.to_dict(),
        }


_VARIANTS = {
    "zero": ZeroTail,
    "stable": StableTail,
    "gamma_exp": GammaExpTail,
    "compound_poisson_exp": CompoundPoissonExpTail,
    "lamperti_killed": LampertiKilledTail,
    "stretched_exp": StretchedExpTail,
    "tabulated": TabulatedTail,
    "tilted": TiltedTail,
}


def tail_from_dict(d: dict) -> LevyTail:
    """Rebuild a tail from its ``to_dict`` form; raises SpecFileError on
    unknown variants or bad parameters."""
    if not isinstance(d, dict) or "variant" not in d:
        raise SpecFileError("tail must be an object with a 'variant' field")
    name = d["variant"]
    if name not in _VARIANTS:
        raise SpecFileError(f"unknown tail variant {name!r}")
    params = {k: v for k, v in d.items() if k != "variant"}
    try:
        if name == "tabulated":
            return TabulatedTail(knots=tuple(tuple(k) for k in params["knots"]))
        if name == "tilted":
            return TiltedTail(
                base=tail_from_dict(params["base"]),
                rho=float(params["rho"]),
                kill_base=float(params["kill_base"]),
            )
        if name == "stretched_exp" and "n" in params:
            params["n"] = int(params["n"])
        return _VARIANTS[name](**params)
    except (TypeError, KeyError) as exc:
        raise SpecFileError(f"bad parameters for tail variant {name!r}: {exc}") from exc
    except DomainError as exc:
        raise SpecFileError(str(exc)) from exc
