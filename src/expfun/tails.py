"""Jump-tail families for subordinator models.

Each variant provides the tail function ``Pibar(z) = Pi((z, inf))`` of a
Levy measure on (0, inf), together with whatever structure the rest of
the package needs: closed-form Laplace integrals when available, the
exponential decay index of the tail, the algebraic singularity exponent
at 0+ (the kernel weights integrate ``Pibar(u) e**u`` across u = 0), the
truncated first moment used for small-jump compensation, and inverse-CDF
samplers for jumps restricted to (eps, inf).

``tail_many`` is the batch entry point; hot paths hand it whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import digamma, exp1, gamma as gamma_fn, gammainccinv, gammaln
from scipy.special import gammaincc

from .errors import DomainError, SpecFileError
from .numerics import QuadratureRequest, integrate, integrate_cells

_QUAD_REL = 1e-9
_QUAD_ABS = 1e-12


class LevyTail:
    """Base interface; concrete variants are frozen dataclasses."""

    variant: str = "abstract"

    # -- evaluation ---------------------------------------------------------
    def tail_many(self, z: np.ndarray) -> np.ndarray:
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
        val, _ = integrate(
            QuadratureRequest(
                self.tail_many, 0.0, np.inf, _QUAD_REL, _QUAD_ABS, self.kernel_singularity()
            )
        )
        return val

    def kernel_singularity(self) -> Optional[float]:
        """Exponent p in (-1, 0) with Pibar(z) ~ C z**p as z -> 0, if singular."""
        return None

    def decay_index(self) -> float:
        """Index alpha with Pibar(x+y)/Pibar(x) -> exp(-alpha y); inf when the
        decay is faster than every exponential."""
        raise NotImplementedError

    def laplace_closed(self, lam: float) -> Optional[float]:
        """Closed form of lam * integral exp(-lam*u) Pibar(u) du, when known."""
        return None

    def small_jump_mean(self, eps: float) -> float:
        """Integral of x Pi(dx) over (0, eps]; the compensation drift."""
        if eps <= 0:
            return 0.0
        head, _ = integrate(
            QuadratureRequest(
                self.tail_many, 0.0, eps, _QUAD_REL, _QUAD_ABS, self.kernel_singularity()
            )
        )
        return head - eps * self.tail_one(eps)

    # -- sampling -----------------------------------------------------------
    def inverse_tail(self, w: np.ndarray) -> np.ndarray:
        """Solve Pibar(z) = w for z, elementwise; generic monotone bisection."""
        w = np.asarray(w, dtype=float)
        lo = np.full(w.shape, 1e-12)
        hi = np.ones_like(w)
        for _ in range(80):
            too_high = self.tail_many(hi) > w
            if not np.any(too_high):
                break
            hi = np.where(too_high, hi * 2.0, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = self.tail_many(mid) > w
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    def sample_restricted(self, eps: float, u: np.ndarray) -> np.ndarray:
        """Jump sizes from the normalized restriction of Pi to (eps, inf).

        ``u`` is uniform(0, 1); the default maps through the tail inverse.
        """
        base = self.tail_one(eps) if eps > 0 else self.total_mass()
        if not np.isfinite(base):
            raise DomainError("restriction to (0, inf) has infinite mass; need eps > 0")
        return self.inverse_tail(np.asarray(u, dtype=float) * base)

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

    def total_mass(self):
        return math.inf

    def mean_jump(self):
        return math.inf

    def kernel_singularity(self):
        return -self.a

    def decay_index(self):
        return 0.0

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
        if self.s < self.a:
            raise DomainError("need s >= a")
        if self.beta <= 0:
            raise DomainError("beta must be positive")

    def tail_many(self, z):
        t = np.asarray(z, dtype=float) / self.a
        log_em1 = t + np.log1p(-np.exp(-t))
        log_val = (
            math.log(self.beta)
            - gammaln(self.a + 1.0)
            - (self.s - 1.0) * t
            + (self.a - 1.0) * log_em1
        )
        return np.exp(log_val)

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
    v = exp(-x/a) turns it into (a/Gamma(1-a)) * integral over
    (0, exp(-z/a)) of v**(beta-1) (1-v)**(-(1+a)) dv, which is what the
    quadrature evaluates.  Batch evaluation accumulates the elementary
    jump density between sorted abscissae instead of re-integrating to
    infinity for every point.
    """

    a: float
    beta: float
    variant = "lamperti_killed"

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise DomainError("a must lie in (0, 1)")
        if self.beta <= self.a:
            raise DomainError("need beta > a for a finite kill rate")

    def _density(self, x):
        # jump density of Pi; decays like exp(-beta*x/a), blows up like
        # (x/a)**(-(1+a)) at 0
        t = np.asarray(x, dtype=float) / self.a
        log_val = -self.beta * t - (1.0 + self.a) * np.log1p(-np.exp(-t))
        return np.exp(log_val - gammaln(1.0 - self.a))

    def tail_one(self, z):
        if z <= 0:
            raise DomainError("tail function is defined for z > 0")
        w = math.exp(-z / self.a)
        p = self.beta - 1.0 if self.beta < 1.0 else None

        def f(v):
            return v ** (self.beta - 1.0) * (1.0 - v) ** (-(1.0 + self.a))

        val, _ = integrate(QuadratureRequest(f, 0.0, w, _QUAD_REL, 1e-15, p))
        return self.a / math.gamma(1.0 - self.a) * val

    def tail_many(self, z):
        z = np.asarray(z, dtype=float)
        if z.size == 0:
            return np.zeros(0)
        if z.size == 1:
            return np.array([self.tail_one(float(z[0]))])
        uniq, inverse = np.unique(z, return_inverse=True)
        if uniq.size == 1:
            return np.full(z.shape, self.tail_one(float(uniq[0])))
        # Pibar(uniq[k]) = Pibar(uniq[-1]) + sum of density integrals over
        # the segments above uniq[k]; one scalar quadrature plus a batched
        # pass over the segments instead of one improper integral per point.
        top = self.tail_one(float(uniq[-1]))
        seg, _ = integrate_cells(self._density, uniq, _QUAD_REL, 1e-16)
        suffix = np.cumsum(seg[::-1])[::-1]
        tails_sorted = np.concatenate([suffix + top, [top]])
        return tails_sorted[inverse].reshape(z.shape)

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
            g2 = float(gamma_fn(x2))
            if not np.isfinite(g2) or g2 == 0.0:
                return None
            ratio = math.gamma(x1) / g2
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
    """Non-regularized upper incomplete gamma, extended to s <= 0 by the
    downward recurrence Gamma(s, x) = (Gamma(s+1, x) - x**s exp(-x)) / s."""
    x = np.asarray(x, dtype=float)
    if s > 0:
        return gammaincc(s, x) * math.gamma(s)
    if s == 0.0:
        return exp1(x)
    return (_upper_gamma(s + 1.0, x) - x**s * np.exp(-x)) / s


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

    def small_jump_mean(self, eps):
        # integral of x**(1-b) exp(-x**n) over (0, eps]
        lo = math.gamma((2.0 - self.b) / self.n) / self.n
        return lo - float(_upper_gamma((2.0 - self.b) / self.n, eps**self.n)) / self.n

    def inverse_tail(self, w):
        if self.b < 1.0:
            s0 = (1.0 - self.b) / self.n
            q = np.asarray(w, dtype=float) * self.n / math.gamma(s0)
            return gammainccinv(s0, q) ** (1.0 / self.n)
        return super().inverse_tail(w)

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

    def total_mass(self):
        return self.base.total_mass() + self.kill_base

    def kernel_singularity(self):
        return self.base.kernel_singularity()

    def decay_index(self):
        if self.kill_base > 0:
            return self.rho
        return self.base.decay_index() + self.rho

    def laplace_closed(self, lam):
        shifted = lam + self.rho
        part = self.base.laplace_closed(shifted)
        if part is None:
            if shifted <= -_base_decay_bound(self.base):
                return None
            part, _ = integrate(
                QuadratureRequest(
                    lambda u: shifted * np.exp(-shifted * u) * self.base.tail_many(u),
                    0.0,
                    np.inf,
                    _QUAD_REL,
                    _QUAD_ABS,
                    self.base.kernel_singularity(),
                )
            )
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


def _base_decay_bound(tail: LevyTail) -> float:
    idx = tail.decay_index()
    return idx if np.isfinite(idx) else math.inf


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
