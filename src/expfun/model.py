"""Subordinator models and their analytic objects.

A model is drift ``c >= 0``, kill rate ``q >= 0`` and a jump tail.  The
driving process of the exponential functional is the negative of the
(killed) subordinator.  This module evaluates the Laplace exponent

    phi(lam) = c*lam + lam * integral exp(-lam*u) Pibar(u) du,

the positive-moment recursion E[I^n] = n! / prod_i (q + phi(i)), the
negative-moment recursion E[I^(-b-1)] = E[I^(-b)] phi(-b)/(-b), the
exponential decay index of the tail, the power tilt, and the spectrally
negative dual exponent psi(lam) = lam**2 / phi(lam).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MissingDensity, NotConvergent, SpecFileError
from .tails import LevyTail, TiltedTail, ZeroTail, tail_from_dict


@dataclass(frozen=True)
class SubordinatorSpec:
    """Drift, kill rate, and jump tail of the driving subordinator."""

    drift: float
    kill: float
    tail: LevyTail

    def __post_init__(self):
        if self.drift < 0:
            raise DomainError("drift must be nonnegative")
        if self.kill < 0:
            raise DomainError("kill rate must be nonnegative")
        if (
            self.kill == 0
            and self.drift == 0
            and isinstance(self.tail, ZeroTail)
        ):
            raise DomainError(
                "process does not drift to -infinity: the exponential "
                "functional is almost surely infinite"
            )

    def to_dict(self) -> dict:
        return {"drift": self.drift, "kill": self.kill, "tail": self.tail.to_dict()}


@dataclass(frozen=True)
class MomentEntry:
    order: float
    value: float
    provenance: str


@dataclass(frozen=True)
class MomentSequence:
    """Moments of the exponential functional, tagged with how each entry
    was obtained (recursion, density-integral, or monte-carlo)."""

    kill: float
    entries: tuple

    def __post_init__(self):
        if any(e.value <= 0 for e in self.entries):
            raise DomainError("moments must be strictly positive")

    def value(self, order) -> float:
        for e in self.entries:
            if e.order == order:
                return e.value
        raise KeyError(f"no moment of order {order}")


def laplace_exponent(spec: SubordinatorSpec, lam: float, method: str = "auto") -> float:
    """Evaluate phi(lam) for lam above minus the tail decay index.

    ``method`` is "auto" (closed form when the variant has one, quadrature
    otherwise) or "quadrature" (always integrate the tail; used to
    cross-check the closed forms).
    """
    if lam == 0.0:
        return 0.0
    # phi extends to lam above minus the tail decay index
    bound = spec.tail.decay_index()
    if lam < 0 and np.isfinite(bound) and lam <= -bound:
        raise DomainError(
            f"lam = {lam} is outside the Laplace domain (requires lam > {-bound})"
        )
    if method == "auto":
        part = spec.tail.laplace_closed(lam)
        if part is not None:
            return spec.drift * lam + part
    elif method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    return spec.drift * lam + lam * spec.tail.laplace_integral(lam)


def phi_prime_at_zero(spec: SubordinatorSpec) -> float:
    """phi'(0) = c + integral of x Pi(dx); may be infinite."""
    return spec.drift + spec.tail.mean_jump()


def positive_moments(spec: SubordinatorSpec, n_max: int) -> MomentSequence:
    """E[I^n] = n! / prod_{i=1..n} (q + phi(i)) for n = 0..n_max."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    entries = [MomentEntry(0, 1.0, "recursion")]
    value = 1.0
    for n in range(1, n_max + 1):
        value *= n / (spec.kill + laplace_exponent(spec, float(n)))
        entries.append(MomentEntry(n, value, "recursion"))
    return MomentSequence(kill=spec.kill, entries=tuple(entries))


def negative_moment(
    spec: SubordinatorSpec, alpha: float, density=None
) -> MomentEntry:
    """E[I^(-alpha)] for q = 0 models whose tail decays at index >= alpha.

    Integer orders iterate E[I^(-b-1)] = E[I^(-b)] * phi(-b)/(-b) starting
    from E[I^0] = 1 with the b = 0 limit phi'(0).  Fractional orders are
    seeded by integrating x**(-frac) against a supplied step density and
    then stepped up by integers.
    """
    if spec.kill != 0:
        raise DomainError("negative moments are defined here for q = 0 only")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    if alpha == 0:
        return MomentEntry(0.0, 1.0, "recursion")
    idx = spec.tail.decay_index()
    # every recursion step evaluates phi(-m) for some m <= alpha - 1, and
    # phi extends only to arguments above minus the decay index
    if alpha >= idx + 1.0 - 1e-12:
        raise DomainError(
            f"alpha = {alpha} needs phi down to {-(alpha - 1.0)}, beyond the "
            f"tail decay index {idx}"
        )
    if alpha >= 1.0 and not np.isfinite(spec.tail.mean_jump()):
        raise DomainError("integral of x Pi(dx) diverges; E[1/I] is infinite")
    whole = int(math.floor(alpha + 1e-12))
    frac = alpha - whole
    if frac < 1e-12:
        frac = 0.0
    if frac == 0.0:
        value = 1.0
        provenance = "recursion"
        if whole >= 1:
            value = phi_prime_at_zero(spec)
            for m in range(1, whole):
                value *= laplace_exponent(spec, -float(m)) / (-float(m))
    else:
        if density is None:
            raise MissingDensity(
                f"fractional order {alpha} needs a density to seed the recursion"
            )
        value = density.moment_of(-frac)
        provenance = "density-integral"
        b = frac
        while b < alpha - 1e-12:
            value *= laplace_exponent(spec, -b) / (-b)
            b += 1.0
    return MomentEntry(alpha, value, provenance)


def class_index(
    levy_tail: LevyTail, probe_offsets: Sequence[float] = (0.5, 1.0, 2.0)
) -> tuple[float, dict]:
    """The decay index alpha with Pibar(x+y)/Pibar(x) -> exp(-alpha y),
    plus empirical ratio diagnostics at large x.

    Raises :class:`NotConvergent` when the empirical ratios drift by more
    than 10 percent across the probe window (finite alpha only; the
    superexponential variants report their ratios without a stability
    requirement).
    """
    if isinstance(levy_tail, ZeroTail):
        raise DomainError("the zero tail has no decay index")
    offsets = np.asarray(list(probe_offsets), dtype=float)
    if offsets.size == 0 or np.any(offsets <= 0):
        raise DomainError("probe offsets must be positive")
    alpha = levy_tail.decay_index()
    xp = levy_tail.probe_x()
    window = np.array([xp, 1.5 * xp, 2.0 * xp])
    ratios = np.empty((window.size, offsets.size))
    for i, x in enumerate(window):
        base = levy_tail.tail_one(float(x))
        ratios[i] = levy_tail.tail_many(x + offsets) / base
    diagnostics = {
        "alpha": alpha,
        "x_probe": xp,
        "offsets": offsets.tolist(),
        "ratios": ratios[0].tolist(),
        "window": window.tolist(),
        "window_ratios": ratios.tolist(),
    }
    if np.isfinite(alpha):
        diagnostics["expected"] = np.exp(-alpha * offsets).tolist()
        ref = ratios[-1]
        spread = np.max(np.abs(ratios - ref[None, :]) / np.maximum(ref, 1e-300))
        diagnostics["window_spread"] = float(spread)
        if spread > 0.10:
            raise NotConvergent(
                f"tail ratios drift by {spread:.1%} over the probe window"
            )
    return alpha, diagnostics


def rho_tilt(spec: SubordinatorSpec, rho: float) -> SubordinatorSpec:
    """The model whose exponential functional has density proportional to
    x**rho times the base density: same drift, kill rate 0, and tail
    exp(-rho z) (Pibar(z) + q)."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    return SubordinatorSpec(
        drift=spec.drift,
        kill=0.0,
        tail=TiltedTail(base=spec.tail, rho=rho, kill_base=spec.kill),
    )


def dual_sn(spec: SubordinatorSpec):
    """The spectrally negative dual: returns (psi, qstar) with
    psi(lam) = lam**2 / phi(lam) and qstar = 1 / phi'(0).

    Requires q = 0 and a finite mean jump.
    """
    if spec.kill != 0:
        raise DomainError("the dual construction needs q = 0")
    mean = phi_prime_at_zero(spec)
    if not np.isfinite(mean):
        raise DomainError("integral of x Pi(dx) diverges; no dual exists")
    qstar = 1.0 / mean

    def psi(lam: float) -> float:
        if lam < 0:
            raise DomainError("psi is evaluated for lam >= 0")
        if lam == 0.0:
            return 0.0
        return lam * lam / laplace_exponent(spec, lam)

    return psi, qstar


# ---------------------------------------------------------------------------
# model-spec files: {"drift": c, "kill": q, "tail": {"variant": ..., ...}}
# ---------------------------------------------------------------------------


def spec_from_dict(d: dict) -> SubordinatorSpec:
    if not isinstance(d, dict):
        raise SpecFileError("model spec must be a JSON object")
    missing = {"drift", "kill", "tail"} - set(d)
    if missing:
        raise SpecFileError(f"model spec is missing fields: {sorted(missing)}")
    try:
        drift = float(d["drift"])
        kill = float(d["kill"])
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"drift and kill must be numbers: {exc}") from exc
    try:
        return SubordinatorSpec(drift=drift, kill=kill, tail=tail_from_dict(d["tail"]))
    except DomainError as exc:
        raise SpecFileError(str(exc)) from exc


def load_spec(path) -> SubordinatorSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"cannot read model spec {path}: {exc}") from exc
    return spec_from_dict(data)


def save_spec(spec: SubordinatorSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")
