"""Quantitative checks tying solver output to the analytic structure.

Each check returns a :class:`ValidationReport` pairing measured values
with oracle values produced outside the solver (closed forms, moment
recursions, exact limit laws).  Ratio-style checks extrapolate to the
relevant boundary with :func:`expfun.numerics.extrapolate_limit` and
pass only when |limit - oracle| <= threshold * |oracle| + uncertainty.
:func:`validate_checks` holds the checks ``expfun validate`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InsufficientGrid
from .model import (
    SubordinatorSpec,
    class_index,
    dual_sn,
    negative_moment,
    positive_moments,
    rho_tilt,
)
from .numerics import extrapolate_limit
from .reference import ReferenceLaw, dual_transform
from .solver import StepDensity, _sums_above_midpoints, build_grid, residual_cell_count, solve


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one check.

    ``probes``/``measured``/``oracle`` hold the per-point data;
    ``statistic`` and ``oracle_value`` the aggregated comparison;
    ``threshold_kind`` says whether the threshold is relative to the
    oracle ("relative") or an absolute norm bound ("absolute").
    """

    name: str
    norm: str
    probes: np.ndarray
    measured: np.ndarray
    oracle: np.ndarray
    statistic: float
    oracle_value: float
    threshold: float
    threshold_kind: str
    passed: bool
    uncertainty: float = 0.0
    oracle_source: str = ""
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"[{state}] {self.name}: {self.norm} = {self.statistic:.6g} vs "
            f"{self.oracle_value:.6g} (threshold {self.threshold:g} "
            f"{self.threshold_kind}, uncertainty {self.uncertainty:.2g}, "
            f"oracle: {self.oracle_source})"
        )

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("probe,measured,oracle\n")
            for p, m, o in zip(self.probes, self.measured, self.oracle):
                fh.write(f"{p:.12g},{m:.12g},{o:.12g}\n")


def _ratio_report(name, probes, measured, oracle_value, threshold, source, extra=None):
    samples = sorted(zip(probes.tolist(), measured.tolist()), key=lambda t: -t[0])
    limit, unc = extrapolate_limit(samples)
    passed = abs(limit - oracle_value) <= threshold * abs(oracle_value) + unc
    return ValidationReport(
        name=name,
        norm="extrapolated-limit",
        probes=probes,
        measured=measured,
        oracle=np.full_like(measured, oracle_value),
        statistic=limit,
        oracle_value=oracle_value,
        threshold=threshold,
        threshold_kind="relative",
        passed=bool(passed),
        uncertainty=unc,
        oracle_source=source,
        details=extra or {},
    )


def _distance_report(name, norm, probes, measured, oracle, statistic, threshold, source):
    """A check that passes when ``statistic``, a distance, is at most
    ``threshold``."""
    return ValidationReport(
        name=name,
        norm=norm,
        probes=probes,
        measured=measured,
        oracle=oracle,
        statistic=statistic,
        oracle_value=0.0,
        threshold=threshold,
        threshold_kind="absolute",
        passed=bool(statistic <= threshold),
        oracle_source=source,
    )


def _lowest_mids(density: StepDensity, count: int = 12):
    """Probe cells for x -> 0 extrapolations: the lowest decade of the grid
    (or at least the lowest ``count`` cells)."""
    grid = density.grid
    mids = grid.midpoints
    decade = np.nonzero(mids <= 10.0 * grid.x0)[0]
    pool = decade if decade.size >= 8 else np.arange(min(max(8, count), grid.n_cells))
    sel = pool[np.unique(np.linspace(0, pool.size - 1, min(count, pool.size)).astype(int))]
    return mids, sel


def _tail_at_lowest(spec: SubordinatorSpec, density: StepDensity):
    """The probe cells of the x -> 0 ratio laws and Pibar(log(1/x)) at their
    midpoints x, which the laws divide by.  Raises InsufficientGrid unless
    8 cells lie below x_max/100 (else the law is not observable at all),
    every probe lies below x = 1 and Pibar is a normal double there."""
    mids, sel = _lowest_mids(density)
    if np.count_nonzero(mids <= density.grid.x_max * 1e-2) < 8:
        raise InsufficientGrid(
            "need at least 8 cells below x_max/100 for a limit extrapolation"
        )
    if mids[sel][-1] >= 1.0:
        raise InsufficientGrid(
            f"the probe cells reach x = {mids[sel][-1]:.3g}, but Pibar(log(1/x)) "
            "needs x < 1: use more cells, so that the grid reaches below x = 1"
        )
    tail = spec.tail.tail_many(np.log(1.0 / mids[sel]))
    if np.any(tail < np.finfo(float).tiny):
        raise InsufficientGrid(
            f"Pibar(log(1/x)) = {float(np.min(tail)):.3g} at x = {mids[sel][0]:.3g} "
            "is not a normal double: the ratio law cannot be observed on this grid"
        )
    return mids, sel, tail


def _extrapolation_variable(spec: SubordinatorSpec, xs: np.ndarray) -> np.ndarray:
    """The variable in which a ratio law at x -> 0 approaches its limit
    linearly: 1/log(1/x) where Pibar(z) e**(alpha z) carries a power of z
    (``LevyTail.has_power_factor``), x otherwise."""
    return 1.0 / np.log(1.0 / xs) if spec.tail.has_power_factor() else xs


def small_x_ratio_check(
    spec: SubordinatorSpec, density: StepDensity, threshold: float = 0.01
) -> ValidationReport:
    """k(x) / Pibar(log(1/x)) -> E[I^(-alpha)] as x -> 0 for q = 0 models
    whose tail has decay index alpha.

    Where Pibar(z) e**(alpha z) tends to a constant, the ratio approaches
    its limit at a power rate and the extrapolation runs in x.  Where it
    carries a power of z (``StableTail``, and ``StretchedExpTail`` with
    n = 1), the corrections decay like 1/log(1/x), so the extrapolation
    variable is 1/log(1/x) instead.
    """
    if spec.kill != 0:
        raise DomainError("the small-x ratio law applies to q = 0 models")
    alpha, _ = class_index(spec.tail)
    if not np.isfinite(alpha):
        raise DomainError("tail decays faster than every exponential; no ratio law")
    mids, sel, tail = _tail_at_lowest(spec, density)
    xs = mids[sel]
    ratios = density.heights[sel] / tail
    nm = negative_moment(spec, alpha, density=density)
    source = (
        "moment recursion"
        if nm.provenance == "recursion"
        else "moment recursion seeded by the density integral"
    )
    return _ratio_report(
        "small-x density ratio", _extrapolation_variable(spec, xs), ratios, nm.value,
        threshold, source,
        {"alpha": alpha, "probe_x": xs.tolist()},
    )


def q_positive_limit_check(
    spec: SubordinatorSpec, density: StepDensity, threshold: float = 0.02
) -> ValidationReport:
    """k(x) -> q as x -> 0 when the kill rate is positive."""
    if spec.kill <= 0:
        raise DomainError("this limit law needs q > 0")
    mids, sel = _lowest_mids(density)
    return _ratio_report(
        "density limit at zero (q > 0)",
        mids[sel],
        density.heights[sel],
        spec.kill,
        threshold,
        "kill-rate limit law",
    )


def dual_large_x_check(
    spec: SubordinatorSpec, density: StepDensity, threshold: float = 0.02
) -> ValidationReport:
    """x k_dual(x) / Pibar(log x) -> qstar E[I^(-alpha)] as x -> inf for the
    spectrally negative dual of a q = 0 model with finite mean jump,
    extrapolated in the variable of :func:`small_x_ratio_check` at the
    reciprocal abscissae 1/x, which tend to 0."""
    _, qstar = dual_sn(spec)
    alpha, _ = class_index(spec.tail)
    if not np.isfinite(alpha):
        raise DomainError("tail decays faster than every exponential; no ratio law")
    nm = negative_moment(spec, alpha, density=density)
    target = qstar * nm.value
    mids, sel, tail = _tail_at_lowest(spec, density)
    k_dual = dual_transform(density, qstar)
    xs_dual = 1.0 / mids[sel]
    ratios = xs_dual * k_dual(xs_dual) / tail
    source = (
        "dual exponent and moment recursion"
        if nm.provenance == "recursion"
        else "dual exponent and density-seeded moment recursion"
    )
    return _ratio_report(
        "dual density tail ratio", _extrapolation_variable(spec, mids[sel]), ratios, target,
        threshold, source,
        {"alpha": alpha, "qstar": qstar},
    )


def compare_to_reference(
    spec: SubordinatorSpec,
    density: StepDensity,
    law: ReferenceLaw,
    norm: str = "linf",
    threshold: float = 1e-2,
) -> ValidationReport:
    """Linf or L1 distance between the step density and a closed-form law,
    evaluated at cell midpoints; the top 1% of cells is excluded when the
    drift bounds the support."""
    if law.density is None:
        raise DomainError(f"law {law.name} has no closed-form density")
    grid = density.grid
    keep = slice(0, residual_cell_count(grid)) if spec.drift > 0 else slice(None)
    xs = grid.centres[keep]
    measured = density.heights[keep]
    oracle = law.density(xs)
    diff = np.abs(measured - oracle)
    if norm == "linf":
        stat = float(np.max(diff))
    elif norm == "l1":
        stat = float(np.dot(diff, grid.widths[keep]))
    else:
        raise DomainError(f"unknown norm {norm!r}")
    return _distance_report(
        f"distance to {law.name}", norm, xs, measured, oracle, stat, threshold, "closed-form law"
    )


def tilt_consistency(
    spec: SubordinatorSpec,
    rho: float,
    delta: float,
    n_cells: int,
    threshold: float = 2e-2,
) -> ValidationReport:
    """L1 distance between (i) the base solution reweighted by x**rho and
    (ii) the direct solution of the tilted model.  Both must be the same
    law."""
    base_grid = build_grid(spec, delta, n_cells)
    base = solve(spec, base_grid)
    tilted_spec = rho_tilt(spec, rho)
    tilted_grid = (
        base_grid
        if spec.drift > 0
        else build_grid(tilted_spec, delta, n_cells)
    )
    tilted = solve(tilted_spec, tilted_grid)

    mids = base_grid.midpoints
    # normalize by the gap-inclusive moment so both routes carry the same
    # left-gap convention
    reweighted = mids**rho * base.heights / base.moment_of(rho)
    direct = tilted.evaluate_many(np.minimum(mids, tilted_grid.x_max))
    keep = slice(0, residual_cell_count(base_grid)) if spec.drift > 0 else slice(None)
    diff = np.abs(reweighted - direct)[keep]
    stat = float(np.dot(diff, base_grid.widths[keep]))
    return _distance_report(
        f"tilt consistency (rho = {rho:g})", "l1", mids[keep], reweighted[keep], direct[keep],
        stat, threshold, "independent solve of the tilted model",
    )


def renewal_check(
    spec: SubordinatorSpec,
    density: StepDensity,
    renewal_density: Callable[[np.ndarray], np.ndarray],
    threshold: float = 5e-3,
    uq_singularity: Optional[float] = None,
) -> ValidationReport:
    """The survival function must satisfy
    S(y) = integral over (0, inf) of k(y e^x) u_q(x) dx,
    with u_q the renewal density of the killed subordinator, checked at
    the geometric midpoint of every cell where 0.02 < F < 0.9.

    The right side at every midpoint comes from one half-cell table of u_q
    and one FFT correlation, as for the equation residual
    (``solver._sums_above_midpoints``); ``uq_singularity`` marks an
    algebraic singularity of u_q at 0.  The left side is the step
    function's survival.  The check is independent of the solve: its
    integrand is u_q, not the kernel, and it never reads the weights W_m.
    """
    grid = density.grid
    mids = grid.midpoints
    cdf_vals = density.cdf(mids)
    sel = np.nonzero((cdf_vals > 0.02) & (cdf_vals < 0.9))[0]
    if not sel.size:
        sel = np.arange(grid.n_cells // 2)
    measured = _sums_above_midpoints(renewal_density, density, uq_singularity)[sel]
    oracle = density.survival(mids[sel])
    stat = float(np.max(np.abs(measured - oracle)))
    return _distance_report(
        "renewal-measure consistency", "sup", mids[sel], measured, oracle, stat, threshold,
        "explicit renewal density",
    )


def moment_agreement_check(
    spec: SubordinatorSpec,
    density: StepDensity,
    n_max: int = 5,
    threshold: float = 5e-3,
) -> ValidationReport:
    """Solver moments against the recursion E[I^n] = n!/prod(q + phi(i))."""
    ms = positive_moments(spec, n_max)
    orders = np.arange(1, n_max + 1, dtype=float)
    measured = np.array([density.moment_of(n) for n in orders])
    oracle = np.array([ms.value(int(n)) for n in orders])
    stat = float(np.max(np.abs(measured / oracle - 1.0)))
    return _distance_report(
        f"moment agreement (n <= {n_max})", "max-relative-error", orders, measured, oracle,
        stat, threshold, "moment recursion",
    )


def validate_checks(
    spec: SubordinatorSpec, density: StepDensity
) -> dict[str, Callable[[], Optional[ValidationReport]]]:
    """The checks ``expfun validate`` runs, by name, each deferred so that
    the caller decides what a typed error means: "moments" at 5e-3, and
    "limit", the x -> 0 law at 2% (k(0+) = q when q > 0, else the small-x
    ratio law for a finite decay index, else None)."""

    def limit():
        if spec.kill > 0:
            return q_positive_limit_check(spec, density, threshold=0.02)
        finite = np.isfinite(class_index(spec.tail)[0])
        return small_x_ratio_check(spec, density, threshold=0.02) if finite else None

    return {
        "moments": lambda: moment_agreement_check(spec, density, threshold=5e-3),
        "limit": limit,
    }
