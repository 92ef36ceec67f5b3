"""Monte-Carlo ground truth for the exponential functional.

Paths of the subordinator are simulated as compound Poisson with drift:
jumps above the cutoff ``eps`` arrive at rate Pibar(eps) with sizes drawn
from the normalized restriction of the jump measure, and the mean of the
discarded small jumps is folded into the drift.  Finite-activity tails
are simulated exactly with eps = 0.  Each round hands its generator to
``LevyTail.sample_restricted``, which inverts the tail at uniform draws
or, for the tails that have one, runs an exact generator.  Between jumps
the integrand decays (or grows, in increasing mode) exponentially, so
each inter-jump segment contributes a closed-form increment and no time
discretisation is ever introduced.

One round builder, ``_build_round``, draws a round's jump counts, times
and sizes flat over all paths and returns each segment's path, starting
level and increment, plus each path's final level.  :func:`simulate`
sums the increments per path over rounds: one to the killing times e_q
for q > 0, fixed horizons until the mass to come is negligible for q = 0.
:func:`lamperti_density_estimate` runs the q > 0 round and inverts the
running sum, its clock.

All randomness is drawn from counter-based Philox streams keyed by
(seed, round index), with per-path rows in fixed order, so results are
bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CutoffError, DomainError, InfiniteFunctional
from .model import SubordinatorSpec, laplace_exponent
from .reference import ReferenceLaw
from .solver import StepDensity
from .tails import ZeroTail
from .validation import ValidationReport

_TAIL_STOP_REL = 1e-12
_MAX_ROUNDS = 200
_EVENT_BUDGET_PER_PATH = 1e4
_LAMPERTI_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Draws of the exponential functional with RNG provenance."""

    spec: SubordinatorSpec
    n_samples: int
    seed: int
    cutoff: float
    values: np.ndarray
    wall_clock: float = 0.0
    increasing: bool = False

    def to_csv(self, path) -> None:
        """Single-column CSV with one sidecar metadata line."""
        meta = {
            "spec": self.spec.to_dict(),
            "n": self.n_samples,
            "seed": self.seed,
            "cutoff": self.cutoff,
            "increasing": self.increasing,
        }
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("I\n")
            for v in self.values:
                fh.write(f"{v:.12g}\n")


def _round_rng(seed: int, round_idx: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(round_idx,)))
    )


def _cutoff_scale(spec: SubordinatorSpec) -> float:
    """The abscissa where the jump rate crosses a reference level; the
    cutoff must stay a decade below it."""
    total = spec.tail.total_mass()
    ref = 1.0 if not np.isfinite(total) or total > 2.0 else total / 2.0
    return float(np.asarray(spec.tail.inverse_tail(np.array([ref])))[0])


def default_cutoff(spec: SubordinatorSpec, target_events: float = 64.0) -> float:
    """Cutoff giving roughly ``target_events`` jumps per path (0 when the
    tail already has finite activity)."""
    if np.isfinite(spec.tail.total_mass()):
        return 0.0
    horizon = 1.0 / spec.kill if spec.kill > 0 else 30.0 / laplace_exponent(spec, 1.0)
    rate = target_events / horizon
    eps = float(np.asarray(spec.tail.inverse_tail(np.array([rate])))[0])
    return min(eps, _cutoff_scale(spec) / 10.0)


class _Round(NamedTuple):
    """One round of paths as flat per-segment arrays, path after path and
    in time order within each path."""

    seg_path: np.ndarray  # the path of each segment
    zeta_start: np.ndarray  # the level at the segment's start
    incr: np.ndarray  # the segment's closed-form increment of I
    zeta_end: np.ndarray  # each path's level at its horizon


def _build_round(rng, spec, horizons, zeta0, rate, eps, c_eff, increasing) -> _Round:
    """Draw one round of paths from level ``zeta0`` up to ``horizons``:
    the jump counts, then the times, then the sizes, each flat over all
    paths, and cut each path into its inter-jump segments."""
    n = horizons.shape[0]
    counts = rng.poisson(rate * horizons) if rate > 0 else np.zeros(n, dtype=np.int64)
    total = int(counts.sum())
    path_ids = np.repeat(np.arange(n), counts)
    times = sizes = np.zeros(0)
    if total > 0:
        times = rng.random(total) * horizons[path_ids]
        order = np.lexsort((times, path_ids))
        times = times[order]
        sizes = spec.tail.sample_restricted(eps, rng, total)[order]
        if not increasing:
            # past a jump of 120, exp(-zeta) <= e^-120, so every later
            # increment of I is at most e^-120 times its duration: the
            # path's I (the estimator's clock) is already frozen to within
            # e^-120 * horizon, and the clip changes only those increments
            # and the levels a probe could read inside that window.  It
            # keeps the cross-path cumulative sum below well-conditioned
            # when heavy-tailed jumps (stable sizes reach 1e20) would
            # otherwise erase the per-path offsets by cancellation
            sizes = np.minimum(sizes, 120.0)

    # each path contributes counts+1 segments
    n_seg = counts + 1
    offsets = np.concatenate([[0], np.cumsum(n_seg)])
    m = int(offsets[-1])
    seg_path = np.repeat(np.arange(n), n_seg)
    t_start = np.zeros(m)
    t_end = np.empty(m)
    jump_cum = np.zeros(m)
    starts = np.cumsum(counts) - counts
    pos = offsets[path_ids] + np.arange(total) - np.repeat(starts, counts) + 1
    t_start[pos] = times
    t_end[pos - 1] = times
    t_end[offsets[1:] - 1] = horizons
    cum = np.cumsum(sizes)
    nz = counts > 0  # trailing zero-count paths would index past cum
    first = starts[nz]
    jump_cum[pos] = cum - np.repeat(cum[first] - sizes[first], counts[nz])
    zeta_start = zeta0[seg_path] + c_eff * t_start + jump_cum
    # the closed-form integral of exp(sign * zeta) along one segment
    sign = 1.0 if increasing else -1.0
    incr = np.exp(sign * zeta_start)
    if c_eff > 0:
        incr *= sign * np.expm1(sign * c_eff * (t_end - t_start))
        incr /= c_eff
    else:
        incr *= t_end - t_start
    jumps_total = np.bincount(path_ids, weights=sizes, minlength=n)
    return _Round(seg_path, zeta_start, incr, zeta0 + c_eff * horizons + jumps_total)


def simulate(
    spec: SubordinatorSpec,
    n_samples: int,
    seed: int,
    cutoff: Optional[float] = None,
    increasing: bool = False,
) -> SampleSet:
    """Draw ``n_samples`` values of the exponential functional.

    ``cutoff`` defaults to 0 for finite-activity tails (exact paths) and
    to :func:`default_cutoff` otherwise.  ``increasing`` flips the sign of
    the driving process (the functional of the subordinator itself rather
    than its negative); it requires a positive kill rate.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if spec.kill == 0 and spec.drift == 0 and isinstance(spec.tail, ZeroTail):
        raise InfiniteFunctional("the functional is almost surely infinite")
    if increasing and spec.kill <= 0:
        raise DomainError("increasing mode needs a positive kill rate")
    t0 = time.monotonic()
    total = spec.tail.total_mass()
    if cutoff is None:
        eps = default_cutoff(spec)
    else:
        eps = float(cutoff)
    if eps < 0:
        raise DomainError("cutoff must be nonnegative")
    if eps == 0 and not np.isfinite(total):
        raise CutoffError("infinite-activity tail needs a positive cutoff")
    if eps > 0 and eps > _cutoff_scale(spec) / 10.0 * (1 + 1e-9):
        raise CutoffError(
            f"cutoff {eps:g} is above a tenth of the unit-rate scale "
            f"{_cutoff_scale(spec):g}"
        )
    rate = spec.tail.tail_one(eps) if eps > 0 else float(total)
    comp = spec.tail.small_jump_mean(eps) if eps > 0 else 0.0
    c_eff = spec.drift + comp

    if spec.kill > 0:
        # one round: every path runs to its killing time e_q
        horizon_mean = 1.0 / spec.kill
        if rate * horizon_mean > _EVENT_BUDGET_PER_PATH:
            raise CutoffError(
                f"cutoff implies ~{rate * horizon_mean:.3g} jumps per path, "
                f"over the {_EVENT_BUDGET_PER_PATH:g} budget"
            )
    else:
        # fixed-horizon rounds until the expected remaining mass is
        # negligible; the bound E[remaining | zeta] = exp(-zeta)/phi(1)
        phi1 = laplace_exponent(spec, 1.0)
        t_round = 30.0 / phi1
        if rate > 0:
            t_round = min(t_round, _EVENT_BUDGET_PER_PATH / (4.0 * rate))
    values = np.zeros(n_samples)
    zeta = np.zeros(n_samples)
    alive = np.arange(n_samples)
    for round_idx in range(_MAX_ROUNDS):
        rng = _round_rng(seed, round_idx)
        if spec.kill > 0:
            horizons = rng.exponential(horizon_mean, alive.size)
        else:
            horizons = np.full(alive.size, t_round)
        r = _build_round(rng, spec, horizons, zeta[alive], rate, eps, c_eff, increasing)
        values[alive] += np.bincount(r.seg_path, weights=r.incr, minlength=alive.size)
        zeta[alive] = r.zeta_end
        # a path killed at its horizon e_q has no mass left to come
        remaining = 0.0 if spec.kill > 0 else np.exp(-zeta[alive]) / phi1
        alive = alive[remaining > _TAIL_STOP_REL * values[alive]]
        if alive.size == 0:
            return SampleSet(
                spec, n_samples, seed, eps, values, time.monotonic() - t0, increasing
            )
    raise InfiniteFunctional(
        f"paths did not terminate within {_MAX_ROUNDS} rounds; the model "
        "may not drift to -infinity fast enough"
    )


class KsResult(NamedTuple):
    statistic: float
    band: float
    slack: float
    passed: bool


def ks_distance(
    samples: SampleSet,
    model: Union[StepDensity, ReferenceLaw, Callable[[np.ndarray], np.ndarray]],
    slack: Optional[float] = None,
) -> KsResult:
    """Kolmogorov-Smirnov distance between the empirical law and a model
    distribution function; passes at the 5% level (band 1.36/sqrt(M))
    plus a discretisation slack.

    Closed-form laws get zero slack.  For a :class:`StepDensity` it
    defaults to the widest-cell mass bound, the first-order scheme's CDF
    error: 0.0072 to 0.024 on the Monte-Carlo recipes at the default grid,
    about four orders above the second-order ``cdf`` (within 9.1e-7 of
    each of the four closed-form laws).  So the slack sets the test's real
    level: at 5000 samples (band 0.0192) the Kolmogorov false-failure
    probability runs from 1.9e-3 (``stable_with_drift``, slack 0.0072)
    down to 1.8e-8 (``powered_gamma_a1``, 0.0238); 2 of 3000 fresh seeds
    failed on ``stable_with_drift``.
    """
    if samples.n_samples < 100:
        raise DomainError("KS comparison needs at least 100 samples")
    if isinstance(model, StepDensity):
        cdf = model.cdf
        if slack is None:
            slack = float(np.max(model.grid.widths) * np.max(model.heights))
    elif isinstance(model, ReferenceLaw):
        if model.cdf is None:
            raise DomainError(f"law {model.name} has no distribution function")
        cdf = model.cdf
        slack = 0.0 if slack is None else slack
    else:
        cdf = model
        slack = 0.0 if slack is None else slack
    xs = np.sort(samples.values)
    f = np.asarray(cdf(xs), dtype=float)
    m = xs.size
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    stat = float(np.max(np.maximum(np.abs(grid_hi - f), np.abs(f - grid_lo))))
    band = 1.36 / math.sqrt(m)
    return KsResult(stat, band, float(slack), bool(stat <= band + slack))


def sample_moment(samples: SampleSet, order: int) -> tuple[float, float]:
    """Empirical moment with its standard error."""
    v = samples.values**order
    return float(np.mean(v)), float(np.std(v) / math.sqrt(v.size))


def lamperti_density_estimate(
    spec: SubordinatorSpec,
    t_probes: Sequence[float],
    n_samples: int,
    seed: int,
) -> list[tuple[float, float, float]]:
    """Estimate the density of the functional at each probe as
    q * E[exp(-xi at the time-changed clock); the clock inverts t].

    Exact paths only: requires q > 0 and a finite-activity tail, so the
    piecewise-exponential clock can be inverted segment by segment in
    closed form.  Returns (t, estimate, standard error) triples.

    Each block of ``_LAMPERTI_BLOCK`` paths is one call of the round
    builder ``_build_round``, the round :func:`simulate` runs for q > 0
    (horizons e_q, cutoff 0); the clock is the running sum of its segment
    increments.  So up to one block, the paths are those of
    ``simulate(spec, n_samples, seed)``.  When the estimator moved onto the
    shared builder its values at a fixed seed moved once, because the jump
    times and sizes are now drawn flat over the block rather than as one
    padded row per path; e_q and the jump counts are unchanged.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if spec.kill <= 0:
        raise DomainError("the clock-inversion estimator needs q > 0")
    total = spec.tail.total_mass()
    if not np.isfinite(total):
        raise DomainError(
            "the clock-inversion estimator needs a finite-activity tail "
            "(exact paths); infinite activity is out of scope"
        )
    probes = np.asarray(list(t_probes), dtype=float)
    if np.any(probes <= 0):
        raise DomainError("probe points must be positive")
    c = spec.drift
    q = spec.kill
    sums = np.zeros(probes.size)
    sq_sums = np.zeros(probes.size)
    done = 0
    block_idx = 0
    while done < n_samples:
        n = min(_LAMPERTI_BLOCK, n_samples - done)
        rng = _round_rng(seed, block_idx)
        e_q = rng.exponential(1.0 / q, n)
        # the round simulate runs for q > 0, at cutoff 0
        r = _build_round(rng, spec, e_q, np.zeros(n), total, 0.0, c, False)
        i_total = np.bincount(r.seg_path, weights=r.incr, minlength=n)
        # the clock at each segment's start, summed path by path one
        # segment rank at a time, so no path's clock carries the rounding
        # of the paths before it
        n_seg = np.bincount(r.seg_path, minlength=n)
        first = np.cumsum(n_seg) - n_seg
        clock = np.zeros(r.incr.size)
        live = np.arange(n)
        for k in range(1, int(n_seg.max())):
            live = live[n_seg[live] > k]
            seg = first[live] + k
            clock[seg] = clock[seg - 1] + r.incr[seg - 1]
        for j, t in enumerate(probes):
            # the last segment of each path whose clock starts at or below t
            seg = first + np.add.reduceat(clock <= t, first) - 1
            hit = t < i_total
            val = np.exp(np.where(hit, r.zeta_start[seg], 0.0))
            if c > 0:
                val = val / np.maximum(1.0 - c * val * (t - clock[seg]), 1e-300)
            val = np.where(hit, val, 0.0)
            sums[j] += val.sum()
            sq_sums[j] += np.dot(val, val)
        done += n
        block_idx += 1
    mean = sums / n_samples
    se = np.sqrt(np.maximum(sq_sums / n_samples - mean * mean, 0.0) / n_samples)
    return [(float(t), q * float(a), q * float(b)) for t, a, b in zip(probes, mean, se)]


def _weighted_limit_fit(x, y, se):
    """Intercept of a weighted polynomial fit of noisy bin densities,
    returning (limit, standard error, linear-vs-quadratic model spread)."""
    w = 1.0 / np.maximum(se, 1e-300) ** 2

    def fit(deg):
        design = np.stack([x**k for k in range(deg + 1)], axis=1)
        wd = design * w[:, None]
        cov = np.linalg.inv(design.T @ wd)
        coef = cov @ (wd.T @ y)
        return float(coef[0]), float(np.sqrt(max(cov[0, 0], 0.0)))

    a_lin, _ = fit(1)
    deg = 2 if x.size >= 5 else 1
    a, se_a = fit(deg)
    return a, se_a, abs(a - a_lin)


def _isotonic_nonincreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a nonincreasing sequence."""
    vals = list(y.astype(float))
    wts = list(w.astype(float))
    sizes = [1] * len(vals)
    i = 0
    while i < len(vals) - 1:
        if vals[i] < vals[i + 1] - 1e-300:
            merged_w = wts[i] + wts[i + 1]
            merged = (vals[i] * wts[i] + vals[i + 1] * wts[i + 1]) / merged_w
            vals[i : i + 2] = [merged]
            wts[i : i + 2] = [merged_w]
            sizes[i : i + 2] = [sizes[i] + sizes[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return np.repeat(vals, sizes)


def monotone_histogram_check(
    spec: SubordinatorSpec,
    n_samples: int,
    seed: int,
    bins: int = 32,
) -> ValidationReport:
    """Histogram-level test that the functional of an increasing driver has
    a nonincreasing, convex density whose x -> 0 limit is the kill rate.

    Bin densities must stay within 3 standard errors of a nonincreasing
    envelope, satisfy discrete midpoint convexity up to the same noise
    bands, and extrapolate to q at the origin.  The extrapolation reads
    the bins whose midpoints lie below the samples' 10% quantile; fewer
    than two there raise :class:`DomainError` with the bin count that
    puts two there.
    """
    if bins < 3:
        # convexity compares a bin with its two neighbours
        raise DomainError("the histogram check needs at least 3 bins")
    samples = simulate(spec, n_samples, seed, increasing=True)
    v = samples.values
    lo, hi = np.quantile(v, [0.005, 0.995])
    edges = np.geomspace(max(lo, 1e-12), hi, bins + 1)
    counts, _ = np.histogram(v, edges)
    widths = np.diff(edges)
    dens = counts / (n_samples * widths)
    se = np.sqrt(np.maximum(counts, 1.0)) / (n_samples * widths)
    mids = 0.5 * (edges[:-1] + edges[1:])

    iso = _isotonic_nonincreasing(dens, 1.0 / np.maximum(se, 1e-300) ** 2)
    mono_dev = float(np.max(np.abs(dens - iso) / (3.0 * se)))
    mono_ok = mono_dev <= 1.0

    convex_ok = True
    worst_convex = 0.0
    for j in range(1, bins - 1):
        lam = (mids[j + 1] - mids[j]) / (mids[j + 1] - mids[j - 1])
        interp = lam * dens[j - 1] + (1.0 - lam) * dens[j + 1]
        band = 3.0 * math.sqrt(
            (lam * se[j - 1]) ** 2 + se[j] ** 2 + ((1 - lam) * se[j + 1]) ** 2
        )
        excess = dens[j] - interp - band
        worst_convex = max(worst_convex, excess)
        if excess > 0:
            convex_ok = False

    # the x -> 0 fit only makes sense over the lowest stretch of the
    # support; on a heavy-tailed law the first bins of a log grid can span
    # decades, so the fit reads only the bins whose midpoints lie below the
    # 10% quantile (any wider and the cubic term of the density biases the
    # quadratic intercept), and a line through them needs two
    window = np.quantile(v, 0.10)
    k = int(np.count_nonzero(mids <= window))
    if k < 2:
        # with ratio r = edges[1]/edges[0], the second midpoint is
        # edges[0] r (1 + r)/2, which is at most the window for r up to
        # the root r_max of r**2 + r = 2 window/edges[0]
        r_max = 0.5 * (math.sqrt(1.0 + 8.0 * window / edges[0]) - 1.0)
        need = math.floor(math.log(edges[-1] / edges[0]) / math.log(r_max)) + 1
        raise DomainError(
            f"only {k} of the {bins} log-bin midpoints lie below the 10% quantile "
            f"{window:.3g}, and the x -> 0 fit needs 2; use at least {need} bins "
            "for these samples"
        )
    limit, limit_se, spread = _weighted_limit_fit(mids[:k], dens[:k], se[:k])
    limit_band = 3.0 * limit_se + spread
    limit_ok = abs(limit - spec.kill) <= limit_band
    unc = limit_band

    passed = mono_ok and convex_ok and limit_ok
    return ValidationReport(
        name="monotone histogram (increasing driver)",
        norm="3-se bands",
        probes=mids,
        measured=dens,
        oracle=iso,
        statistic=mono_dev,
        oracle_value=spec.kill,
        threshold=1.0,
        threshold_kind="absolute",
        passed=bool(passed),
        uncertainty=unc,
        oracle_source="isotonic envelope and kill-rate limit",
        details={
            "monotone_ok": mono_ok,
            "convex_ok": convex_ok,
            "worst_convex_excess": worst_convex,
            "limit": limit,
            "limit_band": limit_band,
            "limit_ok": limit_ok,
        },
    )
