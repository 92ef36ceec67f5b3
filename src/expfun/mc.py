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
from .numerics import extrapolate_limit
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


def _segment_increments(zeta_start, duration, c_eff, increasing):
    if increasing:
        if c_eff > 0:
            return np.exp(zeta_start) * np.expm1(c_eff * duration) / c_eff
        return np.exp(zeta_start) * duration
    if c_eff > 0:
        return np.exp(-zeta_start) * -np.expm1(-c_eff * duration) / c_eff
    return np.exp(-zeta_start) * duration


def _accumulate_round(rng, spec, horizons, zeta0, rate, eps, c_eff, increasing):
    """One simulation round over all given paths; returns (I increments,
    zeta at the end of the horizon)."""
    n = horizons.shape[0]
    if rate > 0:
        counts = rng.poisson(rate * horizons)
    else:
        counts = np.zeros(n, dtype=np.int64)
    total = int(counts.sum())
    if total > 0:
        path_ids = np.repeat(np.arange(n), counts)
        times = rng.random(total) * horizons[path_ids]
        order = np.lexsort((times, path_ids))
        times = times[order]
        sizes = spec.tail.sample_restricted(eps, rng, total)[order]
        if not increasing:
            # exp(-zeta) is exactly 0.0 in float64 long before a single
            # jump reaches 120, so clipping is lossless here; it keeps the
            # cross-path cumulative sum well-conditioned when heavy-tailed
            # jumps (stable sizes reach 1e20) would otherwise erase the
            # per-path offsets by cancellation
            sizes = np.minimum(sizes, 120.0)
    else:
        path_ids = np.zeros(0, dtype=np.int64)
        times = np.zeros(0)
        sizes = np.zeros(0)

    # flat segment arrays: each path contributes counts+1 segments
    n_seg = counts + 1
    offsets = np.concatenate([[0], np.cumsum(n_seg)])
    m = int(offsets[-1])
    seg_path = np.repeat(np.arange(n), n_seg)
    t_start = np.zeros(m)
    t_end = np.empty(m)
    jump_cum = np.zeros(m)
    if total > 0:
        starts = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(starts, counts)
        pos = offsets[path_ids] + within + 1
        t_start[pos] = times
        t_end[pos - 1] = times
        cum = np.cumsum(sizes)
        nz = counts > 0  # trailing zero-count paths would index past cum
        first = starts[nz]
        base = np.repeat(cum[first] - sizes[first], counts[nz])
        jump_cum[pos] = cum - base
    t_end[offsets[1:] - 1] = horizons
    zeta_start = zeta0[seg_path] + c_eff * t_start + jump_cum
    incr = _segment_increments(zeta_start, t_end - t_start, c_eff, increasing)
    acc = np.bincount(seg_path, weights=incr, minlength=n)
    if total > 0:
        jumps_total = np.bincount(path_ids, weights=sizes, minlength=n)
    else:
        jumps_total = np.zeros(n)
    zeta_end = zeta0 + c_eff * horizons + jumps_total
    return acc, zeta_end


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
        horizon_mean = 1.0 / spec.kill
        if rate * horizon_mean > _EVENT_BUDGET_PER_PATH:
            raise CutoffError(
                f"cutoff implies ~{rate * horizon_mean:.3g} jumps per path, "
                f"over the {_EVENT_BUDGET_PER_PATH:g} budget"
            )
        rng = _round_rng(seed, 0)
        horizons = rng.exponential(horizon_mean, n_samples)
        values, _ = _accumulate_round(
            rng, spec, horizons, np.zeros(n_samples), rate, eps, c_eff, increasing
        )
        return SampleSet(
            spec, n_samples, seed, eps, values, time.monotonic() - t0, increasing
        )

    # q = 0: fixed-horizon rounds until the expected remaining mass is
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
        horizons = np.full(alive.size, t_round)
        acc, zeta_end = _accumulate_round(
            rng, spec, horizons, zeta[alive], rate, eps, c_eff, False
        )
        values[alive] += acc
        zeta[alive] = zeta_end
        remaining = np.exp(-zeta[alive]) / phi1
        keep = remaining > _TAIL_STOP_REL * values[alive]
        alive = alive[keep]
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

    For a :class:`StepDensity` the slack defaults to the widest-cell mass
    bound; closed-form laws get zero slack.
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
    """
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
        counts = rng.poisson(total * e_q) if total > 0 else np.zeros(n, dtype=np.int64)
        kmax = int(counts.max()) if n > 0 else 0
        if kmax > 0:
            mask = np.arange(kmax)[None, :] < counts[:, None]
            u_times = rng.random((n, kmax))
            # pads must sort past every real draw, then land on the horizon
            u_times = np.where(mask, u_times, 2.0)
            times = np.sort(u_times, axis=1) * e_q[:, None]
            times = np.where(mask, times, e_q[:, None])
            sizes = spec.tail.sample_restricted(0.0, rng, (n, kmax))
            sizes = np.where(mask, sizes, 0.0)
        else:
            times = np.zeros((n, 0))
            sizes = np.zeros((n, 0))
        # segment boundaries 0 = t_0 <= ... <= t_kmax <= t_{kmax+1} = e_q;
        # zeta_at[:, j] is the level at the start of segment j
        t_bounds = np.concatenate([np.zeros((n, 1)), times, e_q[:, None]], axis=1)
        jump_cum = np.concatenate(
            [np.zeros((n, 1)), np.cumsum(sizes, axis=1)], axis=1
        )
        zeta_at = c * t_bounds[:, :-1] + jump_cum
        dur = np.diff(t_bounds, axis=1)
        if c > 0:
            d_clock = np.exp(-zeta_at) * -np.expm1(-c * dur) / c
        else:
            d_clock = np.exp(-zeta_at) * dur
        clock = np.concatenate([np.zeros((n, 1)), np.cumsum(d_clock, axis=1)], axis=1)
        i_total = clock[:, -1]
        for j, t in enumerate(probes):
            seg = np.sum(clock <= t, axis=1) - 1
            hit = t < i_total
            seg = np.clip(seg, 0, clock.shape[1] - 2)
            rows = np.arange(n)
            zeta_j = np.where(hit, zeta_at[rows, seg], 0.0)
            a_j = clock[rows, seg]
            if c > 0:
                denom = 1.0 - c * np.exp(zeta_j) * (t - a_j)
                val = np.exp(zeta_j) / np.maximum(denom, 1e-300)
            else:
                val = np.exp(zeta_j)
            val = np.where(hit, val, 0.0)
            sums[j] += val.sum()
            sq_sums[j] += np.dot(val, val)
        done += n
        block_idx += 1
    out = []
    m = float(n_samples)
    for j, t in enumerate(probes):
        mean = sums[j] / m
        var = max(sq_sums[j] / m - mean * mean, 0.0)
        out.append((float(t), q * mean, q * math.sqrt(var / m)))
    return out


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
    bands, and extrapolate to q at the origin.
    """
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
    # decades, so cap the fit window at the 10% quantile (any wider and the
    # cubic term of the density biases the quadratic intercept)
    window = np.quantile(v, 0.10)
    k = max(5, int(np.count_nonzero(mids <= window)))
    k = min(k, bins - 1)
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
