"""Geometric-grid solver for the density integral equation.

The density k of the exponential functional solves

    (1 - c x) k(x) = integral over (x, inf) of Pibar(log(y/x)) k(y) dy
                     + q * integral over (x, inf) of k(y) dy

on (0, 1/c).  On the geometric grid x_n = x_max * delta**(N-n) the kernel
integral against a step function collapses to weights that depend only on
index differences, W_m = integral of Pibar(u) e**u du over (mL, (m+1)L)
with L = -log delta, so a single back-substitution sweep solves the whole
homogeneous system; the scale is fixed by normalization.  The cells in u
are equal, so ``kernel_weights`` takes the W_m of each panel of 32 cells
from one polynomial through 20 tail samples, and reserves Gauss-Kronrod
for the cells next to the u = 0 singularity and for panels that miss the
tolerance (``numerics.integrate_uniform_cells``).  The sweep is a
causal convolution of the heights with the W_m; ``backend.back_substitute``
runs it as a relaxed FFT convolution in O(N log^2 N) operations.

Two departures from the naive discretisation matter in practice and are
documented on the fields they feed:

* the mass below the first node x_0 > 0 is estimated by extrapolating the
  lowest cells with a power law and enters the normalization, the moments
  and the distribution function (``left_gap_mass_bound``);
* when the drift makes the support end at 1/c and the kernel is singular,
  the diagonal 1 - c x_n - x_n W_0 - q w_n turns negative over a thin
  boundary layer of top cells where the true density is vanishingly
  small; those cells are pinned to zero and the sweep starts below them
  (``top_zero_cells``).  A negative diagonal outside such a layer raises
  :class:`DenominatorError`.

``residual`` checks the equation at the midpoint of every cell below the
top 1%: seen from any midpoint the cells above it form one table of
integrals, so the kernel part at all N midpoints is one FFT correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backend import back_substitute
from .errors import DenominatorError, DomainError, NonPositive, TruncationError
from .model import SubordinatorSpec, positive_moments
from .numerics import integrate_cells, integrate_uniform_cells
from .tails import ZeroTail

_TAIL_MASS_TARGET = 1e-6
_X_MAX_CAP = 1e12
_GAP_FIT_CELLS = 8


@dataclass(frozen=True, eq=False)
class GeometricGrid:
    """Nodes x_n = x_max * delta**(n_cells - n), n = 0..n_cells."""

    x_max: float
    delta: float
    n_cells: int
    tail_bound: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if self.n_cells < 10:
            raise DomainError("need at least 10 cells")
        if self.x_max <= 0:
            raise DomainError("x_max must be positive")
        if self.x_max * self.delta**self.n_cells <= 0.0:
            raise DomainError("grid underflows at the left end; reduce n_cells")

    @cached_property
    def nodes(self) -> np.ndarray:
        n = np.arange(self.n_cells + 1)
        return self.x_max * self.delta ** (self.n_cells - n).astype(float)

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def log_step(self) -> float:
        return -math.log(self.delta)

    @property
    def x0(self) -> float:
        return float(self.nodes[0])


@dataclass(frozen=True, eq=False)
class KernelWeights:
    """W_m = integral of Pibar(u) e**u du over (m L, (m+1) L)."""

    values: np.ndarray
    error_estimates: np.ndarray


@dataclass(frozen=True)
class GapModel:
    """Density model on the uncovered interval (0, x_0).

    kind "power" is c0 * x**c1 (the q = 0 case, where the density follows
    the kernel tail); kind "affine" is c0 + c1 * x with c0 pinned to the
    kill rate, the exact x -> 0 limit of the density when q > 0.
    """

    kind: str
    c0: float
    c1: float

    def mass(self, x0: float) -> float:
        if self.kind == "power":
            return self.c0 * x0 ** (self.c1 + 1.0) / (self.c1 + 1.0)
        return self.c0 * x0 + 0.5 * self.c1 * x0 * x0

    def cdf(self, x: np.ndarray, x0: float) -> np.ndarray:
        x = np.clip(x, 0.0, x0)
        if self.kind == "power":
            return self.c0 * x ** (self.c1 + 1.0) / (self.c1 + 1.0)
        return self.c0 * x + 0.5 * self.c1 * x * x

    def partial_moment(self, r: float, x0: float) -> float:
        """Integral of x**r times the model over (0, x0)."""
        if self.kind == "power":
            e = self.c1 + r + 1.0
            if e <= 1e-9:
                raise DomainError(
                    f"moment of order {r} diverges against the x**{self.c1:.3g} "
                    "left-gap model"
                )
            return self.c0 * x0**e / e
        if r <= -1.0:
            raise DomainError(
                f"moment of order {r} diverges: the density tends to {self.c0:.3g} at 0"
            )
        return self.c0 * x0 ** (r + 1.0) / (r + 1.0) + self.c1 * x0 ** (r + 2.0) / (r + 2.0)


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Piecewise-constant density on a geometric grid.

    ``heights[n]`` is the density value on [x_n, x_{n+1}).  The step
    function integrates to ``covered_mass`` = 1 - ``left_gap_mass_bound``;
    the gap term is the mass of the fitted :class:`GapModel` on (0, x_0),
    so that total mass is exactly 1.  ``moment_of`` and ``cdf`` include
    the gap term; ``evaluate`` and ``survival`` are strictly about the
    step function.
    """

    grid: GeometricGrid
    heights: np.ndarray
    covered_mass: float
    left_gap_mass_bound: float
    gap: GapModel
    top_zero_cells: int = 0

    @property
    def gap_exponent(self) -> float:
        return self.gap.c1 if self.gap.kind == "power" else 0.0

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        # suffix_mass[n] = integral of the step function over [x_n, x_max]
        cell = self.heights * self.grid.widths
        return np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])

    @cached_property
    def _node_cdf(self) -> np.ndarray:
        return 1.0 - self._suffix_mass

    def _cell_of(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.grid.nodes, x, side="right") - 1, 0, None)

    def evaluate(self, x: float) -> float:
        """Step-function value at x; 0 below x_0, error outside (0, x_max]."""
        if x <= 0 or x > self.grid.x_max * (1 + 1e-12):
            raise DomainError(f"x = {x} outside the support (0, {self.grid.x_max}]")
        if x < self.grid.x0:
            return 0.0
        n = min(int(self._cell_of(np.array([x]))[0]), self.grid.n_cells - 1)
        return float(self.heights[n])

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = np.minimum(self._cell_of(x), self.grid.n_cells - 1)
        vals = self.heights[n]
        return np.where((x < self.grid.x0) | (x > self.grid.x_max), 0.0, vals)

    def survival(self, x: float) -> float:
        """Integral of the step function over (x, x_max]."""
        if x <= 0 or x > self.grid.x_max * (1 + 1e-12):
            raise DomainError(f"x = {x} outside the support (0, {self.grid.x_max}]")
        if x <= self.grid.x0:
            return self.covered_mass
        if x >= self.grid.x_max:
            return 0.0
        n = int(self._cell_of(np.array([x]))[0])
        partial = (self.grid.nodes[n + 1] - x) * self.heights[n]
        return float(self._suffix_mass[n + 1] + partial)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """P(I <= x) including the gap model below x_0."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.grid.nodes, self._node_cdf)
        below = x < self.grid.x0
        if self.left_gap_mass_bound > 0:
            out = np.where(below, self.gap.cdf(x, self.grid.x0), out)
        else:
            out = np.where(below, 0.0, out)
        return np.where(x <= 0, 0.0, np.where(x >= self.grid.x_max, 1.0, out))

    def moment_of(self, r: float) -> float:
        """Integral of x**r against the density, cell-exact plus gap term."""
        lo = self.grid.nodes[:-1]
        hi = self.grid.nodes[1:]
        if r == -1.0:
            cells = float(np.dot(self.heights, np.log(hi / lo)))
        else:
            cells = float(np.dot(self.heights, (hi ** (r + 1) - lo ** (r + 1)) / (r + 1)))
        if self.left_gap_mass_bound > 0:
            return cells + self.gap.partial_moment(r, self.grid.x0)
        return cells

    def to_csv(self, path) -> None:
        """Write ``x,k`` rows, one per cell at the arithmetic midpoint,
        12 significant digits."""
        mids = 0.5 * (self.grid.nodes[:-1] + self.grid.nodes[1:])
        with open(path, "w") as fh:
            fh.write("x,k\n")
            for x, k in zip(mids, self.heights):
                fh.write(f"{x:.12g},{k:.12g}\n")


def build_grid(
    spec: SubordinatorSpec,
    delta: float,
    n_cells: int,
    x_max_override: float | None = None,
) -> GeometricGrid:
    """Choose the grid: x_max = 1/c when the drift is positive, otherwise
    the smallest truncation point whose Chebyshev bound E[I^m]/x^m (best
    m <= 8) is below 1e-6."""
    if spec.drift > 0:
        if x_max_override is not None:
            raise TruncationError(
                "the support is exactly (0, 1/drift); x_max cannot be overridden"
            )
        return GeometricGrid(1.0 / spec.drift, delta, n_cells, 0.0)
    moments = positive_moments(spec, 8)
    if x_max_override is not None:
        if x_max_override <= 0:
            raise DomainError("x_max override must be positive")
        x_max = float(x_max_override)
    else:
        candidates = [
            (moments.value(m) / _TAIL_MASS_TARGET) ** (1.0 / m) for m in range(1, 9)
        ]
        x_max = min(candidates)
        if not np.isfinite(x_max) or x_max > _X_MAX_CAP:
            raise TruncationError(
                f"no truncation point below {_X_MAX_CAP:g} meets the "
                f"{_TAIL_MASS_TARGET:g} tail bound"
            )
    bound = min(moments.value(m) / x_max**m for m in range(1, 9))
    return GeometricGrid(x_max, delta, n_cells, bound)


def kernel_weights(spec: SubordinatorSpec, grid: GeometricGrid) -> KernelWeights:
    """The N kernel integrals W_m, each to 1e-9 relative or 1e-15 absolute:
    one interpolating polynomial per panel of 32 cells, and Gauss-Kronrod
    on the cells next to the u = 0 singularity and on any panel that
    misses the tolerance (:func:`numerics.integrate_uniform_cells`)."""
    n = grid.n_cells
    if isinstance(spec.tail, ZeroTail):
        return KernelWeights(np.zeros(n), np.zeros(n))

    def f(u):
        return spec.tail.tail_many(u) * np.exp(u)

    vals, errs = integrate_uniform_cells(
        f, grid.log_step, n, 1e-9, 1e-15, p_first=spec.tail.kernel_singularity()
    )
    # Pibar >= 0, so W_m >= 0; a panel's polynomial can dip below 0 by a
    # few subnormals where f underflows
    return KernelWeights(np.maximum(vals, 0.0), errs)


def _fit_power_gap(grid: GeometricGrid, heights: np.ndarray):
    """Power-law model A x**kappa below x_0 for q = 0, fitted to the lowest
    cells at their geometric midpoints; returns (A, kappa, raw mass)."""
    k = min(_GAP_FIT_CELLS, heights.shape[0])
    ys = heights[:k]
    if np.any(ys <= 0):
        return 0.0, 0.0, 0.0
    mids = np.sqrt(grid.nodes[:k] * grid.nodes[1 : k + 1])
    slope = np.polyfit(np.log(mids), np.log(ys), 1)[0]
    kappa = float(np.clip(slope, -0.95, 10.0))
    coef = float(ys[0] / mids[0] ** kappa)
    mass = coef * grid.x0 ** (kappa + 1.0) / (kappa + 1.0)
    return coef, kappa, mass


def _fit_affine_slope(grid: GeometricGrid, heights: np.ndarray) -> float:
    """Raw-scale slope of the density over the lowest cells (q > 0 case,
    where the intercept is pinned to the kill rate after normalization)."""
    k = min(_GAP_FIT_CELLS, heights.shape[0])
    mids = np.sqrt(grid.nodes[:k] * grid.nodes[1 : k + 1])
    return float(np.polyfit(mids, heights[:k], 1)[0])


def solve(
    spec: SubordinatorSpec,
    grid: GeometricGrid,
    weights: KernelWeights | None = None,
) -> StepDensity:
    """Back-substitute the discrete system and normalize to unit mass."""
    if isinstance(spec.tail, ZeroTail) and spec.kill == 0:
        raise DomainError(
            "pure drift without killing gives the deterministic value 1/drift; "
            "there is no density to solve for"
        )
    if spec.drift > 0 and abs(grid.x_max * spec.drift - 1.0) > 1e-9:
        raise DomainError("grid x_max must equal 1/drift for this model")
    if weights is None:
        weights = kernel_weights(spec, grid)
    n = grid.n_cells
    nodes = grid.nodes[:-1]
    w = grid.widths
    denom = 1.0 - spec.drift * nodes - nodes * weights.values[0] - spec.kill * w

    bad = np.nonzero(denom[: n - 1] <= 0.0)[0]
    start = n - 1
    if bad.size:
        first_bad = int(bad[0])
        layer_ok = (
            spec.drift > 0
            and nodes[first_bad] > 0.95 * grid.x_max
            and first_bad >= 1
        )
        if not layer_ok:
            raise DenominatorError(first_bad, float(denom[first_bad]))
        start = first_bad - 1

    raw = back_substitute(grid.nodes, w, weights.values, denom, spec.kill, start)
    if not np.all(np.isfinite(raw)):
        k = int(np.nonzero(~np.isfinite(raw))[0][0])
        raise NonPositive(f"back-substitution produced a non-finite height y[{k}] = {raw[k]}")

    peak = float(np.max(raw))
    if peak <= 0:
        raise NonPositive("back-substitution produced no positive mass")
    tiny = raw < 0
    if np.any(raw[tiny] < -1e-12 * peak):
        k = int(np.nonzero(raw < -1e-12 * peak)[0][0])
        raise NonPositive(f"height y[{k}] = {raw[k]:.3e} is negative")
    raw[tiny] = 0.0

    covered_raw = float(np.dot(raw, w))
    x0 = grid.x0
    if spec.kill > 0:
        # the density tends to q at 0 (exact limit); model the gap as
        # q + b x with the slope fitted to the lowest cells
        b_raw = _fit_affine_slope(grid, raw)
        if spec.kill * x0 >= 1.0:
            raise DomainError("grid too coarse: the left gap would hold all the mass")
        scale = (1.0 - spec.kill * x0) / (covered_raw + 0.5 * b_raw * x0 * x0)
        if scale <= 0:
            raise DomainError("grid too coarse for a consistent left-gap model")
        gap = GapModel("affine", spec.kill, b_raw * scale)
    else:
        coef, kappa, gap_raw = _fit_power_gap(grid, raw)
        scale = 1.0 / (covered_raw + gap_raw)
        gap = GapModel("power", coef * scale, kappa)
    heights = raw * scale
    return StepDensity(
        grid=grid,
        heights=heights,
        covered_mass=float(np.dot(heights, w)),
        left_gap_mass_bound=gap.mass(x0),
        gap=gap,
        top_zero_cells=n - 1 - start,
    )


def residual_cell_count(grid: GeometricGrid) -> int:
    """Cells, from the bottom, whose midpoints :func:`residual` checks: all
    but the top 1%, where a drift's boundary layer may pin heights to 0."""
    return math.floor(0.99 * grid.n_cells)


def _cell_residuals(spec: SubordinatorSpec, density: StepDensity) -> np.ndarray:
    """|(1 - c x) k~(x) - RHS(x)| at the geometric midpoint of every cell
    below the top 1%, with the RHS integrals recomputed by fresh quadrature.

    At the grid nodes the back-substitution enforced the discrete equations
    exactly, so only off-node points see the discretisation error.  Seen
    from the midpoint x_p = sqrt(x_k x_{k+1}) of cell k, the grid looks the
    same for every k:

    * the first, partial cell [x_p, x_{k+1}] is u = log(y/x_p) in
      [0, L/2], so its kernel integral is x_p * A_0 with
      A_0 = integral of Pibar(u) e**u over (0, L/2), one scalar;
    * the integral of Pibar(log(y/x_p)) over cell k+m, m >= 1, is
      (x_p/x_ref) T[m], where T[m] is the integral over cell m seen from
      the lowest midpoint x_ref.

    One table T, integrated in y, serves every cell, and the kernel part
    of the RHS at all N midpoints is one FFT correlation of the heights
    with T.  The kill part is a suffix sum.

    The check stays independent of the solve: it integrates Pibar(log(y/x))
    in y over the grid cells, where the solve integrates Pibar(u) e**u in u
    over log-step cells, and it never reads the cached weights W_m.
    """
    grid = density.grid
    n = grid.n_cells
    nodes = grid.nodes
    h = density.heights
    x_p = np.sqrt(nodes[:-1] * nodes[1:])
    lhs = (1.0 - spec.drift * x_p) * h
    rhs = spec.kill * (h * (nodes[1:] - x_p) + density._suffix_mass[1:])
    if not isinstance(spec.tail, ZeroTail):
        tail = spec.tail.tail_many
        (a0,), _ = integrate_cells(
            lambda u: tail(u) * np.exp(u),
            [0.0, 0.5 * grid.log_step],
            1e-8,
            1e-14,
            p_first=spec.tail.kernel_singularity(),
        )
        x_ref = x_p[0]
        table, _ = integrate_cells(lambda y: tail(np.log(y / x_ref)), nodes[1:], 1e-8, 1e-14)
        # corr[k] = sum over m >= 1 of T[m] h[k+m]; zero-padding to 2N
        # keeps the circular correlation from wrapping
        t_hat = np.fft.rfft(np.concatenate([[0.0], table]), 2 * n)
        corr = np.fft.irfft(np.fft.rfft(h, 2 * n) * np.conj(t_hat), 2 * n)[:n]
        rhs = rhs + x_p * (a0 * h + corr / x_ref)
    return np.abs(lhs - rhs)[: residual_cell_count(grid)]


def residual(spec: SubordinatorSpec, density: StepDensity) -> float:
    """Sup of |(1 - c x) k~(x) - RHS(x)| over the midpoints of every cell
    below the top 1%: one table of cell integrals, one FFT correlation of
    the heights with it (:func:`_cell_residuals`)."""
    return float(np.max(_cell_residuals(spec, density)))
