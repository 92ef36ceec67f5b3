"""Geometric-grid solver for the density integral equation.

The density k of the exponential functional solves

    (1 - c x) k(x) = integral over (x, inf) of Pibar(log(y/x)) k(y) dy
                     + q * integral over (x, inf) of k(y) dy

on (0, 1/c).  The scheme is product integration for weakly singular
Volterra kernels (Brunner, *Collocation Methods for Volterra Integral and
Related Functional Equations*, 2004).  On the geometric grid
x_n = x_max * delta**(N-n), with L = -log delta, k is linear in log x on
each cell between its node values g_n, and the equation holds at every
node.  The kernel integral against such a function collapses to weights
that depend only on index differences: W_m, the integral of
Pibar(u) e**u du over (mL, (m+1)L), and V_m, the same with the weight
(u - mL)/L.  So a single back-substitution sweep solves the whole
homogeneous system (``sweep_inputs``); the scale is fixed by
normalization.  The scheme is second order in L.  The cells in u are
equal, so ``kernel_weights`` takes the W_m and V_m of each panel of 32
cells from one polynomial through 20 tail samples, and reserves
Gauss-Kronrod for the cells next to the u = 0 singularity and for panels
that miss the tolerance (``numerics.integrate_uniform_cells``).  The
sweep is a causal convolution of the node values with the weights;
``backend.back_substitute`` runs it as a relaxed FFT convolution in
O(N log^2 N) operations.  ``solve`` hands on one height per cell, the
mean of k over it, so every reader of the density sees a step function.

Two departures from the naive discretisation matter in practice and are
documented on the fields they feed:

* the mass below the first node x_0 > 0 is estimated by power terms
  fitted to the lowest cells (:class:`GapModel`) and enters the
  normalization, the moments and the distribution function, which reads
  ``survival`` above x_0 (``left_gap_mass_bound``);
* when the drift makes the support end at 1/c, the diagonal
  1 - c x_n - x_n (W_0 - V_0) - q x_n (E0 - E1) can turn negative over a
  thin boundary layer of top nodes where the true density is vanishingly
  small; those nodes are pinned to zero and the sweep starts below them
  (``top_zero_cells``).  A negative diagonal outside such a layer raises
  :class:`DenominatorError`.

``residual`` checks the equation at the midpoint of every cell below the
top 1%, and ``validation.renewal_check`` the renewal identity: seen from
any midpoint, the cells above it are one table of half-cells in u, so each
check reads all N midpoints from one FFT correlation.  The table's edges
sit between those of the W_m, so the checks share no integral with the
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backend import back_substitute
from .errors import DenominatorError, DomainError, NonPositive, TruncationError
from .model import SubordinatorSpec, positive_moments
from .numerics import integrate_uniform_cells
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
        if not 0.0 < self.x_max < math.inf:
            raise DomainError("x_max must be positive and finite")
        # below the normal doubles delta**n and the nodes stop being geometric
        if min(self.delta**self.n_cells, self.x0) < np.finfo(float).tiny:
            raise DomainError("grid underflows at the left end; reduce n_cells")
        # nodes and logs carry a few ulps of rounding: for them to increase
        # strictly, L must exceed a few ulps of the largest |log x| as well
        depth = max(abs(math.log(self.x_max)), abs(math.log(self.x0)))
        if self.log_step <= 8.0 * np.finfo(float).eps * (1.0 + depth):
            raise DomainError("delta is too close to 1 for the nodes to be resolved")

    @cached_property
    def nodes(self) -> np.ndarray:
        n = np.arange(self.n_cells + 1)
        return self.x_max * self.delta ** (self.n_cells - n).astype(float)

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Geometric cell midpoints sqrt(x_n x_{n+1}) = x_n / sqrt(delta),
        n = 0..n_cells-1; the product x_n x_{n+1} underflows to 0 below
        x_n ~ 1e-162."""
        return self.nodes[:-1] / math.sqrt(self.delta)

    @cached_property
    def centres(self) -> np.ndarray:
        """Cell centres (x_n + x_{n+1})/2, where the tables and plots put k."""
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def log_step(self) -> float:
        return -math.log(self.delta)

    @property
    def x0(self) -> float:
        return float(self.nodes[0])


@dataclass(frozen=True, eq=False)
class KernelWeights:
    """W_m = integral of Pibar(u) e**u du over (m L, (m+1) L) (``values``)
    and V_m, the same integral with the weight (u - m L)/L
    (``first_moments``)."""

    values: np.ndarray
    error_estimates: np.ndarray
    first_moments: np.ndarray


@dataclass(frozen=True)
class GapModel:
    """Density model on the uncovered interval (0, x_0): the sum of the
    power terms c * x**kappa, one (c, kappa) pair each in ``terms``.

    For q = 0 the one term is the power law fitted to the lowest cells (the
    density follows the kernel tail); for q > 0 the terms are (q, 0) and
    (b, 1), the exact x -> 0 limit q of the density plus a fitted slope.
    """

    terms: tuple[tuple[float, float], ...]

    def integral(self, r: float, x):
        """Integral of t**r times the model over (0, x), elementwise in x."""
        out = 0.0
        for c, kappa in self.terms:
            e = kappa + r + 1.0
            if e <= 1e-9:
                raise DomainError(
                    f"moment of order {r} diverges against the {c:.3g} x**{kappa:.3g} "
                    "term of the left-gap model"
                )
            out = out + c * x**e / e
        return out


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Piecewise-constant density on a geometric grid.

    ``heights[n]`` is the density's mean over [x_n, x_{n+1}): the solve
    finds k linear in log x on each cell, and the step function of its
    cell means has the same integral over every cell.  The step
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

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        # suffix_mass[n] = integral of the step function over [x_n, x_max]
        cell = self.heights * self.grid.widths
        return np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])

    def _cell_of(self, x: np.ndarray) -> np.ndarray:
        """The cell of each x, clipped to 0..n_cells-1."""
        n = np.searchsorted(self.grid.nodes, x, side="right") - 1
        return np.clip(n, 0, self.grid.n_cells - 1)

    def _check_support(self, x: np.ndarray) -> None:
        outside = (x <= 0) | (x > self.grid.x_max * (1 + 1e-12))
        if np.any(outside):
            raise DomainError(f"x = {x[outside][0]} outside the support (0, {self.grid.x_max}]")

    def evaluate(self, x: float) -> float:
        """Step-function value at x; 0 below x_0, error outside (0, x_max]."""
        self._check_support(np.asarray(x, dtype=float))
        return float(self.evaluate_many(min(x, self.grid.x_max)))

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self.heights[self._cell_of(x)]
        return np.where((x < self.grid.x0) | (x > self.grid.x_max), 0.0, vals)

    def survival(self, x):
        """Integral of the step function over (x, x_max], elementwise."""
        x = np.asarray(x, dtype=float)
        self._check_support(x)
        n = self._cell_of(x)
        out = self.heights[n] * (self.grid.nodes[n + 1] - x) + self._suffix_mass[n + 1]
        out = np.where(x <= self.grid.x0, self.covered_mass, out)
        return np.where(x >= self.grid.x_max, 0.0, out)[()]

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """P(I <= x): the gap model's mass below x_0, 1 - ``survival`` on
        [x_0, x_max) and 1 above."""
        x = np.asarray(x, dtype=float)
        x0 = self.grid.x0
        covered = 1.0 - self.survival(np.clip(x, x0, self.grid.x_max))
        gap = 0.0
        if self.left_gap_mass_bound > 0:
            gap = self.gap.integral(0.0, np.clip(x, 0.0, x0))
        return np.where(x < x0, np.where(x > 0, gap, 0.0), covered)

    def moment_of(self, r: float) -> float:
        """Integral of x**r against the density, cell-exact plus gap term."""
        lo = self.grid.nodes[:-1]
        hi = self.grid.nodes[1:]
        if r == -1.0:
            cells = float(np.dot(self.heights, np.log(hi / lo)))
        else:
            cells = float(np.dot(self.heights, (hi ** (r + 1) - lo ** (r + 1)) / (r + 1)))
        if self.left_gap_mass_bound > 0:
            return cells + self.gap.integral(r, self.grid.x0)
        return cells

    def to_csv(self, path) -> None:
        """Write ``x,k`` rows, one per cell at the arithmetic midpoint,
        12 significant digits."""
        with open(path, "w") as fh:
            fh.write("x,k\n")
            for x, k in zip(self.grid.centres, self.heights):
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
    """The N kernel integrals W_m, each to 1e-9 relative or 1e-15 absolute,
    and their first moments V_m from the same samples: one interpolating
    polynomial per panel of 32 cells, and Gauss-Kronrod on the cells next
    to the u = 0 singularity and on any panel that misses the tolerance
    (:func:`numerics.integrate_uniform_cells`)."""
    n = grid.n_cells
    if isinstance(spec.tail, ZeroTail):
        return KernelWeights(np.zeros(n), np.zeros(n), np.zeros(n))

    def f(u):
        return spec.tail.tail_many(u) * np.exp(u)

    vals, errs, moments = integrate_uniform_cells(
        f, grid.log_step, n, 1e-9, 1e-15, p_first=spec.tail.kernel_singularity()
    )
    # Pibar >= 0, so W_m >= 0 and V_m >= 0; a panel's polynomial can dip
    # below 0 by a few subnormals where f underflows
    return KernelWeights(np.maximum(vals, 0.0), errs, np.maximum(moments, 0.0))


def _fit_power_gap(grid: GeometricGrid, heights: np.ndarray):
    """Power-law model A x**kappa below x_0 for q = 0, fitted to the lowest
    cells at their geometric midpoints; returns (A, kappa, raw mass)."""
    k = min(_GAP_FIT_CELLS, heights.shape[0])
    ys = heights[:k]
    if np.any(ys <= 0):
        return 0.0, 0.0, 0.0
    mids = grid.midpoints[:k]
    slope = np.polyfit(np.log(mids), np.log(ys), 1)[0]
    kappa = float(np.clip(slope, -0.95, 10.0))
    coef = float(ys[0] / mids[0] ** kappa)
    mass = coef * grid.x0 ** (kappa + 1.0) / (kappa + 1.0)
    return coef, kappa, mass


def _fit_affine_slope(grid: GeometricGrid, heights: np.ndarray) -> float:
    """Raw-scale slope of the density over the lowest cells (q > 0 case,
    where the intercept is pinned to the kill rate after normalization)."""
    k = min(_GAP_FIT_CELLS, heights.shape[0])
    mids = grid.midpoints[:k]
    return float(np.polyfit(mids, heights[:k], 1)[0])


def _exp_moments(step: float) -> tuple[float, float]:
    """E0 = integral of L e**(tL) dt over t in (0, 1), which is e**L - 1,
    and E1, the same with the weight t, (L e**L - e**L + 1)/L, for L =
    ``step``.  Below L = 1 the closed form of E1 cancels (it is about
    L/2), so E1 is summed from its series sum over k >= 0 of
    L**(k+1) / (k! (k+2)), whose terms are positive."""
    e0 = math.expm1(step)
    if step >= 1.0:
        return e0, (step * math.exp(step) - e0) / step
    e1, term, k = 0.0, step, 0
    while term > 1e-17 * e1:
        e1 += term / (k + 2)
        k += 1
        term *= step / k
    return e0, e1


def sweep_inputs(
    spec: SubordinatorSpec, grid: GeometricGrid, weights: KernelWeights
) -> tuple:
    """The seven arguments of :func:`backend.back_substitute` for the
    product-integration system: (nodes, kill widths, kernel weights,
    diagonal, q, start, top column).

    k is linear in s = log x on each cell, between its node values g_n.
    With E0, E1 from :func:`_exp_moments`, row n is the equation at x_n:

    * the kernel weights are W~_m = W_m - V_m + V_(m-1) (m >= 1);
    * the kill widths are w~_j = x_j (E0 - E1) + x_(j-1) E1;
    * the diagonal is 1 - c x_n - x_n (W_0 - V_0) - q x_n (E0 - E1).

    The sweep starts at the top node N - 1, and the top cell is constant
    (g_N = g_(N-1)): column N - 1 of the kill term takes x_(N-1) E0 +
    x_(N-2) E1, and g_N's kernel part is the known column x_n V_(N-1-n).
    Where the diagonal is not positive (drift c > 0, first bad node above
    0.95 x_max) the sweep starts below that boundary layer instead, and
    the nodes above it stay 0.  A bad diagonal anywhere else raises
    :class:`DenominatorError`.
    """
    n = grid.n_cells
    nodes = grid.nodes[:-1]
    e0, e1 = _exp_moments(grid.log_step)
    w, v = weights.values, weights.first_moments
    coupling = w - v
    coupling[1:] += v[:-1]
    widths = nodes * (e0 - e1)
    widths[1:] += nodes[:-1] * e1
    denom = 1.0 - spec.drift * nodes - nodes * coupling[0] - spec.kill * nodes * (e0 - e1)
    bad = np.nonzero(denom[: n - 1] <= 0.0)[0]
    if not bad.size:
        widths[n - 1] += nodes[n - 1] * e1
        return nodes, widths, coupling, denom, spec.kill, n - 1, v[::-1].copy()
    first_bad = int(bad[0])
    layer_ok = spec.drift > 0 and nodes[first_bad] > 0.95 * grid.x_max and first_bad >= 1
    if not layer_ok:
        raise DenominatorError(first_bad, float(denom[first_bad]))
    return nodes, widths, coupling, denom, spec.kill, first_bad - 1, np.zeros(n)


def solve(
    spec: SubordinatorSpec,
    grid: GeometricGrid,
    weights: KernelWeights | None = None,
) -> StepDensity:
    """Back-substitute the discrete system for the node values, take each
    cell's mean as its height and normalize to unit mass."""
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
    w = grid.widths
    args = sweep_inputs(spec, grid, weights)
    start = args[5]
    raw = back_substitute(*args)
    if not np.all(np.isfinite(raw)):
        k = int(np.nonzero(~np.isfinite(raw))[0][0])
        raise NonPositive(f"back-substitution produced a non-finite value g[{k}] = {raw[k]}")

    peak = float(np.max(raw))
    if peak <= 0:
        raise NonPositive("back-substitution produced no positive mass")
    tiny = raw < 0
    if np.any(raw[tiny] < -1e-12 * peak):
        k = int(np.nonzero(raw < -1e-12 * peak)[0][0])
        raise NonPositive(f"node value g[{k}] = {raw[k]:.3e} is negative")
    raw[tiny] = 0.0
    # the mean of k over cell n is g_n (1 - E1/E0) + g_(n+1) E1/E0; g_N is
    # g_(N-1) (the constant top cell), or 0 above a zeroed layer, where
    # g_(N-1) is 0 too
    e0, e1 = _exp_moments(grid.log_step)
    upper = np.append(raw[1:], raw[-1])
    raw = raw * (1.0 - e1 / e0) + upper * (e1 / e0)

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
        gap = GapModel(((spec.kill, 0.0), (b_raw * scale, 1.0)))
    else:
        coef, kappa, gap_raw = _fit_power_gap(grid, raw)
        scale = 1.0 / (covered_raw + gap_raw)
        gap = GapModel(((coef * scale, kappa),))
    heights = raw * scale
    return StepDensity(
        grid=grid,
        heights=heights,
        covered_mass=float(np.dot(heights, w)),
        left_gap_mass_bound=gap.integral(0.0, x0),
        gap=gap,
        top_zero_cells=n - 1 - start,
    )


def residual_cell_count(grid: GeometricGrid) -> int:
    """Cells, from the bottom, whose midpoints :func:`residual` checks: all
    but the top 1%, where a drift's boundary layer may pin heights to 0."""
    return math.floor(0.99 * grid.n_cells)


def _sums_above_midpoints(f, density: StepDensity, p_first=None, at_midpoint=False) -> np.ndarray:
    """S[k] = integral of f(u) k~(x_p e**u) du over u > 0 at the geometric
    midpoint x_p of every cell k, times x_p when ``at_midpoint`` is set.

    Seen from x_p = sqrt(x_k x_{k+1}) in u = log(y/x_p), the grid looks the
    same for every k: the rest of cell k is u in (0, L/2) and cell k+m,
    m >= 1, is u in ((m - 1/2) L, (m + 1/2) L).  So one table of 2N - 1
    half-cell integrals H_j of f over (j L/2, (j+1) L/2)
    (:func:`numerics.integrate_uniform_cells`, ``p_first`` marking a
    singularity at u = 0) gives V_0 = H_0 and V_m = H_{2m-1} + H_{2m}, and
    S[k] = sum over m of V_m h[k+m] at all N cells is one FFT correlation.

    The FFT's rounding is about eps |V| |h| on every row alike.  Where x_p
    S[k] is wanted, correlating x_p h with V_m e**(-m L) instead gives it
    exactly (x_p of cell k+m is x_p of cell k times e**(m L)) and with a
    rounding that scales with the O(1) sums at the top of the grid, not
    with the large V_m of a deep grid times its small x_p.
    """
    grid = density.grid
    n = grid.n_cells
    half, _, _ = integrate_uniform_cells(
        f, 0.5 * grid.log_step, 2 * n - 1, 1e-8, 1e-14, p_first=p_first
    )
    v = np.concatenate([half[:1], half[1::2] + half[2::2]])
    h = density.heights
    if at_midpoint:
        v = v * np.exp(-grid.log_step * np.arange(n))
        h = grid.midpoints * h
    # zero-padding to 2N keeps the circular correlation from wrapping
    v_hat = np.fft.rfft(v, 2 * n)
    return np.fft.irfft(np.fft.rfft(h, 2 * n) * np.conj(v_hat), 2 * n)[:n]


def _cell_residuals(spec: SubordinatorSpec, density: StepDensity) -> np.ndarray:
    """|(1 - c x) k~(x) - RHS(x)| at the geometric midpoint of every cell
    below the top 1%, with the RHS integrals recomputed by fresh quadrature.

    At the midpoint x_p the kernel part of the RHS is x_p times the
    integral of Pibar(u) e**u k~(x_p e**u) over u > 0, which
    :func:`_sums_above_midpoints` gives at every cell from one half-cell
    table; the kill part is q times the survival at x_p.

    The check stays independent of the solve: it never reads the weights
    W_m, and its table's cell edges sit at (m +- 1/2) L, where the weights'
    edges sit at m L, so no integral of the solve is reused.
    """
    grid = density.grid
    x_p = grid.midpoints
    lhs = (1.0 - spec.drift * x_p) * density.heights
    rhs = spec.kill * density.survival(x_p)
    if not isinstance(spec.tail, ZeroTail):
        tail = spec.tail.tail_many
        rhs = rhs + _sums_above_midpoints(
            lambda u: tail(u) * np.exp(u), density, spec.tail.kernel_singularity(), True
        )
    return np.abs(lhs - rhs)[: residual_cell_count(grid)]


def residual(spec: SubordinatorSpec, density: StepDensity) -> float:
    """Sup of |(1 - c x) k~(x) - RHS(x)| over the midpoints of every cell
    below the top 1%: one half-cell table in u, one FFT correlation of the
    heights with it (:func:`_cell_residuals`)."""
    return float(np.max(_cell_residuals(spec, density)))
