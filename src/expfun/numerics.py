"""Shared numerical kernels.

Four building blocks used throughout the package:

* adaptive Gauss-Kronrod quadrature with support for an algebraic
  endpoint singularity and for infinite upper limits (tail doubling),
* a vectorized integrator over many adjacent segments at once (the
  residual's one table of cell integrals, the validation checks, and the
  cells the panel rule below hands back),
* a panel rule over many equal cells (the kernel weights): one
  interpolating polynomial per panel of 32 cells, through 20
  Gauss-Legendre samples, with a Legendre-coefficient error estimate,
* polynomial limit extrapolation for ratios sampled on x -> 0.

The first two use one rule pair, the 7-point Gauss rule nested in the
15-point Kronrod rule: the 15 samples of a segment give its K15 value
and, from the 7 Gauss nodes among them, the error estimate |K15 - G7|.

All integrands must accept numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError, IllConditioned, NoConvergence

# Gauss-Kronrod (G7, K15) nodes and weights on [-1, 1]; positive half shown,
# mirrored below.  The QUADPACK qk15 table (Piessens et al. 1983), accurate
# to 27 digits: K15 integrates x**k exactly for k <= 22 and G7 for k <= 13.
_KRONROD_NODES_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_KRONROD_WEIGHTS_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_GAUSS7_WEIGHTS_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_XK = np.concatenate([-_KRONROD_NODES_HALF[:-1], _KRONROD_NODES_HALF[::-1]])
_WK = np.concatenate([_KRONROD_WEIGHTS_HALF[:-1], _KRONROD_WEIGHTS_HALF[::-1]])
# The G7 nodes are the odd-indexed Kronrod nodes _XK[1::2].
_WG = np.concatenate([_GAUSS7_WEIGHTS_HALF[:-1], _GAUSS7_WEIGHTS_HALF[::-1]])

_MAX_PANELS = 4096
_MAX_DOUBLINGS = 64

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panel_rule(cells: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes t_j on [-1, 1] and the (cells + 2) x nodes
    matrix that takes the samples f(t_j) to the integrals of their
    interpolating polynomial over the ``cells`` equal parts of [-1, 1]
    (first ``cells`` rows) and to its two highest Legendre coefficients
    (last two rows).

    The ``nodes``-point rule integrates P_k P_l exactly for k + l below
    2 nodes, so c_k = (k + 1/2) sum_j w_j P_k(t_j) f(t_j) are the
    interpolant's Legendre coefficients; the integral of P_k over a part
    is a difference of its antiderivative at the part's ends.
    """
    t, w = legendre.leggauss(nodes)
    to_coef = (np.arange(nodes) + 0.5)[:, None] * (legendre.legvander(t, nodes - 1) * w[:, None]).T
    ends = np.linspace(-1.0, 1.0, cells + 1)
    parts = np.diff(legendre.legval(ends, legendre.legint(np.eye(nodes))), axis=1).T
    return t, np.vstack([parts @ to_coef, to_coef[-2:]])


# The panel rule of ``integrate_uniform_cells``.  On the kernel path f's
# only singularity is at u = 0, the lower end of the first cell.  For a
# branch point r half-widths from a panel's centre, interpolation at K
# Gauss nodes converges like rho**-K with rho = r + sqrt(r**2 - 1); a head
# of two panels' worth of cells puts the first panel at r = 5, where
# rho = 9.9 and 9.9**-20 = 1e-20 lies far below rounding.  Panel size and
# node count are measured, on the five refine recipes at N = 4500 to
# 36000 and the 300 survey specs at N = 300 to 4500: 16, 32 and 64 cells
# on 20, 20 and 32 nodes failed no panel, and their largest estimate
# stayed below 5% of the 1e-9 target.  The recipes' kernel weights took
# 73, 46 and 39 ms in all (2-core Xeon).  32 cells on 20 nodes, 0.625
# samples per cell against 15 for K15, takes most of that gain with
# panels half as wide as 64 cells.
_PANEL_CELLS = 32
_PANEL_NODES = 20
_PANEL_HEAD = 2 * _PANEL_CELLS
_PANEL_T, _PANEL_MATRIX = _panel_rule(_PANEL_CELLS, _PANEL_NODES)


@dataclass(frozen=True)
class QuadratureRequest:
    """One integral to evaluate.

    ``integrand`` is called with numpy arrays.  ``hi`` may be ``np.inf``.
    ``singularity_p`` declares an algebraic singularity ``(x - lo)**p`` at
    the lower endpoint with p in (-1, 0); it is removed by the substitution
    x = lo + u**(1/(1+p)) before the adaptive rule runs.
    """

    integrand: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    singularity_p: Optional[float] = None

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.singularity_p is not None and not -1.0 < self.singularity_p < 0.0:
            raise DomainError("singularity exponent must lie in (-1, 0)")


def _adaptive_finite(f, a, b, rel_tol, abs_tol, scale=0.0):
    """Adaptively bisect [a, b] until the summed panel errors meet tolerance.

    Each panel's estimate is its K15 value and its error |K15 - G7|; both
    children of a bisection come from one batched integrand call.
    ``scale`` lets a caller tie the relative target to a magnitude larger
    than the local integral (used by the tail-doubling loop).
    """

    def panels(los, his):
        half = 0.5 * (his - los)
        g7, k15 = _rule_sums(f, los, his)
        vals = half * k15
        bad = np.nonzero(~np.isfinite(vals))[0]
        if bad.size:
            k = bad[0]
            raise NoConvergence(
                f"integrand is not finite inside [{los[k]:g}, {his[k]:g}]"
            )
        return vals.tolist(), np.abs(vals - half * g7).tolist()

    (val,), (err,) = panels(np.array([a]), np.array([b]))
    heap = [(-err, 0, a, b, val)]
    tiebreak = 1
    total, total_err = val, err
    while total_err > max(rel_tol * max(abs(total), scale), abs_tol):
        if len(heap) >= _MAX_PANELS:
            raise NoConvergence(
                f"quadrature on [{a:g}, {b:g}] stalled at error {total_err:.3e} "
                f"after {len(heap)} panels"
            )
        neg_err, _, wa, wb, wval = heapq.heappop(heap)
        m = 0.5 * (wa + wb)
        (v1, v2), (e1, e2) = panels(np.array([wa, m]), np.array([m, wb]))
        heapq.heappush(heap, (-e1, tiebreak, wa, m, v1))
        heapq.heappush(heap, (-e2, tiebreak + 1, m, wb, v2))
        tiebreak += 2
        total += v1 + v2 - wval
        total_err += e1 + e2 + neg_err
    return total, total_err


def _desingularized(f, lo, p):
    """Map an integrand with an (x-lo)**p endpoint singularity to a bounded one.

    Returns (g, transform) with g(u) = f(lo + u**m) * m * u**(m-1), m = 1/(1+p),
    so that integral f over [lo, b] equals integral g over [0, (b-lo)**(1+p)].
    """
    m = 1.0 / (1.0 + p)

    def g(u):
        u = np.asarray(u, dtype=float)
        x = lo + u**m
        return f(x) * m * u ** (m - 1.0)

    def to_u(b):
        return (b - lo) ** (1.0 + p)

    return g, to_u


def integrate(req: QuadratureRequest) -> tuple[float, float]:
    """Evaluate the requested integral; returns (value, error_estimate).

    Raises :class:`NoConvergence` when refinement cannot reach the
    requested tolerance.
    """
    f, lo, hi = req.integrand, req.lo, req.hi
    rel, atol = req.rel_tol, req.abs_tol

    if np.isinf(hi):
        # Treat a singular head separately, then double the tail.
        head_hi = lo + 1.0
        if req.singularity_p is not None:
            g, to_u = _desingularized(f, lo, req.singularity_p)
            val, err = _adaptive_finite(g, 0.0, to_u(head_hi), rel, atol)
        else:
            val, err = _adaptive_finite(f, lo, head_hi, rel, atol)
        a = head_hi
        width = max(abs(lo), 1.0)
        small_blocks = 0
        for _ in range(_MAX_DOUBLINGS):
            b = a + width
            bval, berr = _adaptive_finite(f, a, b, rel, atol, scale=abs(val))
            val += bval
            err += berr
            a = b
            width *= 2.0
            if abs(bval) <= 0.25 * max(rel * abs(val), atol):
                small_blocks += 1
                if small_blocks >= 2:
                    err += abs(bval)
                    return val, err
            else:
                small_blocks = 0
        raise NoConvergence(
            f"tail of integral on [{lo:g}, inf) did not die out after "
            f"{_MAX_DOUBLINGS} doublings"
        )

    if req.singularity_p is not None:
        g, to_u = _desingularized(f, lo, req.singularity_p)
        return _adaptive_finite(g, 0.0, to_u(hi), rel, atol)
    return _adaptive_finite(f, lo, hi, rel, atol)


def quad(f, lo, hi, rel_tol=1e-9, abs_tol=1e-12, singularity_p=None):
    """Convenience wrapper around :func:`integrate`; returns the value only."""
    val, _ = integrate(QuadratureRequest(f, lo, hi, rel_tol, abs_tol, singularity_p))
    return val


def _rule_sums(f, los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled G7 and K15 sums of ``f`` over every segment
    [los[k], his[k]], from one batched integrand call at the 15 Kronrod
    nodes of each segment; the G7 sum reads the 7 odd-indexed samples.

    Multiplying by the half-width 0.5 * (his - los) gives the two rule
    estimates of each segment integral.
    """
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    pts = mid[:, None] + half[:, None] * _XK[None, :]
    fx = f(pts.ravel()).reshape(los.size, _XK.size)
    return fx[:, 1::2] @ _WG, fx @ _WK


def integrate_cells(
    f,
    edges: np.ndarray,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-14,
    p_first: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over every segment [edges[k], edges[k+1]] at once.

    Runs the G7/K15 Gauss-Kronrod pair on all segments in one batched
    integrand call (15 points per segment); segments whose G7 and K15
    estimates differ by more than max(rel_tol * |K15|, abs_tol) fall back
    to the scalar adaptive routine.  ``p_first`` marks an algebraic
    singularity of ``f`` at ``edges[0]`` and routes the first segment
    through the desingularizing substitution.  Returns (values, error
    estimates).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("edges must be strictly increasing with >= 2 entries")
    los = edges[:-1]
    his = edges[1:]
    half = 0.5 * (his - los)
    g7_sums, k15_sums = _rule_sums(f, los, his)
    vals = half * k15_sums
    errs = np.abs(vals - half * g7_sums)
    ok = errs <= np.maximum(rel_tol * np.abs(vals), abs_tol)
    if p_first is not None:
        ok[0] = False
    for k in np.nonzero(~ok)[0]:
        p = p_first if k == 0 else None
        vals[k], errs[k] = integrate(
            QuadratureRequest(f, float(los[k]), float(his[k]), rel_tol, max(abs_tol, 1e-300), p)
        )
    return vals, errs


def integrate_uniform_cells(
    f,
    step: float,
    n_cells: int,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-14,
    p_first: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over the cells [m step, (m+1) step], m < ``n_cells``.

    Past a head of ``_PANEL_HEAD`` cells, each whole panel of
    ``_PANEL_CELLS`` cells samples f at ``_PANEL_NODES`` Gauss-Legendre
    nodes and takes its cell integrals from the interpolating polynomial,
    through one fixed matrix (the cells are equal, so every panel shares
    it).  A panel's error estimate, the same on each of its cells, is

    * truncation: 2 max(|c_{K-1}|, |c_{K-2}|) times the cell width, from
      the interpolant's two highest Legendre coefficients.  While the
      coefficients at least halve per degree, the neglected ones sum to
      at most |c_{K-1}|, and interpolation at most doubles that; the max
      over two degrees guards against an even or odd f whose other
      coefficients vanish;
    * rounding: 4 eps b F + the smallest normal double, with b the
      panel's upper end and F the largest |f| sample.  Each cell edge and
      each sample point sits up to eps b from its exact place: the two
      edges move a cell integral by up to 2 eps b F, and the samples by
      about as much again where f changes by less than F across a cell.
      Below the smallest normal double rounding is absolute.

    Against a per-cell Gauss-Kronrod reference at 1e-13, the estimate
    bounded the error of every panel cell of the recipes and of the
    survey specs whose reference converged, with a factor of 2.3 to
    spare.

    A panel that misses max(``rel_tol`` |value|, ``abs_tol``) on any cell
    or has a non-finite sample, the head (which holds the ``p_first``
    singularity at 0) and the cells past the last whole panel go through
    :func:`integrate_cells`, one call per run of adjacent cells.  Returns
    (values, error estimates).
    """
    edges = step * np.arange(n_cells + 1)
    vals = np.empty(n_cells)
    errs = np.empty(n_cells)
    covered = np.zeros(n_cells, dtype=bool)
    n_panels = max(n_cells - _PANEL_HEAD, 0) // _PANEL_CELLS
    if n_panels:
        stop = _PANEL_HEAD + n_panels * _PANEL_CELLS
        ends = edges[_PANEL_HEAD : stop + 1 : _PANEL_CELLS]
        half = 0.5 * np.diff(ends)
        pts = (ends[:-1] + half)[:, None] + half[:, None] * _PANEL_T
        fx = f(pts.ravel()).reshape(n_panels, _PANEL_NODES)
        rule = fx @ _PANEL_MATRIX.T
        cells = half[:, None] * rule[:, :_PANEL_CELLS]
        width = half * (2.0 / _PANEL_CELLS)
        trunc = 2.0 * np.max(np.abs(rule[:, _PANEL_CELLS:]), axis=1) * width
        rounding = 4.0 * _EPS * ends[1:] * np.max(np.abs(fx), axis=1) + _TINY
        est = trunc + rounding
        # a panel with a sample that is not finite has an estimate that is not
        ok = np.isfinite(est) & np.all(
            est[:, None] <= np.maximum(rel_tol * np.abs(cells), abs_tol), axis=1
        )
        vals[_PANEL_HEAD:stop] = cells.ravel()
        errs[_PANEL_HEAD:stop] = np.repeat(est, _PANEL_CELLS)
        covered[_PANEL_HEAD:stop] = np.repeat(ok, _PANEL_CELLS)
    # the runs of uncovered cells start and stop where ``covered`` flips
    flips = np.flatnonzero(np.diff(np.concatenate([[True], covered, [True]])))
    for lo, hi in zip(flips[::2], flips[1::2]):
        vals[lo:hi], errs[lo:hi] = integrate_cells(
            f, edges[lo : hi + 1], rel_tol, abs_tol, p_first if lo == 0 else None
        )
    return vals, errs


def extrapolate_limit(samples: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Extrapolate f(x) to x = 0 from samples with x decreasing toward 0.

    Fits both a line and a quadratic in x by least squares, reports the
    quadratic intercept as the limit, and derives the uncertainty from the
    intercept standard error plus the spread between the two models.

    Raises :class:`IllConditioned` when fit residuals exceed 10 percent of
    the fitted limit.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DomainError("need at least 3 (x, f(x)) samples")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) >= 0):
        raise DomainError("sample abscissae must be strictly decreasing")
    if np.any(x <= 0):
        raise DomainError("sample abscissae must be positive")

    def poly_fit(deg):
        cols = [x**k for k in range(deg + 1)]
        design = np.stack(cols, axis=1)
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        dof = x.size - (deg + 1)
        if dof > 0:
            s2 = float(resid @ resid) / dof
            cov00 = np.linalg.inv(design.T @ design)[0, 0]
            se = np.sqrt(max(s2 * cov00, 0.0))
        else:
            se = 0.0
        return float(coef[0]), se, resid

    a_lin, _, _ = poly_fit(1)
    a_quad, se_quad, resid = poly_fit(2)

    limit = a_quad
    floor = 64.0 * np.finfo(float).eps * max(abs(limit), np.max(np.abs(y)))
    uncertainty = max(se_quad, 0.5 * abs(a_quad - a_lin), floor)

    rms = float(np.sqrt(np.mean(resid**2)))
    if rms > 0.1 * abs(limit):
        raise IllConditioned(
            f"extrapolation residual rms {rms:.3e} exceeds 10% of limit {limit:.3e}"
        )
    return limit, uncertainty
