"""Shared numerical kernels.

Three building blocks used throughout the package:

* adaptive Gauss-Kronrod quadrature with support for an algebraic
  endpoint singularity and for infinite upper limits (tail doubling),
* a vectorized integrator over many adjacent segments at once (the
  workhorse behind the kernel weights and the residual's one table of
  cell integrals),
* polynomial limit extrapolation for ratios sampled on x -> 0.

Both integrators use one rule pair, the 7-point Gauss rule nested in the
15-point Kronrod rule: the 15 samples of a segment give its K15 value
and, from the 7 Gauss nodes among them, the error estimate |K15 - G7|.

All integrands must accept numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
