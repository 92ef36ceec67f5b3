"""Minimal native SVG line plots (no plotting dependency).

Deterministic output: same data, same bytes.  Supports one or two series,
linear or log-10 x axis, axis ticks and labels, and a small legend.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


# spans below this fraction of the data's magnitude are drawn as flat:
# 1e-9 is far above the rounding of any computed value and far below any
# difference a 480-pixel axis can show
_FLAT_RTOL = 1e-9


def _is_flat(lo: float, hi: float) -> bool:
    return not hi - lo > _FLAT_RTOL * max(abs(lo), abs(hi))


def _nice_ticks(lo: float, hi: float, target: int = 5):
    """At most ``2 * target`` ticks at round multiples of a 1-2-5 step."""
    span = hi - lo
    raw = span / target
    if _is_flat(lo, hi) or not 0.0 < raw < math.inf:
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    # ticks by integer index: a running sum t += step stalls once step is
    # below half an ulp of t
    first = math.ceil(lo / step)
    count = min(math.floor((hi + 1e-12 * span) / step) - first + 1, 2 * target)
    ticks = []
    for i in range(count):
        t = (first + i) * step
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
    return ticks


def _log_ticks(lo: float, hi: float):
    lo_e = math.ceil(math.log10(lo) - 1e-12)
    hi_e = math.floor(math.log10(hi) + 1e-12)
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def plot_lines(
    path,
    series,
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "",
    logx: bool = False,
) -> None:
    """Write a line plot.  ``series`` is a list of (x, y, label) triples."""
    if not series:
        raise DomainError("nothing to plot")
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not np.any(finite):
        raise DomainError("no finite data to plot")
    x_lo, x_hi = float(xs_all[finite].min()), float(xs_all[finite].max())
    y_lo, y_hi = float(ys_all[finite].min()), float(ys_all[finite].max())
    if logx and x_lo <= 0:
        raise DomainError("log axis needs positive x")
    if _is_flat(x_lo, x_hi):
        x_hi = 10.0 * x_lo if logx else x_lo + max(1.0, abs(x_lo))
    if _is_flat(y_lo, y_hi):
        y_hi = y_lo + max(1.0, abs(y_lo))
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # sx and sy map floats and arrays alike
    def sx(x):
        if logx:
            f = (np.log10(x) - math.log10(x_lo)) / (
                math.log10(x_hi) - math.log10(x_lo)
            )
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + f * inner_w

    def sy(y):
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{inner_w}" '
        f'height="{inner_h}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    xticks = _log_ticks(x_lo, x_hi) if logx else _nice_ticks(x_lo, x_hi)
    for t in xticks:
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + inner_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + inner_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + inner_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt(t)}</text>"
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + inner_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    if ylabel:
        cy = _MARGIN_T + inner_h / 2
        out.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )

    for i, (xs, ys, label) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        pxs = sx(xs[keep]).tolist()
        pys = sy(np.clip(ys[keep], y_lo, y_hi)).tolist()
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in zip(pxs, pys))
        color = _COLORS[i % len(_COLORS)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_T + 16 + 16 * i
            lx = _MARGIN_L + inner_w - 150
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
