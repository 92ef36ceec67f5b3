import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from expfun.svgplot import (
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _WIDTH,
    _nice_ticks,
    plot_lines,
)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1.0, 1.0 + 4e-16),  # a rounding-level span: t += step would stall
        (1.0 - 2e-17, 1.0 + 4.2e-16),
        (0.0, 1e300),
        (-1e300, 1e300),
        (-7.3, -2.1),
        (-1e-20, -3e-21),
        (-3.0, 4.0),
        (0.0, 0.0),
        (0.0, 5e-324),  # span / target underflows to 0
        (-1.5e308, 1.5e308),  # the span overflows
    ],
)
def test_nice_ticks_are_bounded_and_ordered(lo, hi):
    ticks = _nice_ticks(lo, hi)
    assert 1 <= len(ticks) <= 2 * 5
    assert all(math.isfinite(t) for t in ticks)
    assert ticks == sorted(ticks)
    if len(ticks) > 1:
        span = hi - lo
        assert lo - 1e-12 * span <= ticks[0] and ticks[-1] <= hi + 1e-12 * span


def test_nice_ticks_keep_round_steps():
    assert _nice_ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert _nice_ticks(-10.0, -1.0) == pytest.approx([-10.0, -8.0, -6.0, -4.0, -2.0])


@pytest.mark.parametrize("level", [1.0, -3.5, 1e300])
def test_plot_lines_near_flat_data(tmp_path, level):
    x = np.linspace(0.0, 1.0, 50)
    y = level * (1.0 + 1e-15 * np.sin(7.0 * x))
    path = tmp_path / "flat.svg"
    plot_lines(path, [(x, y, "ratio")])
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("logx", [False, True])
def test_plot_lines_single_x(tmp_path, logx):
    path = tmp_path / "one.svg"
    plot_lines(path, [([2.0, 2.0], [0.5, 1.5], "")], logx=logx)
    assert "nan" not in path.read_text()


def per_point_polyline(xs, ys, logx):
    """The polyline points string mapped point by point, as a reference.

    Repeats the plot frame of ``plot_lines`` for data that is not flat:
    the x range of the finite points, and their y range padded by 5%.
    """
    x_all, y_all = np.concatenate(xs), np.concatenate(ys)
    finite = np.isfinite(x_all) & np.isfinite(y_all)
    x_lo, x_hi = float(x_all[finite].min()), float(x_all[finite].max())
    y_lo, y_hi = float(y_all[finite].min()), float(y_all[finite].max())
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        if logx:
            f = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + f * inner_w

    def sy(y):
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h

    out = []
    for x_s, y_s in zip(xs, ys):
        keep = np.isfinite(x_s) & np.isfinite(y_s)
        out.append(
            " ".join(
                f"{sx(float(x)):.2f},{sy(float(np.clip(y, y_lo, y_hi))):.2f}"
                for x, y in zip(x_s[keep], y_s[keep])
            )
        )
    return out


@pytest.mark.parametrize("logx", [False, True])
def test_polyline_matches_per_point_mapping(tmp_path, logx):
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(1e-3, 50.0, 3000))
    y1 = np.exp(-x) * (1.0 + 0.1 * rng.standard_normal(x.size))
    y2 = 0.5 * np.exp(-0.3 * x)
    y2[::97] = np.nan
    path = tmp_path / "lines.svg"
    plot_lines(path, [(x, y1, "a"), (x, y2, "b")], logx=logx)
    polylines = ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}polyline")
    assert [p.get("points") for p in polylines] == per_point_polyline([x, x], [y1, y2], logx)
