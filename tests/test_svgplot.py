import math

import numpy as np
import pytest

from expfun.svgplot import _nice_ticks, plot_lines


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
