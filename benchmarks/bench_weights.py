"""Time the kernel weights' panel rule against the per-cell pass it replaced and write a BENCH entry.

``kernel_weights`` takes the cells of each panel from one interpolating
polynomial (``numerics.integrate_uniform_cells``); before, it ran the
15-point Kronrod rule on every cell (``integrate_cells`` over all the
edges, kept here as the reference path).  For every recipe and
N = 4500 * 2**k (k = 0..3) over the default grid's log-span, the entry
records

* the wall time of each path, median of ``--repeats`` alternating calls;
* the tail evaluations of each path;
* the panels that missed the tolerance and went to Gauss-Kronrod;
* the largest error estimate, and its largest share of the target
  max(1e-9 W_m, 1e-15) on the panels' cells and on the Gauss-Kronrod
  cells (the head, the cells past the last panel and the fallbacks);
* the largest relative change of a weight (where it exceeds 1e-30 of the
  largest) and of a positive height, panel path against per-cell path.

For the 300 specs of ``benchmarks/survey.py`` on the default grid it
records how many solve with each path's weights, whether the failures
agree, and the largest relative height change.  Given the result files
of ``perfbench/run.py`` for a parent and a changed tree, the entry adds
the medians of their end-to-end metrics (see ``perfbench_pairs.py``).

    python benchmarks/bench_weights.py --out BENCH.json \\
        [--repeats 5] [--perfbench PARENT_DIR CHANGE_DIR]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from perfbench_pairs import perfbench_summary  # noqa: E402
from run import cpu_model, git_commit, usable_cores  # noqa: E402
from survey import draw_specs  # noqa: E402

import expfun as ef  # noqa: E402
from expfun import numerics  # noqa: E402

SPAN = 4500 * -math.log(0.998)  # the default grid's log-span
CELLS = (4500, 9000, 18000, 36000)
STAGES = (
    "solver.kernel_weights.total_s",
    "solver.kernel_weights_s",
    "tails.tail_many_s.kernel_weights",
    "tails.tail_many.points.kernel_weights",
    "numerics.integrate_cells.segments.kernel_weights",
    "trace.pass_s",
)


def per_cell_weights(spec, grid) -> ef.KernelWeights:
    """The kernel weights from the 15-point Kronrod rule on every cell."""
    tail = spec.tail
    if isinstance(tail, ef.ZeroTail):
        return ef.KernelWeights(*np.zeros((3, grid.n_cells)))
    edges = grid.log_step * np.arange(grid.n_cells + 1)
    return ef.KernelWeights(*numerics.integrate_cells(
        lambda u: tail.tail_many(u) * np.exp(u),
        edges, 1e-9, 1e-15, p_first=tail.kernel_singularity(),
    ))


@contextmanager
def recording(owner, name, log):
    """Append the positional arguments of every call of ``owner.name``."""
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    setattr(owner, name, wrapped)
    try:
        yield log
    finally:
        setattr(owner, name, original)


def tail_evaluations(spec, weights_of, grid) -> int:
    calls = []
    with recording(type(spec.tail), "tail_many", calls):
        weights_of(spec, grid)
    return sum(int(np.size(args[1])) for args in calls)


def kronrod_cells(spec, grid) -> np.ndarray:
    """Mask of the cells that ``kernel_weights`` hands to ``integrate_cells``:
    the head, the cells past the last whole panel and the fallback panels."""
    calls = []
    with recording(numerics, "integrate_cells", calls):
        ef.kernel_weights(spec, grid)
    mask = np.zeros(grid.n_cells, dtype=bool)
    for args in calls:
        start = int(round(args[1][0] / grid.log_step))
        mask[start : start + args[1].size - 1] = True
    return mask


def max_rel_change(new, ref, floor=0.0) -> float:
    keep = ref > floor
    return float(np.max(np.abs(new[keep] / ref[keep] - 1.0), initial=0.0))


def weights_table(repeats: int) -> dict:
    table = {}
    for path in sorted((ROOT / "recipes").glob("*.json")):
        spec = ef.load_spec(path)
        rows = []
        for n_cells in CELLS:
            grid = ef.build_grid(spec, math.exp(-SPAN / n_cells), n_cells)
            panel_s, cell_s = [], []
            for _ in range(repeats):
                t0 = perf_counter()
                panel = ef.kernel_weights(spec, grid)
                t1 = perf_counter()
                cell = per_cell_weights(spec, grid)
                cell_s.append(perf_counter() - t1)
                panel_s.append(t1 - t0)
            heights = ef.solve(spec, grid, panel).heights
            ref = ef.solve(spec, grid, cell).heights
            share = panel.error_estimates / np.maximum(1e-9 * panel.values, 1e-15)
            kronrod = kronrod_cells(spec, grid)
            head, size = numerics._PANEL_HEAD, numerics._PANEL_CELLS
            last = head + max(n_cells - head, 0) // size * size
            rows.append({
                "cells": n_cells,
                "per_cell_s": statistics.median(cell_s),
                "panel_s": statistics.median(panel_s),
                "per_cell_tail_evaluations": tail_evaluations(spec, per_cell_weights, grid),
                "panel_tail_evaluations": tail_evaluations(spec, ef.kernel_weights, grid),
                "fallback_panels": int(np.count_nonzero(kronrod[head:last])) // size,
                "max_error_estimate": float(np.max(panel.error_estimates)),
                "max_panel_estimate_over_target": float(np.max(share[~kronrod], initial=0.0)),
                "max_kronrod_estimate_over_target": float(np.max(share[kronrod], initial=0.0)),
                "max_rel_weight_change": max_rel_change(
                    panel.values, cell.values, 1e-30 * np.max(cell.values, initial=0.0)
                ),
                "max_rel_height_change": max_rel_change(heights, ref),
            })
            print(path.stem, rows[-1], flush=True)
        table[path.stem] = rows
    return table


def survey_heights(spec, weights_of):
    """The heights of a survey solve on the default grid, or the name of
    the error; like ``survey.run_one``, a solve counts when its heights are
    finite and non-negative and its mass is 1 to 1e-9."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            grid = ef.build_grid(spec, 0.998, 4500)
            density = ef.solve(spec, grid, weights_of(spec, grid))
        except Exception as exc:
            return type(exc).__name__
    h = density.heights
    mass = density.covered_mass + density.left_gap_mass_bound
    if not (np.all(np.isfinite(h)) and np.all(h >= 0) and abs(mass - 1) <= 1e-9):
        return "InvalidDensity"
    return h


def survey_outcome() -> dict:
    """Solve every survey spec with both paths' weights."""
    specs = draw_specs()
    solved = {"panel": 0, "per_cell": 0}
    failures = {"panel": {}, "per_cell": {}}
    worst = 0.0
    for i, (_, spec) in enumerate(specs):
        heights = {}
        for side, weights_of in (("panel", ef.kernel_weights), ("per_cell", per_cell_weights)):
            out = survey_heights(spec, weights_of)
            if isinstance(out, str):
                failures[side][i] = out
            else:
                solved[side] += 1
                heights[side] = out
        if len(heights) == 2:
            worst = max(worst, max_rel_change(heights["panel"], heights["per_cell"]))
    return {
        "specs": len(specs),
        "solved": solved,
        "same_failures": failures["panel"] == failures["per_cell"],
        "max_rel_height_change": worst,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--perfbench", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = p.parse_args(argv)
    entry = {
        "machine": {
            "nproc": usable_cores(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(),
            "panel_rule": (
                f"{numerics._PANEL_CELLS} cells on {numerics._PANEL_NODES} "
                f"Gauss-Legendre nodes past a {numerics._PANEL_HEAD}-cell head"
            ),
        },
        "weights": weights_table(args.repeats),
        "survey": survey_outcome(),
    }
    if args.perfbench:
        entry["perfbench"] = perfbench_summary(*args.perfbench, stages=STAGES)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
