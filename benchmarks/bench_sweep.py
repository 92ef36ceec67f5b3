"""Time the relaxed FFT sweep against the row-by-row loop and write a BENCH entry.

For every recipe and N = 4500 * 2**k (k = 0..3) over the default grid's
log-span, it times ``expfun.backend.back_substitute`` and the O(N^2) loop
it replaced (median of ``--repeats`` alternating calls), and records the
largest relative difference over the positive heights and the number of
rows the accuracy guard summed directly.  Given an earlier entry
(``--against``), each row also carries that entry's sweep time and guard
count at the same recipe and N.  Given the result files of
``perfbench/run.py`` for a parent and a changed tree, it adds the medians
of their end-to-end metrics.

    python benchmarks/bench_sweep.py --out BENCH.json \\
        [--against BENCH_9.json] [--perfbench PARENT_DIR CHANGE_DIR]

The perfbench directories hold ``<workload>-*.json`` result files, one
per run; untraced runs are paired by their order in the sorted file
names, and a traced run (``--trace 1``) adds its stage times.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from perfbench_pairs import perfbench_summary  # noqa: E402
from run import machine_info  # noqa: E402  (perfbench's machine record)

import expfun as ef  # noqa: E402
from expfun import _kernels_py, parallel  # noqa: E402

SPAN = 4500 * -math.log(0.998)  # the default grid's log-span
CELLS = (4500, 9000, 18000, 36000)
STAGES = (
    "backend.sweep_s",
    "solver.kernel_weights.total_s",
    "solver.residual.total_s",
    "tails.inverse_tail.total_s",
    "trace.pass_s",
)


def loop_sweep(nodes, widths, weights, denoms, q, start):
    """The row-by-row O(N^2) sweep: one dot product per row."""
    y = np.zeros(widths.shape[0])
    y[start] = 1.0
    suffix = y[start] * widths[start]
    for n in range(start - 1, -1, -1):
        kernel = nodes[n] * np.dot(y[n + 1 : start + 1], weights[1 : start - n + 1])
        y[n] = (kernel + q * suffix) / denoms[n]
        suffix += y[n] * widths[n]
    return y


def sweep_inputs(spec, n_cells):
    """The arguments ``solve`` hands to the sweep, with its layer rule."""
    grid = ef.build_grid(spec, math.exp(-SPAN / n_cells), n_cells)
    weights = ef.kernel_weights(spec, grid).values
    nodes = grid.nodes[:-1]
    denoms = 1.0 - spec.drift * nodes - nodes * weights[0] - spec.kill * grid.widths
    bad = np.nonzero(denoms[: n_cells - 1] <= 0.0)[0]
    start = n_cells - 1 if not bad.size else int(bad[0]) - 1
    return grid.nodes, grid.widths, weights, denoms, spec.kill, start


def sweep_table(repeats: int) -> dict:
    table = {}
    for path in sorted((ROOT / "recipes").glob("*.json")):
        spec = ef.load_spec(path)
        rows = []
        for n_cells in CELLS:
            args = sweep_inputs(spec, n_cells)
            loop_s, fft_s = [], []
            for _ in range(repeats):
                t0 = perf_counter()
                ref = loop_sweep(*args)
                t1 = perf_counter()
                y, recomputed = _kernels_py.relaxed_sweep(*args)
                fft_s.append(perf_counter() - t1)
                loop_s.append(t1 - t0)
            pos = ref > 0
            rows.append({
                "cells": n_cells,
                "loop_s": statistics.median(loop_s),
                "relaxed_s": statistics.median(fft_s),
                "max_rel_diff": float(np.max(np.abs(y[pos] / ref[pos] - 1.0))),
                "guard_rows": recomputed,
                "rows": args[-1] + 1,
            })
            print(path.stem, rows[-1], flush=True)
        table[path.stem] = rows
    return table


def add_against(table: dict, earlier: dict) -> None:
    """Copy the earlier entry's sweep time and guard count into each row."""
    for recipe, rows in table.items():
        before = {r["cells"]: r for r in earlier["sweep"].get(recipe, [])}
        for row in rows:
            if row["cells"] in before:
                row["against_relaxed_s"] = before[row["cells"]]["relaxed_s"]
                row["against_guard_rows"] = before[row["cells"]]["guard_rows"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--against", type=Path, metavar="BENCH_JSON")
    p.add_argument("--perfbench", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = p.parse_args(argv)
    entry = {
        "machine": {
            **machine_info(ef, parallel.worker_count()),
            "sweep": (
                f"relaxed FFT, {_kernels_py._LEAF}-row leaves solved by dtrsv, "
                f"guard {_kernels_py._GUARD_RTOL:g}"
            ),
        },
        "sweep": sweep_table(args.repeats),
    }
    if args.against:
        earlier = json.loads(args.against.read_text())
        entry["against"] = {"file": args.against.name, "sweep": earlier["machine"]["sweep"]}
        add_against(entry["sweep"], earlier)
    if args.perfbench:
        entry["perfbench"] = perfbench_summary(*args.perfbench, stages=STAGES)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
