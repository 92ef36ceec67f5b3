"""Time to accuracy on the refine recipes, for this tree and another, and write a BENCH entry.

For each recipe of perfbench's refine ladder and N = 1125 * 2**k up to
36000 over the default grid's log-span (``delta = 0.998**(4500/N)``), the
entry records

* the wall time of ``build_grid``, ``kernel_weights``, the sweep
  (``solver.back_substitute``) and the rest of ``solve`` (the sweep's
  inputs, the heights and the normalisation), each the median of
  ``--repeats`` runs;
* the moment error (n <= 5) against the recursion;
* the density error against the closed form by perfbench's rule
  (``perfbench/workloads.py::density_error``: the sup over the cells'
  arithmetic midpoints, the top 1% left out under a drift), where the
  recipe has one;
* or the error type, where the grid fails.

``--against DIR`` takes the same table for the tree in DIR, by running
this script on DIR/src in a subprocess, and both trees' outcomes of
``benchmarks/survey.py`` (each tree's own copy) go into the entry.

    python benchmarks/bench_tta.py --out BENCH.json [--against PARENT_DIR] [--repeats 3]
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from run import cpu_model, git_commit, usable_cores  # noqa: E402
from workloads import DEFAULT_CELLS, DEFAULT_DELTA, RefineToAccuracy, density_error  # noqa: E402

CELLS = tuple(1125 * 2**k for k in range(6))  # 1125 .. 36000


def load_expfun(src: Path):
    """``expfun`` imported from the tree whose sources are in ``src``."""
    sys.path.insert(0, str(src))
    return importlib.import_module("expfun")


def timed_solve(ef, spec, n_cells):
    """(stage times, density) of one solve on N cells over the default span."""
    solver = ef.solver
    sweep = solver.back_substitute
    sweep_s = []

    def timed(*args):
        t0 = perf_counter()
        out = sweep(*args)
        sweep_s.append(perf_counter() - t0)
        return out

    solver.back_substitute = timed
    try:
        t0 = perf_counter()
        grid = ef.build_grid(spec, DEFAULT_DELTA ** (DEFAULT_CELLS / n_cells), n_cells)
        t1 = perf_counter()
        weights = ef.kernel_weights(spec, grid)
        t2 = perf_counter()
        density = ef.solve(spec, grid, weights)
        t3 = perf_counter()
    finally:
        solver.back_substitute = sweep
    times = {
        "build_grid_s": t1 - t0,
        "kernel_weights_s": t2 - t1,
        "sweep_s": sweep_s[0],
        "solve_rest_s": t3 - t2 - sweep_s[0],
    }
    return times, density


def ladder(ef, repeats: int) -> dict:
    table = {}
    for recipe in RefineToAccuracy.ITEMS:
        spec = ef.load_spec(ROOT / "recipes" / f"{recipe}.json")
        rows = []
        for n_cells in CELLS:
            row = {"cells": n_cells}
            try:
                runs = [timed_solve(ef, spec, n_cells) for _ in range(repeats)]
            except ef.ExpfunError as exc:
                row["error"] = type(exc).__name__
                rows.append(row)
                continue
            for stage in runs[0][0]:
                row[stage] = statistics.median(times[stage] for times, _ in runs)
            density = runs[0][1]
            grid = density.grid
            mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
            row["moment_err"] = ef.moment_agreement_check(spec, density, n_max=5).statistic
            row["density_err"] = density_error(ef, spec, mids, density.heights)
            rows.append(row)
            print(recipe, row, file=sys.stderr, flush=True)
        table[recipe] = rows
    return table


def run_json(argv, cwd) -> dict:
    """The JSON that a script prints as its last line of stdout."""
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path, metavar="DIR")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--table-of", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.table_of:
        # the subprocess for --against: one table, printed as one JSON line
        print(json.dumps(ladder(load_expfun(args.table_of), args.repeats)))
        return 0
    if args.out is None:
        p.error("--out is required")
    entry = {
        "machine": {
            "nproc": usable_cores(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(),
        },
        "span": DEFAULT_CELLS * -math.log(DEFAULT_DELTA),
        "ladder": ladder(load_expfun(ROOT / "src"), args.repeats),
        "survey": run_json([sys.executable, "benchmarks/survey.py"], ROOT),
    }
    if args.against:
        here = [sys.executable, str(Path(__file__).resolve()), "--repeats", str(args.repeats)]
        entry["against"] = {
            "tree": args.against.name,
            "ladder": run_json(here + ["--table-of", str(args.against / "src")], ROOT),
            "survey": run_json([sys.executable, "benchmarks/survey.py"], args.against),
        }
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
