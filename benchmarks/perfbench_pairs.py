"""Summaries of paired ``perfbench/run.py`` results for the BENCH entries.

A parent and a changed tree each leave one ``<workload>-*.json`` result
file per run in a directory; untraced runs are paired by their order in
the sorted file names, and a traced run (``--trace 1``) adds its stage
times.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WORKLOADS = ("validate_recipes", "refine_to_accuracy", "mc_crosscheck")
METRICS = ("pass_s", "setup_s", "peak_rss_mb", "moment_err_max", "density_err_max")


def perfbench_summary(parent: Path, change: Path, stages) -> dict:
    """Medians of the end-to-end metrics per workload, and the ``stages``
    of one traced run per side."""
    out = {}
    for wl in WORKLOADS:
        sides = {}
        for side, where in (("parent", parent), ("change", change)):
            sides[side] = [json.loads(p.read_text()) for p in sorted(where.glob(f"{wl}-*.json"))]
        runs = {side: [r["metrics"] for r in res if not r["trace"]] for side, res in sides.items()}
        traced = {side: [r["per_layer"] for r in res if r["trace"]] for side, res in sides.items()}
        if not runs["parent"]:
            continue
        entry = {"runs": len(runs["parent"])}
        for name in METRICS:
            par = [r[name] for r in runs["parent"]]
            chg = [r[name] for r in runs["change"]]
            q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0],) * 3
            entry[name] = {
                "parent_median": statistics.median(par),
                "change_median": statistics.median(chg),
                "parent_iqr": q3 - q1,
                "change_lower_in_pairs": sum(c < p for p, c in zip(par, chg)),
            }
        if traced["parent"] and traced["change"]:
            # one traced run per side: median stage times of its traced passes
            entry["traced_stages_s"] = {
                name: {side: traced[side][0][name] for side in ("parent", "change")}
                for name in stages
            }
        out[wl] = entry
    return out
