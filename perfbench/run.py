#!/usr/bin/env python3
"""Pipeline benchmark for expfun.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  A
run is one sequential caller (a closed loop): it repeats passes over the
workload's items until the next pass would end more than half a pass after
``--seconds`` (at least ``MIN_PASSES`` passes), with ``EXPFUN_THREADS`` set to the
program's default pool size, at most the number of usable cores.
``--workload all`` runs every workload, each in its own fresh process.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate between traced
and untraced and the metrics are the per-layer ones (self times from the
traced passes, see ``spans.py``).  Every run also writes a result file,
and a traced run its spans, under ``perfbench/_work/results/``.

End-to-end metrics (every workload), in the JSON line:
  setup_s          median wall time of ``import expfun.cli`` in a fresh
                   interpreter, over SETUP_REPEATS interpreters
  pass_s           median wall time of one pass (program calls only)
  moment_err_max   max relative error of E[I^n], n <= 5, against
                   ``positive_moments``
  density_err_max  sup error against the closed-form laws
  peak_rss_mb      peak resident set size of the workload's process
Printed and stored only, because they are undefined on some workloads, zero,
or random in the seed: pass_s_tail (the highest percentile of pass times
with ten passes above it; needs at least 21 passes for a percentile above
the median), tta_s and cells_to_accuracy (refine), residual_max (validate),
ks_ratio_max (mc) and failed_fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

MIN_PASSES = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # passes that must lie above the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "moment_err_max": "1",
    "density_err_max": "1",
    "peak_rss_mb": "MB",
}
REPORTED = {
    "pass_s_tail": "s",
    "tta_s": "s",
    "cells_to_accuracy": "cells",
    "residual_max": "1",
    "ks_ratio_max": "1",
    "failed_fraction": "1",
}
STAGE_SPLIT = ("kernel_weights", "residual")
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.expfun_s": "s",
    "solver.residual_s": "s",
    "solver.residual.total_s": "s",
    "solver.residual.probes": "count",
    "solver.residual.segments": "count",
    **{f"numerics.integrate_cells_s.{s}": "s" for s in STAGE_SPLIT},
    **{f"numerics.integrate_cells.segments.{s}": "count" for s in STAGE_SPLIT},
    **{f"numerics.integrate_s.{s}": "s" for s in STAGE_SPLIT},
    **{f"numerics.fallbacks.{s}": "count" for s in STAGE_SPLIT},
    **{f"tails.tail_many_s.{s}": "s" for s in STAGE_SPLIT + ("inverse_tail", "other")},
    **{f"tails.tail_many.points.{s}": "count" for s in STAGE_SPLIT + ("inverse_tail", "other")},
    "solver.kernel_weights_s": "s",
    "solver.kernel_weights.total_s": "s",
    "solver.kernel_weights.cells": "count",
    "solver.kernel_weights.err_max": "1",
    "parallel.workers": "count",
    "backend.sweep_s": "s",
    "backend.sweep.madds": "count",
    "solver.solve_self_s": "s",
    "solver.build_grid_s": "s",
    "model.positive_moments_s": "s",
    "model.laplace_exponent_s": "s",
    "model.negative_moment_s": "s",
    "validation.checks_s": "s",
    "cli.main_self_s": "s",
    "cli.outputs_s": "s",
    "cli.bytes_out": "bytes",
    "tails.inverse_tail_s": "s",
    "tails.inverse_tail.total_s": "s",
    "mc.simulate_s": "s",
    "mc.ks_s": "s",
    "mc.samples": "count",
    "mc.jumps": "count",
    "mc.jumps_per_sample": "1/sample",
    "warnings": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.special
t2 = time.perf_counter()
import expfun.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, t3 - t0]))
"""


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["EXPFUN_THREADS"] = str(threads)
    return env


def measure_setup(threads: int) -> list[list[float]]:
    """Import timings (numpy, scipy.special, rest of expfun.cli, total) of
    SETUP_REPEATS fresh interpreters, run one after another."""
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=child_env(threads),
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return runs


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(ef, threads: int) -> dict:
    import numpy
    import scipy

    from expfun import parallel

    return {
        "nproc": usable_cores(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": ef.BACKEND,
        "worker_count": parallel.worker_count(),
        "EXPFUN_THREADS": threads,
        "git_commit": git_commit(),
    }


def tail_of(times: list[float]) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    passes above it (nearest rank); None when that percentile would not
    lie above the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return None, None
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_item(wl, tracer, item, pass_idx, traced):
    """Prepare, run (timed, maybe traced) and check one item."""
    rec = {"item": item, "pass": pass_idx, "ok": True}
    wl.prepare(item, pass_idx)
    if tracer is not None:
        tracer.item = f"{pass_idx}:{item}"
    raw = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            raw = wl.run(item, pass_idx)
        except Exception as exc:  # one bad item must not end the run
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            rec["traceback"] = traceback.format_exc(limit=4)
        finally:
            rec["run_s"] = perf_counter() - t0
            if traced:
                tracer.uninstall()
    rec["warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if raw is not None:
        try:
            rec.update(wl.check(item, raw))
        except Exception as exc:
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return rec


def summarize(workload, records, pass_times) -> dict:
    """End-to-end and reported metrics from the untraced passes."""
    ok = [r for r in records if r["ok"]]

    def biggest(key):
        vals = [r[key] for r in ok if r.get(key) is not None]
        return max(vals) if vals else None

    by_pass: dict[int, list[dict]] = {}
    for r in ok:
        by_pass.setdefault(r["pass"], []).append(r)
    out = {
        "pass_s": statistics.median(pass_times),
        "moment_err_max": biggest("moment_err"),
        "density_err_max": biggest("density_err"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["pass_s_tail"], out["pass_s_tail_percentile"] = tail_of(pass_times)
    if workload == "validate_recipes":
        out["residual_max"] = biggest("residual")
    if workload == "refine_to_accuracy":
        out["tta_s"] = statistics.median(
            sum(r["tta_s"] for r in rs) for rs in by_pass.values()
        ) if by_pass else None
        out["cells_to_accuracy"] = max(
            (sum(r["cells"] for r in rs) for rs in by_pass.values()), default=None
        )
    if workload == "mc_crosscheck":
        out["ks_ratio_max"] = statistics.median(
            max(r["ks_ratio"] for r in rs) for rs in by_pass.values()
        ) if by_pass else None
    return out


def per_layer(tracer, traced_passes, records, setup_runs, untraced_times, workers):
    """Per-layer metrics (medians over the traced passes) and the span
    table of each traced pass."""
    from spans import layer_metrics

    spans_by_pass: dict[int, list] = {p: [] for p in traced_passes}
    for s in tracer.spans:
        p = int(s.item.split(":", 1)[0])
        if p in spans_by_pass:
            spans_by_pass[p].append(s)
    per_pass = []
    tables = {}
    for p, spans in spans_by_pass.items():
        m, tables[p] = layer_metrics(spans)
        recs = [r for r in records if r["pass"] == p]
        m["warnings"] = sum(r["warnings"] for r in recs)
        m["cli.bytes_out"] = sum(r.get("bytes_out", 0) for r in recs)
        m["trace.pass_s"] = sum(r["run_s"] for r in recs)
        if m.get("mc.samples"):
            m["mc.jumps_per_sample"] = m.get("mc.jumps", 0) / m["mc.samples"]
        per_pass.append(m)
    out = {}
    for name in PER_LAYER:
        vals = [m.get(name, 0.0) for m in per_pass]
        out[name] = statistics.median(vals) if vals else 0.0
    out["import.numpy_s"] = statistics.median(r[0] for r in setup_runs)
    out["import.scipy_s"] = statistics.median(r[1] for r in setup_runs)
    out["import.expfun_s"] = statistics.median(r[2] for r in setup_runs)
    out["parallel.workers"] = workers
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(untraced_times)
    return out, tables


def run_workload(args) -> int:
    if not (ROOT / "src" / "expfun" / "__init__.py").is_file() or not (ROOT / "recipes").is_dir():
        print(f"perfbench: no expfun sources under {ROOT}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    threads = min(4, usable_cores())  # the program's own default pool size
    os.environ["EXPFUN_THREADS"] = str(threads)
    setup_runs = measure_setup(threads)

    sys.path.insert(0, str(ROOT / "src"))
    import expfun as ef
    from spans import Tracer

    work = WORK / f"run-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](ef, ROOT, work, args.seed)
    tracer = Tracer() if args.trace else None
    order = wl.items()
    shuffle = random.Random(args.seed)

    records, untraced_times, traced_times, traced_passes, walls = [], [], [], [], []
    t_start = perf_counter()
    pass_idx = 0
    try:
        while True:
            elapsed = perf_counter() - t_start
            # start a pass only if it is due to end less than half a pass
            # past the deadline, so runs end near --seconds on average
            if pass_idx >= MIN_PASSES and elapsed + statistics.mean(walls) / 2 > args.seconds:
                break
            traced = bool(args.trace) and pass_idx % 2 == 0
            shuffle.shuffle(order)
            recs = [run_item(wl, tracer, item, pass_idx, traced) for item in order]
            records.extend(recs)
            (traced_times if traced else untraced_times).append(sum(r["run_s"] for r in recs))
            if traced:
                traced_passes.append(pass_idx)
            walls.append(perf_counter() - t_start - elapsed)
            pass_idx += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests: dict[str, set] = {}
    for r in records:
        if r.get("digest"):
            digests.setdefault(r["item"], set()).add(r["digest"])
    unstable = sorted(item for item, d in digests.items() if len(d) > 1)
    failed = sum(not r["ok"] for r in records)
    metrics = summarize(args.workload, [r for r in records if r["pass"] not in traced_passes],
                        untraced_times)
    metrics["setup_s"] = statistics.median(r[3] for r in setup_runs)
    metrics["failed_fraction"] = failed / len(records)
    machine = machine_info(ef, threads)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_runs": setup_runs,
        "untraced_pass_s": untraced_times,
        "traced_pass_s": traced_times,
        "metrics": metrics,
        "density_sha256": {k: sorted(v) for k, v in digests.items()},
        "unstable_digests": unstable,
        "items": records,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers, tables = per_layer(tracer, traced_passes, records, setup_runs, untraced_times,
                                   machine["worker_count"])
        result["per_layer"] = layers
        result["span_table"] = tables
        tracer.write(results_dir / f"{stem}.spans.jsonl.gz", t_start)
        result["spans_file"] = f"{stem}.spans.jsonl.gz"
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("machine: " + json.dumps(machine))
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['item']} (pass {r['pass']}): {r['error']}")
    for item in unstable:
        print(f"FAILED {item}: density differs between passes")
    n_untraced = len(untraced_times)
    notes = {
        "pass_s": f"median of {n_untraced} passes",
        "pass_s_tail": (
            f"p{metrics['pass_s_tail_percentile']:g} of {n_untraced} passes"
            if metrics["pass_s_tail"] is not None
            else f"needs {2 * TAIL_BEYOND + 1} passes, ran {n_untraced}"
        ),
        "setup_s": f"median of {SETUP_REPEATS} interpreters",
        "failed_fraction": f"{failed} of {len(records)} items",
    }
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name in metrics:
            val = metrics[name]
            shown = "n/a" if val is None else f"{val:.6g}"
            print(f"{args.workload:<20} {name:<18} {shown:>14} {unit:<6} {notes.get(name, '')}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{args.workload:<20} {name:<42} {layers[name]:>14.6g} {unit}")

    chosen = layers if args.trace else metrics
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": failed == 0 and not unstable,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
