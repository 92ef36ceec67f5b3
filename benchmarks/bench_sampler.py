"""Time the exact jump generators against the tail inverses they replaced and write a BENCH entry.

Two recipes of the ``mc_crosscheck`` workload draw their jumps from an
exact generator: ``stretched_exp_n1`` (``StretchedExpTail`` with b < 1,
powered Gamma draws) and ``powered_gamma_a_half`` (``GammaExpTail`` with
a < 1, the smaller of two closed-form draws).  For each, the script records
the ``sample_restricted`` calls of one ``simulate`` at the workload's sample
count and seed, then replays those calls (same cutoff and sizes, median of
``--repeats`` replays) through every sampler of the tail:

* ``generator``: ``sample_restricted`` as it is now;
* ``gammainccinv``: the closed-form inverse that ``StretchedExpTail`` used
  before, kept here as a reference copy;
* ``newton_inverse``: the safeguarded-Newton ``inverse_tail`` at uniform
  draws, which ``GammaExpTail`` used before and ``StretchedExpTail`` takes
  now when the cutoff is positive.

Each sampler's draws of one replay are pooled for a one-sample KS test
against the restricted law 1 - Pibar(max(z, eps))/Pibar(eps).  Given the
result files of ``perfbench/run.py`` for a parent and a changed tree, the
entry adds the medians of their end-to-end metrics (see ``bench_sweep.py``).

    python benchmarks/bench_sampler.py --out BENCH.json \\
        [--perfbench PARENT_DIR CHANGE_DIR]
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
from bench_sweep import perfbench_summary  # noqa: E402
from run import machine_info  # noqa: E402  (perfbench's machine record)
from scipy.special import gammainccinv  # noqa: E402
from scipy.stats import kstwo  # noqa: E402
from workloads import MC_SAMPLES, McCrosscheck  # noqa: E402

import expfun as ef  # noqa: E402
from expfun import parallel  # noqa: E402
from expfun.tails import LevyTail  # noqa: E402

STAGES = (
    "mc.simulate_s",
    "mc.jumps",
    "tails.inverse_tail.total_s",
    "tails.tail_many.points.inverse_tail",
    "trace.pass_s",
)


def generator(tail, eps, rng, size):
    return tail.sample_restricted(eps, rng, size)


def newton_inverse(tail, eps, rng, size):
    # the default sampler maps uniforms through inverse_tail, which is the
    # safeguarded Newton iteration for both tails here
    return LevyTail.sample_restricted(tail, eps, rng, size)


def gammainccinv_inverse(tail, eps, rng, size):
    """``StretchedExpTail``'s former sampler for b < 1 at eps = 0:
    Pibar(z) = Gamma(s0, z**n)/n = w inverted through ``gammainccinv``."""
    s0 = (1.0 - tail.b) / tail.n
    w = rng.random(size) * tail.total_mass()
    return gammainccinv(s0, w * tail.n / math.gamma(s0)) ** (1.0 / tail.n)


SAMPLERS = {
    "stretched_exp_n1": {
        "generator": generator,
        "gammainccinv": gammainccinv_inverse,
        "newton_inverse": newton_inverse,
    },
    "powered_gamma_a_half": {"generator": generator, "newton_inverse": newton_inverse},
}
# the sampler each tail used before the exact generators
PARENT_SAMPLER = {"stretched_exp_n1": "gammainccinv", "powered_gamma_a_half": "newton_inverse"}


def workload_calls(spec, seed):
    """(eps, size) of every ``sample_restricted`` call one ``simulate`` makes."""
    cls = type(spec.tail)
    original = cls.sample_restricted
    calls = []

    def record(self, eps, rng, size):
        calls.append((eps, size))
        return original(self, eps, rng, size)

    cls.sample_restricted = record
    try:
        ef.simulate(spec, MC_SAMPLES, seed)
    finally:
        cls.sample_restricted = original
    return calls


def replay(sampler, tail, calls):
    draws = [
        sampler(tail, eps, np.random.Generator(np.random.Philox(i)), size)
        for i, (eps, size) in enumerate(calls)
    ]
    return np.concatenate([d.ravel() for d in draws])


def ks_against_restricted_law(tail, eps, x):
    xs = np.sort(x)
    n = xs.size
    base = tail.tail_one(eps) if eps > 0 else tail.total_mass()
    cdf = 1.0 - tail.tail_many(np.maximum(xs, eps)) / base
    i = np.arange(1, n + 1)
    stat = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    return {"statistic": stat, "p_value": float(kstwo.sf(stat, n))}


def sampler_table(repeats: int) -> dict:
    wl = McCrosscheck(ef, ROOT, None, 1)
    table = {}
    for item, samplers in SAMPLERS.items():
        spec = wl.spec(item)
        seed = wl.sim_seed(item, 0)
        calls = workload_calls(spec, seed)
        eps = calls[0][0]
        times = {name: [] for name in samplers}
        for _ in range(repeats):
            for name, sampler in samplers.items():
                t0 = perf_counter()
                x = replay(sampler, spec.tail, calls)
                times[name].append(perf_counter() - t0)
        rows = {}
        for name, sampler in samplers.items():
            x = replay(sampler, spec.tail, calls)
            rows[name] = {
                "time_s": statistics.median(times[name]),
                "times_s": times[name],
                "ks": ks_against_restricted_law(spec.tail, eps, x),
                "finite_above_eps": bool(np.all(np.isfinite(x)) and np.all(x > eps)),
            }
        parent = PARENT_SAMPLER[item]
        table[item] = {
            "tail": spec.tail.to_dict(),
            "cutoff": eps,
            "simulate_samples": MC_SAMPLES,
            "simulate_seed": seed,
            "calls": len(calls),
            "draws": sum(int(np.prod(size)) for _, size in calls),
            "parent_sampler": parent,
            "speedup_over_parent": rows[parent]["time_s"] / rows["generator"]["time_s"],
            "samplers": rows,
        }
        print(item, json.dumps({k: v for k, v in table[item].items() if k != "samplers"}))
        for name, row in rows.items():
            print(f"  {name:<16} {row['time_s']:.4f} s  KS {row['ks']['statistic']:.3g} "
                  f"(p = {row['ks']['p_value']:.3g})", flush=True)
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--perfbench", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = p.parse_args(argv)
    entry = {
        "machine": machine_info(ef, parallel.worker_count()),
        "sampler": sampler_table(args.repeats),
    }
    if args.perfbench:
        entry["perfbench"] = perfbench_summary(*args.perfbench, stages=STAGES)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
