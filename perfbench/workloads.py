"""The three benchmark workloads.

Each workload is a list of items (recipe names) and three steps per item:
``prepare`` (untimed), ``run`` (the program calls; the caller times it and
may trace it) and ``check`` (untimed: reads the outputs, compares them with
the closed-form laws and raises ``ItemFailed`` when an output is wrong).

* ``validate_recipes``: every ``recipes/*.json`` through
  ``expfun.cli.main(["validate", ..., "--plot"])`` at the CLI default grid,
  the command README users run.  Loads ``solver.residual``.
* ``refine_to_accuracy``: the five recipes with an independent oracle,
  solved on N = 4500 * 2**k cells over the default log-span until the
  moment error is at most ``REFINE_TARGET``: the time to accuracy.  Loads
  the sweep and ``kernel_weights``; never calls ``residual`` or ``mc``.
* ``mc_crosscheck``: default-grid solve, ``simulate`` and ``ks_distance``
  for five recipes covering every jump-sampling path.  Loads
  ``tails.inverse_tail`` and ``mc``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

DEFAULT_DELTA = 0.998  # the CLI default grid
DEFAULT_CELLS = 4500
MOMENT_ORDERS = 5
MASS_TOL = 1e-9  # covered + gap mass must be 1 to rounding
REFINE_TARGET = 2e-3  # max relative moment error, n <= 5
REFINE_MAX_CELLS = 72000
MC_SAMPLES = 5000


class ItemFailed(Exception):
    """An item ran but its outputs are wrong or incomplete."""


def reference_law(ef, spec):
    """The closed-form law of a recipe, or None when it has no density."""
    tail = spec.tail
    law = None
    if isinstance(tail, ef.ZeroTail) and spec.drift > 0 and spec.kill > 0:
        law = ef.killed_drift_law(spec.drift, spec.kill)
    elif isinstance(tail, ef.GammaExpTail) and spec.drift == 0 and spec.kill == 0:
        law = ef.powered_gamma_law(tail.a, tail.s, tail.beta)
    elif isinstance(tail, ef.LampertiKilledTail) and spec.drift == 0:
        law = ef.lamperti_killed_law(tail.a, tail.beta)
    return law if law is not None and law.density is not None else None


def density_error(ef, spec, xs, heights):
    """Sup distance between step heights at cell midpoints and the
    closed-form density, top 1% of cells excluded when the drift bounds
    the support (the rule of ``validation.compare_to_reference``)."""
    law = reference_law(ef, spec)
    if law is None:
        return None
    keep = int(0.99 * xs.size) if spec.drift > 0 else xs.size
    return float(np.max(np.abs(heights[:keep] - law.density(xs[:keep]))))


def check_heights(heights, n_cells):
    if heights.shape != (n_cells,):
        raise ItemFailed(f"density has {heights.size} heights, grid has {n_cells} cells")
    if not np.all(np.isfinite(heights)):
        raise ItemFailed("density has non-finite heights")
    if np.any(heights < 0):
        raise ItemFailed("density has negative heights")


def check_mass(covered, gap):
    if abs(covered + gap - 1.0) > MASS_TOL:
        raise ItemFailed(f"covered + gap mass = {covered + gap!r}, not 1")


def check_density(ef, spec, density):
    """Checks shared by the workloads that hold a StepDensity; returns the
    accuracy figures and the SHA-256 of the heights."""
    grid = density.grid
    check_heights(density.heights, grid.n_cells)
    check_mass(density.covered_mass, density.left_gap_mass_bound)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    moment = ef.moment_agreement_check(spec, density, n_max=MOMENT_ORDERS).statistic
    return {
        "moment_err": moment,
        "density_err": density_error(ef, spec, mids, density.heights),
        "digest": hashlib.sha256(density.heights.tobytes()).hexdigest(),
    }


class Workload:
    name = ""

    def __init__(self, ef, root: Path, work: Path, seed: int):
        self.ef = ef
        self.root = root
        self.work = work
        self.seed = seed
        self.recipes = {p.stem: p for p in sorted((root / "recipes").glob("*.json"))}

    def items(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, item, pass_idx):
        return None

    def run(self, item, pass_idx):
        raise NotImplementedError

    def check(self, item, raw) -> dict:
        raise NotImplementedError

    def spec(self, item):
        return self.ef.load_spec(self.recipes[item])


class ValidateRecipes(Workload):
    name = "validate_recipes"

    def __init__(self, *args):
        super().__init__(*args)
        # imported here, not in the first timed item; the other workloads
        # never import the CLI
        from expfun import cli

        self.cli = cli

    def items(self):
        return list(self.recipes)

    def prepare(self, item, pass_idx):
        out = self.work / "out" / item
        shutil.rmtree(out, ignore_errors=True)

    def run(self, item, pass_idx):
        out = self.work / "out" / item
        argv = ["validate", "--spec", str(self.recipes[item]), "--out", str(out), "--plot"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        return {"rc": rc, "out": out}

    def check(self, item, raw):
        if raw["rc"] != 0:
            raise ItemFailed(f"expfun validate exited with code {raw['rc']}")
        out = raw["out"]
        summary = {}
        for line in (out / "summary.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            summary[key] = value
        n_cells = int(summary["grid"].split("cells=")[1].split()[0])
        residual = float(summary[next(k for k in summary if k.startswith("equation residual"))])
        check_mass(float(summary["covered mass"]), float(summary["left-gap mass bound"]))

        raw_csv = (out / "density.csv").read_bytes()
        rows = raw_csv.decode().splitlines()
        if rows[0] != "x,k":
            raise ItemFailed(f"density.csv header is {rows[0]!r}")
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).reshape(-1, 2)
        check_heights(table[:, 1], n_cells)

        moment_err = 0.0
        for line in (out / "validation.csv").read_text().splitlines()[1:]:
            check, _, measured, oracle = line.rsplit(",", 3)
            if check.startswith("moment agreement"):
                moment_err = max(moment_err, abs(float(measured) / float(oracle) - 1.0))
        return {
            "moment_err": moment_err,
            "density_err": density_error(self.ef, self.spec(item), table[:, 0], table[:, 1]),
            "residual": residual,
            "digest": hashlib.sha256(raw_csv).hexdigest(),
            "bytes_out": sum(p.stat().st_size for p in out.iterdir()),
        }


class RefineToAccuracy(Workload):
    name = "refine_to_accuracy"
    ITEMS = (
        "powered_gamma_a1",
        "powered_gamma_a_half",
        "lamperti_killed",
        "stable_with_drift",
        "stretched_exp_n1",
    )

    def items(self):
        return list(self.ITEMS)

    def run(self, item, pass_idx):
        ef = self.ef
        spec = self.spec(item)
        span = DEFAULT_CELLS * -math.log(DEFAULT_DELTA)
        rungs = []
        n = DEFAULT_CELLS
        while n <= REFINE_MAX_CELLS:
            t0 = perf_counter()
            grid = ef.build_grid(spec, math.exp(-span / n), n)
            weights = ef.kernel_weights(spec, grid)
            density = ef.solve(spec, grid, weights)
            solve_s = perf_counter() - t0
            err = ef.moment_agreement_check(spec, density, n_max=MOMENT_ORDERS).statistic
            rungs.append({"cells": n, "solve_s": solve_s, "moment_err": err})
            if err <= REFINE_TARGET:
                break
            n *= 2
        return {"spec": spec, "density": density, "rungs": rungs}

    def check(self, item, raw):
        last = raw["rungs"][-1]
        if last["moment_err"] > REFINE_TARGET:
            raise ItemFailed(
                f"moment error {last['moment_err']:.3g} above {REFINE_TARGET:g} "
                f"at N = {last['cells']}"
            )
        res = check_density(self.ef, raw["spec"], raw["density"])
        res["tta_s"] = last["solve_s"]
        res["cells"] = last["cells"]
        res["rungs"] = raw["rungs"]
        return res


class McCrosscheck(Workload):
    name = "mc_crosscheck"
    ITEMS = (
        "powered_gamma_a_half",  # generic bisection inverse_tail, with a cutoff
        "stretched_exp_n1",  # gammainccinv
        "powered_gamma_a1",  # closed-form inverse, exact paths
        "stable_with_drift",  # closed-form inverse, with a cutoff
        "lamperti_killed",  # killed: a single round
    )

    def items(self):
        return list(self.ITEMS)

    def sim_seed(self, item, pass_idx) -> int:
        """The seed handed to ``simulate``, derived from the benchmark seed."""
        key = [self.seed, pass_idx, self.ITEMS.index(item)]
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    def run(self, item, pass_idx):
        ef = self.ef
        spec = self.spec(item)
        grid = ef.build_grid(spec, DEFAULT_DELTA, DEFAULT_CELLS)
        density = ef.solve(spec, grid)
        seed = self.sim_seed(item, pass_idx)
        samples = ef.simulate(spec, MC_SAMPLES, seed)
        ks = ef.ks_distance(samples, density)
        return {"spec": spec, "density": density, "ks": ks, "seed": seed}

    def check(self, item, raw):
        ks = raw["ks"]
        res = check_density(self.ef, raw["spec"], raw["density"])
        res["ks_ratio"] = ks.statistic / (ks.band + ks.slack)
        res["sim_seed"] = raw["seed"]
        if not ks.passed:
            raise ItemFailed(
                f"KS statistic {ks.statistic:.4g} above band {ks.band:.4g} + slack {ks.slack:.4g}"
            )
        return res


WORKLOADS = {w.name: w for w in (ValidateRecipes, RefineToAccuracy, McCrosscheck)}
