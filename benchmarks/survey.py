"""Solve 300 random valid specs and report which solve, which fail and how.

The specs are drawn from ``numpy.random.default_rng(0)``, each in this
order: a family, uniform over five (``rng.integers(5)``),

* ``StableTail(a ~ U(0.05, 0.95))``,
* ``GammaExpTail(a ~ U(0.05, 1), s = a + U(0, 3), beta ~ U(0.1, 5))``,
* ``CompoundPoissonExpTail(rate ~ U(0.1, 5), decay ~ U(0.2, 5))``,
* ``LampertiKilledTail(a ~ U(0.05, 0.95), beta = a + U(0.01, 5))``,
* ``StretchedExpTail(b ~ U(0.05, 1.95), n in {1, 2, 3})``,

then the drift c (0 with probability 1/2, else U(0.1, 2)) and the kill
rate q (0 with probability 1/2, else U(0.05, 2)).

Each spec runs ``build_grid(spec, 0.998, 4500)``, ``kernel_weights`` and
``solve`` with RuntimeWarnings raised as errors.  A solve counts when its
heights are finite and non-negative and its mass is 1 to 1e-9; then
``residual`` runs, and the survey records whether it is finite.  Each
solved spec then runs the checks of ``expfun validate`` (the moment
agreement, and the q > 0 limit or, for a finite decay index, the small-x
ratio law) and, for q = 0, the dual's large-x ratio law, still with
RuntimeWarnings as errors.  ``--scale k`` reruns the specs that failed on
the default grid at k times the cells over the same span
(``delta = 0.998**(1/k)``).

    python benchmarks/survey.py [--scale K]

prints one JSON line: solves and failures by family, the error type of
each failure and of each residual that is not finite, the residual of
each solved spec, each check's outcome ("pass", "fail" or the error
type) and the moment check's maximum relative error (None where the
check raised), all keyed by the spec's index in the draw, with the outcomes
counted per check and every error that is not an ``ExpfunError`` listed
under ``untyped``.  Two runs on two versions of the code compare
residuals spec by spec.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import expfun as ef  # noqa: E402

N_SPECS = 300
DELTA = 0.998
CELLS = 4500
FAMILIES = ("stable", "gamma_exp", "compound_poisson_exp", "lamperti_killed", "stretched_exp")


def draw_specs(n=N_SPECS):
    """(family, spec) pairs in the draw order above."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(n):
        family = int(rng.integers(5))
        if family == 0:
            tail = ef.StableTail(rng.uniform(0.05, 0.95))
        elif family == 1:
            a = rng.uniform(0.05, 1)
            tail = ef.GammaExpTail(a, a + rng.uniform(0, 3), rng.uniform(0.1, 5))
        elif family == 2:
            tail = ef.CompoundPoissonExpTail(rng.uniform(0.1, 5), rng.uniform(0.2, 5))
        elif family == 3:
            a = rng.uniform(0.05, 0.95)
            tail = ef.LampertiKilledTail(a, a + rng.uniform(0.01, 5))
        else:
            tail = ef.StretchedExpTail(rng.uniform(0.05, 1.95), int(rng.integers(1, 4)))
        drift = 0.0 if rng.random() < 0.5 else rng.uniform(0.1, 2)
        kill = 0.0 if rng.random() < 0.5 else rng.uniform(0.05, 2)
        out.append((FAMILIES[family], ef.SubordinatorSpec(drift, kill, tail)))
    return out


def check_outcomes(spec, density):
    """({check: "pass", "fail" or the error's type name}, {check: type and
    message of each error that is not an ExpfunError}, the moment check's
    maximum relative error or None) over the checks of ``expfun validate``
    (``expfun.validate_checks``) and, for q = 0, the dual's ratio law."""
    checks = ef.validate_checks(spec, density)
    if spec.kill == 0:
        checks["dual"] = lambda: ef.dual_large_x_check(spec, density)
    out, untyped, moment_error = {}, {}, None
    for name, check in checks.items():
        try:
            report = check()
        except Exception as exc:
            out[name] = type(exc).__name__
            if not isinstance(exc, ef.ExpfunError):
                untyped[name] = f"{type(exc).__name__}: {exc}"
            continue
        if report is not None:
            out[name] = "pass" if report.passed else "fail"
            if name == "moments":
                moment_error = report.statistic
    return out, untyped, moment_error


def run_one(spec, delta, cells):
    """(solve error or None, residual error or None, residual or None,
    :func:`check_outcomes` or None), each error named by its type; an
    untyped exception is a finding, so every one is caught."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            grid = ef.build_grid(spec, delta, cells)
            density = ef.solve(spec, grid, ef.kernel_weights(spec, grid))
        except Exception as exc:
            return type(exc).__name__, None, None, None
        heights = density.heights
        mass = density.covered_mass + density.left_gap_mass_bound
        if not (np.all(np.isfinite(heights)) and np.all(heights >= 0) and abs(mass - 1) <= 1e-9):
            return "InvalidDensity", None, None, None
        try:
            res = ef.residual(spec, density)
        except Exception as exc:
            return None, type(exc).__name__, None, check_outcomes(spec, density)
        residual_error = None if np.isfinite(res) else "NotFinite"
        return None, residual_error, res, check_outcomes(spec, density)


def survey(specs, indices, delta, cells):
    t0 = perf_counter()
    by_family = {f: {"specs": 0, "solved": 0} for f in FAMILIES}
    failures, residual_failures, residuals, checks, untyped = {}, {}, {}, {}, {}
    moment_errors = {}
    counts = {}
    for i in indices:
        family, spec = specs[i]
        by_family[family]["specs"] += 1
        solve_error, residual_error, res, checked = run_one(spec, delta, cells)
        if solve_error is not None:
            failures[i] = solve_error
            continue
        by_family[family]["solved"] += 1
        residuals[i] = res
        checks[i], errors, moment_errors[i] = checked
        if errors:
            untyped[i] = errors
        if residual_error is not None:
            residual_failures[i] = residual_error
        for name, outcome in checks[i].items():
            per_check = counts.setdefault(name, {})
            per_check[outcome] = per_check.get(outcome, 0) + 1
    solved = sum(f["solved"] for f in by_family.values())
    return {
        "cells": cells,
        "delta": delta,
        "specs": len(indices),
        "solved": solved,
        "residual_finite": solved - len(residual_failures),
        "by_family": by_family,
        "failures": failures,
        "residual_failures": residual_failures,
        "residuals": residuals,
        "checks": checks,
        "moment_errors": moment_errors,
        "check_counts": counts,
        "untyped": untyped,
        "seconds": round(perf_counter() - t0, 2),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", type=int, default=None,
                   help="rerun the default-grid failures at this many times the cells")
    args = p.parse_args(argv)
    specs = draw_specs()
    out = survey(specs, range(len(specs)), DELTA, CELLS)
    if args.scale is not None:
        k = args.scale
        out["rerun"] = survey(specs, sorted(out["failures"]), DELTA ** (1.0 / k), CELLS * k)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
