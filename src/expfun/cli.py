"""Command line front end.

Subcommands: solve, validate, moments, transform, mc.  Models come from a
JSON file ({"drift": c, "kill": q, "tail": {"variant": ..., ...}}); every
command writes its tables into --out, and solve, validate and transform
also write SVG plots with --plot.  Each command accepts only the flags it
reads (``expfun <command> --help``).

Exit codes: 0 success, 2 configuration problems (a bad command line
included), 3 numerical failures, 4 failed validation checks.  Errors print
one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ExpfunError, InsufficientGrid, SpecFileError
from .mc import ks_distance, simulate
from .model import (
    dual_sn,
    load_spec,
    positive_moments,
    rho_tilt,
    save_spec,
)
from .reference import dual_transform
from .solver import build_grid, residual, residual_cell_count, solve
from .svgplot import plot_lines
from .validation import ValidationReport, validate_checks

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


# flag -> (accepts the value, message when it does not); main applies the
# entries whose flag the command has
_RANGES = {
    "delta": (lambda v: 0.0 < v < 1.0, "--delta must lie in (0, 1)"),
    "cells": (lambda v: v >= 10, "--cells must be at least 10"),
    "xmax": (lambda v: v is None or v > 0, "--xmax must be positive"),
    # ks_distance needs 100 samples: fail before the solve and the simulation
    "mc_samples": (lambda v: v >= 100, "--mc-samples must be at least 100"),
    "orders": (lambda v: v >= 1, "--orders must be at least 1"),
    "cutoff": (lambda v: v is None or v >= 0, "--cutoff must be nonnegative"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a SpecFileError, so that it ends like
    every other configuration error, and takes no abbreviated flag;
    subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise SpecFileError(message)


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="expfun",
        description="Densities of exponential functionals of killed subordinators",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary, *flag_groups):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--spec", type=Path, required=True, help="model-spec JSON file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        for add_flags in flag_groups:
            add_flags(p)
        return p

    def grid(p):
        p.add_argument("--delta", type=float, default=0.998, help="grid ratio in (0,1)")
        p.add_argument("--cells", type=int, default=4500, help="number of grid cells")
        p.add_argument("--xmax", type=float, default=None, help="truncation override (drift 0 only)")

    def plot(p):
        p.add_argument("--plot", action="store_true", help="also write SVG plots")

    command("solve", "solve for the density", grid, plot)
    command("validate", "solve and run validation checks", grid, plot)
    p_mom = command("moments", "moment recursion table")
    p_mom.add_argument("--orders", type=int, default=5, help="highest moment order")
    p_tr = command("transform", "power tilt or spectrally negative dual", grid, plot)
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, default=None, help="tilt exponent")
    group.add_argument("--dual", action="store_true", help="dual transform")
    p_mc = command("mc", "simulate and compare against the solver", grid)
    p_mc.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_mc.add_argument("--mc-samples", type=int, default=100000, help="Monte-Carlo sample count")
    p_mc.add_argument("--cutoff", type=float, default=None, help="small-jump cutoff (default: automatic)")
    return top


def _solve(args, spec):
    grid = build_grid(spec, args.delta, args.cells, x_max_override=args.xmax)
    return grid, solve(spec, grid)


def _solve_and_write(args, spec, prefix="density"):
    grid, density = _solve(args, spec)
    res = residual(spec, density)
    _density_outputs(args, spec, grid, density, res, prefix)
    return grid, density


def _write_summary(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _density_outputs(args, spec, grid, density, res, prefix):
    args.out.mkdir(parents=True, exist_ok=True)
    density.to_csv(args.out / f"{prefix}.csv")
    lines = [
        f"spec: {json.dumps(spec.to_dict(), sort_keys=True)}",
        f"grid: delta={grid.delta:g} cells={grid.n_cells} x_max={grid.x_max:.12g} "
        f"x0={grid.x0:.12g}",
        f"upper-tail bound: {grid.tail_bound:.3g}",
        f"covered mass: {density.covered_mass:.12g}",
        f"left-gap mass bound: {density.left_gap_mass_bound:.12g}",
        f"top zero cells: {density.top_zero_cells}",
        f"equation residual ({residual_cell_count(grid)} cells): {res:.6g}",
    ]
    _write_summary(args.out / "summary.txt", lines)
    if args.plot:
        plot_lines(
            args.out / f"{prefix}.svg",
            [(grid.centres, density.heights, "solved density")],
            title="density of the exponential functional",
            xlabel="x",
            ylabel="k(x)",
        )


def cmd_solve(args) -> int:
    _solve_and_write(args, load_spec(args.spec))
    return 0


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    _, density = _solve_and_write(args, spec)

    reports: dict[str, ValidationReport] = {}
    for name, check in validate_checks(spec, density).items():
        try:
            report = check()
        except InsufficientGrid as exc:
            print(f"[SKIP] {name} check: {exc}")
            continue
        if report is not None:
            reports[name] = report
    ratio_report = reports.get("limit")
    if ratio_report is not None:
        ratio_report.to_csv(args.out / "ratio.csv")
        if args.plot:
            plot_lines(
                args.out / "ratio.svg",
                [
                    (ratio_report.probes, ratio_report.measured, "measured"),
                    (ratio_report.probes, ratio_report.oracle, "limit"),
                ],
                title=ratio_report.name,
                xlabel="extrapolation variable",
                ylabel="ratio",
                logx=True,
            )

    with open(args.out / "validation.csv", "w") as fh:
        fh.write("check,probe,measured,oracle\n")
        for rep in reports.values():
            for p, m, o in zip(rep.probes, rep.measured, rep.oracle):
                fh.write(f"{rep.name},{p:.12g},{m:.12g},{o:.12g}\n")
    for rep in reports.values():
        print(rep.summary())
    return 0 if all(r.passed for r in reports.values()) else EXIT_VALIDATION


def cmd_moments(args) -> int:
    spec = load_spec(args.spec)
    ms = positive_moments(spec, args.orders)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "moments.csv"
    with open(path, "w") as fh:
        fh.write("order,value,provenance\n")
        for entry in ms.entries:
            fh.write(f"{entry.order:g},{entry.value:.12g},{entry.provenance}\n")
    for entry in ms.entries:
        print(f"E[I^{entry.order:g}] = {entry.value:.12g}")
    return 0


def cmd_transform(args) -> int:
    spec = load_spec(args.spec)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.rho is not None:
        tilted = rho_tilt(spec, args.rho)
        save_spec(tilted, args.out / "tilted_spec.json")
        _solve_and_write(args, tilted, prefix="tilted_density")
        return 0
    grid, density = _solve(args, spec)
    psi, qstar = dual_sn(spec)
    k_dual = dual_transform(density, qstar)
    xs = np.geomspace(1.05 / grid.x_max, 0.95 / grid.x0, 512)
    vals = k_dual(xs)
    with open(args.out / "dual_density.csv", "w") as fh:
        fh.write("x,k\n")
        for x, k in zip(xs, vals):
            fh.write(f"{x:.12g},{k:.12g}\n")
    lines = [
        f"spec: {json.dumps(spec.to_dict(), sort_keys=True)}",
        f"qstar: {qstar:.12g}",
    ]
    for lam in (0.5, 1.0, 2.0, 4.0):
        lines.append(f"psi({lam:g}) = {psi(lam):.12g}")
    _write_summary(args.out / "dual_summary.txt", lines)
    if args.plot:
        plot_lines(
            args.out / "dual_density.svg",
            [(xs, vals, "dual density")],
            title="density of the dual exponential functional",
            xlabel="x",
            ylabel="k(x)",
            logx=True,
        )
    return 0


def cmd_mc(args) -> int:
    spec = load_spec(args.spec)
    _, density = _solve(args, spec)
    samples = simulate(spec, args.mc_samples, args.seed, cutoff=args.cutoff)
    args.out.mkdir(parents=True, exist_ok=True)
    samples.to_csv(args.out / "samples.csv")
    ks = ks_distance(samples, density)
    lines = [
        f"samples: {args.mc_samples} seed: {args.seed} cutoff: {samples.cutoff:.6g}",
        f"KS statistic: {ks.statistic:.6g}",
        f"band (5% level): {ks.band:.6g}",
        f"discretisation slack: {ks.slack:.6g}",
        f"pass: {ks.passed}",
    ]
    _write_summary(args.out / "ks_report.txt", lines)
    print("\n".join(lines))
    return 0 if ks.passed else EXIT_VALIDATION


_COMMANDS = {
    "solve": cmd_solve,
    "validate": cmd_validate,
    "moments": cmd_moments,
    "transform": cmd_transform,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        for dest, (ok, message) in _RANGES.items():
            if hasattr(args, dest) and not ok(getattr(args, dest)):
                raise SpecFileError(message)
        return _COMMANDS[args.command](args)
    except SystemExit:  # only --help exits: a bad command line raises SpecFileError
        return 0
    except ExpfunError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, SpecFileError) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
