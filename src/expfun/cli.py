"""Command line front end.

Subcommands: solve, validate, moments, transform, mc.  Models come from a
JSON file ({"drift": c, "kill": q, "tail": {"variant": ..., ...}}); every
command writes CSV tables (and SVG plots with --plot) into --out.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures,
4 failed validation checks.  Errors print one machine-readable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ExpfunError, InsufficientGrid, SpecFileError
from .mc import ks_distance, simulate
from .model import (
    SubordinatorSpec,
    class_index,
    dual_sn,
    load_spec,
    positive_moments,
    rho_tilt,
    save_spec,
)
from .reference import dual_transform
from .solver import build_grid, residual, solve
from .svgplot import plot_lines
from .validation import (
    ValidationReport,
    moment_agreement_check,
    q_positive_limit_check,
    small_x_ratio_check,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


@dataclass
class RunConfig:
    command: str
    spec_path: Path
    delta: float = 0.998
    n_cells: int = 4500
    x_max: Optional[float] = None
    out_dir: Path = Path(".")
    plot: bool = False
    mc_samples: int = 100000
    seed: int = 0
    cutoff: Optional[float] = None
    probes: int = 64
    orders: int = 5
    rho: Optional[float] = None
    dual: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise SpecFileError("--delta must lie in (0, 1)")
        if self.n_cells < 10:
            raise SpecFileError("--cells must be at least 10")
        if self.x_max is not None and self.x_max <= 0:
            raise SpecFileError("--xmax must be positive")
        if self.mc_samples < 1:
            raise SpecFileError("--mc-samples must be positive")
        if self.probes < 8:
            raise SpecFileError("--probes must be at least 8")
        if self.orders < 1:
            raise SpecFileError("--orders must be at least 1")
        if self.cutoff is not None and self.cutoff < 0:
            raise SpecFileError("--cutoff must be nonnegative")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="expfun",
        description="Densities of exponential functionals of killed subordinators",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="model-spec JSON file")
        p.add_argument("--delta", type=float, default=0.998, help="grid ratio in (0,1)")
        p.add_argument("--cells", type=int, default=4500, help="number of grid cells")
        p.add_argument("--xmax", type=float, default=None, help="truncation override (drift 0 only)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--plot", action="store_true", help="also write SVG plots")
        p.add_argument("--probes", type=int, default=64, help="probe count for checks")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--mc-samples", type=int, default=100000, help="Monte-Carlo sample count")
        p.add_argument("--cutoff", type=float, default=None, help="small-jump cutoff (default: automatic)")

    p_solve = sub.add_parser("solve", help="solve for the density")
    common(p_solve)
    p_val = sub.add_parser("validate", help="solve and run validation checks")
    common(p_val)
    p_mom = sub.add_parser("moments", help="moment recursion table")
    common(p_mom)
    p_mom.add_argument("--orders", type=int, default=5, help="highest moment order")
    p_tr = sub.add_parser("transform", help="power tilt or spectrally negative dual")
    common(p_tr)
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, default=None, help="tilt exponent")
    group.add_argument("--dual", action="store_true", help="dual transform")
    p_mc = sub.add_parser("mc", help="simulate and compare against the solver")
    common(p_mc)
    return top


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        spec_path=Path(args.spec),
        delta=args.delta,
        n_cells=args.cells,
        x_max=args.xmax,
        out_dir=Path(args.out),
        plot=args.plot,
        mc_samples=args.mc_samples,
        seed=args.seed,
        cutoff=args.cutoff,
        probes=args.probes,
        orders=getattr(args, "orders", 5),
        rho=getattr(args, "rho", None),
        dual=getattr(args, "dual", False),
    )


def _solve_pipeline(cfg: RunConfig, spec: SubordinatorSpec):
    grid = build_grid(spec, cfg.delta, cfg.n_cells, x_max_override=cfg.x_max)
    return grid, solve(spec, grid)


def _write_summary(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _density_outputs(cfg: RunConfig, spec, grid, density, res, prefix="density"):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / f"{prefix}.csv"
    density.to_csv(csv_path)
    lines = [
        f"spec: {json.dumps(spec.to_dict(), sort_keys=True)}",
        f"grid: delta={grid.delta:g} cells={grid.n_cells} x_max={grid.x_max:.12g} "
        f"x0={grid.x0:.12g}",
        f"upper-tail bound: {grid.tail_bound:.3g}",
        f"covered mass: {density.covered_mass:.12g}",
        f"left-gap mass bound: {density.left_gap_mass_bound:.12g}",
        f"top zero cells: {density.top_zero_cells}",
        f"equation residual ({cfg.probes} probes): {res:.6g}",
    ]
    _write_summary(cfg.out_dir / "summary.txt", lines)
    if cfg.plot:
        mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        plot_lines(
            cfg.out_dir / f"{prefix}.svg",
            [(mids, density.heights, "solved density")],
            title="density of the exponential functional",
            xlabel="x",
            ylabel="k(x)",
        )
    return csv_path


def cmd_solve(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path)
    grid, density = _solve_pipeline(cfg, spec)
    res = residual(spec, density, n_probes=cfg.probes)
    _density_outputs(cfg, spec, grid, density, res)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path)
    grid, density = _solve_pipeline(cfg, spec)
    res = residual(spec, density, n_probes=cfg.probes)
    _density_outputs(cfg, spec, grid, density, res)

    reports: list[ValidationReport] = []
    # the scheme is first order: moments carry a bias ~ n(n+1)L/4
    moment_threshold = max(5e-3, 10.0 * grid.log_step)
    reports.append(moment_agreement_check(spec, density, threshold=moment_threshold))
    ratio_report = None
    try:
        if spec.kill > 0:
            ratio_report = q_positive_limit_check(spec, density)
        else:
            alpha, _ = class_index(spec.tail)
            if np.isfinite(alpha):
                ratio_report = small_x_ratio_check(spec, density, threshold=0.02)
    except InsufficientGrid as exc:
        print(f"[SKIP] limit check: {exc}")
    if ratio_report is not None:
        reports.append(ratio_report)
        ratio_report.to_csv(cfg.out_dir / "ratio.csv")
        if cfg.plot:
            plot_lines(
                cfg.out_dir / "ratio.svg",
                [
                    (ratio_report.probes, ratio_report.measured, "measured"),
                    (ratio_report.probes, ratio_report.oracle, "limit"),
                ],
                title=ratio_report.name,
                xlabel="extrapolation variable",
                ylabel="ratio",
                logx=True,
            )

    with open(cfg.out_dir / "validation.csv", "w") as fh:
        fh.write("check,probe,measured,oracle\n")
        for rep in reports:
            for p, m, o in zip(rep.probes, rep.measured, rep.oracle):
                fh.write(f"{rep.name},{p:.12g},{m:.12g},{o:.12g}\n")
    for rep in reports:
        print(rep.summary())
    return 0 if all(r.passed for r in reports) else EXIT_VALIDATION


def cmd_moments(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path)
    ms = positive_moments(spec, cfg.orders)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "moments.csv"
    with open(path, "w") as fh:
        fh.write("order,value,provenance\n")
        for entry in ms.entries:
            fh.write(f"{entry.order:g},{entry.value:.12g},{entry.provenance}\n")
    for entry in ms.entries:
        print(f"E[I^{entry.order:g}] = {entry.value:.12g}")
    return 0


def cmd_transform(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.rho is not None:
        tilted = rho_tilt(spec, cfg.rho)
        save_spec(tilted, cfg.out_dir / "tilted_spec.json")
        grid = build_grid(tilted, cfg.delta, cfg.n_cells, x_max_override=cfg.x_max)
        density = solve(tilted, grid)
        res = residual(tilted, density, n_probes=cfg.probes)
        _density_outputs(cfg, tilted, grid, density, res, prefix="tilted_density")
        return 0
    grid, density = _solve_pipeline(cfg, spec)
    psi, qstar = dual_sn(spec)
    k_dual = dual_transform(density, qstar)
    xs = np.geomspace(1.05 / grid.x_max, 0.95 / grid.x0, 512)
    vals = k_dual(xs)
    with open(cfg.out_dir / "dual_density.csv", "w") as fh:
        fh.write("x,k\n")
        for x, k in zip(xs, vals):
            fh.write(f"{x:.12g},{k:.12g}\n")
    lines = [
        f"spec: {json.dumps(spec.to_dict(), sort_keys=True)}",
        f"qstar: {qstar:.12g}",
    ]
    for lam in (0.5, 1.0, 2.0, 4.0):
        lines.append(f"psi({lam:g}) = {psi(lam):.12g}")
    _write_summary(cfg.out_dir / "dual_summary.txt", lines)
    if cfg.plot:
        plot_lines(
            cfg.out_dir / "dual_density.svg",
            [(xs, vals, "dual density")],
            title="density of the dual exponential functional",
            xlabel="x",
            ylabel="k(x)",
            logx=True,
        )
    return 0


def cmd_mc(cfg: RunConfig) -> int:
    spec = load_spec(cfg.spec_path)
    grid, density = _solve_pipeline(cfg, spec)
    samples = simulate(spec, cfg.mc_samples, cfg.seed, cutoff=cfg.cutoff)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    samples.to_csv(cfg.out_dir / "samples.csv")
    ks = ks_distance(samples, density)
    lines = [
        f"samples: {cfg.mc_samples} seed: {cfg.seed} cutoff: {samples.cutoff:.6g}",
        f"KS statistic: {ks.statistic:.6g}",
        f"band (5% level): {ks.band:.6g}",
        f"discretisation slack: {ks.slack:.6g}",
        f"pass: {ks.passed}",
    ]
    _write_summary(cfg.out_dir / "ks_report.txt", lines)
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
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except SpecFileError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except ExpfunError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
