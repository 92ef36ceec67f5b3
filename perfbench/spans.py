"""Span tracing of expfun's public calls, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules
(and a few public methods) with a wrapper that records one span per call:
name, start, end, parent span and the benchmark item it ran for, plus
counts taken from the call's arguments or result.  Because modules import
each other's functions by name, the wrapper is bound wherever the original
object is referenced in any ``expfun`` module.  ``uninstall`` restores the
originals, so untraced passes run the unmodified program.

Spans opened on a worker thread with no open span of their own take the
innermost open span of the main thread as parent (the pool inside
``kernel_weights`` is the only such case).  Self time is a span's duration
minus the union of its children's intervals, so overlapping children on
several threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "cli",
    "model",
    "tails",
    "numerics",
    "solver",
    "backend",
    "validation",
    "mc",
    "svgplot",
)
# public methods worth a span; the rest are constant-time accessors
TRACED_METHODS = {
    "tails": (
        "tail_many",
        "tail_one",
        "inverse_tail",
        "sample_restricted",
        "small_jump_mean",
        "mean_jump",
        "laplace_closed",
    ),
    "solver": ("to_csv",),
    "validation": ("to_csv",),
}
EXTRA_FUNCTIONS = {"cli": ("_density_outputs",)}

# spans that the per-layer counters are split by: the nearest one of these
# among a span's ancestors is its stage
STAGES = ("solver.kernel_weights", "solver.residual", "tails.inverse_tail")
OUTPUT_SPANS = (
    "cli._density_outputs",
    "solver.StepDensity.to_csv",
    "validation.ValidationReport.to_csv",
    "svgplot.plot_lines",
)
VALIDATION_CHECKS = (
    "validation.moment_agreement_check",
    "validation.small_x_ratio_check",
    "validation.q_positive_limit_check",
    "validation.compare_to_reference",
    "validation.dual_large_x_check",
    "validation.tilt_consistency",
    "validation.renewal_check",
)


def _size(x) -> int:
    return int(np.size(x))


def _counts_for(name):
    """Counter taking (args, kwargs, result) to a dict, for the spans
    whose counts feed a per-layer metric."""
    if name == "numerics.integrate_cells":
        return lambda a, k, r: {"segments": _size(a[1] if len(a) > 1 else k["edges"]) - 1}
    if name == "tails.tail_many":
        return lambda a, k, r: {"points": _size(a[1] if len(a) > 1 else k["z"])}
    if name == "tails.sample_restricted":
        return lambda a, k, r: {"jumps": _size(a[2] if len(a) > 2 else k["u"])}
    if name == "backend.sweep":
        # the sweep for cell n is one dot product of length start - n
        def sweep(a, k, r):
            start = int(a[5] if len(a) > 5 else k["start"])
            return {"madds": start * (start + 1) // 2}

        return sweep
    if name == "solver.kernel_weights":
        return lambda a, k, r: {
            "cells": _size(r.values),
            "err_max": float(np.max(r.error_estimates, initial=0.0)),
        }
    if name == "mc.simulate":
        return lambda a, k, r: {"samples": int(r.n_samples)}
    return None


class Span:
    __slots__ = ("name", "parent", "item", "start", "end", "counts", "error")

    def __init__(self, name, parent, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = 0.0
        self.end = 0.0
        self.counts = None
        self.error = None


PACKAGE = "expfun"


class Tracer:
    """Records spans while installed; ``item`` labels the spans of the
    benchmark item being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- recording ------------------------------------------------------------
    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = _counts_for(name)
        tracer = self  # the wrapper closes over the tracer, not a bound method

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(name, parent, tracer.item)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------
    def _targets(self):
        """(owner, attribute, span name) for every callable to wrap."""
        pkg = PACKAGE
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{pkg}.{short}")
            for attr, obj in list(vars(mod).items()):
                defined_here = getattr(obj, "__module__", None) == mod.__name__
                if inspect.isfunction(obj) and defined_here and (
                    not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(short, ())
                ):
                    yield mod, attr, f"{short}.{attr}"
                elif inspect.isclass(obj) and defined_here:
                    for meth in TRACED_METHODS.get(short, ()):
                        if meth in vars(obj) and inspect.isfunction(vars(obj)[meth]):
                            label = meth if short == "tails" else f"{obj.__name__}.{meth}"
                            yield obj, meth, f"{short}.{label}"
        # the sweep implementation the solver imported, compiled or numpy
        yield sys.modules[f"{pkg}.backend"], "back_substitute", "backend.sweep"

    def install(self):
        if self._patches:
            return
        for owner, attr, name in self._targets():
            original = vars(owner)[attr]
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = (original, self._wrap(name, original))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrappers[id(original)][1])
        # rebind names imported from one module into another
        wrapped = {id(orig): w for orig, w in self._wrappers.values()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and vars(mod)[attr] is not wrapped[id(obj)]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, t0):
        """One JSON line per span, gzip-compressed; times in seconds since
        ``t0``."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": round(s.start - t0, 9),
                    "end": round(s.end - t0, 9),
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "item": s.item,
                }
                if s.counts:
                    rec["counts"] = s.counts
                if s.error:
                    rec["error"] = s.error
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by id(span): duration minus the union
    of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for k in sorted(children.get(id(s), ()), key=lambda c: c.start):
            a, b = max(k.start, s.start), min(k.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[id(s)] = (s.end - s.start) - covered
    return out


def stage_of(span) -> str:
    """Short name of the nearest enclosing stage span, else "other"."""
    p = span.parent
    while p is not None:
        if p.name in STAGES:
            return p.name.rsplit(".", 1)[1]
        p = p.parent
    return "other"


def _outer_duration(span) -> float:
    """Duration of a span that no span of the same name encloses, else 0
    (an override calling ``super()`` would be counted twice)."""
    p = span.parent
    while p is not None:
        if p.name == span.name:
            return 0.0
        p = p.parent
    return span.end - span.start


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and a per-span-name table
    (calls, total and self seconds) for the result file."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[id(s)]
        st = selfs[id(s)]
        name = s.name
        c = s.counts or {}
        if name == "solver.residual":
            add("solver.residual_s", st)
            add("solver.residual.total_s", _outer_duration(s))
        elif name == "numerics.integrate_cells":
            stage = stage_of(s)
            add(f"numerics.integrate_cells_s.{stage}", st)
            add(f"numerics.integrate_cells.segments.{stage}", c.get("segments", 0))
            if s.parent is not None and s.parent.name == "solver.residual":
                add("solver.residual.probes", 1)
                add("solver.residual.segments", c.get("segments", 0))
        elif name == "numerics.integrate":
            stage = stage_of(s)
            add(f"numerics.integrate_s.{stage}", st)
            if s.parent is not None and s.parent.name == "numerics.integrate_cells":
                add(f"numerics.fallbacks.{stage}", 1)
        elif name == "tails.tail_many":
            stage = stage_of(s)
            add(f"tails.tail_many_s.{stage}", st)
            add(f"tails.tail_many.points.{stage}", c.get("points", 0))
        elif name == "solver.kernel_weights":
            add("solver.kernel_weights_s", st)
            add("solver.kernel_weights.total_s", _outer_duration(s))
            add("solver.kernel_weights.cells", c.get("cells", 0))
            m["solver.kernel_weights.err_max"] = max(
                m.get("solver.kernel_weights.err_max", 0.0), c.get("err_max", 0.0)
            )
        elif name == "backend.sweep":
            add("backend.sweep_s", st)
            add("backend.sweep.madds", c.get("madds", 0))
        elif name == "solver.solve":
            add("solver.solve_self_s", st)
        elif name == "solver.build_grid":
            add("solver.build_grid_s", st)
        elif name in ("model.positive_moments", "model.negative_moment", "model.laplace_exponent"):
            add(f"{name}_s", st)
        elif name in VALIDATION_CHECKS:
            add("validation.checks_s", st)
        elif name in OUTPUT_SPANS:
            add("cli.outputs_s", st)
        elif name == "tails.inverse_tail":
            add("tails.inverse_tail_s", st)
            add("tails.inverse_tail.total_s", _outer_duration(s))
        elif name == "tails.sample_restricted":
            add("mc.jumps", c.get("jumps", 0))
        elif name == "mc.simulate":
            add("mc.simulate_s", st)
            add("mc.samples", c.get("samples", 0))
        elif name == "mc.ks_distance":
            add("mc.ks_s", st)
        elif name in ("cli.main", "cli.cmd_validate"):
            add("cli.main_self_s", st)
    return m, table
