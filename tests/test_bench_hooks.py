"""The names the pipeline benchmark (``perfbench/``) reads from expfun.

The benchmark finds the program by name from outside the package: its
machine record reads ``expfun.BACKEND`` and ``parallel.worker_count``, and
its tracer wraps ``expfun.backend.back_substitute`` as the ``backend.sweep``
span.  A rename or a move of any of these would crash the benchmark or
silently zero a per-layer counter without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import expfun
from expfun import _kernels_py, solver
from expfun.model import SubordinatorSpec
from expfun.tails import GammaExpTail

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name, monkeypatch):
    # run.py puts its own directory on sys.path; keep that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_machine_record_reads_backend_and_pool(monkeypatch):
    run = load_bench_module("run", monkeypatch)
    info = run.machine_info(expfun, 2)
    assert info["backend"] == "python"
    assert info["worker_count"] >= 1


def test_tracer_counts_one_sweep_per_solve(monkeypatch):
    spans = load_bench_module("spans", monkeypatch)
    spec = SubordinatorSpec(0.0, 0.0, GammaExpTail(1.0, 1.5, 2.0))
    grid = solver.build_grid(spec, 0.99, 200)
    tracer = spans.Tracer()
    tracer.install()
    try:
        density = solver.solve(spec, grid)
    finally:
        tracer.uninstall()
    sweeps = [s for s in tracer.spans if s.name == "backend.sweep"]
    assert len(sweeps) == 1
    start = grid.n_cells - 1 - density.top_zero_cells
    assert sweeps[0].counts == {"madds": start * (start + 1) // 2}
    assert solver.back_substitute is _kernels_py.back_substitute
    assert expfun.backend.back_substitute is _kernels_py.back_substitute
