"""The back-substitution sweep that ``solver`` imports."""

from ._kernels_py import back_substitute

# read by the benchmark's machine record (perfbench/run.py::machine_info)
BACKEND = "python"
