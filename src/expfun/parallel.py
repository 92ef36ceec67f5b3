"""The worker count of the benchmark's machine record.

The kernel weights run in one serial pass, so the count is always 1.
``perfbench/run.py`` (and the scripts under ``benchmarks/``) record it
with the machine; they are its only readers.
"""


def worker_count() -> int:
    return 1
