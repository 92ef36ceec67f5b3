"""Worker-count handling; EXPFUN_THREADS caps the pool size."""

import os


def _usable_cores() -> int:
    """Cores this process may run on (its affinity set where the platform
    reports one, which ``os.cpu_count`` ignores)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count() -> int:
    raw = os.environ.get("EXPFUN_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return min(4, _usable_cores())
