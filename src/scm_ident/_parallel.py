"""Worker-count resolution and an order-preserving parallel map.

The environment variable ``SCM_IDENT_THREADS`` caps the number of worker
processes; 0 or unset means automatic (one per CPU). No request, however
large, gets more workers than the host has CPUs. Results are always
merged in submission order, so parallel and serial runs produce identical
output for the same inputs.
"""

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(requested: int | None = None) -> int:
    """Effective worker count after the SCM_IDENT_THREADS and CPU-count caps."""
    auto = os.cpu_count() or 1
    count = auto if requested is None or requested <= 0 else requested
    try:
        cap = int(os.environ.get("SCM_IDENT_THREADS", "0"))
    except ValueError:
        cap = 0
    if cap > 0:
        count = min(count, cap)
    return max(1, min(count, auto))


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Map ``fn`` over ``items``, preserving order.

    Falls back to a serial loop when one worker suffices or when the host
    refuses to spawn processes. ``fn`` must be picklable (module level).
    """
    items = list(items)
    n_workers = min(worker_count(workers), len(items)) if items else 1
    if n_workers <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError):
        return [fn(item) for item in items]
