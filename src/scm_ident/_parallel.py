"""An order-preserving parallel map over worker processes.

The pool takes one worker per CPU and never more workers than items.
Results are always merged in submission order, so parallel and serial
runs produce identical output for the same inputs.
"""

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count() -> int:
    """Number of CPUs on the host; 1 when unknown."""
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items``, preserving order.

    Falls back to a serial loop when one worker suffices or when the host
    refuses to spawn processes. ``fn`` must be picklable (module level).
    """
    items = list(items)
    n_workers = min(worker_count(), len(items))
    if n_workers <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(n_workers) as pool:
            return list(pool.map(fn, items))
    except OSError:
        return [fn(item) for item in items]
