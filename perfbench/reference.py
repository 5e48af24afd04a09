"""A fixed piece of work that gauges how fast the machine runs right now.

On a shared host the same code can run a third slower for seconds at a
time. The runner times this work between rounds of operations and scales
each round's latencies by ``REFERENCE_MS`` over the reference's mean time
around the round, so that the host's speed at the time cancels out. A
workload whose operation keeps ``concurrency`` processes busy runs the
reference in that many processes at once, because two busy cores slow
down differently from one.
"""

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

REFERENCE_MS = 10.0
REFERENCE_REPEATS = 5


def reference_work() -> int:
    """A subtraction closure over seven atoms (128 sets) like the closure
    decider, %.17g formatting and parsing like the CSV code, and small
    numpy solves like the fit. The closure is written here, not taken
    from the program, so a change to the program cannot move it."""
    columns = [1 + j % 7 for j in range(16)]
    members = [0, 0xFFFF] + [
        sum(1 << j for j, column in enumerate(columns) if (column >> k) & 1) for k in range(3)
    ]
    origins = dict.fromkeys(members)
    i = 0
    while i < len(members):
        x = members[i]
        for y in members[:i]:
            for difference in (x & ~y, y & ~x):
                if difference not in origins:
                    origins[difference] = (x, y)
                    members.append(difference)
        i += 1
    text = ",".join("%.17g" % (k / 7) for k in range(3000))
    values = [float(v) for v in text.split(",")]
    a = np.eye(3) + 0.1
    for _ in range(150):
        a = np.linalg.solve(a + np.eye(3), a.T) * 0.5 + np.eye(3)
    return len(members) + len(values)


def timed_reference() -> float:
    """Wall time of one run of the reference work, in ms."""
    began = time.perf_counter()
    reference_work()
    return (time.perf_counter() - began) * 1000.0


class Reference:
    """Times the reference work in ``concurrency`` processes at once."""

    def __init__(self, concurrency: int):
        self._helpers = (
            ProcessPoolExecutor(concurrency - 1, mp_context=get_context("spawn"))
            if concurrency > 1
            else None
        )
        self.concurrency = concurrency
        self.samples(1)

    def samples(self, count: int = REFERENCE_REPEATS, busy_ms: float = 0.0) -> list[float]:
        """At least ``count`` reference times, and enough to take a tenth
        of ``busy_ms``; each is the mean over the concurrent processes."""
        count = max(count, int(0.1 * busy_ms / REFERENCE_MS))
        out = []
        for _ in range(count):
            helpers = (
                [self._helpers.submit(timed_reference) for _ in range(self.concurrency - 1)]
                if self._helpers
                else []
            )
            own = timed_reference()
            out.append(statistics.mean([own] + [future.result() for future in helpers]))
        return out

    def close(self) -> None:
        if self._helpers:
            self._helpers.shutdown(wait=True)
