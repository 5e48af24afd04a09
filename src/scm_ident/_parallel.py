"""An order-preserving parallel map over forked worker processes.

``parallel_map`` takes one worker per CPU this process may run on and
never more workers than items, and deals the items round-robin. Each
worker is a child forked for the one call: it runs its items in order,
writes one pickle of its results, or of the exception it raised, to its
own pipe, and leaves with ``os._exit``, so no buffer or exit handler of
the parent runs twice. The parent reads each pipe to its end and reaps
every child before it returns or raises, so no process outlives the
call. Results are merged in item order, so parallel and serial runs
produce identical output for the same inputs.

Only Linux forks. Other platforms' system libraries are not fork-safe
(CPython stopped forking by default on macOS for that reason), so there
the items run serially, as they do when the host refuses to fork.
"""

import os
import pickle
import signal
import sys
import traceback


def worker_count() -> int:
    """Number of CPUs this process may run on; 1 when unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items`` in forked children, preserving order.

    Runs serially when one worker suffices, off Linux, or when the host
    refuses to fork. An exception a child raised is raised here; a child
    that ends without sending its results raises ``RuntimeError``.
    """
    items = list(items)
    n_workers = min(worker_count(), len(items))
    if n_workers <= 1 or sys.platform != "linux":
        return [fn(item) for item in items]
    children = []  # (pid, read end of its pipe) of each child not yet reaped, in worker order
    try:
        try:
            for worker in range(n_workers):
                children.append(_fork(fn, items[worker::n_workers], children))
        except OSError:  # the host refuses another process
            _stop(children)
            return [fn(item) for item in items]
        results = [None] * len(items)
        for worker in range(n_workers):
            results[worker::n_workers] = _collect(children)
        return results
    finally:
        _stop(children)


def _fork(fn, share: list, children: list):
    """Fork a child that runs ``fn`` over ``share``; its pid and the read end of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child
        code = 1
        try:
            # only the parent holds a read end, so a write fails once the parent has gone
            os.close(read_fd)
            for _, pipe in children:
                pipe.close()
            _send(fn, share, write_fd)
            code = 0
        finally:
            os._exit(code)
    # closed before the next fork, so only this child holds the write end and its exit ends the pipe
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _send(fn, share: list, write_fd: int) -> None:
    """Write one pickle of ``fn`` over ``share``, or of the exception it raised, to ``write_fd``."""
    try:
        payload = pickle.dumps((True, [fn(item) for item in share]), pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        payload = pickle.dumps((False, (error, traceback.format_exc())), pickle.HIGHEST_PROTOCOL)
    with open(write_fd, "wb") as pipe:
        pipe.write(payload)


def _collect(children: list) -> list:
    """Read the first child's pipe to its end, reap it and return its results."""
    pid, pipe = children[0]
    with pipe:
        payload = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[0]
    if code != 0:  # only a child that wrote its whole pickle exits 0
        raise RuntimeError(f"worker process {pid} ended without its results (exit code {code})")
    ok, value = pickle.loads(payload)
    if not ok:
        error, trace = value
        raise error from RuntimeError(f"in worker process {pid}:\n{trace}")
    return value


def _stop(children: list) -> None:
    """Kill and reap every child not yet reaped."""
    while children:
        pid, pipe = children.pop()
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
