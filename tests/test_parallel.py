"""Worker-count arithmetic; no test here starts a process pool."""

import pytest

from scm_ident import _parallel


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel.worker_count() == 1


class RecordingExecutor:
    """Stands in for ``ProcessPoolExecutor``: records the pool size, maps in-process."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "cpus,items,expected", [(8, 3, [3]), (2, 5, [2]), (8, 2, [2]), (8, 1, []), (8, 0, [])]
)
def test_pool_never_larger_than_items_or_cpus(monkeypatch, cpus, items, expected):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "requested", [])
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingExecutor)
    assert _parallel.parallel_map(abs, [-k for k in range(items)]) == list(range(items))
    assert RecordingExecutor.requested == expected


def test_refused_pool_runs_serially(monkeypatch):
    def refuse(max_workers):
        raise PermissionError("no processes")

    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", refuse)
    assert _parallel.parallel_map(abs, [-3, -1, -2]) == [3, 1, 2]
