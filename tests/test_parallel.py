"""Worker-count arithmetic; no test here starts a process pool."""

import pytest

from scm_ident import _parallel


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("SCM_IDENT_THREADS", raising=False)


@pytest.mark.parametrize(
    "requested,expected", [(None, 4), (0, 4), (-3, 4), (1, 1), (3, 3), (4, 4), (100_000, 4)]
)
def test_request_clamped_to_cpu_count(four_cpus, requested, expected):
    assert _parallel.worker_count(requested) == expected


@pytest.mark.parametrize(
    "threads,requested,expected",
    [("2", None, 2), ("2", 3, 2), ("100000", None, 4), ("100000", 100_000, 4), ("bad", 9, 4)],
)
def test_threads_cap_clamped_to_cpu_count(four_cpus, monkeypatch, threads, requested, expected):
    monkeypatch.setenv("SCM_IDENT_THREADS", threads)
    assert _parallel.worker_count(requested) == expected


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    monkeypatch.delenv("SCM_IDENT_THREADS", raising=False)
    assert _parallel.worker_count(100_000) == 1
