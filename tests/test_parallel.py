"""Worker-count and job-count arithmetic; no test here starts a process pool."""

import pytest

from conftest import colliding_spec, identifiable_spec
from scm_ident import FitConfig, _parallel, identifiability_experiment, recovery


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel.worker_count() == 1


class RecordingExecutor:
    """Stands in for ``ProcessPoolExecutor``: records the pool size and the jobs, maps in-process."""

    requested: list[int] = []
    jobs: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        items = list(items)
        self.jobs.append(len(items))
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


# one seed's latents and x in the experiment below: 200 rows in each of 3 environments
SEED_BYTES = 16 * 200 * 3 * 2


@pytest.mark.parametrize(
    "cpus, seeds, budget_seeds, jobs",
    [
        (2, 3, None, 2),  # one job per arm
        (8, 3, None, 2),  # whatever the CPU count
        (2, 3, 2, 4),  # a job keeps at most 2 seeds' rows
        (2, 3, 1, 6),
    ],
)
def test_experiment_runs_one_job_per_arm_unless_bytes_ask_for_more(
    monkeypatch, cpus, seeds, budget_seeds, jobs
):
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "requested", [])
    monkeypatch.setattr(RecordingExecutor, "jobs", [])
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingExecutor)
    if budget_seeds is not None:
        monkeypatch.setattr(recovery, "ARM_JOB_BYTES", budget_seeds * SEED_BYTES)
    config = FitConfig(restarts=1, max_iters=20, seed=3)
    specs = identifiable_spec(), colliding_spec()
    report = identifiability_experiment(*specs, config, seeds=seeds, samples_per_env=200)
    assert RecordingExecutor.jobs == [jobs]
    assert RecordingExecutor.requested == [min(cpus, jobs)]
    # the split changes no outcome
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(recovery, "ARM_JOB_BYTES", 2**60)
    assert identifiability_experiment(*specs, config, seeds=seeds, samples_per_env=200) == report
    assert RecordingExecutor.jobs == [jobs]  # one job per arm, run without a pool


def test_refused_pool_runs_serially(monkeypatch):
    def refuse(max_workers):
        raise PermissionError("no processes")

    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", refuse)
    assert _parallel.parallel_map(abs, [-3, -1, -2]) == [3, 1, 2]
