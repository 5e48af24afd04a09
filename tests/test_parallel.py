"""Worker and job counts, and the forked workers of ``parallel_map``."""

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import scm_ident
from conftest import colliding_spec, identifiable_spec
from scm_ident import DegenerateError, FitConfig, _parallel, identifiability_experiment, recovery

forks_on_this_platform = pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")


def set_cpus(monkeypatch, cpus):
    """Make ``worker_count()`` read ``cpus`` CPUs from the affinity mask and the CPU count."""
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel.worker_count() == 1


@pytest.mark.parametrize("affinity, cpus, expected", [({1}, 2, 1), ({0, 3, 5}, 8, 3), (None, 3, 3)])
def test_worker_count_is_the_cpus_this_process_may_run_on(monkeypatch, affinity, cpus, expected):
    """A mask of one CPU on a two-CPU host, as under ``taskset -c 1``, means one worker."""
    if affinity is None:  # a platform without affinity masks
        monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
    assert _parallel.worker_count() == expected


@pytest.fixture
def shares(monkeypatch):
    """The item count dealt to each forked child, in worker order; the children really run."""
    dealt = []
    fork = _parallel._fork

    def recording_fork(fn, share, children):
        dealt.append(len(share))
        return fork(fn, share, children)

    monkeypatch.setattr(_parallel, "_fork", recording_fork)
    return dealt


@forks_on_this_platform
@pytest.mark.parametrize(
    "cpus,items,expected", [(8, 3, [1, 1, 1]), (2, 5, [3, 2]), (8, 2, [1, 1]), (8, 1, []), (8, 0, [])]
)
def test_pool_never_larger_than_items_or_cpus(monkeypatch, shares, cpus, items, expected):
    set_cpus(monkeypatch, cpus)
    assert _parallel.parallel_map(abs, [-k for k in range(items)]) == list(range(items))
    assert shares == expected


# one seed's latents and x in the experiment below: 200 rows in each of 3 environments
SEED_BYTES = 16 * 200 * 3 * 2


@forks_on_this_platform
@pytest.mark.parametrize(
    "cpus, seeds, budget_seeds, dealt",
    [
        (2, 3, None, [1, 1]),  # one job per arm
        (8, 3, None, [1, 1]),  # whatever the CPU count
        (2, 3, 2, [2, 2]),  # a job keeps at most 2 seeds' rows
        (2, 3, 1, [3, 3]),
    ],
)
def test_experiment_runs_one_job_per_arm_unless_bytes_ask_for_more(
    monkeypatch, shares, cpus, seeds, budget_seeds, dealt
):
    set_cpus(monkeypatch, cpus)
    if budget_seeds is not None:
        monkeypatch.setattr(recovery, "ARM_JOB_BYTES", budget_seeds * SEED_BYTES)
    config = FitConfig(restarts=1, max_iters=20, seed=3)
    specs = identifiable_spec(), colliding_spec()
    report = identifiability_experiment(*specs, config, seeds=seeds, samples_per_env=200)
    assert shares == dealt
    # the split changes no outcome
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(recovery, "ARM_JOB_BYTES", 2**60)
    assert identifiability_experiment(*specs, config, seeds=seeds, samples_per_env=200) == report
    assert shares == dealt  # one job per arm, run without a fork


def test_refused_pool_runs_serially(monkeypatch):
    def refuse():
        raise PermissionError("no processes")

    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(_parallel.os, "fork", refuse)
    assert _parallel.parallel_map(abs, [-3, -1, -2]) == [3, 1, 2]


@contextmanager
def within(seconds):
    """Raise ``TimeoutError`` in this process if the block takes longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on_two(item):
    if item == 2:
        raise DegenerateError(f"column {item} has zero variance")
    return item


def exit_on_two(item):
    if item == 2:
        os._exit(3)
    return item


def killed_on_two(item):
    if item == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def fail_now_or_sleep(item):
    if item == 0:
        raise DegenerateError("the first child fails at once")
    time.sleep(60)
    return item


def fail_at_once(job):
    raise DegenerateError("the job fails at once")


def mebibyte(item):
    return bytes(range(256)) * 4096 + bytes([item])


@forks_on_this_platform
class TestForkedWorkers:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 2)

    def test_results_come_back_from_separate_processes_in_item_order(self):
        pids = _parallel.parallel_map(lambda item: (item, os.getpid()), range(5))
        assert [item for item, _ in pids] == list(range(5))
        assert len({pid for _, pid in pids} - {os.getpid()}) == 2
        assert_no_child_left()

    def test_a_childs_error_reaches_the_caller_with_its_type_and_message(self):
        with within(30), pytest.raises(DegenerateError, match="^column 2 has zero variance$"):
            _parallel.parallel_map(fail_on_two, range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("fn, code", [(exit_on_two, 3), (killed_on_two, -signal.SIGKILL)])
    def test_a_child_that_ends_without_its_results_raises(self, fn, code):
        with within(10), pytest.raises(RuntimeError, match=rf"ended without its results \(exit code {code}\)$"):
            _parallel.parallel_map(fn, range(4))
        assert_no_child_left()

    def test_an_error_stops_and_reaps_the_children_still_running(self):
        with within(10), pytest.raises(DegenerateError, match="^the first child fails at once$"):
            _parallel.parallel_map(fail_now_or_sleep, range(2))
        assert_no_child_left()

    def test_a_result_larger_than_a_pipe_buffer_comes_back_intact(self):
        with within(30):
            results = _parallel.parallel_map(mebibyte, range(3))
        assert results == [mebibyte(item) for item in range(3)]
        assert_no_child_left()

    def test_a_fork_refused_after_the_first_gives_the_serial_results(self, monkeypatch):
        fork, forks = os.fork, []

        def fork_once():
            forks.append(1)
            if len(forks) > 1:
                raise BlockingIOError("no more processes")
            return fork()

        monkeypatch.setattr(_parallel.os, "fork", fork_once)
        with within(30):
            assert _parallel.parallel_map(abs, [-3, -1, -2]) == [3, 1, 2]
        assert len(forks) == 2
        assert_no_child_left()

    def test_no_child_is_left_after_the_experiment_returns_or_raises(self, monkeypatch):
        config = FitConfig(restarts=1, max_iters=20, seed=3)
        specs = identifiable_spec(), colliding_spec()
        identifiability_experiment(*specs, config, seeds=2, samples_per_env=200)
        assert_no_child_left()
        monkeypatch.setattr(recovery, "_run_arm_job", fail_at_once)
        with within(10), pytest.raises(DegenerateError, match="^the job fails at once$"):
            identifiability_experiment(*specs, config, seeds=2, samples_per_env=200)
        assert_no_child_left()


ORPHAN_SCRIPT = """
import os, sys, time
from scm_ident import _parallel

def write_pid_then_a_mebibyte(item):
    with open(os.path.join(sys.argv[1], str(item)), "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(1)
    return bytes(1 << 20)

os.sched_getaffinity = lambda pid: {0, 1}
_parallel.parallel_map(write_pid_then_a_mebibyte, [0, 1])
"""


def has_ended(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@forks_on_this_platform
def test_children_end_when_the_parent_is_killed(tmp_path):
    """A child holds no read end of any pipe, so its write fails once the parent is gone."""
    package_root = str(Path(scm_ident.__file__).resolve().parent.parent)
    parent = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT, str(tmp_path)], env={**os.environ, "PYTHONPATH": package_root}
    )
    pid_files = [tmp_path / "0", tmp_path / "1"]
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not all(path.exists() and path.read_text() for path in pid_files):
            assert time.monotonic() < deadline and parent.poll() is None
            time.sleep(0.01)
        pids = [int(path.read_text()) for path in pid_files]
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not all(has_ended(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(has_ended(pid) for pid in pids)
    finally:
        parent.kill()
        parent.wait(timeout=10)
        for pid in pids:
            if not has_ended(pid):
                os.kill(pid, signal.SIGKILL)


def test_importing_the_package_starts_no_process_machinery():
    """``multiprocessing`` and the process pool stay out of the import."""
    package_root = str(Path(scm_ident.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    script = (
        "import sys, scm_ident; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")
