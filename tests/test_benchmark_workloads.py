"""The benchmark's workloads run on these sources and pass their own checks.

The benchmark imports names from the package that no other test reaches
the way it does; a workload that breaks shows up here instead of as a
refused benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_run_environment_names_the_kernel():
    assert run.environment()["backend"] == "pure"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_first_operation_passes_its_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    # the audit's check of operation 0 also runs the backend cross-check
    assert workload.check(0, workload.op(0, Tracer(False))) == []
