"""Repository hygiene: git tracks nothing that .gitignore excludes."""

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_no_ignored_file_is_tracked():
    probe = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True
    )
    if probe.returncode != 0 or pathlib.Path(probe.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    tracked_but_ignored = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert tracked_but_ignored == []
