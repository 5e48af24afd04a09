"""Repository hygiene: git tracks nothing that .gitignore excludes, no
package module imports a private name from another, and every public
name and every module-level definition has a caller besides its own
tests."""

import ast
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import scm_ident

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


def test_every_public_name_is_used_outside_the_tests():
    """Each name in ``scm_ident.__all__`` appears in a package line other
    than its own definition and ``__init__.py``, in ``perfbench/``, or in
    the README."""
    package = ROOT / "src" / "scm_ident"
    package_lines = [
        line
        for path in package.rglob("*.py")
        if path != package / "__init__.py"
        for line in path.read_text().splitlines()
    ]
    other_texts = [path.read_text() for path in (ROOT / "perfbench").rglob("*.py")]
    other_texts.append((ROOT / "README.md").read_text())
    unused = []
    for name in scm_ident.__all__:
        escaped = re.escape(name)
        definition = re.compile(rf"^\s*(?:class|def)\s+{escaped}\b|^{escaped}\s*[:=]")
        word = re.compile(rf"\b{escaped}\b")
        used = any(word.search(line) and not definition.search(line) for line in package_lines)
        if not used and not any(word.search(text) for text in other_texts):
            unused.append(name)
    assert unused == []


def test_every_module_level_definition_is_referenced_outside_the_tests():
    """Each module-level ``def`` or ``class`` in the package, private ones
    too, is named in a package line outside its own definition and
    ``__init__.py``, in ``perfbench/``, or in the README."""
    package = ROOT / "src" / "scm_ident"
    modules = {
        path: path.read_text().splitlines()
        for path in sorted(package.rglob("*.py"))
        if path != package / "__init__.py"
    }
    other_texts = [path.read_text() for path in (ROOT / "perfbench").rglob("*.py")]
    other_texts.append((ROOT / "README.md").read_text())
    unreferenced = []
    for path, lines in modules.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            referenced = any(
                word.search(line)
                for other, other_lines in modules.items()
                for number, line in enumerate(other_lines, start=1)
                if other != path or not first <= number <= node.end_lineno
            ) or any(word.search(text) for text in other_texts)
            if not referenced:
                unreferenced.append(f"{path.name}::{node.name}")
    assert unreferenced == []


def test_no_module_imports_a_private_name_from_another():
    """No package module reaches into another for an underscore name
    (``from .x import _name``); a dunder such as ``__version__`` is public.
    A name two modules share belongs in the one that owns it, public."""
    package = ROOT / "src" / "scm_ident"
    private = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert private == []


def test_a_failing_hypothesis_test_fails_without_an_internal_error(tmp_path):
    """Hypothesis's failure report imports libcst, which warns on import; with
    the repository's warning filters that is one failed test, not the end of
    the session."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr
