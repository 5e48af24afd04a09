"""Repository hygiene: git tracks nothing that .gitignore excludes, no
package module imports a private name from another, every public name
and every module-level definition has a caller besides its own tests,
and no dataclass generates an ``==`` that compares arrays."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import typing

import numpy as np
import pytest

import scm_ident
from conftest import identifiable_spec
from scm_ident import dgp, recovery, selection

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


def _package_dataclasses() -> list[type]:
    """Every dataclass defined at module level in an ``scm_ident`` module."""
    found = []
    for info in pkgutil.iter_modules(scm_ident.__path__):
        module = importlib.import_module(f"scm_ident.{info.name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__
        ]
    return found


def _compares_arrays(annotation) -> bool:
    """Whether a generated ``==`` over a field annotated so compares an array:
    the annotation names ``np.ndarray`` (``tuple[np.ndarray, ...] | None``
    too), a dataclass compared by identity, or a dataclass whose own ``==``
    compares an array."""
    if annotation is np.ndarray:
        return True
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        return not annotation.__dataclass_params__.eq or any(
            field.compare and _compares_arrays(hints[field.name])
            for field in dataclasses.fields(annotation)
        )
    return any(_compares_arrays(argument) for argument in typing.get_args(annotation))


def test_no_dataclass_generates_an_eq_over_arrays():
    """A generated ``==`` over an array raises for two equal-shaped arrays of
    more than one element, and its ``hash`` raises too. A dataclass holding
    arrays declares ``eq=False`` (``==`` is identity) or leaves each array out
    of the comparison; none writes ``__eq__`` or ``__hash__`` by hand."""
    faults = []
    for cls in _package_dataclasses():
        source = sys.modules[cls.__module__].__file__
        for name in ("__eq__", "__hash__"):
            code = getattr(vars(cls).get(name), "__code__", None)
            if code is not None and code.co_filename == source:
                faults.append(f"{cls.__name__} writes {name}")
        if cls.__dataclass_params__.eq:
            hints = typing.get_type_hints(cls)
            faults += [
                f"{cls.__name__}.{field.name} compares an array"
                for field in dataclasses.fields(cls)
                if field.compare and _compares_arrays(hints[field.name])
            ]
    assert faults == []


def _model() -> recovery.UnmixModel:
    return recovery.UnmixModel(np.eye(2), np.zeros((3, 2)), np.ones((3, 2)), (np.eye(1),) * 2)


def _restart() -> recovery.RestartResult:
    return recovery.RestartResult(1.0, 3, _model(), "grad_tol")


IDENTITY_EQUALITY = {
    "ExpFamilyPrior": lambda: dgp.ExpFamilyPrior([[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0]] * 2),
    "DgpSpec": identifiable_spec,
    "SyntheticDataset": lambda: dgp.SyntheticDataset(1, [0, 0], np.eye(2), np.eye(2), ()),
    "VarietyReport": lambda: dgp.check_variety(identifiable_spec().prior),
    "UnmixModel": _model,
    "RestartResult": _restart,
    "FitResult": lambda: recovery.FitResult(_model(), 1.0, [_restart()]),
    "_Moments": lambda: recovery._Moments(np.zeros((2, 3)), np.ones((2, 3, 3)), np.array([2, 2])),
    "_NormalEquations": lambda: recovery._NormalEquations(
        np.ones((1, 2, 2)), np.ones((1, 4, 4)), np.ones((1, 4, 3, 3)), np.ones((1, 2))
    ),
    "GumbelMaskSample": lambda: selection.gumbel_softmax_mask([0.3, 0.6], seed=0),
}


@pytest.mark.parametrize("build", IDENTITY_EQUALITY.values(), ids=IDENTITY_EQUALITY.keys())
def test_array_holding_dataclasses_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
