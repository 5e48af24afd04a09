"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_output():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["True", "True", "2.0", "3"]


def test_every_module_has_a_row_in_the_module_table():
    rows = re.findall(r"^\| `(scm_ident\.\w+)` \|", README.read_text(), re.M)
    package = README.parent / "src" / "scm_ident"
    modules = {f"scm_ident.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules - set(rows)) == []
