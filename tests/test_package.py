"""Tests for the package's public surface."""

import ast
import io
from contextlib import redirect_stdout
from pathlib import Path

import circleops


def test_every_exported_name_resolves_and_star_import_succeeds():
    missing = [name for name in circleops.__all__ if not hasattr(circleops, name)]
    assert missing == []
    assert len(set(circleops.__all__)) == len(circleops.__all__)
    namespace = {}
    exec("from circleops import *", namespace)
    assert set(circleops.__all__) <= set(namespace)


def test_readme_library_quick_start_prints_its_comments():
    # the python block under "## Library quick start" runs as written, and
    # each print gives the value in the comment beside it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 3
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports the names it re-exports, and reads them only as the
    # strings of __all__
    src = Path(circleops.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(circleops.__all__)
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "__future__":
                continue
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                unread.extend(
                    f"{path.name}: {a.asname or a.name}" for a in n.names
                    if (a.asname or a.name).split(".")[0] not in read)
    assert unread == []
