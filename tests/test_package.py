"""Tests for the package's public surface."""

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
