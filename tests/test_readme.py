"""Run every ``python`` code block of README.md as it stands, so the
documented library calls keep working: a public name that the docs use
and the package no longer exports fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# (first line of the block's code in README.md, the code)
BLOCKS = [
    (_TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    # padded so a traceback names the README line
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
