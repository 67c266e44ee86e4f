"""The package source parses under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "knotmorse").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_declared_floor_is_3_10():
    assert declared_floor() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


# syntax newer than 3.10 that the parse above must reject
@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",  # exception groups, 3.11
    "type Pair = tuple[int, int]\n",  # PEP 695 alias, 3.12
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",  # PEP 695 generic, 3.12
])
def test_newer_syntax_is_rejected_at_the_floor(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_floor())
