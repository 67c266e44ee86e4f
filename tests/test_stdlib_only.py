"""The package needs nothing outside the standard library: every absolute
import in its source names a stdlib module, and pyproject.toml declares no
runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "knotmorse").glob("*.py"))


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports in source that are not in
    the standard library; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_the_check_flags_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from scipy.sparse import csr_matrix\nfrom . import states\nfrom .diagram import Diagram\n")
    assert non_stdlib_imports(source) == ["numpy", "scipy.sparse"]


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies = .*$", project, re.M) == ["dependencies = []"]
