import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(path: Path):
    """Top-level names of every absolute import in a module, including the
    ones inside functions."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_only_third_party_import_is_numpy():
    third_party = {
        (name, path.name)
        for path in sorted((ROOT / "src" / "quadgauss").glob("*.py"))
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name != "quadgauss"
    }
    assert {name for name, _ in third_party} == {"numpy"}, sorted(third_party)


def test_declared_dependencies_are_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]
