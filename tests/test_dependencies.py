import ast
import os
import re
import subprocess
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


def test_default_count_leaves_numpy_ma_unloaded():
    # numpy.ma (which np.unique imports) adds about 1 MB of resident memory;
    # a default count at n = 4 must not load it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from quadgauss.counter import count_ptf_gaussian\n"
        "from quadgauss.quadform import QuadraticForm\n"
        "gen = np.random.default_rng(4)\n"
        "big = gen.standard_normal((4, 4))\n"
        "q = QuadraticForm(A=-np.eye(4) + 0.15 * (big + big.T), b=0.3 * gen.standard_normal(4), c=4.0)\n"
        "assert 0.0 < count_ptf_gaussian(q).estimate < 1.0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
