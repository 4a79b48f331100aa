import importlib
import pkgutil

import pytest

import quadgauss

MODULES = ["quadgauss"] + [
    f"quadgauss.{info.name}" for info in pkgutil.iter_modules(quadgauss.__path__)
]


@pytest.mark.parametrize(
    "name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
