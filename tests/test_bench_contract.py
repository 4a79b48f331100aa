"""The benchmark's tracer (bench/tracing.py) wraps library functions by the
names the program looks them up by.  A name it cannot find is skipped and its
per-layer metrics are reported absent, so a rename or deletion in the library
would go unnoticed by the package tests; check the names here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from quadgauss import counter

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wraps = load_tracing().WRAPS
    missing = []
    for module_name, path, *_ in wraps:
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert wraps and not missing


def test_tail_cdf_takes_collect():
    # the tracer counts pairs and kept atoms through this argument
    assert "collect" in inspect.signature(counter.compressed_tail_cdf).parameters
