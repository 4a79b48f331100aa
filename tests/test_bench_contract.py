"""The benchmark's tracer (bench/tracing.py) wraps library functions by the
names the program looks them up by.  A name it cannot find is skipped and its
per-layer metrics are reported absent, so a rename or deletion in the library
would go unnoticed by the package tests; check the names here, and that
the tracer still drives a count, a draw and a densifier run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from quadgauss import QuadraticForm, Rng, count_ptf_gaussian, counter, sampler
from quadgauss.densifier import DensifierConfig, planted_experiment
from quadgauss.sampler import PtfSampler

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


def test_wrapped_sampler_names_without_call_sites():
    # each module calls none of its names here; it keeps them importable
    # only because the tracer wraps them there, so their spans read 0.
    # Dropping them from the tracer empties these sets; a new dead name
    # shows up here
    wraps = load_tracing().WRAPS
    for module, dead in (
        (sampler, {"count", "decouple", "round_coefficients"}),
        (counter, {"round_coefficients"}),
    ):
        called = {
            node.func.id
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        wrapped = {
            path for module_name, path, *_ in wraps
            if module_name == module.__name__ and "." not in path
        }
        assert wrapped - called == dead, module.__name__


def test_tail_cdf_takes_collect():
    # the tracer counts pairs and kept atoms through this argument
    assert "collect" in inspect.signature(counter.compressed_tail_cdf).parameters


def test_tracer_drives_count_and_draw():
    # the tracer calls the wrapped functions with the argument shapes it
    # assumes; a default-flag n = 4 count engages the floor and its coarse
    # pass, which chains through compressed_tail_cdf as well
    tracer = load_tracing().Tracer()
    q = QuadraticForm(A=-np.eye(4) + 0.1, b=np.array([0.3, -0.2, 0.1, 0.05]), c=4.0)
    with tracer.installed():
        count_ptf_gaussian(q)
        chains = tracer.by_name()["counter.tail_cdf"]["calls"]
        PtfSampler(q, 0.1, tau=2.0**-4, trunc_B=3.0).sample_batch(3, Rng(0))
    assert tracer.absent == {}
    assert chains == 2  # the count's table and its coarse pass
    assert tracer.counts["counter.pairs"] > 0
    rows = tracer.by_name()
    # the sampler checks its floor against its own table, so it never counts
    assert rows["counter.count"]["calls"] == 0
    # each draw goes through the wrapped grid point and lift, so that
    # sampler.grid_point_s and sampler.lift_s keep measuring the draw
    for name in ("sampler.draw", "sampler.grid_point", "sampler.lift"):
        assert rows[name]["calls"] == 3, name
    # and the lift draws each of the n = 4 coordinates through the wrapped
    # truncated normal, so that numerics.truncnorm_s keeps measuring it
    assert rows["numerics.truncnorm"]["calls"] == 3 * 4


def test_tracer_counts_the_pairs_the_engine_forms(monkeypatch):
    # the tracer reads pairs as kept atoms times the size of each factor it
    # sees; default-flag counts at n = 4 and 5 run the coarse pass, the
    # floor and the tail lookups, and every pair they form comes from a
    # convolution of an m-atom running sum with a k-atom factor
    formed = [0]
    real = counter._convolve_sparsify

    def spy(values, logp, atom_v, atom_lp, *args):
        formed[0] += values.size * atom_v.size
        return real(values, logp, atom_v, atom_lp, *args)

    monkeypatch.setattr(counter, "_convolve_sparsify", spy)
    workloads = load_tracing()
    for n in (4, 5):
        gen = np.random.default_rng(n)
        big = gen.standard_normal((n, n))
        q = QuadraticForm(A=-np.eye(n) + 0.3 * (big + big.T) / 2.0, b=0.3 * gen.standard_normal(n), c=float(n))
        tracer = workloads.Tracer()
        formed[0] = 0
        with tracer.installed():
            count_ptf_gaussian(q)
        assert tracer.absent == {}
        assert tracer.counts["counter.pairs"] == formed[0] > 0, n


def test_tracer_sees_the_grid_reads():
    # every sum of a CDF over a coordinate's grid cells reads it through
    # CompressedCDF.log_query, which the tracer wraps: one read at n = 1, 2,
    # the coarse pass and the mass at n = 3, and the coarse pass at n = 4, 5
    # (whose last two coordinates are read by pair lookups, untraced)
    reads = []
    for n in (1, 2, 3, 4, 5):
        gen = np.random.default_rng(n)
        big = gen.standard_normal((n, n))
        q = QuadraticForm(A=-np.eye(n) + 0.3 * (big + big.T) / 2.0, b=0.3 * gen.standard_normal(n), c=float(n))
        tracer = load_tracing().Tracer()
        with tracer.installed():
            count_ptf_gaussian(q)
        assert tracer.absent == {}
        reads.append(tracer.by_name()["counter.query"]["calls"])
    assert reads == [1, 1, 2, 1, 1]


def test_tracer_drives_planted_run():
    # the densify-planted layers: the wrapped densifier names must be the
    # ones planted_experiment calls.  The disc stops at round 0 with
    # g = R^n, so it draws no point and tests no sign
    tracer = load_tracing().Tracer()
    disc = QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)
    with tracer.installed():
        planted_experiment(disc, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
    assert tracer.absent == {}
    rows = tracer.by_name()
    for name in ("densifier.densify", "densifier.count", "densifier.mc_count"):
        assert rows[name]["calls"] >= 1, name
    assert rows["quadform.sign_at"]["calls"] == 0
    assert tracer.counts["quadform.sign_at_points"] == 0


def test_tracer_drives_negative_rounds():
    # the benchmark's planted runs all stop at round 0; x1 >= 4 leaves it,
    # so this is where the traced draws and negative rounds are checked:
    # they come from tilted rejection, and each round counts its hypothesis
    tracer = load_tracing().Tracer()
    x1_ge_4 = QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-4.0)
    with tracer.installed():
        rep = planted_experiment(x1_ge_4, DensifierConfig(eps=0.1, delta=0.1), Rng(1), n_validation=3000)
    assert rep["rounds"] >= 1
    assert tracer.absent == {}
    rows = tracer.by_name()
    assert rows["sampler.init"]["calls"] == 0
    assert rows["densifier.count"]["calls"] >= 2
    assert rows["quadform.sign_at"]["calls"] >= 1
    assert tracer.counts["quadform.sign_at_points"] > 0
