"""Workloads of the quadgauss benchmark: inputs, references, gated ops, passes.

``run.py`` starts this file as the single workload process::

    python bench/workloads.py --workload count-fine --seed 1 --seconds 22 --trace 0
    python bench/workloads.py --workload count-fine --seed 1 --setup-only

It builds the workload's inputs and references from the seed, runs a fixed
number of passes over the op list (``Workload.passes``: about ``--seconds`` of
work on a 2-core VM, at least one), runs the known-gap probes, and prints one
JSON object as its last line.
Every op is gated: it fails if it raises, overruns ``OP_LIMIT_S`` or gives a
wrong answer, and a failed op is charged ``OP_LIMIT_S`` in the pass time.
With ``--trace 1`` traced and untraced passes alternate, and the per-layer
metrics come from the traced ones, probes included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quadgauss
from quadgauss import hardness
from quadgauss.densifier import DensifierConfig, planted_experiment
from quadgauss.numerics import Rng
from quadgauss.quadform import QuadraticForm, save_instance
from quadgauss.sampler import PtfSampler

import tracing

# Per-op wall-time limit.  The slowest op that succeeds when this benchmark
# was written (sample-draws n = 3, tau 2^-4: a sampler and 100 draws) takes
# 4 to 6 s on a 2-core machine.
OP_LIMIT_S = 30.0
REF_DRAWS = 1 << 17  # Monte Carlo reference draws per op
Z99 = 2.5758293035489004
MOMENT_SIGMAS = 4.0
CLI_REPEATS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


class OpTimeout(BaseException):
    """The op overran OP_LIMIT_S; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S:g} s")


# --- inputs and references ------------------------------------------------


def rotated(q: QuadraticForm, seed: int) -> QuadraticForm:
    """q in a Haar-random orthonormal basis drawn from (seed, n): x -> q(Qx).

    The Gaussian mass and the decoupled spectrum do not change, so each seed
    gives different inputs of the same difficulty."""
    n = q.n
    z, r = np.linalg.qr(np.random.default_rng([seed, n]).standard_normal((n, n)))
    rot = z * np.sign(np.diag(r))
    a = rot.T @ q.A @ rot
    return QuadraticForm(A=(a + a.T) / 2.0, b=rot.T @ q.b, c=q.c)


def bench_instance(seed: int, n: int) -> QuadraticForm:
    """A = -I + 0.3 sym(N), b = 0.3 g, c = n, with N, g drawn from
    default_rng(n), rotated by the seed."""
    gen = np.random.default_rng(n)
    big_n = gen.standard_normal((n, n))
    g = gen.standard_normal(n)
    q = QuadraticForm(A=-np.eye(n) + 0.3 * (big_n + big_n.T) / 2.0, b=0.3 * g, c=float(n))
    return rotated(q, seed)


def cube_ptf(seed: int, n: int) -> QuadraticForm:
    """The PTF f of a degree-2 cube instance with a planted subset-sum
    solution (weights and solution drawn from default_rng(100 + n)), rotated
    by the seed."""
    gen = np.random.default_rng(100 + n)
    w = gen.integers(1, 16, size=n)
    z = gen.integers(0, 2, size=n)
    inst = hardness.SubsetSumInstance(w0=int(w @ z), w=tuple(int(v) for v in w))
    _, f = hardness.gen_deg2_cube_instance(inst)
    return rotated(f, seed)


def c7_targets() -> list[tuple[str, QuadraticForm]]:
    """The five planted targets of acceptance criterion C7."""
    return [
        ("disc", QuadraticForm(A=-np.eye(2), b=np.zeros(2), c=0.2107)),
        ("half", QuadraticForm(A=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c=-1.0)),
        ("band", QuadraticForm(A=np.diag([-1.0, 0.0]), b=np.zeros(2), c=0.5)),
        ("shell", QuadraticForm(A=np.eye(2), b=np.zeros(2), c=-9.2)),
        ("thin3", QuadraticForm(A=np.zeros((3, 3)), b=np.array([1.0, 0.0, 0.0]), c=-3.0)),
    ]


def poly_values(q: QuadraticForm, x: np.ndarray) -> np.ndarray:
    """p(x) for a batch, evaluated by the benchmark, not by the library."""
    return np.einsum("ki,ki->k", x @ q.A, x) + x @ q.b + q.c


def reference_draws(n: int, seed: int, tag: int) -> np.ndarray:
    """REF_DRAWS standard normal points in R^n from a fixed stream of (seed, tag)."""
    return np.random.default_rng([seed, 7, tag]).standard_normal((REF_DRAWS, n))


# --- ops ------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    ok: bool
    seconds: float  # wall time actually spent
    first_s: float  # time to the op's first result
    info: dict = field(default_factory=dict)
    error: str | None = None  # set when the op raised or overran

    @property
    def wrong(self) -> bool:
        """The op returned an answer that failed its check."""
        return not self.ok and self.error is None


class CountOp:
    """count_ptf_gaussian, within (1 +- eps) of a Monte Carlo reference plus
    the reference's 99% CI."""

    def __init__(self, label, q, seed, tag, **kwargs):
        self.label, self.q, self.kwargs = label, q, kwargs
        self.eps = kwargs.get("eps", quadgauss.counter.DEFAULT_EPS)
        hits = poly_values(q, reference_draws(q.n, seed, tag)) >= 0.0
        self.ref = float(np.mean(hits))
        self.ref_ci = Z99 * math.sqrt(self.ref * (1.0 - self.ref) / REF_DRAWS)

    def run(self):
        return quadgauss.count_ptf_gaussian(self.q, **self.kwargs).estimate, None

    def check(self, est):
        ok = abs(est - self.ref) <= self.eps * self.ref + self.ref_ci
        return ok, {"estimate": est, "reference": self.ref, "rel_err": abs(est - self.ref) / self.ref}


class SampleOp:
    """Construct a PtfSampler and draw k filtered points.  Every draw must lie
    in the region, and each coordinate mean within MOMENT_SIGMAS standard
    errors of a rejection-sampling reference."""

    def __init__(self, label, q, seed, tag, k, **kwargs):
        self.label, self.q, self.k, self.kwargs = label, q, k, kwargs
        self.rng = (seed, tag)
        x = reference_draws(q.n, seed, tag)
        acc = x[poly_values(q, x) >= 0.0]
        self.ref_mean = acc.mean(axis=0)
        self.ref_var = acc.var(axis=0) / acc.shape[0]

    def run(self):
        rng = Rng(self.rng[0]).derive(self.rng[1])
        t0 = time.perf_counter()
        sampler = PtfSampler(self.q, **self.kwargs)
        pts = np.empty((self.k, self.q.n))
        draw_s = []
        for i in range(self.k):
            t = time.perf_counter()
            pts[i] = sampler.sample(rng, exact_filter=True)
            draw_s.append(time.perf_counter() - t)
            if i == 0:
                first_s = time.perf_counter() - t0
        return (pts, draw_s, sampler.filter_rejections), first_s

    def check(self, result):
        pts, draw_s, rejections = result
        signs_ok = bool(np.all(poly_values(self.q, pts) >= 0.0))
        se = np.sqrt(pts.var(axis=0) / self.k + self.ref_var)
        z = float(np.max(np.abs(pts.mean(axis=0) - self.ref_mean) / se))
        ok = signs_ok and z <= MOMENT_SIGMAS
        return ok, {"signs_ok": signs_ok, "moment_z_max": z, "draws": self.k,
                    "draw_s": draw_s, "rejections": int(rejections)}


class DensifyOp:
    """planted_experiment on a C7 target with the default config; gated on
    finishing with mistakes <= mistake_budget.  passed_a / passed_b are
    quality counts, not gates: C7 itself lets 2 of 20 runs miss them."""

    def __init__(self, label, f, seed, tag):
        self.label, self.f = label, f
        self.rng = (seed, tag)

    def run(self):
        rng = Rng(self.rng[0]).derive(self.rng[1])
        cfg = DensifierConfig(eps=0.1, delta=0.1)
        return planted_experiment(self.f, cfg, rng, n_validation=3000), None

    def check(self, rep):
        keys = ("mistakes", "mistake_budget", "rounds", "passed_a", "passed_b")
        return rep["mistakes"] <= rep["mistake_budget"], {k: rep[k] for k in keys}


def run_op(op, tracer=None) -> Outcome:
    span = tracer.span(f"op.{op.label}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            with span:
                result, first_s = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except (OpTimeout, Exception) as exc:  # a raise or an overrun is a failed op
        elapsed = time.perf_counter() - t0
        return Outcome(op.label, False, elapsed, elapsed, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    ok, info = op.check(result)
    return Outcome(op.label, ok, seconds, seconds if first_s is None else first_s, info)


# --- workloads ------------------------------------------------------------


@dataclass
class Workload:
    ops: list
    probes: list  # known gaps: default-flag cases that fail at the seed commit
    pass_s: float = 1.0  # nominal time of one pass on a 2-core VM

    def passes(self, seconds: float) -> int:
        """Passes that fill about ``seconds`` at the nominal pass time.  The
        count does not depend on how busy the host is, so a slow stretch
        cannot change how many passes the median is taken over."""
        return max(1, round(seconds / self.pass_s))


def build_count_fine(seed: int) -> Workload:
    ops = [CountOp(f"bench{n}", bench_instance(seed, n), seed, n) for n in range(1, 6)]
    ops += [CountOp(f"cube{n}", cube_ptf(seed, n), seed, 100 + n) for n in (3, 4)]
    probes = [CountOp(f"bench{n}", bench_instance(seed, n), seed, n) for n in (16, 32)]
    return Workload(ops, probes, pass_s=10.5)


def build_sample_draws(seed: int) -> Workload:
    n2, n3_tau4 = tracing.DRAW_CASES
    ops = [
        SampleOp(n2, bench_instance(seed, 2), seed, 2, k=300),
        SampleOp(n3_tau4, bench_instance(seed, 3), seed, 3, k=100, tau=2.0**-4),
    ]
    probes = [SampleOp("n3", bench_instance(seed, 3), seed, 3, k=20)]
    return Workload(ops, probes, pass_s=6.0)


def build_densify_planted(seed: int) -> Workload:
    ops = [
        DensifyOp(f"{name}.{rep}", f, seed, 10 * rep + i)
        for rep in range(3)
        for i, (name, f) in enumerate(c7_targets())
    ]
    return Workload(ops, [], pass_s=3.8)


WORKLOADS = {
    "count-fine": build_count_fine,
    "sample-draws": build_sample_draws,
    "densify-planted": build_densify_planted,
}


# --- measurement ------------------------------------------------------------


@dataclass
class PassResult:
    wall: float  # wall time of the ops as run
    seconds: float  # wall time with each failed op charged OP_LIMIT_S
    first_s: float  # summed time to first results, failed ops charged OP_LIMIT_S
    outcomes: list
    probes: list  # outcomes of the probes run after the ops, if any


def run_pass(ops, probes=(), tracer=None) -> PassResult:
    t0 = time.perf_counter()
    outcomes = [run_op(op, tracer) for op in ops]
    wall = time.perf_counter() - t0
    charged = sum(o.seconds if o.ok else OP_LIMIT_S for o in outcomes)
    first = sum(o.first_s if o.ok else OP_LIMIT_S for o in outcomes)
    return PassResult(wall, charged, first, outcomes, [run_op(op, tracer) for op in probes])


def cli_timings(seed: int) -> dict:
    """Cold-start costs in fresh interpreters: importing quadgauss.cli, and a
    whole ``quadgauss.cli count`` call on the 2-D bench instance."""
    OUT_DIR.mkdir(exist_ok=True)
    inst = OUT_DIR / f"cli-instance-{seed}.json"
    save_instance(bench_instance(seed, 2), str(inst))
    probe = "import time; t = time.perf_counter(); import quadgauss.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(Path(quadgauss.__file__).resolve().parents[1]))
    imports, colds = [], []
    for _ in range(CLI_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, timeout=60, env=env)
        imports.append(float(out.stdout.split()[-1]))
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "quadgauss.cli", "count", "--instance", str(inst)],
                             capture_output=True, text=True, timeout=60, env=env)
        colds.append(time.perf_counter() - t)
        if out.returncode != 0 or "estimate" not in json.loads(out.stdout):
            raise RuntimeError(f"quadgauss.cli count failed: {out.stderr.strip()}")
    return {"cli.import_s": statistics.median(imports), "cli.count_cold_s": statistics.median(colds)}


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "op_limit_s": OP_LIMIT_S,
    }


def _op_record(o: Outcome) -> dict:
    rec = {"op": o.label, "ok": o.ok, "seconds": o.seconds, "first_result_s": o.first_s}
    if o.error:
        rec["error"] = o.error
    rec.update((k, v) for k, v in o.info.items() if k != "draw_s")
    return rec


def measure(wl: Workload, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run ``wl.passes(seconds)`` passes over ``wl.ops``.  Untraced, the
    probes run once at the end.  Traced, as many traced passes alternate with
    the untraced ones, and each traced pass runs the probes too.  Returns the
    result document and one Tracer per traced pass."""
    signal.signal(signal.SIGALRM, _on_alarm)
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracers: list[tracing.Tracer] = []
    for _ in range(wl.passes(seconds) * (2 if trace else 1)):
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracer.installed():
                res = run_pass(wl.ops, wl.probes, tracer)
            traced.append(res)
            tracers.append(tracer)
        else:
            plain.append(run_pass(wl.ops))
    outcomes = [o for p in plain + traced for o in p.outcomes]
    if trace:
        probes = traced[-1].probes
        checked = outcomes + [o for p in traced for o in p.probes]
        per_pass = [tracing.pass_metrics(t, p.outcomes + p.probes) for t, p in zip(tracers, traced)]
        metrics = tracing.summarise(
            per_pass,
            untraced_s=statistics.median(p.wall for p in plain),
            traced_s=statistics.median(p.wall for p in traced),
        )
    else:
        probes = [run_op(op) for op in wl.probes]
        checked = outcomes + probes
        everything = len(wl.ops) + len(probes)
        probes_ok = sum(o.ok for o in probes)
        metrics = {
            "pass_s": statistics.median(p.seconds for p in plain),
            "first_result_s": statistics.median(p.first_s for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": statistics.median(
                (sum(o.ok for o in p.outcomes) + probes_ok) / everything for p in plain
            ),
        }
    doc = {
        "correct": not any(o.wrong for o in checked),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
        "detail": {
            "env": environment(),
            "pass_walls_s": [p.wall for p in plain],
            "traced_pass_walls_s": [p.wall for p in traced],
            "ops": [_op_record(o) for o in (traced or plain)[-1].outcomes],
            "probes": [_op_record(o) for o in probes],
        },
    }
    return doc, tracers


def run_workload(name: str, build, seed: int, seconds: float, trace: bool) -> dict:
    """Build the inputs with ``build(seed)`` and measure them.  With ``trace``
    the per-layer metrics are completed with input building (hardness.gen_s)
    and the cold-start CLI timings, and the spans are written to OUT_DIR."""
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed() if trace else contextlib.nullcontext():
        wl = build(seed)
    doc, tracers = measure(wl, seconds, trace)
    if not trace:
        return doc
    gen = setup_tracer.by_name().get("hardness.gen")
    doc["metrics"]["hardness.gen_s"] = gen["self"] if gen else 0.0
    doc["metrics"].update(cli_timings(seed))
    absent = {}
    for t in [setup_tracer, *tracers]:
        absent.update(tracing.absent_metrics(t))
    for metric in absent:
        doc["metrics"].pop(metric, None)
    doc["detail"]["absent"] = absent
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, t in enumerate(tracers):
            for rec in t.records():
                fh.write(json.dumps({"pass": i, **rec}) + "\n")
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="One quadgauss benchmark workload process.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    build = WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed)
        return 0
    doc = run_workload(args.workload, build, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
