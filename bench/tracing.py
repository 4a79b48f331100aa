"""Traced run of the quadgauss benchmark: spans around calls into each layer.

The package is not instrumented.  ``Tracer.installed()`` replaces public
functions at the names the program looks them up by (``sampler.count`` is the
counter as the sampler calls it, ``densifier.sign_at`` the sign test as the
densifier calls it, ``Rng.normal`` every normal draw) with wrappers that
record a span (name, start, end, parent) in memory, and restores them on
exit.  A layer's self time is its spans' duration minus the part covered by
child spans.  A wrapped name that no longer exists is skipped; the metrics
that depend on it are reported absent with the reason.

``LAYER_METRICS`` is the layer -> metric map: for each per-layer metric, its
unit, how it is derived, the end-to-end metric it should move and the
workloads it should move on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

DRAW_CASES = ("n2", "n3_tau4")  # sample-draws op labels with per-case draw metrics

# (metric, unit, derivation, moves, on).  Derivations: "self:<span>" sums
# self time, "wall:<span>" sums span duration, "calls:<span>" counts spans,
# "count:<name>" reads a counter kept by a wrapper, "op:" comes from the ops'
# own results, "run:" from the run as a whole.
LAYER_METRICS = [
    ("grid.pmf_s", "s", "self:grid.pmf", "pass_s", "count-fine"),
    ("grid.pmf_atoms", "count", "count:grid.pmf_atoms", "pass_s", "count-fine"),
    ("counter.tail_cdf_s", "s", "self:counter.tail_cdf", "pass_s", "count-fine"),
    ("counter.pairs", "count", "count:counter.pairs", "pass_s", "count-fine"),
    ("counter.steps", "count", "count:counter.steps", "pass_s", "count-fine"),
    ("counter.atoms_kept_max", "count", "count:counter.atoms_kept_max", "pass_s", "count-fine"),
    ("counter.query_s", "s", "self:counter.query", "-", "count-fine"),
    ("counter.rel_err_max", "ratio", "op:", "- (accuracy diagnostic)", "count-fine"),
    ("counter.failed_op_s", "s", "op:", "- (failures are charged the limit)", "count-fine, sample-draws"),
    ("quadform.decouple_s", "s", "self:quadform.decouple", "pass_s", "count-fine (n = 32 probe)"),
    ("quadform.round_s", "s", "self:quadform.round", "pass_s", "count-fine (n = 32 probe)"),
    ("counter.count_calls", "count", "calls:counter.count", "pass_s, first_result_s", "sample-draws"),
    ("counter.count_s", "s", "wall:counter.count", "pass_s, first_result_s", "sample-draws"),
    ("sampler.init_s", "s", "wall:sampler.init", "first_result_s", "sample-draws"),
    ("sampler.first_draw_s", "s", "op:", "first_result_s", "sample-draws"),
    ("sampler.grid_point_s", "s", "self:sampler.grid_point", "pass_s", "sample-draws"),
    ("sampler.lift_s", "s", "self:sampler.lift", "pass_s", "sample-draws"),
    ("numerics.truncnorm_s", "s", "self:numerics.truncnorm", "pass_s", "sample-draws"),
    *[
        row
        for case in DRAW_CASES
        for row in (
            (f"sampler.draw_p50_ms.{case}", "ms", "op:", "pass_s", "sample-draws"),
            (f"sampler.draw_tail_ms.{case}", "ms", "op:", "pass_s", "sample-draws"),
            (f"sampler.draws.{case}", "count", "op:", "-", "sample-draws"),
        )
    ],
    ("sampler.accept_frac", "ratio", "op:", "pass_s", "sample-draws"),
    ("numerics.normal_s", "s", "self:numerics.normal", "pass_s", "densify-planted"),
    ("quadform.sign_at_s", "s", "self:quadform.sign_at", "pass_s", "densify-planted"),
    ("quadform.sign_at_points", "count", "count:quadform.sign_at_points", "pass_s", "densify-planted"),
    ("densifier.densify_s", "s", "wall:densifier.densify", "pass_s", "densify-planted"),
    ("densifier.count_s", "s", "wall:densifier.count", "pass_s", "densify-planted"),
    ("densifier.mc_count_s", "s", "wall:densifier.mc_count", "pass_s", "densify-planted"),
    ("densifier.rounds", "count", "op:", "- (quality count)", "densify-planted"),
    ("densifier.mistakes", "count", "op:", "- (quality count)", "densify-planted"),
    ("densifier.passed_frac", "ratio", "op:", "- (quality count)", "densify-planted"),
    ("hardness.gen_s", "s", "self:hardness.gen", "setup_s", "count-fine (while building inputs)"),
    ("cli.import_s", "s", "run:", "setup_s", "all"),
    ("cli.count_cold_s", "s", "run:", "setup_s", "all"),
    ("trace.overhead_s", "s", "run:", "- (traced minus untraced pass wall time)", "all"),
]
LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}


def _count_pmf_atoms(tracer, args, kwargs, out):
    tracer.counts["grid.pmf_atoms"] += out[0].size


def _count_sign_points(tracer, args, kwargs, out):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    tracer.counts["quadform.sign_at_points"] += 1 if x.ndim <= 1 else x.size // x.shape[-1]


# (module, attribute path, span name, hook run on the result)
WRAPS = [
    ("quadgauss.counter", "support_and_log_pmf", "grid.pmf", _count_pmf_atoms),
    ("quadgauss.counter", "compressed_tail_cdf", "counter.tail_cdf", None),
    ("quadgauss.counter", "CompressedCDF.log_query", "counter.query", None),
    ("quadgauss.counter", "decouple", "quadform.decouple", None),
    ("quadgauss.sampler", "decouple", "quadform.decouple", None),
    ("quadgauss.counter", "round_coefficients", "quadform.round", None),
    ("quadgauss.sampler", "round_coefficients", "quadform.round", None),
    ("quadgauss.sampler", "count", "counter.count", None),
    ("quadgauss.sampler", "PtfSampler.__init__", "sampler.init", None),
    ("quadgauss.sampler", "PtfSampler.sample", "sampler.draw", None),
    ("quadgauss.sampler", "sample_grid_point", "sampler.grid_point", None),
    ("quadgauss.sampler", "lift_to_continuous", "sampler.lift", None),
    ("quadgauss.sampler", "truncated_normal_sample", "numerics.truncnorm", None),
    ("quadgauss.numerics", "Rng.normal", "numerics.normal", None),
    ("quadgauss.counter", "sign_at", "quadform.sign_at", _count_sign_points),
    ("quadgauss.sampler", "sign_at", "quadform.sign_at", _count_sign_points),
    ("quadgauss.densifier", "sign_at", "quadform.sign_at", _count_sign_points),
    ("quadgauss.densifier", "densify", "densifier.densify", None),
    ("quadgauss.densifier", "count_ptf_gaussian", "densifier.count", None),
    ("quadgauss.densifier", "mc_count", "densifier.mc_count", None),
    ("quadgauss.hardness", "gen_deg2_cube_instance", "hardness.gen", None),
]
TAIL_CDF_COUNTS = ("counter.pairs", "counter.steps", "counter.atoms_kept_max")


class Tracer:
    """Spans and counters recorded in memory while the wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: dict[str, str] = {}  # span or counter name -> reason
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapped

    def _wrap_tail_cdf(self, fn):
        # pass a collect list so per-step sparsified supports can be counted
        @functools.wraps(fn)
        def wrapped(pmfs, eps, collect=None):
            steps = [] if collect is None else collect
            with self.span("counter.tail_cdf"):
                out = fn(pmfs, eps, collect=steps)
            kept = [c.values.size for c in steps]
            self.counts["counter.steps"] += len(pmfs) - 1
            self.counts["counter.pairs"] += sum(
                a * pmf[0].size for a, pmf in zip(kept[:-1], pmfs[1:])
            )
            self.counts["counter.atoms_kept_max"] = max(self.counts["counter.atoms_kept_max"], *kept)
            return out

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            for module_name, path, name, hook in WRAPS:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except AttributeError:
                    self.absent.setdefault(name, f"{module_name}.{path} no longer exists")
                    continue
                if name == "counter.tail_cdf":
                    if "collect" in inspect.signature(fn).parameters:
                        wrapped = self._wrap_tail_cdf(fn)
                    else:
                        wrapped = self._wrap(fn, name, None)
                        for key in TAIL_CDF_COUNTS:
                            self.absent[key] = f"{module_name}.{path} takes no collect="
                else:
                    wrapped = self._wrap(fn, name, hook)
                restore.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, summed wall time and call count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self": 0.0, "wall": 0.0, "calls": 0})
        for (name, t0, t1, _), kids in zip(self.spans, child):
            row = out[name]
            row["self"] += t1 - t0 - kids
            row["wall"] += t1 - t0
            row["calls"] += 1
        return out

    def records(self):
        for sid, (name, t0, t1, parent) in enumerate(self.spans):
            yield {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}


def _draw_metrics(outcomes) -> dict:
    out = {}
    sampled = [o.info for o in outcomes if "draw_s" in o.info]
    draws = sum(i["draws"] for i in sampled)
    rejections = sum(i["rejections"] for i in sampled)
    for case in DRAW_CASES:
        times = sorted(t for o in outcomes if o.label == case for t in o.info.get("draw_s", ()))
        k = len(times)
        # tail: the highest percentile with at least ten draws beyond it
        out[f"sampler.draws.{case}"] = k
        out[f"sampler.draw_p50_ms.{case}"] = 1e3 * statistics.median(times) if k else 0.0
        out[f"sampler.draw_tail_ms.{case}"] = 1e3 * times[k - 11] if k > 10 else 0.0
    out["sampler.accept_frac"] = draws / (draws + rejections) if draws else 0.0
    out["sampler.first_draw_s"] = sum(i["draw_s"][0] for i in sampled)
    return out


def pass_metrics(tracer: Tracer, outcomes) -> dict:
    """Per-layer metrics of one traced pass (all but the run-level ones)."""
    rows = tracer.by_name()
    out = {}
    for name, _unit, how, *_ in LAYER_METRICS:
        kind, _, key = how.partition(":")
        if kind in ("self", "wall", "calls"):
            out[name] = rows[key][kind]
        elif kind == "count":
            out[name] = tracer.counts.get(key, 0)
    out.update(_draw_metrics(outcomes))
    rel = [o.info["rel_err"] for o in outcomes if "rel_err" in o.info]
    out["counter.rel_err_max"] = max(rel, default=0.0)
    dens = [o.info for o in outcomes if "passed_a" in o.info]
    out["densifier.rounds"] = sum(d["rounds"] for d in dens)
    out["densifier.mistakes"] = sum(d["mistakes"] for d in dens)
    out["densifier.passed_frac"] = (
        sum(d["passed_a"] and d["passed_b"] for d in dens) / len(dens) if dens else 0.0
    )
    out["counter.failed_op_s"] = sum(o.seconds for o in outcomes if not o.ok)
    return out


def absent_metrics(tracer: Tracer) -> dict[str, str]:
    """Metrics whose wrapped name is missing, with the reason."""
    out = {}
    for name, _unit, how, *_ in LAYER_METRICS:
        kind, _, key = how.partition(":")
        if key in tracer.absent:
            out[name] = tracer.absent[key]
    return out


def summarise(per_pass: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Median of each per-pass metric, plus the tracing overhead: median
    traced minus median untraced wall time of the ops."""
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = traced_s - untraced_s
    return out
