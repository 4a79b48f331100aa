"""Runner of the quadgauss benchmark.

Run from the root of a checkout::

    python3 bench/run.py --workload count-fine --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times SETUP_REPEATS fresh interpreters that import
quadgauss and build the workload's inputs and references (``setup_s``, the
median), then starts one workload process that measures the end-to-end
metrics.  With ``--trace 1`` the workload process measures the per-layer
metrics instead.  Every process it starts runs with BLAS threads pinned to 1
and glibc malloc set to keep freed memory (MALLOC_ENV), and ends before it
exits.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it holds the environment (Python, numpy and scipy versions,
CPU count, git commit, seed) and per-op detail; the same record is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("count-fine", "sample-draws", "densify-planted")
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "first_result_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
SETUP_REPEATS = 5
# Serve every allocation from the heap and never hand freed memory back to
# the kernel.  By default numpy's large temporaries are mmapped and unmapped
# on each call, and the page faults that refill them (10-15% of count-fine's
# time, all of it system time) vary with the host's memory pressure.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
RUN_LIMIT_S = 170.0  # the whole run, set-ups included


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run ``cmd`` in its own process group and return its stdout.  At the
    deadline, or when the runner itself is interrupted or terminated, the whole
    group is killed and reaped before the exception propagates."""
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def result_line(doc: dict, setup: list[float], trace: bool) -> dict:
    """The result object: the workload process's counts, and its metric
    values with their units (plus the median set-up time when untraced)."""
    values = dict(doc["metrics"])
    if trace:
        units = tracing.LAYER_UNITS
    else:
        values["setup_s"] = statistics.median(setup)
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one quadgauss benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "quadgauss" / "__init__.py").is_file():
        sys.stderr.write(f"error: no quadgauss sources under {src}; run from the repository root\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", **MALLOC_ENV)
    deadline = time.monotonic() + RUN_LIMIT_S
    child = [sys.executable, str(BENCH / "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            run_child(child + ["--setup-only"], env, deadline)
            setup.append(time.perf_counter() - t)
    out = run_child(child + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    doc = json.loads(out.splitlines()[-1])

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "git_commit": git_commit(root), "setup_runs_s": setup, **doc["detail"]}
    result = result_line(doc, setup, bool(args.trace))
    (BENCH / "out").mkdir(exist_ok=True)
    record = BENCH / "out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    sys.stdout.write(json.dumps({"detail": detail}) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
