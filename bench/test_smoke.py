"""Reduced-size smoke check of the benchmark itself: tiny versions of every
op type run through the real pass loop, tracer and result formatting, and
every metric named in BENCHMARK.json must come out with its unit.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(seed: int) -> workloads.Workload:
    q2 = workloads.bench_instance(seed, 2)
    disc = workloads.c7_targets()[0][1]
    return workloads.Workload(
        ops=[
            workloads.CountOp("bench2", q2, seed, 2, tau=2.0**-4),
            workloads.CountOp("bench3", workloads.bench_instance(seed, 3), seed, 3,
                              tau=2.0**-3, trunc_B=3.0),
            workloads.CountOp("cube3", workloads.cube_ptf(seed, 3), seed, 103,
                              tau=2.0**-3, trunc_B=3.0, eps=0.2),
            workloads.SampleOp(tracing.DRAW_CASES[0], q2, seed, 2, k=12, tau=2.0**-4),
            workloads.DensifyOp("disc", disc, seed, 0),
        ],
        probes=[workloads.CountOp("bench16", workloads.bench_instance(seed, 16), seed, 16)],
    )


def spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_units_match_benchmark_json():
    assert run.E2E_UNITS == spec_units("end_to_end")
    assert tracing.LAYER_UNITS == spec_units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace):
    doc = workloads.run_workload("smoke", tiny, 3, 0.0, trace)
    result = run.result_line(doc, [0.5, 0.6, 0.7], trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 5
    expected = spec_units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    json.dumps(result)
    if not trace:
        # the n = 16 probe fails at the seed commit and shows in ok_frac only
        assert result["metrics"]["ok_frac"]["value"] < 1.0
    else:
        assert doc["detail"]["absent"] == {}
        assert result["metrics"]["counter.pairs"]["value"] > 0
        assert result["metrics"]["sampler.draws.n2"]["value"] == 12


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    gone = ("quadgauss.sampler", "lift_to_continuous_gone", "sampler.lift", None)
    monkeypatch.setattr(tracing, "WRAPS", [gone if w[2] == "sampler.lift" else w for w in tracing.WRAPS])
    doc = workloads.run_workload("smoke", tiny, 3, 0.0, True)
    assert "sampler.lift_s" not in doc["metrics"]
    assert "lift_to_continuous_gone" in doc["detail"]["absent"]["sampler.lift_s"]
    assert doc["correct"] is True


def test_runner_refuses_a_directory_without_sources(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "count-fine",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
