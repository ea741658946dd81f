"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests

Checks that every workload runs, that each run prints exactly the metrics
BENCHMARK.json names with their units, and that the digest gate fails a
run whose output bytes changed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Workload-specific metrics of the report line (tails depend on the sample count).
DETAIL = {
    "mc_small": ["mc.samples_per_s", "mc.sample_p50_us", "mc.sample_count"],
    "grow_large": ["grow.ds6v_T12_s", "grow.field_T6_s", "grow.particles_T16_s"],
    "verify_cold": ["verify.wall_s", "verify.checks_failed"],
    "param_sweep": ["sweep.points_per_s", "sweep.rss_growth_mb", "sweep.point_p50_ms"],
}


def bench(workload, trace, cwd=ROOT, bench_dir=os.path.join(ROOT, "perfbench")):
    return subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def copy_bench(dest):
    shutil.copytree(os.path.join(ROOT, "perfbench"), dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = json.loads(report_line)["report"]
    assert set(DETAIL[workload]) | {"error_rate"} <= set(report["detail"])
    assert report["detail"]["error_rate"]["value"] == 0
    assert {"python", "numpy", "scipy", "nproc", "git_commit", "src_spinhl_lines"} <= set(
        report["environment"])


@pytest.mark.parametrize("workload,output", [
    ("mc_small", "mc_small"),
    ("grow_large", "grow.ds6v"),
    ("grow_large", "grow.particles"),
    ("verify_cold", "verify"),
    ("param_sweep", "param_sweep"),
])
def test_gate_fires_on_changed_output(workload, output, tmp_path):
    # A copy of the benchmark whose pinned digest for `output` is wrong, run on
    # this checkout: the workers read the digests next to their own code.
    copy = copy_bench(tmp_path)
    with open(copy / "digests.json") as fh:
        digests = json.load(fh)
    digests["tiny"][output] = "0" * 64
    with open(copy / "digests.json", "w") as fh:
        json.dump(digests, fh)
    proc = bench(workload, 0, bench_dir=str(copy))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert any("digest mismatch" in e for e in report["errors"])


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    copy = copy_bench(tmp_path)
    proc = bench("mc_small", 0, cwd=str(tmp_path), bench_dir=str(copy))
    assert proc.returncode != 0
    assert proc.stdout == ""
