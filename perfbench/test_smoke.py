"""Smoke test of the benchmark itself at toy size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

For every workload in BENCHMARK.json it runs ``perfbench/run.py --toy``
untraced and traced, and checks the result line against BENCHMARK.json:
every metric is emitted with its unit, the output checks pass, and the
traced per-op forward plus backward time fits inside the median step time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-op times are means over steps, the step time is a median; the ops
# also leave out graph traversal, so only timing noise can push them over
NOISE_FRAC = 0.25
NOISE_MS = 2.0


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, 0)
    check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_that_add_up(workload):
    result = run(workload, 1)
    check_result(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    op_ms = sum(v for k, v in metrics.items()
                if k.startswith("autodiff.") and k.endswith(("fwd_ms", "bwd_ms")))
    step = metrics["train.step_ms_p50"]
    assert 0 < op_ms <= step * (1 + NOISE_FRAC) + NOISE_MS, (op_ms, step)


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
