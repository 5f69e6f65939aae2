"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced, as the benchmark is run:
a separate process from the source-tree root. Checks that the metrics
printed are exactly those BENCHMARK.json names, with its units, that no op
failed, and that the traced run recorded a span in every layer the workload
is expected to reach.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def run(workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_without_failures(workload, trace):
    report, result = run(workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["quality"]["fail_ratio"]["value"] == 0
    assert result["correct"] is True
    if trace:
        spans = (BENCH / "out" / f"{workload}-seed7-trace1.spans.jsonl").read_text().splitlines()
        layers = {json.loads(line)["layer"] for line in spans}
        assert set(workloads.WORKLOADS[workload].layers) <= layers


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0 and proc.stdout == ""
