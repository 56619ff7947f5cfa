"""Tests of the benchmark itself: smoke mode, output contract, refusal."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_validates_every_workload_and_spans_cover_traced_time():
    proc = _run(["--smoke"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = {r["workload"]: r for r in map(json.loads, proc.stdout.splitlines())}
    assert set(reports) == {"table", "grid", "session"}
    for report in reports.values():
        assert report["untraced_share"] <= 0.02 and report["unexpected"] == 0, report
    assert reports["table"]["failed"] == reports["grid"]["failed"] == 0


def test_run_prints_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "session", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "table", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
