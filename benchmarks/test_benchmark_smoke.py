"""Smoke test of the benchmark harness at tiny sizes (seconds, not minutes).

    python -m pytest -q benchmarks/test_benchmark_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*argv):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.splitlines()


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "1", "--smoke", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    detail = json.loads(lines[-2][len("detail "):])
    for key in ("setup_s", "wall_s", "op_tail_s", "failed_share", "peak_rss_mb"):
        assert detail[key]["value"] >= 0.0
    assert detail["wall_s"]["value"] > 0.0
    assert spans.read_text().strip()
    layer = detail["per_layer"]
    if workload == "montecarlo":
        assert all(v == 0 for k, v in layer.items()
                   if k.startswith("density.") and k.endswith(".calls"))
        assert layer["factorizations.sample_stable.draws"] > 0
    if workload == "scan":
        assert layer["msu.msu_scan.calls"] > 0
    if workload == "pointwise":
        assert layer["quadrature.de_halfline.calls"] > 0
        assert "bar_miss_share" in detail


def test_refuses_thread_override(monkeypatch):
    monkeypatch.setenv("STABLE_MSU_THREADS", "1")
    proc, lines = _run("--workload", "scan", "--smoke", "--seconds", "0")
    assert proc.returncode == 2
    assert not lines
