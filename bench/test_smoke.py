"""Smoke test of the benchmark at its smallest size.

Every workload runs in both modes, passes its output checks and emits every
metric BENCHMARK.json names, with the right unit. The benchmark also refuses
to run where the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import load_benchmark  # noqa: E402

BENCHMARK = load_benchmark()

# Per-layer metrics that must read above 0 on the workloads that reach them.
# Only public functions are listed: internals may be refactored away, and the
# benchmark then reports them as absent instead of failing.
REACHED = {
    "sweep": ["cli.main.calls", "config.load_config.calls", "engine.sweep.s", "engine.sweep.result_bytes",
              "reports.write_comparison_store.s", "reports.read_comparison_store.s",
              "reports.write_summary.s", "reports.write_plot_data.s", "reports.bytes_written",
              "risk.summarize_models.s"],
    "sweep-jobs": ["cli.main.calls", "engine.sweep.s", "engine.sweep.result_bytes",
                   "reports.write_comparison_store.s"],
    "one-case": ["cli.main.calls", "config.load_config.calls", "engine.run_closed_loop.calls",
                 "reports.write_trace_csv.s", "reports.write_verdict_json.s", "reports.bytes_written"],
    "ingest": ["ingest.read_tracks_csv.s", "ingest.extract_cut_in_events.s", "ingest.export_features.s",
               "ingest.write_features_csv.s", "ingest.events", "ingest.event_yield"],
}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    else:
        assert all(values[name] > 0 for name in REACHED[workload]), values
        assert values["trace.overhead_frac"] != 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
