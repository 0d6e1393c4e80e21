"""Smoke test of the benchmark at a tiny size (about a minute).

    python3 -m pytest perfbench/test_smoke.py

It lives outside ``tests/``, so the repository's own suite does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {
    "setup_s", "import_s", "frames_per_s", "frame_ms_p50", "frame_ms_tail", "peak_rss_mb",
    "ok_frame_ratio", "ape_t_m", "ape_r_rad",
}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["corridor", "mapgen", "starved"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["corridor", "mapgen", "starved"])
def test_traced_run_self_times_add_up_to_the_traced_wall(workload):
    metrics = {k: m["value"] for k, m in bench(workload, 1)["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["trace.overhead_ratio"] > 0
    busy = "mapgen.ransac_s" if workload == "mapgen" else "ieskf.propagate_s"
    assert metrics[busy] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py", "spans.py", "calib.py"):
        (tmp_path / "perfbench" / name).write_text((ROOT / "perfbench" / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corridor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
