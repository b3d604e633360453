import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_bench_record_writes_every_run_of_a_workload(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--workload",
         "tour_campaign", "--seconds", "1", "--seeds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    record = json.loads(out.read_text())
    assert set(record) == {"revision", "seconds", "environment", "workloads"}
    assert record["seconds"] == 1.0
    assert {"git_revision", "python", "numpy", "cpu_count"} <= set(record["environment"])
    assert list(record["workloads"]) == ["tour_campaign"]
    runs = record["workloads"]["tour_campaign"]
    assert set(runs) == {"untraced", "traced"}
    [untraced] = runs["untraced"]
    assert untraced["seed"] == 1 and untraced["correct"] and untraced["rounds"] >= 1
    assert set(untraced["metrics"]) == {"setup_s", "wall_ref", "peak_rss_mb", "fuel_ratio"}
    assert untraced["median_round_s"] > 0.0 and untraced["reference_kernel_ms"] > 0.0
    traced = runs["traced"]
    assert traced["correct"] and "median_round_s" not in traced
    assert {"tour.cost_batch_s", "optimizer.optimize_s"} <= set(traced["metrics"])
