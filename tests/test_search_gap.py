import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_search_gap_reports_both_seedings_at_15_bundles():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_gap.py"),
         "15", "42000", "1", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    title, header, *rows, last = proc.stdout.splitlines()
    assert title == "15 bundles, scenarios 42000-42000 x optimizer seeds 0-0"
    assert header.split() == ["seeding", "runs", "misses", "mean", "gap", "worst", "gap"]
    assert [row.split()[:2] for row in rows] == [["none", "1"], ["walks", "1"]]
    assert last.startswith("seeded runs worse than their best walk: ")
