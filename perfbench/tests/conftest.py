"""Put orbtour and the benchmark's modules on the path for these tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
