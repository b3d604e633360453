#!/usr/bin/env python3
"""Record the benchmark's numbers for the checked-out tree in one JSON file.

For each workload, ``perfbench/run.py`` runs as a subprocess ``--seeds``
times untraced (seeds 1, 2, ...) and once traced (seed 1), each for
``--seconds``.  The file holds every run's result line (end-to-end metrics
for the untraced runs, per-layer metrics for the traced one), the raw
median round seconds and reference-kernel milliseconds that an untraced
run prints on standard error, and the environment of the first run.  By
default it is ``BENCH_<short-rev>.json`` at the repository root, where the
revision is HEAD's, with ``-dirty`` appended when tracked files differ
from it.

Usage: python scripts/bench_record.py [--workload NAME ...] [--seeds 3]
       [--seconds 15] [--out PATH]
       (the three workloads at the defaults take about five minutes)
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mission_pipeline", "reference_transfers", "tour_campaign")
#: the line an untraced run prints on standard error after its rounds
_ROUND_LINE = re.compile(r"median round ([0-9.]+) s in orbtour calls; \d+ reference "
                         r"kernel samples, median ([0-9.]+) ms")


def short_revision() -> str:
    """HEAD's short hash, with ``-dirty`` if tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        return rev + ("-dirty" if git("status", "--porcelain", "--untracked-files=no")
                      else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its environment and result lines, and
    for an untraced run the median round and kernel time from stderr."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    head, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    run = {"seed": seed, "rounds": head["rounds"], **result}
    if not trace:
        match = _ROUND_LINE.search(proc.stderr)
        if match is None:
            raise RuntimeError(f"perfbench {workload} seed {seed}: no median round "
                               f"line on stderr: {proc.stderr.strip()}")
        run["median_round_s"] = float(match[1])
        run["reference_kernel_ms"] = float(match[2])
    return {"environment": head["environment"], "run": run}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run; repeatable (default: all three)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="untraced runs per workload, seeds 1..SEEDS")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.seconds <= 0:
        parser.error("--seeds must be >= 1 and --seconds positive")

    revision = short_revision()
    record = {"revision": revision, "seconds": args.seconds, "environment": None,
              "workloads": {}}
    for workload in args.workload or WORKLOADS:
        untraced = []
        for seed in range(1, args.seeds + 1):
            done = run_once(workload, seed, args.seconds, 0)
            record["environment"] = record["environment"] or done["environment"]
            untraced.append(done["run"])
        traced = run_once(workload, 1, args.seconds, 1)["run"]
        record["workloads"][workload] = {"untraced": untraced, "traced": traced}
        rounds = ", ".join(f"{run['median_round_s']:.3f}" for run in untraced)
        print(f"{workload}: median rounds {rounds} s", file=sys.stderr)

    out = args.out or ROOT / f"BENCH_{revision}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
