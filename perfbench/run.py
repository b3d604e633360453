#!/usr/bin/env python3
"""orbtour benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload mission_pipeline --seed 1 \\
        --seconds 10 --trace 0

Workloads: mission_pipeline, reference_transfers, tour_campaign (see
README.md).  The run imports orbtour from ``src/``, times that import five
times in fresh interpreters and sets its inputs up five times (the two
medians add up to ``setup_s``), then runs whole rounds of the workload until
``--seconds`` have passed.  Each round's outputs are checked against the
independent computations in ``oracles.py``.  With ``--trace 0`` a
reference kernel samples the host's speed during the timed calls
(``hostclock.py``) and the result carries the end-to-end metrics; with ``--trace 1`` the calls into
each module are wrapped (``spans.py``) and the result carries per-layer
metrics per round.  The last line of standard output is the result; a run
record with the environment, every round and the spans goes to
``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import orbtour.cli; "
                 "print(time.perf_counter() - t)")
#: end-to-end metrics of an untraced run and their units
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB",
              "fuel_ratio": "kg/kg"}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_times() -> list[float]:
    """Times to import orbtour (numpy included) in fresh interpreters, since
    a process imports it only once."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return [float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                                 cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]


def environment() -> dict:
    import numpy
    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import orbtour.cli   # imports every module the runs use
        import hostclock
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import orbtour from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(orbtour.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: orbtour was imported from {orbtour.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tracer = None
    clock = None
    try:
        imports = import_times()
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t)
        if args.trace:
            tracer = spans.Tracer()
            spans.instrument(tracer)
        else:
            clock = hostclock.HostClock()
            clock.install()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workload.run_round(len(rounds), tracer, clock))
    finally:
        if tracer is not None:
            tracer.restore()
        if clock is not None:
            clock.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    walls = [r.seconds for r in rounds]
    instances = sum(r.oracle_instances for r in rounds)
    match_share = (sum(r.oracle_matches for r in rounds) / instances
                   if instances else 0.0)
    if args.trace:
        units = dict(spans.LAYER_METRICS)
        values = spans.layer_metrics(tracer, len(rounds), walls, match_share)
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "wall_ref": statistics.median(
                hostclock.in_reference_units(r.seconds, r.reference) for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fuel_ratio": (sum(r.fuel for r in rounds)
                           / sum(r.fuel_reference for r in rounds)),
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    env = environment()
    for note in dict.fromkeys(n for r in rounds for n in r.notes):
        print(f"perfbench: {note}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: INCORRECT {problem}", file=sys.stderr)
    if clock is not None:
        print(f"perfbench: median round {statistics.median(walls):.3f} s in orbtour "
              f"calls; {len(clock.samples)} reference kernel samples, median "
              f"{statistics.median(clock.samples) * 1e3:.1f} ms", file=sys.stderr)
    if instances:
        print(f"perfbench: optimize matched the oracle on "
              f"{sum(r.oracle_matches for r in rounds)} of {instances} instances",
              file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "import_s": imports,
              "setup_s": setup_times, "rounds": [r.record() for r in rounds],
              "metrics": metrics}
    if tracer is not None:
        record["spans"] = tracer.records()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"environment": env, "rounds": len(rounds)}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
