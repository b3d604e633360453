"""Exact per-layer counts of the traced 1 deg plane-change reference.

Slow (one to two minutes): the acceptance reference, not the 0.75 deg
transfer the timed workload uses, refined once under the tracer.
"""
from pathlib import Path

import spans
import workloads


def test_one_degree_plane_change_counts(tmp_path: Path):
    workload = workloads.ReferenceTransfers(0, tmp_path, plane_change_deg=1.0)
    workload.setup()
    workload.transfers = [t for t in workload.transfers if "plane" in t.name]
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        rnd = workload.run_round(0, tracer)
    finally:
        tracer.restore()
    assert (rnd.attempted, rnd.failed, rnd.problems) == (1, 0, [])
    m = spans.layer_metrics(tracer, 1, [rnd.seconds], 0.0)
    assert m["scp.stages"] == 11520
    assert m["scp.rollout_calls"] == 27
    assert m["ocp.linearize_calls"] == 16
    assert m["qp.solve_calls"] == 26
    assert m["scp.iterations"] == 26
    assert m["scp.accepted_steps"] == 15
