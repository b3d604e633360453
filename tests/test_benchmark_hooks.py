"""The traced benchmark run wraps functions where orbtour's modules bind
them and reads their arguments by parameter name, so a renamed function or
parameter breaks it only at run time.  This drives each wrapped binding the
counters depend on once, through ``perfbench/spans.py`` as it stands."""
import importlib
from pathlib import Path

import numpy as np

from orbtour import cli, ocp, scp, verify
from orbtour.constants import EARTH
from orbtour.elements import KeplerianState, SpacecraftState, kep_to_mee
from orbtour.propagate import PropagatorConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_benchmark_counters_read_the_arguments_they_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    spans.instrument(tracer)
    state = SpacecraftState(kep_to_mee(KeplerianState(7000.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
                            235.0)
    x = np.array([[7000.0, 0.0, 0.0, 0.1, 0.2, 0.3, 235.0]])
    u = np.array([[0.0, 0.0126, 0.0]])
    try:
        scp.propagate_numeric(state, u, np.array([25.0]), 277.0)
        verify.propagate_numeric(state, u, np.array([25.0]), 277.0,
                                 PropagatorConfig(step=10.0))
        scp.linearize_batch(x, u, np.array([20.0]), np.array([2]), 277.0)
        rows = tracer.counts["propagate.batch_rows"]
        ocp.rk4_batch(x, u, np.array([20.0]), 2, 277.0 * EARTH.g0, EARTH)
        cli.save_arcs([], tmp_path / "arcs.json")
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["scp.rollout_rk4_steps"] == 3
    assert counts["verify.rk4_steps"] == 3
    assert counts["ocp.linearize_stages"] == 1
    assert rows == 2 * 20 and counts["propagate.batch_rows"] == rows + 2
    assert counts["cli.arcs_bytes"] == (tmp_path / "arcs.json").stat().st_size > 0
    assert scp.propagate_numeric is verify.propagate_numeric is ocp.propagate_numeric
