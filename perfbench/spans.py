"""Spans and counts around calls into orbtour's modules, for the traced run.

The program is measured from outside: each wrapper replaces a function at
the place where the calling module binds it.  ``orbtour.scp`` imports
``propagate_numeric``, ``linearize_batch`` and ``warm_start`` by name, and
``orbtour.cli`` imports ``tour_cost``, ``optimize``, ``brute_force`` and
``verify_trajectory`` the same way, so a wrapper on the defining module alone
would see none of those calls.  Every wrapper calls the original function, so a
function wrapped at two bindings is never timed twice.

Each span records its name, start, end, the span that called it and the
operation (one mission, transfer or scenario) it belongs to.  Spans are kept
in memory and written out when the run ends; a layer's self time is its
spans' duration minus the time their child spans cover.
"""
from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

#: (metric, unit) of the traced run, in the order they are reported
LAYER_METRICS = [
    ("cli.solve_s", "s"), ("cli.refine_s", "s"), ("cli.verify_s", "s"),
    ("cli.montecarlo_s", "s"), ("cli.io_s", "s"), ("cli.arcs_bytes", "B"),
    ("scenario.sample_s", "s"), ("scenario.load_s", "s"),
    ("maneuvers.sequential_mht_nic_s", "s"),
    ("maneuvers.sequential_mht_nic_calls", "count"),
    ("tour.cost_batch_s", "s"), ("tour.cost_batch_calls", "count"),
    ("tour.cost_batch_rows", "count"), ("tour.tour_cost_s", "s"),
    ("tour.tour_cost_calls", "count"), ("tour.tour_plans_s", "s"),
    ("tour.brute_force_s", "s"), ("tour.brute_force_enum_s", "s"),
    ("optimizer.optimize_s", "s"), ("optimizer.optimize_calls", "count"),
    ("optimizer.self_s", "s"), ("optimizer.island_generations", "count"),
    ("optimizer.oracle_match_share", "ratio"),
    ("ocp.warm_start_s", "s"), ("ocp.warm_start_calls", "count"),
    ("ocp.linearize_s", "s"), ("ocp.linearize_calls", "count"),
    ("ocp.linearize_stages", "count"),
    ("qp.condense_s", "s"), ("qp.solve_s", "s"), ("qp.solve_calls", "count"),
    ("qp.newton_iterations", "count"),
    ("scp.refine_s", "s"), ("scp.self_s", "s"), ("scp.arcs", "count"),
    ("scp.stages", "count"), ("scp.iterations", "count"),
    ("scp.accepted_steps", "count"), ("scp.accept_ratio", "ratio"),
    ("scp.unconverged_arcs", "count"), ("scp.rollout_s", "s"),
    ("scp.rollout_calls", "count"), ("scp.rollout_rk4_steps", "count"),
    ("propagate.rk4_steps", "count"), ("propagate.steps_per_s", "step/s"),
    ("propagate.batch_rows", "count"), ("propagate.batch_s", "s"),
    ("verify.verify_s", "s"), ("verify.repropagate_s", "s"),
    ("verify.repropagate_calls", "count"), ("verify.rk4_steps", "count"),
    ("trace.wall_s", "s"), ("trace.spans", "count"),
]

#: spans whose time is artifact reading and writing in the CLI
IO_SPANS = ("scenario.load", "cli.save_tour", "cli.load_tour_order",
            "cli.save_arcs", "cli.load_arcs", "cli.save_report",
            "cli.write_manifest")


class _Call:
    """A call's arguments by parameter name, bound to the signature (with
    defaults) only when a hook first asks for one."""

    __slots__ = ("signature", "args", "kwargs", "_bound")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs = signature, args, kwargs
        self._bound = None

    def __getitem__(self, name: str):
        if self._bound is None:
            bound = self.signature.bind(*self.args, **self.kwargs)
            bound.apply_defaults()
            self._bound = bound.arguments
        return self._bound[name]


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, after=None, op_of=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``after(counts, call, result)`` adds to counters once the call
        returns; ``op_of(call)`` names the operation the call starts, within
        the enclosing one, for the call's duration.  ``call[param]`` gives an
        argument by parameter name.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            call = _Call(signature, args, kwargs)
            outer_op = tracer.op
            if op_of is not None:
                tracer.op = f"{outer_op}/{op_of(call)}" if outer_op else op_of(call)
            span = [name, time.perf_counter() - tracer._t0, None,
                    tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
                tracer.op = outer_op
            if after is not None:
                after(tracer.counts, call, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped binding back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [{"name": n, "start_s": s, "end_s": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def _adds(counter: str, amount):
    """Hook adding ``amount(call, result)`` to ``counter``."""
    def after(counts, call, result):
        counts[counter] += amount(call, result)
    return after


def rk4_steps(durations, step: float) -> int:
    """Fixed-step RK4 steps the propagator takes over the given segments:
    ceil(d / step) for each non-zero segment."""
    d = np.asarray(durations, dtype=float)
    n = np.maximum(1.0, np.ceil(d / step - 1e-12))
    return int(np.sum(np.where(d == 0.0, 0.0, n)))


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every measured module where they are bound."""
    from orbtour import cli, ocp, optimizer, qp, scenario, scp, tour, verify

    def propagate_steps(counter: str):
        return _adds(counter, lambda call, r: rk4_steps(call["durations"],
                                                          call["config"].step))

    def arc_counts(counts, call, arc):
        counts["scp.arcs"] += 1
        counts["scp.stages"] += arc.dt.size
        counts["scp.iterations"] += arc.iterations
        counts["scp.accepted_steps"] += len(arc.objective_history) - 1
        counts["scp.unconverged_arcs"] += not arc.converged

    w = tracer.wrap
    for command in ("solve", "refine", "verify", "montecarlo"):
        w(cli, f"cmd_{command}", f"cli.{command}")
    w(cli, "_mc_task", "cli.montecarlo_task",
      op_of=lambda call: f"scenario{call['payload'][0]}")
    w(cli, "load_scenario", "scenario.load")
    for fn in ("save_tour", "load_tour_order", "load_arcs", "save_report",
               "write_manifest"):
        w(cli, fn, f"cli.{fn}")
    w(cli, "save_arcs", "cli.save_arcs",
      after=_adds("cli.arcs_bytes", lambda call, r: os.path.getsize(call["path"])))
    for mod in (cli, scenario):
        w(mod, "sample_scenario", "scenario.sample")
    w(tour, "sequential_mht_nic", "maneuvers.sequential_mht_nic")
    w(tour.TourEvaluator, "cost_batch", "tour.cost_batch",
      after=_adds("tour.cost_batch_rows", lambda call, r: len(r[0])))
    for mod in (cli, optimizer, tour):
        w(mod, "tour_cost", "tour.tour_cost")
    w(scp, "tour_plans", "tour.tour_plans")
    for mod in (cli, tour):
        w(mod, "brute_force", "tour.brute_force")
    for mod in (cli, optimizer):
        w(mod, "optimize", "optimizer.optimize")
    w(scp, "warm_start", "ocp.warm_start")
    w(scp, "linearize_batch", "ocp.linearize",
      after=_adds("ocp.linearize_stages", lambda call, r: call["x"].shape[0]))
    w(ocp, "rk4_batch", "propagate.rk4_batch",
      after=_adds("propagate.batch_rows",
                  lambda call, r: call["y"].shape[0] * call["nsteps"]))
    w(qp.ReducedArcSolver, "solve", "qp.solve",
      after=_adds("qp.newton_iterations", lambda call, sol: sol.iterations))
    w(scp, "ReducedArcSolver", "qp.condense")
    w(scp, "refine_arc", "scp.refine_arc", after=arc_counts)
    w(scp, "propagate_numeric", "scp.rollout",
      after=propagate_steps("scp.rollout_rk4_steps"))
    w(cli, "verify_trajectory", "verify.verify_trajectory")
    w(verify, "repropagate_arc", "verify.repropagate")
    w(verify, "propagate_numeric", "verify.propagate",
      after=propagate_steps("verify.rk4_steps"))


def layer_metrics(tracer: Tracer, rounds: int, round_walls: list[float],
                  oracle_match_share: float) -> dict[str, float]:
    """Per-round values of every metric in :data:`LAYER_METRICS`."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    covered = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            covered[parent] += end - start
    generations = 0
    for idx, (name, start, end, parent, _) in enumerate(tracer.spans):
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - covered[idx]
        if (name == "tour.cost_batch" and parent is not None
                and tracer.spans[parent][0] == "optimizer.optimize"):
            generations += 1
    c = tracer.counts
    seq_steps = c["scp.rollout_rk4_steps"] + c["verify.rk4_steps"]
    seq_s = total["scp.rollout"] + total["verify.propagate"]
    values = {
        "cli.solve_s": total["cli.solve"],
        "cli.refine_s": total["cli.refine"],
        "cli.verify_s": total["cli.verify"],
        "cli.montecarlo_s": total["cli.montecarlo"],
        "cli.io_s": sum(total[n] for n in IO_SPANS),
        "cli.arcs_bytes": c["cli.arcs_bytes"],
        "scenario.sample_s": total["scenario.sample"],
        "scenario.load_s": total["scenario.load"],
        "maneuvers.sequential_mht_nic_s": total["maneuvers.sequential_mht_nic"],
        "maneuvers.sequential_mht_nic_calls": calls["maneuvers.sequential_mht_nic"],
        "tour.cost_batch_s": total["tour.cost_batch"],
        "tour.cost_batch_calls": calls["tour.cost_batch"],
        "tour.cost_batch_rows": c["tour.cost_batch_rows"],
        "tour.tour_cost_s": total["tour.tour_cost"],
        "tour.tour_cost_calls": calls["tour.tour_cost"],
        "tour.tour_plans_s": total["tour.tour_plans"],
        "tour.brute_force_s": total["tour.brute_force"],
        "tour.brute_force_enum_s": self_time["tour.brute_force"],
        "optimizer.optimize_s": total["optimizer.optimize"],
        "optimizer.optimize_calls": calls["optimizer.optimize"],
        "optimizer.self_s": self_time["optimizer.optimize"],
        "optimizer.island_generations": generations,
        "ocp.warm_start_s": total["ocp.warm_start"],
        "ocp.warm_start_calls": calls["ocp.warm_start"],
        "ocp.linearize_s": total["ocp.linearize"],
        "ocp.linearize_calls": calls["ocp.linearize"],
        "ocp.linearize_stages": c["ocp.linearize_stages"],
        "qp.condense_s": total["qp.condense"],
        "qp.solve_s": total["qp.solve"],
        "qp.solve_calls": calls["qp.solve"],
        "qp.newton_iterations": c["qp.newton_iterations"],
        "scp.refine_s": total["scp.refine_arc"],
        "scp.self_s": self_time["scp.refine_arc"],
        "scp.arcs": c["scp.arcs"],
        "scp.stages": c["scp.stages"],
        "scp.iterations": c["scp.iterations"],
        "scp.accepted_steps": c["scp.accepted_steps"],
        "scp.unconverged_arcs": c["scp.unconverged_arcs"],
        "scp.rollout_s": total["scp.rollout"],
        "scp.rollout_calls": calls["scp.rollout"],
        "scp.rollout_rk4_steps": c["scp.rollout_rk4_steps"],
        "propagate.rk4_steps": seq_steps,
        "propagate.batch_rows": c["propagate.batch_rows"],
        "propagate.batch_s": total["propagate.rk4_batch"],
        "verify.verify_s": total["verify.verify_trajectory"],
        "verify.repropagate_s": total["verify.repropagate"],
        "verify.repropagate_calls": calls["verify.repropagate"],
        "verify.rk4_steps": c["verify.rk4_steps"],
        "trace.spans": len(tracer.spans),
    }
    per_round = {k: v / rounds for k, v in values.items()}
    # ratios and the median round are not summed over rounds
    per_round["scp.accept_ratio"] = (c["scp.accepted_steps"] / c["scp.iterations"]
                                     if c["scp.iterations"] else 0.0)
    per_round["propagate.steps_per_s"] = seq_steps / seq_s if seq_s > 0 else 0.0
    per_round["optimizer.oracle_match_share"] = oracle_match_share
    per_round["trace.wall_s"] = statistics.median(round_walls)
    return {name: per_round[name] for name, _ in LAYER_METRICS}
