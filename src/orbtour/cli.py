"""Command-line pipeline: generate | solve | refine | verify | montecarlo | report.

Every command writes its primary artifact deterministically (fixed seeds in,
identical bytes out) plus a ``<out>.manifest.json`` side file carrying the
command line, config snapshot, seeds, input hashes and wall time; manifests
are the only place timestamps appear.

``refine``, ``verify`` and ``montecarlo`` take ``--jobs N`` (default: the
CPUs available to the process): they spread their legs, arcs or scenarios
over N forked worker processes and gather the results in task order, so
their artifacts are byte-identical to a ``--jobs 1`` run's.

Exit codes: 0 success, 2 infeasible-but-completed, 3 partial refinement,
4 verification failed, 1 error (a bad option or value included).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .constants import PhysicalConstants
from .errors import OrbtourError, SchemaError, json_fits, read_json_object, write_json
from .optimizer import OptimizerConfig, optimize
from .parallel import ordered_map
from .scenario import (MissionScenario, ScenarioConfig, load_scenario,
                       sample_scenario, save_scenario)
from .scp import RefineOptions, load_arcs, refine_tour, save_arcs
from .tour import MAX_EXACT_BUNDLES, Tour, brute_force, heuristic_walks, tour_cost
from .verify import save_report, verify_trajectory


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path: str | Path, command: str, args: dict,
                   inputs: list, outputs: list, seeds: dict,
                   wall_time: float) -> None:
    manifest = {
        "tool": f"orbtour {__version__}",
        "command": command,
        "args": {k: str(v) for k, v in args.items() if not callable(v)},
        "seeds": seeds,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs
                   if Path(p).exists()],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time,
    }
    write_json(f"{out_path}.manifest.json", manifest)


def derived_seed(base: int, index: int) -> int:
    """Stable per-task seed derivation."""
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _config_from(cls, path: str | None):
    """``cls`` built from the JSON object in the config file ``path`` (the
    defaults when ``path`` is None).  A file that is not an object, an
    unknown key or a value of the wrong type raises a schema error naming
    the file."""
    if path is None:
        return cls()
    data = read_json_object(path)
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise SchemaError(f"{path}: unknown {cls.__name__} key(s): "
                          f"{', '.join(unknown)}")
    for key, value in data.items():
        fits = json_fits(value, hints[key])
        if fits is None:
            raise SchemaError(f"{path}: {cls.__name__} key {key!r} cannot be set "
                              "from a file")
        if not fits:
            raise SchemaError(f"{path}: {cls.__name__} key {key!r} must be "
                              f"{declared[key]}, got {json.dumps(value)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad {cls.__name__} value: {exc}") from exc


def _optimizer_config(path: str | None, seed: int | None) -> OptimizerConfig:
    """The config file's settings; ``seed`` replaces the file's ``seed``, and
    with neither the seed is 0, so every run is reproducible."""
    config = _config_from(OptimizerConfig, path)
    if seed is None:
        seed = 0 if config.seed is None else config.seed
    return dataclasses.replace(config, seed=seed)


def active_constants() -> PhysicalConstants:
    """Constants, optionally overridden by the ORBTOUR_CONSTANTS env file."""
    return _config_from(PhysicalConstants, os.environ.get("ORBTOUR_CONSTANTS") or None)


# ---------------------------------------------------------------------------
# tour serialization (external interface)
# ---------------------------------------------------------------------------

def tour_to_dict(tour: Tour) -> dict:
    legs = []
    for i, est in enumerate(tour.legs):
        label = (f"bundle{tour.order[i]}" if i < len(tour.order) else "decommission")
        legs.append({
            "label": label,
            "dv_mps": est.dv_total * 1000.0,
            "fuel_kg": est.fuel_mass,
            "burns": est.burn_count,
            "tof_s": est.tof_total,
        })
    return {
        "version": 1,
        "order": [int(i) for i in tour.order],
        "legs": legs,
        "totals": {"fuel_kg": float(tour.fuel_total),
                   "dv_mps": float(tour.dv_total) * 1000.0,
                   "tof_s": float(tour.tof_total)},
        "feasible": bool(tour.feasible),
        "cost": float(tour.cost),
    }


def save_tour(tour: Tour, path: str | Path) -> None:
    write_json(path, tour_to_dict(tour))


def load_tour_order(path: str | Path, n_bundles: int) -> list[int]:
    """The visit order in the tour file ``path``: a permutation of range(n_bundles)."""
    data = read_json_object(path)
    if "order" not in data:
        raise SchemaError(f"{path} is not a tour record")
    order = data["order"]
    if not (isinstance(order, list) and all(json_fits(i, int) for i in order)):
        raise SchemaError(f"{path}: tour order must be a list of integers")
    if sorted(order) != list(range(n_bundles)):
        raise SchemaError(f"{path}: tour order {order} is not a permutation of "
                          f"the scenario's {n_bundles} bundle indices")
    return order


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    t0 = time.time()
    consts = active_constants()
    config = _config_from(ScenarioConfig, args.config)
    outputs = []
    if args.count == 1:
        scn = sample_scenario(config, args.seed, consts)
        save_scenario(scn, args.out, consts)
        outputs.append(args.out)
    else:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            seed_i = derived_seed(args.seed, i)
            scn = sample_scenario(config, seed_i, consts)
            path = outdir / f"scenario_{i:04d}.json"
            save_scenario(scn, path, consts)
            outputs.append(path)
    write_manifest(outputs[0] if args.count == 1 else Path(args.out) / "generate",
                   "generate", vars(args), [args.config] if args.config else [],
                   outputs, {"seed": args.seed}, time.time() - t0)
    return 0


def cmd_solve(args) -> int:
    t0 = time.time()
    consts = active_constants()
    scn = load_scenario(args.scenario, consts)
    if args.exact:
        for option in ("trace", "seed", "optimizer_config", "seed_candidates",
                       "seed_tours"):
            if getattr(args, option) is not None:
                raise ValueError(f"--{option.replace('_', '-')} does not apply "
                                 f"to solve --exact")
        tour = brute_force(scn, consts=consts)
        seeds = {}
    else:
        seeds_in: list = []
        if args.seed_candidates == "walks":
            seeds_in = list(heuristic_walks(scn, consts).values())
        for path in args.seed_tours or []:
            seeds_in.append(load_tour_order(path, scn.n_bundles))
        config = _optimizer_config(args.optimizer_config, args.seed)
        tour, trace = optimize(scn, config, seeds=seeds_in or None, consts=consts)
        seeds = {"seed": config.seed}

    save_tour(tour, args.out)
    outputs = [args.out]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_csv())
        outputs.append(args.trace)
    write_manifest(args.out, "solve", vars(args),
                   [args.scenario] + (args.seed_tours or []),
                   outputs, seeds, time.time() - t0)
    return 0 if tour.feasible else 2


def cmd_refine(args) -> int:
    t0 = time.time()
    consts = active_constants()
    scn = load_scenario(args.scenario, consts)
    order = load_tour_order(args.tour, scn.n_bundles)
    arcs = refine_tour(order, scn, RefineOptions(), consts, jobs=args.jobs)
    save_arcs(arcs, args.out)
    write_manifest(args.out, "refine", vars(args), [args.scenario, args.tour],
                   [args.out], {}, time.time() - t0)
    bad = [a.label for a in arcs if not a.converged]
    if bad:
        print(f"refine: {len(bad)} arc(s) did not converge: {', '.join(bad)}",
              file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    consts = active_constants()
    scn = load_scenario(args.scenario, consts)
    order = load_tour_order(args.tour, scn.n_bundles)
    tour = tour_cost(scn, order, consts)
    arcs = load_arcs(args.arcs, consts)
    try:
        report = verify_trajectory(arcs, tour, scn, consts, jobs=args.jobs)
    except SchemaError as exc:  # an arc label that names no leg, or a leg with no arc
        raise SchemaError(f"{args.arcs}: {exc}") from exc
    save_report(report, args.out, args.csv)
    write_manifest(args.out, "verify", vars(args),
                   [args.scenario, args.tour, args.arcs],
                   [args.out] + ([args.csv] if args.csv else []),
                   {}, time.time() - t0)
    failed = [leg.label for leg in report.legs if not leg.passed]
    if failed:
        print(f"verify: {len(failed)} leg(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 4
    return 0


def _mc_row(scenario: MissionScenario, tour: Tour, index: int, seed: int) -> dict:
    smas = np.array([b.target.a for b in scenario.bundles])
    incs = np.array([math.degrees(b.target.i) for b in scenario.bundles])
    return {
        "scenario": index,
        "seed": seed,
        "n_bundles": scenario.n_bundles,
        "fuel_kg": float(tour.fuel_total),
        "dv_mps": float(tour.dv_total) * 1000.0,
        "tof_days": float(tour.tof_total) / 86400.0,
        "feasible": bool(tour.feasible),
        "min_payload_mass_kg": float(min(b.mass for b in scenario.bundles)),
        "sma_std_km": float(np.std(smas)),
        "sma_range_km": float(np.ptp(smas)),
        "inc_std_deg": float(np.std(incs)),
        "inc_range_deg": float(np.ptp(incs)),
    }


def _mc_task(payload: tuple) -> tuple[int, dict | None, dict | None, str | None]:
    """One montecarlo scenario: (index, row, tour record, None), or
    (index, None, None, message) when it fails, so one bad scenario does
    not end the run."""
    index, scn_seed, opt_seed, config, opt, consts = payload
    try:
        scn = sample_scenario(config, scn_seed, consts)
        opt = dataclasses.replace(opt, seed=opt_seed)
        tour, _ = optimize(scn, opt, consts=consts)
    except Exception as exc:  # reported per scenario; the run continues
        return index, None, None, str(exc)
    return index, _mc_row(scn, tour, index, scn_seed), tour_to_dict(tour), None


MC_FIELDS = ["scenario", "seed", "n_bundles", "fuel_kg", "dv_mps", "tof_days",
             "feasible", "min_payload_mass_kg", "sma_std_km", "sma_range_km",
             "inc_std_deg", "inc_range_deg"]


SUMMARY_FIELDS = ["n_bundles", "count", "fuel_mean_kg", "fuel_std_kg",
                  "fuel_min_kg", "fuel_max_kg", "feasible_fraction"]


def _feasible(cell) -> bool:
    """A montecarlo row's ``feasible`` value: a bool or its CSV text."""
    if str(cell) not in ("True", "true", "False", "false"):
        raise ValueError(f"feasible must be True or False, got {str(cell)!r}")
    return str(cell) in ("True", "true")


def write_summary(rows: list[dict], path: str | Path) -> list[dict]:
    """Write fuel statistics grouped by bundle count as CSV; returns them."""
    groups: dict[int, list[dict]] = {}
    for row in rows:
        groups.setdefault(int(row["n_bundles"]), []).append(row)
    out = []
    for nb in sorted(groups):
        fuels = np.array([float(r["fuel_kg"]) for r in groups[nb]])
        feas = np.array([_feasible(r["feasible"]) for r in groups[nb]])
        out.append({"n_bundles": nb, "count": len(fuels),
                    "fuel_mean_kg": float(np.mean(fuels)),
                    "fuel_std_kg": float(np.std(fuels)),
                    "fuel_min_kg": float(np.min(fuels)),
                    "fuel_max_kg": float(np.max(fuels)),
                    "feasible_fraction": float(np.mean(feas))})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(out)
    return out


def cmd_montecarlo(args) -> int:
    t0 = time.time()
    consts = active_constants()
    config = _config_from(ScenarioConfig, args.config)
    if args.bundles is not None:
        config = dataclasses.replace(config, fixed_bundles=args.bundles)
    opt = _optimizer_config(args.optimizer_config, None)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for i in range(args.n):
        tasks.append((i, derived_seed(args.seed, 2 * i),
                      derived_seed(args.seed, 2 * i + 1), config, opt, consts))

    results = ordered_map(_mc_task, tasks, args.jobs)
    failures = 0
    for idx, _, _, error in results:
        if error is not None:
            failures += 1
            print(f"montecarlo: scenario {idx} failed: {error}", file=sys.stderr)

    ok_rows = [row for _, row, _, _ in results if row is not None]
    with open(outdir / "montecarlo.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MC_FIELDS)
        writer.writeheader()
        for row in ok_rows:
            writer.writerow(row)
    for idx, _, tour_d, _ in results:
        if tour_d is not None:
            write_json(outdir / f"tour_{idx:04d}.json", tour_d)
    write_summary(ok_rows, outdir / "summary.csv")
    write_manifest(outdir / "montecarlo", "montecarlo", vars(args),
                   [args.config] if args.config else [],
                   [outdir / "montecarlo.csv", outdir / "summary.csv"],
                   {"seed": args.seed}, time.time() - t0)
    if failures:
        return 1
    infeasible = any(not r["feasible"] for r in ok_rows)
    return 2 if infeasible else 0


def cmd_report(args) -> int:
    t0 = time.time()
    csv_path = Path(args.dir) / "montecarlo.csv"
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SchemaError(f"{csv_path}: no rows")
    for n, row in enumerate(rows, start=1):
        if None in row.values():
            raise SchemaError(f"{csv_path}: row {n} is short")
    out = args.out or Path(args.dir) / "summary.csv"
    try:
        summary = write_summary(rows, out)
    except KeyError as exc:
        raise SchemaError(f"{csv_path}: no {exc} column") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{csv_path}: {exc}") from exc
    write_manifest(out, "report", vars(args), [csv_path], [out], {}, time.time() - t0)
    for row in summary:
        print(f"bundles={row['n_bundles']:>2} n={row['count']:>4} "
              f"fuel={row['fuel_mean_kg']:.2f}±{row['fuel_std_kg']:.2f} kg "
              f"feasible={row['feasible_fraction']:.0%}")
    return 0


def _at_least(low: int):
    """An option type: a whole number, at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_count, _seed = _at_least(1), _at_least(0)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the error code, since 2 means an infeasible
    tour."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_jobs(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("--jobs", type=_count, default=None,
                   help=f"worker processes for the {what} (default: the CPUs "
                        f"available to this process)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbtour",
                     description="multi-target rendezvous mission design")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample randomized mission scenarios")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="optimize the visit order")
    p.add_argument("--scenario", required=True)
    p.add_argument("--optimizer-config")
    p.add_argument("--seed", type=_seed, default=None,
                   help="optimizer seed (default: the config's seed, else 0)")
    p.add_argument("--seed-candidates", choices=["walks"],
                   help="seed island 0 with hand-crafted candidate walks")
    p.add_argument("--seed-tours", nargs="*", help="tour JSON files that seed island 0")
    p.add_argument("--exact", action="store_true",
                   help="exact optimum by dynamic programming (at most "
                        f"{MAX_EXACT_BUNDLES} bundles)")
    p.add_argument("--trace", help="evolution trace CSV path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("refine", help="re-optimize transfer arcs")
    p.add_argument("--tour", required=True)
    p.add_argument("--scenario", required=True)
    _add_jobs(p, "legs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("verify", help="re-propagate refined arcs")
    p.add_argument("--arcs", required=True)
    p.add_argument("--tour", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--csv")
    _add_jobs(p, "arcs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("montecarlo", help="batch mission analysis")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--optimizer-config")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--bundles", type=int, help="pin the bundle count")
    _add_jobs(p, "scenarios")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", help="summarize a montecarlo directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrbtourError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
