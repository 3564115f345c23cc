"""Benchmark worker: runs one workload in this fresh process and prints its
measurements as one JSON line.  ``run.py`` starts it; see README.md for the
workloads and metrics.

    python3 perfbench/workloads.py --workload oracle --seed 1 --seconds 25 \\
        --trace 0 --spawned-ns <time.monotonic_ns() of the parent at spawn>

The instances of a run are made from ``--seed`` alone; their number is
``--seconds`` divided by the workload's nominal instance time plus the
speed reference's share, so a run is the same fixed work on every commit.
Each instance is one closed-loop call: the next starts when the previous one
returns.  Between calls, off the clock, the speed reference runs
(``speed.py``) and the outputs are checked.  Times are wall times scaled by
the speed reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hangarplan import ach, cli, exact, instgen, milp, report, validator  # noqa: E402
from hangarplan import io as hio  # noqa: E402
from speed import REF_SHARE, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

WORK_DIR = ROOT / ".bench_run"

#: Seconds per instance at the commit that defined the benchmark (Intel Xeon,
#: 2 vCPU, Python 3.11).  They only size the instance set.
NOMINAL_INSTANCE_S = {"pipeline": 0.5, "congested": 0.6, "oracle": 0.02}
#: The tail percentile is the value with ten samples above it, so a run
#: needs at least eleven instances.
MIN_INSTANCES = 11
#: Reference chunks run before the first timed call: they set the scale of
#: setup_s and bring the CPU up to speed.
WARM_UP_S = 0.3

def instance_specs(workload: str, seed: int, seconds: float) -> list[dict]:
    """The (n, n_current, congestion, rejection_multiplier, seed) of every
    instance of one run.  Families cycle with the index, so each run holds
    the same mix and only the random draws change with the seed."""
    count = max(MIN_INSTANCES,
                round(seconds / ((1 + REF_SHARE) * NOMINAL_INSTANCE_S[workload])))
    specs = []
    for i in range(count):
        if workload == "pipeline":
            n, n_current = 12, i % 3
            congestion, multiplier = 1.0, 1.0
        elif workload == "congested":
            n, n_current = 4, 0
            congestion, multiplier = 0.2, 10.0
        else:
            n, n_current = 4, 0
            congestion, multiplier = 0.2, (1.0, 10.0)[i % 2]
        specs.append({"n": n, "n_current": n_current, "congestion": congestion,
                      "rejection_multiplier": multiplier, "seed": seed * 100_000 + i})
    return specs


def _generate(spec: dict):
    return instgen.generate(instgen.GeneratorConfig(
        n_future=spec["n"], n_current=spec["n_current"], seed=spec["seed"],
        congestion=spec["congestion"],
        rejection_multiplier=spec["rejection_multiplier"]))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _solution_bytes(solution) -> bytes:
    return json.dumps(hio.solution_to_dict(solution), sort_keys=True).encode()


def _assignments(solution_json: bytes) -> list[dict]:
    return sorted(json.loads(solution_json)["assignments"], key=lambda a: a["aircraft_id"])


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Pipeline:
    """The user's workflow through the CLI, in-process with click's CliRunner:
    gen, solve-ach, validate --json, export-milp, import, render --html.
    The point file for ``import`` is ``milp.derive_binaries`` of the
    heuristic plan, standing in for an external MIP solver."""

    def __init__(self, specs: list[dict], work: Path):
        from click.testing import CliRunner

        self.specs = specs
        self.runner = CliRunner()
        self.dirs = [work / f"i{i:04d}" for i in range(len(specs))]
        for d in self.dirs:
            d.mkdir(parents=True)

    def _cli(self, span, *args) -> str:
        with span("cli." + args[0]):
            result = self.runner.invoke(cli.main, [str(a) for a in args])
        if result.exit_code != 0 or result.exception is not None:
            raise CheckFailed(f"{args[0]} exited {result.exit_code}: "
                              f"{result.output[-300:]!r} {result.exception!r}")
        return result.stdout

    def run(self, i: int, span):
        spec, d = self.specs[i], self.dirs[i]
        inst, sol, lp, point = d / "inst.json", d / "sol.json", d / "model.lp", d / "point.txt"
        self._cli(span, "gen", "--n", spec["n"], "--seed", spec["seed"],
                  "--n-current", spec["n_current"], "-o", inst)
        self._cli(span, "solve-ach", "-i", inst, "-o", sol)
        verdict = self._cli(span, "validate", "-i", inst, "-s", sol, "--json")
        self._cli(span, "export-milp", "-i", inst, "-o", lp)
        instance = hio.load_instance(inst)
        model = milp.build_model(instance)
        values = milp.derive_binaries(instance, hio.load_solution(sol), model)
        point.write_text("".join(f"{k} {v!r}\n" for k, v in values.items()))
        self._cli(span, "import", "-i", inst, "-m", lp, "-p", point, "-o", d / "imported.json")
        self._cli(span, "render", "-i", inst, "-s", sol, "-o", d / "frames", "--html")
        return verdict, model, values

    def check(self, i: int, out) -> dict:
        verdict, model, values = out
        d = self.dirs[i]
        rep = json.loads(verdict)
        _require(rep["feasible"], "validator: plan infeasible")
        cost = rep["cost"]["total"]
        violated = milp.check_satisfaction(model, values)
        _require(not violated, f"derived point violates {violated[:3]}")
        objective = milp.objective_value(model, values)
        _require(abs(objective - cost) <= 1e-6,
                 f"objective {objective!r} != validator cost {cost!r}")
        solved = (d / "sol.json").read_bytes()
        imported = (d / "imported.json").read_bytes()
        _require(_assignments(solved) == _assignments(imported),
                 "imported plan differs from solved plan")
        _require(any((d / "frames").glob("frame_*.svg"))
                 and (d / "frames" / "report.html").is_file(), "render wrote no frames")
        return {"cost": cost, "digest": _digest(solved, imported), "rows": len(model.rows)}


class Congested:
    """``ach.solve`` then ``validator.validate`` on compressed arrivals with
    tenfold rejection penalties: the time search dominates."""

    def __init__(self, specs: list[dict], work: Path):
        self.instances = [_generate(s) for s in specs]

    def run(self, i: int, span):
        instance = self.instances[i]
        solution = ach.solve(instance)
        return solution, validator.validate(instance, solution)

    def check(self, i: int, out) -> dict:
        solution, rep = out
        _require(rep.feasible, "validator: plan infeasible")
        return {"cost": rep.cost.total, "digest": _digest(_solution_bytes(solution))}


class Oracle(Congested):
    """``exact.solve_exact`` with the default budgets, then
    ``validator.validate``: branch and bound plus placement enumeration."""

    def run(self, i: int, span):
        instance = self.instances[i]
        result = exact.solve_exact(instance)
        return result, validator.validate(instance, result.solution)

    def check(self, i: int, out) -> dict:
        result, rep = out
        _require(result.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID,
                 f"oracle status {result.status.value}")
        _require(rep.feasible, "validator: plan infeasible")
        _require(abs(rep.cost.total - result.cost.total) <= 1e-6,
                 "oracle cost differs from validator cost")
        return {"cost": rep.cost.total, "digest": _digest(_solution_bytes(result.solution)),
                "nodes": result.nodes_explored}


WORKLOADS = {"pipeline": Pipeline, "congested": Congested, "oracle": Oracle}


def measure(workload, count: int, probe: SpeedProbe, span=lambda name: nullcontext(),
            tracer=None):
    """One closed-loop pass: per-instance seconds scaled to the reference
    speed, the wall seconds as measured, and check records."""
    spans, records = [], []
    for i in range(count):
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter()
        try:
            out = workload.run(i, span)
        except Exception:  # noqa: BLE001 - a failing instance is counted, not fatal
            out, error = None, traceback.format_exc(limit=-3)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        probe.after(t1 - t0)
        if out is not None:
            try:
                record, error = workload.check(i, out), None
            except Exception:  # noqa: BLE001 - a failing check is counted, not fatal
                error = traceback.format_exc(limit=-3)
        records.append({"ok": False, "why": error} if error else {"ok": True, **record})
    wall = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans]
    return scaled, wall, records


def _layers() -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, observer) for every wrapped function."""
    def placements(c, args, result):
        c["ach.placements"] += result is not None

    def oracle(c, args, result):
        c["exact.nodes"] += result.nodes_explored
        c["exact.proven"] += result.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID

    def lp_size(c, args, result):
        c["milp.rows"] += len(args[0].rows)
        c["milp.variables"] += len(args[0].variables)
        c["milp.lp_bytes"] += len(result.encode())

    def frames(c, args, result):
        c["report.frames"] += len(result)

    layers = [
        (instgen, "generate", None),
        (ach, "solve", None), (ach, "find_best_placement", placements),
        (ach, "resolve_roll_out", None), (ach, "_commit_current", None),
        (ach, "prioritize", None),
        (exact, "solve_exact", oracle),
        (validator, "validate", None),
        (milp, "build_model", None), (milp, "export_lp", lp_size), (milp, "parse_lp", None),
        (milp, "derive_binaries", None), (milp, "check_satisfaction", None),
        (milp, "objective_value", None), (milp, "parse_point", None),
        (milp, "import_solution", None),
        (report, "render_frames", frames), (report, "render_report", None),
    ]
    out = [(m, attr, f"{m.__name__.rsplit('.', 1)[1]}.{attr}", obs) for m, attr, obs in layers]
    # cli holds its own bindings of the io functions.
    for module in (hio, cli):
        for attr in ("load_instance", "load_solution", "save_instance", "save_solution"):
            out.append((module, attr, f"io.{attr}", None))
    return out


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    tot = tracer.totals()
    c = tracer.counts

    def get(name, key):
        return float(tot.get(name, {}).get(key, 0.0))

    def share(a, b):
        return a / b if b else 0.0

    fbp = "ach.find_best_placement"
    oracle_s = get("exact.solve_exact", "s")
    out = {
        f"{fbp}.calls": get(fbp, "calls"),
        "ach.placement_hit_ratio": share(c["ach.placements"], get(fbp, "calls")),
        "ach.solve.self_s": get("ach.solve", "self_s"),
        f"{fbp}.s": get(fbp, "self_s"),
        f"{fbp}.us_per_call": share(get(fbp, "s"), get(fbp, "calls")) * 1e6,
        "ach.resolve_roll_out.calls": get("ach.resolve_roll_out", "calls"),
        "ach.resolve_roll_out.s": get("ach.resolve_roll_out", "self_s"),
        "exact.solve_exact.s": get("exact.solve_exact", "self_s"),
        "exact.nodes": float(c["exact.nodes"]),
        "exact.nodes_per_s": share(c["exact.nodes"], oracle_s),
        "exact.proven_share": share(c["exact.proven"], get("exact.solve_exact", "calls")),
    }
    for step in ("build_model", "export_lp", "parse_lp", "derive_binaries",
                 "check_satisfaction", "import_solution"):
        out[f"milp.{step}.s"] = get(f"milp.{step}", "self_s")
    for count in ("milp.rows", "milp.variables", "milp.lp_bytes"):
        out[count] = float(c[count])
    out["validator.validate.calls"] = get("validator.validate", "calls")
    out["validator.validate.s"] = get("validator.validate", "self_s")
    out["report.render_frames.s"] = get("report.render_frames", "self_s")
    out["report.render_report.s"] = get("report.render_report", "self_s")
    out["report.frames"] = float(c["report.frames"])
    out["cli.self_s"] = sum((t["self_s"] for n, t in tot.items() if n.startswith("cli.")), 0.0)
    out["io.s"] = sum((t["self_s"] for n, t in tot.items() if n.startswith("io.")), 0.0)
    out["instgen.generate.s"] = get("instgen.generate", "self_s")
    out["trace.overhead"] = share(traced_s, untraced_s) - 1.0
    return out


def traced_run(make, specs, work: Path, spans_path: Path) -> dict:
    """An untraced pass, then a traced pass over the same instances.  The
    untraced pass counts ``find_best_placement`` calls with a bare counter
    (one integer add per call) so the call count can be compared with
    tracing on and off; it records no spans."""
    workload = make(specs, work / "untraced")
    probe = SpeedProbe()
    probe.warm_up(WARM_UP_S)
    calls = 0
    counted = ach.find_best_placement

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return counted(*args, **kwargs)

    ach.find_best_placement = counting
    try:
        off_s, off_wall, off = measure(workload, len(specs), probe)
    finally:
        ach.find_best_placement = counted

    tracer = Tracer()
    for module, attr, name, observe in _layers():
        tracer.install(module, attr, name, observe)
    try:
        traced = make(specs, work / "traced")
        on_s, _, on = measure(traced, len(specs), probe, tracer.span, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    layers = per_layer(tracer, sum(off_s), sum(on_s))
    mismatches = []
    if getattr(traced, "instances", None) != getattr(workload, "instances", None):
        mismatches.append("instances generated under tracing differ")
    for i, (a, b) in enumerate(zip(off, on)):
        if a != b:
            mismatches.append(f"instance {i}: traced {b} != untraced {a}")
    totals = {key: (sum(r.get(key, 0) for r in off), sum(r.get(key, 0) for r in on))
              for key in ("cost", "nodes", "rows")}
    totals["find_best_placement_calls"] = (calls, int(layers["ach.find_best_placement.calls"]))
    if int(layers["milp.rows"]) != totals["rows"][1]:
        mismatches.append("milp.rows from export_lp != rows of the derived model")
    if int(layers["exact.nodes"]) != totals["nodes"][1]:
        mismatches.append("exact.nodes from solve_exact != nodes in the results")
    mismatches += [f"{k}: untraced {a} != traced {b}" for k, (a, b) in totals.items() if a != b]
    records = off + on
    return {"records": records, "seconds": off_s, "wall_seconds": off_wall,
            "per_layer": layers,
            "trace_mismatches": mismatches, "trace_counts": totals,
            "spans": len(tracer.start)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first timed call would start")
    args = ap.parse_args()

    specs = instance_specs(args.workload, args.seed, args.seconds)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    make = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(make, specs, work,
                                WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            workload = make(specs, work)
            setup_wall = (time.monotonic_ns() - args.spawned_ns) / 1e9
            probe = SpeedProbe()
            t0 = time.perf_counter()
            probe.warm_up(WARM_UP_S)
            setup_s = setup_wall * probe.scale(t0, t0)
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
                return 0
            seconds, wall, records = measure(workload, len(specs), probe)
            result = {"records": records, "seconds": seconds, "wall_seconds": wall,
                      "setup_s": setup_s, "setup_wall_s": setup_wall,
                      "reference_chunk_mean_s": sum(probe.took) / len(probe.took)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["instances"] = specs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
