"""hangarplan benchmark: runs a workload in fresh single-threaded worker
processes, checks every output and prints every metric with its unit.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # all three workloads in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  The full record of a run (environment, instance list,
per-instance times, failures) is written to ``.bench_run/results/``.  See
README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "congested", "oracle")
#: Extra worker processes that stop where the first timed call would start;
#: setup_s is the median over them and the measuring worker.
SETUP_PROBES = 4
#: The whole command must end within 180 s.
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile (the maximum when there are no more than ten samples)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100 * k // len(ordered)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "click": metadata.version("click"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
            "seed": seed}


def _git_commit() -> str:
    """HEAD of the checkout, read without git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit of the metrics BENCHMARK.json declares for the
    run (per-layer when traced, end-to-end otherwise)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, args, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        res = _worker(common + ["--trace", "1"], deadline)
    else:
        probes = [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        res = _worker(common + ["--trace", "0"], deadline)
        res["setup_samples_s"] = [p["setup_s"] for p in probes + [res]]
    records = res["records"]
    failed = [r for r in records if not r["ok"]]
    res["attempted"] = len(records)
    res["failed"] = len(failed) + len(res.get("trace_mismatches", []))
    if args.trace:
        res["metrics"] = res["per_layer"]
        return res
    seconds = res["seconds"]
    tail_s, pct = tail(seconds)
    res["tail_percentile"] = pct
    res["metrics"] = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "run_s": sum(seconds),
        "instance_s_p50": statistics.median(seconds),
        "instance_s_tail": tail_s,
        "plan_cost_total": sum(r["cost"] for r in records if r["ok"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def report(name: str, res: dict, units: dict[str, str]) -> None:
    share = res["failed"] / res["attempted"]
    print(f"[{name}] {res['attempted']} instance runs, {res['failed']} failed "
          f"(failed_share {share:.4f})")
    for key, value in res["metrics"].items():
        note = ""
        if key == "instance_s_tail":
            note = f" (p{res['tail_percentile']} of {len(res['seconds'])} instances)"
        print(f"[{name}] {key} = {value:.6g} {units[key]}{note}")
    if "trace_counts" in res:
        print(f"[{name}] trace counts untraced/traced: {res['trace_counts']}, "
              f"{res['spans']} spans")
    for r in res["records"]:
        if not r["ok"]:
            print(f"[{name}] FAILED: {r['why'].strip()}", file=sys.stderr)
    for m in res.get("trace_mismatches", []):
        print(f"[{name}] TRACE MISMATCH: {m}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all three in turn when omitted")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "hangarplan" / "__init__.py").is_file():
        print(f"error: no hangarplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    units = declared_units(args.trace)
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = ROOT / ".bench_run" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args, deadline)
            if set(res["metrics"]) != set(units):
                raise BenchError(f"{name} measured {sorted(res['metrics'])}, "
                                 f"BENCHMARK.json declares {sorted(units)}")
            res["environment"] = env
            path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1) + "\n")
            report(name, res, units)
            print(f"[{name}] record: {path.relative_to(ROOT)}")
            results[name] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        prefix = "" if args.workload else f"{name}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
