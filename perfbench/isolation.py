"""Measure and record how well each workload isolates its layer.

Run from the repository root::

    python3 perfbench/isolation.py [--seconds S] [--seed N]

For every workload it runs the traced loop of ``run.py`` and writes
``perfbench/isolation.json``: each layer's share of traced op time (self
time summed per module), the dominant layer and its share, the share of
``cli.main`` self time per CLI subcommand, the share of pool cases with a
repeated momentum index, and the machine the figures come from.  It then
prints the isolation claims the workloads were chosen for, each with its
measured value and PASS or FAIL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from collections import defaultdict

import run  # first: it pins the BLAS thread count before numpy loads

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_shares(bench, rec, op_time: float) -> tuple[dict, dict]:
    """Per module and per (ladder point, span name) self time, as shares."""
    names = np.array(rec.names)[np.frombuffer(rec.name, dtype=np.int32)]
    start = np.frombuffer(rec.start, dtype=np.float64)
    own = np.frombuffer(rec.end, dtype=np.float64) - start - np.frombuffer(rec.child, dtype=np.float64)
    points = np.frombuffer(rec.op, dtype=np.int32) % len(bench.inputs)
    modules: dict[str, float] = defaultdict(float)
    per_point: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, p, t in zip(names.tolist(), points.tolist(), own.tolist()):
        modules[name.split(".", 1)[0]] += t
        per_point[p][name] += t
    return {m: t / op_time for m, t in sorted(modules.items(), key=lambda kv: -kv[1])}, per_point


def measure(workload: str, seconds: float, seed: int) -> dict:
    bench = run.Bench(workload, seed)
    tally, rec = run.run_rounds(bench, seconds, trace=True)
    if tally.failed:
        raise SystemExit(f"{workload}: {tally.failed} ops failed their check: {tally.problems[:3]}")
    op_time = sum(tally.times)
    modules, per_point = layer_shares(bench, rec, op_time)
    totals = rec.totals()
    record = {
        "traced_ops": len(tally.times),
        "dominant_layer": next(m for m in modules if m != "bench"),
        "layer_self_share": {m: round(s, 4) for m, s in modules.items()},
        "build_state_self_share": round(totals.get("magnon_state.build_state", (0, 0.0))[1] / op_time, 4),
        "build_state_calls": totals.get("magnon_state.build_state", (0, 0.0))[0],
        "trace_overhead_frac": round(tally.overhead, 4),
    }
    record["dominant_share"] = record["layer_self_share"][record["dominant_layer"]]
    record["pool_repeated_index_share"] = bench.workloads.repeated_index_share(r["case"] for point in bench.refs for r in point)
    if workload == "cli-render":
        per_command = {}
        for p, point in enumerate(bench.workloads.LADDERS[workload]):
            point_time = sum(per_point[p].values())
            per_command[point["command"]] = round(per_point[p]["cli.main"] / point_time, 4)
        record["cli_main_self_share_by_command"] = per_command
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.import_magcoh()
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "blas_threads": run.BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seconds": args.seconds,
        "seed": args.seed,
        "workloads": {w: measure(w, args.seconds, args.seed) for w in run.WORKLOADS},
    }
    w = doc["workloads"]
    claims = [
        ("build_state self share on permanent-ryser >= 0.70", w["permanent-ryser"]["build_state_self_share"], lambda v: v >= 0.70),
        ("build_state self share on reduce-scatter <= 0.30", w["reduce-scatter"]["build_state_self_share"], lambda v: v <= 0.30),
        ("build_state calls on single-mode == 0", w["single-mode"]["build_state_calls"], lambda v: v == 0),
        ("cli.main self share of reduce-prefix >= 0.50", w["cli-render"]["cli_main_self_share_by_command"]["reduce-prefix"], lambda v: v >= 0.50),
        ("cli.main self share of reduce-sites >= 0.50", w["cli-render"]["cli_main_self_share_by_command"]["reduce-sites"], lambda v: v >= 0.50),
    ]
    doc["claims"] = [{"claim": c, "measured": v, "holds": bool(ok(v))} for c, v, ok in claims]
    with open(os.path.join(run.HERE, "isolation.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for c in doc["claims"]:
        print(f"{'PASS' if c['holds'] else 'FAIL'}  {c['claim']}: measured {c['measured']}")
    return 0 if all(c["holds"] for c in doc["claims"]) else 1


if __name__ == "__main__":
    sys.exit(main())
