"""magcoh benchmark: one seeded, single-process, single-client closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each op calls magcoh's public functions on inputs drawn for the workload
(see ``workloads.py``); the next op starts when the previous one returns.
Ops run in whole rounds, one op per ladder point.  A run makes as many
rounds as took ``--seconds`` of op time at the reference commit
(``workloads.NOMINAL_ROUND_S``, at least ``MIN_OPS`` ops), so a faster or
slower commit does the same work and its percentiles are the same order
statistics.  Every op is checked against its stored reference outside the
timed region (``check.py``).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over ``SETUP_REPEATS`` fresh processes of the time
  from process start to ready-to-time (importing numpy and magcoh,
  loading references, building inputs, one warm-up op on tiny inputs);
- ``ops_per_s``: correct ops per second of timed op time;
- ``op_p50_s``: median op wall time;
- ``op_tail_s``: op wall time at the highest nearest-rank percentile with
  at least ten samples beyond it (the percentile and sample count are
  printed above the result line);
- ``success_rate``: 1 - error_rate, the share of attempted ops that
  returned and matched their reference (``error_rate`` itself is printed
  above the result line, and is ``failed / attempted``);
- ``peak_rss_mib``: peak resident memory of this process.

``--trace 1`` runs each op twice, untraced and traced (alternating which
goes first), and reports per-op means of the per-layer metrics from the
traced copies, plus ``trace.overhead_frac`` from the pairs.  Spans are
written to ``perfbench/out/spans-<workload>.npz`` when the run ends.

The last line of stdout is the JSON result.  BLAS is pinned to one thread
before numpy loads.  Exit code 2 without a result when magcoh or the
references cannot be loaded.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy; the set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

WORKLOADS = ("permanent-ryser", "reduce-scatter", "single-mode", "cli-render")
SETUP_REPEATS = 5
MIN_OPS = 11
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "success_rate": "frac",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "trace.op_s": "s",
    "trace.overhead_frac": "frac",
    "magnon_state.build_state.calls": "count",
    "magnon_state.build_state.self_s": "s",
    "magnon_state.amplitudes": "count",
    "magnon_state.null_states": "count",
    "combinat.rank_combination.calls": "count",
    "combinat.rank_combination.self_s": "s",
    "combinat.enumerate_combinations.calls": "count",
    "combinat.enumerate_combinations.self_s": "s",
    "combinat.hypergeometric_pmf.calls": "count",
    "combinat.hypergeometric_pmf.self_s": "s",
    "reduced_density.reduce.calls": "count",
    "reduced_density.reduce.self_s": "s",
    "reduced_density.scatter_entries": "count",
    "reduced_density.gram_flops": "flop",
    "reduced_density.block_entries": "count",
    "reduced_density.validate.calls": "count",
    "reduced_density.validate.self_s": "s",
    "reduced_density.eigvalsh.calls": "count",
    "reduced_density.eigvalsh.self_s": "s",
    "reduced_density.eigvalsh.dim3": "count",
    "reduced_density.reduce_single_mode.self_s": "s",
    "coherence.coherence_report.calls": "count",
    "coherence.coherence_report.self_s": "s",
    "coherence.eigvalsh.calls": "count",
    "coherence.eigvalsh.self_s": "s",
    "coherence.eigvalsh.dim3": "count",
    "coherence.averaged_coherence_single_mode.self_s": "s",
    "thermo.finite_size_coherence_density.self_s": "s",
    "thermo.beta_decomposition.self_s": "s",
    "thermo.sweep.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "verify.run_suite.self_s": "s",
    "verify.families": "count",
}


class SetupError(Exception):
    """The benchmark cannot start: magcoh or its references are missing."""


def import_magcoh():
    """Import magcoh from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import magcoh
    except ImportError as err:
        raise SetupError(f"cannot import magcoh from {src}: {err}") from None
    if not os.path.abspath(magcoh.__file__).startswith(src + os.sep):
        raise SetupError(f"magcoh was imported from {magcoh.__file__}, not from {src}")
    return magcoh


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest nearest-rank percentile that
    leaves at least TAIL_BEYOND samples above it."""
    k = len(values) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"{len(values)} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return sorted(values)[k - 1], 100.0 * k / len(values)


class Bench:
    """Everything set up before the first timed op of one workload run."""

    def __init__(self, workload: str, seed: int):
        import_magcoh()
        import check
        import workloads

        self.check = check
        self.workloads = workloads
        self.workload = workload
        path = os.path.join(REFERENCE, f"{workload}.json")
        try:
            with open(path) as fh:
                self.refs = json.load(fh)["points"]
        except OSError as err:
            raise SetupError(f"cannot read references: {err}") from None
        os.makedirs(OUT, exist_ok=True)
        out_path = os.path.join(OUT, f"cli-{workload}.out")
        self.inputs = []
        for p, point_refs in enumerate(self.refs):
            if len(point_refs) != workloads.POOL[workload]:
                raise SetupError(f"{path}: point {p} holds {len(point_refs)} cases")
            for i, ref in enumerate(point_refs):
                if ref["case"] != workloads.draw_case(workload, p, i):
                    raise SetupError(f"{path}: case {p}/{i} no longer matches its draw; recapture")
            self.inputs.append([workloads.Inputs(workload, ref["case"], out_path) for ref in point_refs])
        self.order = workloads.visit_order(workload, seed)
        workloads.warm_up(workload, out_path)


class Tally:
    """Outcome counts and op times of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.cases: list[dict] = []
        self.problems: list[str] = []
        self.rounds = 0
        self.timed = 0.0
        self.overhead: float | None = None


def time_op(bench: Bench, inp, ref: dict, tally: Tally, around=contextlib.nullcontext) -> float:
    """Run one op inside ``around()``, check it outside the timed region;
    returns its wall time."""
    import magcoh

    wl = bench.workloads
    if bench.workload == "cli-render":
        wl.prepare_cli_output(inp)
    failure = None
    t0 = time.perf_counter()
    try:
        with around():
            outcome = wl.run_op(inp)
    except magcoh.NullStateError as err:
        outcome = err
    except Exception:  # an unexpected raise is a failed op, and the run goes on
        outcome, failure = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    tally.attempted += 1
    tally.cases.append(inp.case)
    if failure is None:
        problems = bench.check.compare(bench.workload, inp.case, wl.summarize(inp, outcome), ref)
        failure = "; ".join(problems) or None
    if failure is not None:
        tally.failed += 1
        tally.problems.append(f"{inp.case}: {failure}")
    return elapsed


def planned_rounds(workload: str, seconds: float, trace: bool) -> int:
    """Rounds that fill ``seconds`` at the reference speed; a traced run
    times every op twice, so it makes half as many."""
    import workloads

    per_round = workloads.NOMINAL_ROUND_S[workload] * (2 if trace else 1)
    fewest = 1 if trace else math.ceil(MIN_OPS / len(workloads.LADDERS[workload]))
    return max(fewest, round(seconds / per_round))


def run_rounds(bench: Bench, seconds: float, trace: bool):
    """The closed loop.  Returns the tally, and the recorder when tracing."""
    import spans

    tally = Tally()
    rec = spans.SpanRecorder() if trace else None
    untraced = traced = 0.0
    ops = 0
    pool = bench.workloads.POOL[bench.workload]
    tally.rounds = planned_rounds(bench.workload, seconds, trace)
    for r in range(tally.rounds):
        for p, point_inputs in enumerate(bench.inputs):
            i = bench.order[p][r % pool]
            inp, ref = point_inputs[i], bench.refs[p][i]
            for traced_copy in ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,):
                if traced_copy:
                    with spans.instrumented(rec):
                        t = time_op(bench, inp, ref, tally, lambda: spans.op_span(rec, ops))
                    traced += t
                else:
                    t = time_op(bench, inp, ref, tally)
                    untraced += t
                if traced_copy or not trace:
                    tally.times.append(t)
            ops += 1
    tally.timed = traced + untraced
    tally.overhead = traced / untraced - 1.0 if trace else None
    return tally, rec


def end_to_end(tally: Tally, setup_s: float) -> dict:
    ok = tally.attempted - tally.failed
    tail_s, _ = tail(tally.times)
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / tally.timed,
        "op_p50_s": statistics.median(tally.times),
        "op_tail_s": tail_s,
        "success_rate": ok / tally.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tally: Tally, rec) -> dict:
    n = len(tally.times)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name, (calls, self_s) in rec.totals().items():
        for key, v in ((f"{name}.calls", calls), (f"{name}.self_s", self_s)):
            if key in values:
                values[key] = v / n
    for key, v in rec.counts.items():
        if key in values:
            values[key] = v / n
    values["trace.op_s"] = sum(tally.times) / n
    values["trace.overhead_frac"] = tally.overhead
    return values


def probe_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process to it being ready to time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--probe-setup"],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(samples)


def _share(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            Bench(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else probe_setup(args.workload, args.seed)
        bench = Bench(args.workload, args.seed)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    tally, rec = run_rounds(bench, args.seconds, bool(args.trace))
    for problem in tally.problems[:5]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    n = len(tally.times)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} ops in {tally.rounds} rounds, "
        f"{tally.timed:.3f} s timed, error_rate {tally.failed}/{tally.attempted}, "
        f"repeated-index share {_share(bench.workloads.repeated_index_share(tally.cases))}"
    )
    if rec is None:
        metrics = end_to_end(tally, setup_s)
        _, pct = tail(tally.times)
        print(f"op_tail_s is the nearest-rank p{pct:.1f} of {n} op times ({TAIL_BEYOND} beyond it)")
        units = END_TO_END
    else:
        metrics = per_layer(tally, rec)
        rec.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        units = PER_LAYER
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
