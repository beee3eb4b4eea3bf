"""Capture the reference answers every benchmark op is checked against.

Run from the repository root at the commit whose behaviour is the
reference::

    python3 perfbench/capture.py [workload ...]

For each ladder point it draws the ``POOL`` cases, runs the op once and
writes the summaries to ``perfbench/reference/<workload>.json``.  For the
general route it also evaluates every state a second time with the
momentum indices reversed (the same permanent, rounded in another order)
and refuses to write references if the two disagree beyond the
tolerances of ``check.py``: the error model must cover the spread the
route really shows.
"""

from __future__ import annotations

import json
import os
import sys

import run


def capture(workload: str) -> dict:
    import magcoh

    import check
    import workloads

    out_path = os.path.join(run.OUT, f"cli-{workload}.out")
    os.makedirs(run.OUT, exist_ok=True)
    points = []
    for p in range(len(workloads.LADDERS[workload])):
        refs = []
        for i in range(workloads.POOL[workload]):
            case = workloads.draw_case(workload, p, i)
            inp = workloads.Inputs(workload, case, out_path)
            if workload == "cli-render":
                workloads.prepare_cli_output(inp)
            try:
                outcome = workloads.run_op(inp)
            except magcoh.NullStateError as err:
                outcome = err
            summary = workloads.summarize(inp, outcome)
            if workload in ("permanent-ryser", "reduce-scatter") and not summary["null"]:
                flipped = workloads.Inputs(workload, {**case, "k": case["k"][::-1]}, out_path)
                again = workloads.summarize(inp, workloads.run_op(flipped))
                problems = check.compare(workload, case, again, summary)
                if problems:
                    raise SystemExit(f"{workload} {p}/{i}: reordered evaluation escapes the error model: {problems}")
            refs.append({"case": case, **summary})
        points.append(refs)
        nulls = sum(1 for r in refs if r.get("null"))
        print(f"{workload} point {p}: {len(refs)} cases, {nulls} null", flush=True)
    return {"workload": workload, "points": points}


def dumps(doc: dict) -> str:
    """The reference document with one case per line, so diffs stay readable."""
    points = ",\n".join("[\n" + ",\n".join(json.dumps(r) for r in point) + "\n]" for point in doc["points"])
    return f'{{"workload": {json.dumps(doc["workload"])}, "points": [\n{points}\n]}}\n'


def main(names: list[str]) -> int:
    run.import_magcoh()
    os.makedirs(run.REFERENCE, exist_ok=True)
    for workload in names or run.WORKLOADS:
        doc = capture(workload)
        with open(os.path.join(run.REFERENCE, f"{workload}.json"), "w") as fh:
            fh.write(dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
