"""Self-tests of the benchmark harness.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import run

run.import_magcoh()

import magcoh  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(20, 0, -1)]) == (10.0, 50.0)
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_time_subtracts_children_on_synthetic_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    a = rec.begin("thermo.a")
    b = rec.begin("combinat.b")
    d = rec.begin("combinat.d")
    assert rec.enclosing_layer() == "combinat"
    rec.finish(*d)
    rec.finish(*b)
    c = rec.begin("combinat.c")
    rec.finish(*c)
    rec.finish(*a)
    assert rec.enclosing_layer() == "bench"
    assert list(rec.parent) == [-1, 0, 1, 0]
    assert rec.totals() == {"thermo.a": (1, 6.0), "combinat.b": (1, 2.0), "combinat.d": (1, 1.0), "combinat.c": (1, 1.0)}


def test_instrumented_attributes_spectra_and_restores_everything():
    originals = (magcoh.build_state, magcoh.cli.build_state, np.linalg.eigvalsh, magcoh.BlockDensityMatrix.validate)
    inp = workloads.Inputs("reduce-scatter", {"N": 8, "k": [1, 2, 5], "sites": [2, 3, 7]}, "")
    rec = spans.SpanRecorder()
    with spans.instrumented(rec), spans.op_span(rec, 0):
        workloads.run_op(inp)
    totals = rec.totals()
    for name in ("magnon_state.build_state", "reduced_density.reduce", "reduced_density.validate",
                 "reduced_density.eigvalsh", "coherence.coherence_report", "coherence.eigvalsh"):
        assert totals[name][0] >= 1, name
    assert totals["combinat.rank_combination"][0] == 2 * math.comb(8, 3)
    assert rec.counts["magnon_state.amplitudes"] == math.comb(8, 3)
    assert originals == (magcoh.build_state, magcoh.cli.build_state, np.linalg.eigvalsh, magcoh.BlockDensityMatrix.validate)


SMALL_CASES = {
    "permanent-ryser": {"N": 9, "k": [1, 1, 2, 4, 4, 5, 7], "sites": [2, 3, 7]},
    "reduce-scatter": {"N": 10, "k": [1, 4, 6], "sites": [1, 3, 4, 8, 9]},
    "single-mode": {"N": 10, "n": 4, "m": 5, "j": 3, "N_thermo": 200, "n_thermo": 100, "m_thermo": 60},
}


def _numeric_fields(summary: dict):
    for key, value in summary.items():
        if key in ("null", "q", "dims"):
            continue
        for i in range(len(value) if isinstance(value, list) else 1):
            yield key, (i if isinstance(value, list) else None)


@pytest.mark.parametrize("workload", sorted(SMALL_CASES))
def test_checker_accepts_reference_and_flags_each_perturbed_field(workload):
    case = SMALL_CASES[workload]
    inp = workloads.Inputs(workload, case, "")
    ref = workloads.summarize(inp, workloads.run_op(inp))
    assert check.compare(workload, case, ref, ref) == []
    fields = list(_numeric_fields(ref))
    assert fields
    for key, i in fields:
        bad = json.loads(json.dumps(ref))
        if i is None:
            bad[key] = bad[key] * (1 + 1e-3) + 1e-3
        else:
            bad[key][i] = bad[key][i] * (1 + 1e-3) + 1e-3
        assert check.compare(workload, case, ref, bad), (key, i)
    assert check.compare(workload, case, ref, {"null": True})


def test_checker_flags_cli_digest_and_exit_code():
    ref = {"exit": 0, "bytes": 3, "sha256": "ab"}
    assert check.compare("cli-render", {}, dict(ref), ref) == []
    assert check.compare("cli-render", {}, {**ref, "sha256": "ac"}, ref)
    assert check.compare("cli-render", {}, {**ref, "exit": 2}, ref)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_stored_reference_matches_first_case(workload):
    with open(os.path.join(run.REFERENCE, f"{workload}.json")) as fh:
        ref = json.load(fh)["points"][0][0]
    assert ref["case"] == workloads.draw_case(workload, 0, 0)
    os.makedirs(run.OUT, exist_ok=True)
    inp = workloads.Inputs(workload, ref["case"], os.path.join(run.OUT, "test-cli.out"))
    if workload == "cli-render":
        workloads.prepare_cli_output(inp)
    try:
        outcome = workloads.run_op(inp)
    except magcoh.NullStateError as err:
        outcome = err
    assert check.compare(workload, ref["case"], workloads.summarize(inp, outcome), ref) == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_inputs(workload):
    assert workloads.visit_order(workload, 3) == workloads.visit_order(workload, 3)
    assert workloads.visit_order(workload, 3) != workloads.visit_order(workload, 4)
    assert workloads.draw_case(workload, 1, 2) == workloads.draw_case(workload, 1, 2)
    assert workloads.draw_case(workload, 1, 2) != workloads.draw_case(workload, 1, 3)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_a_run_of_the_configured_length_visits_no_case_twice():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in run.WORKLOADS:
        assert run.planned_rounds(workload, seconds, trace=False) <= workloads.POOL[workload]
