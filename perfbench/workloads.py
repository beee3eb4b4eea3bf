"""The four benchmark workloads: their input ladders, seeded case draws,
the op each one times, and the scalar summary each op is checked by.

Every workload is a fixed ladder of working points.  Each point owns a
pool of ``POOL`` cases drawn from a fixed string seed, and
``reference/<workload>.json`` holds the summaries those cases produced at
the commit the references were captured at.  A run's ``--seed`` only
picks the order in which each point's pool is visited, so the program
receives nothing but the generated inputs and every timed op has a
stored answer.  Cases are drawn without filtering: a momentum choice that
interferes to the null state stays in the pool, and its reference answer
is the ``NullStateError``.

Which module does most of the work differs by design:

- ``permanent-ryser``: N=16, m in {10, 11, 12} (the 2^m Ryser route),
  momenta drawn with replacement, so nearly every spec repeats an index;
  ``build_state`` dominates.
- ``reduce-scatter``: N in {22, 24}, m in {4, 5} (the cheap direct
  permanent), distinct momenta, N/2 scattered sites; the ranking and
  scatter loop of ``reduce`` dominates.
- ``single-mode``: the closed-form route with dense rank-one sectors at
  n in {10, 11, 12}, then the hypergeometric sector-law sums at
  N in {1e3, 1e4, 1e5}; no permanent is ever evaluated.
- ``cli-render``: in-process ``magcoh.cli.main`` over every subcommand;
  JSON/CSV rendering and the ``verify`` suite dominate.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import numpy as np

import magcoh
import magcoh.cli

POOL = {"permanent-ryser": 16, "reduce-scatter": 16, "single-mode": 16, "cli-render": 32}

LADDERS = {
    "permanent-ryser": [{"N": 16, "m": m, "n": n} for m in (10, 11, 12) for n in (5, 6)],
    "reduce-scatter": [{"N": N, "m": m, "n": N // 2} for N in (22, 24) for m in (4, 5)],
    "single-mode": [{"n": 10, "N_thermo": 1_000}, {"n": 11, "N_thermo": 10_000}, {"n": 12, "N_thermo": 100_000}],
    "cli-render": [
        {"command": c} for c in ("state", "reduce-prefix", "reduce-sites", "coherence", "thermo", "verify")
    ],
}

# Points of the two-level sweep run by every single-mode op.
SWEEP_COUNT = 2001

# Untraced op time of one round (one op per ladder point), measured at the
# reference commit on the machine recorded in isolation.json.  A run makes
# the number of rounds that fills --seconds at that speed, so every commit
# is measured on the same work and op_tail_s is the same order statistic.
NOMINAL_ROUND_S = {"permanent-ryser": 6.5, "reduce-scatter": 2.1, "single-mode": 2.3, "cli-render": 0.85}


def draw_case(workload: str, point: int, index: int) -> dict:
    """The index-th pool case of a ladder point, as plain JSON data."""
    rng = random.Random(f"{workload}/{point}/{index}")
    p = LADDERS[workload][point]
    if workload == "permanent-ryser":
        N = p["N"]
        return {
            "N": N,
            "k": [rng.randrange(N) for _ in range(p["m"])],
            "sites": sorted(rng.sample(range(1, N + 1), p["n"])),
        }
    if workload == "reduce-scatter":
        N = p["N"]
        return {"N": N, "k": rng.sample(range(N), p["m"]), "sites": sorted(rng.sample(range(1, N + 1), p["n"]))}
    if workload == "single-mode":
        n, N2 = p["n"], p["N_thermo"]
        N = rng.randint(2 * n, 3 * n)
        return {
            "N": N,
            "n": n,
            "m": N // 2 + rng.choice((-1, 0, 1)),
            "j": rng.randrange(1, N),
            "N_thermo": N2,
            "n_thermo": N2 // 2,
            "m_thermo": round(N2 * rng.uniform(0.25, 0.35)),
        }
    return {"argv": _cli_argv(p["command"], rng)}


def _cli_argv(command: str, rng: random.Random) -> list[str]:
    N, m = 20, 4
    state = ["--N", str(N), "--m", str(m), "--k", ",".join(str(rng.randrange(N)) for _ in range(m))]
    if command == "state":
        return ["state", *state]
    if command == "reduce-prefix":
        return ["reduce", *state, "--n", "10"]
    if command == "reduce-sites":
        return ["reduce", *state, "--sites", ",".join(map(str, sorted(rng.sample(range(1, N + 1), 10))))]
    if command == "coherence":
        return ["coherence", *state, "--n", "10"]
    if command == "thermo":
        eps0 = f"{rng.uniform(0.5, 2.0):.6f}"
        return ["thermo", "--epsilon0", eps0, "--beta-min", "-4", "--beta-max", "4", "--count", "20001"]
    return ["verify", "--seed", str(rng.randrange(1_000_000))]


def momenta(case: dict) -> list[int] | None:
    """The momentum indices a case hands to the permanent, if it has any."""
    if "k" in case:
        return case["k"]
    argv = case.get("argv", [])
    return [int(j) for j in argv[argv.index("--k") + 1].split(",")] if "--k" in argv else None


def repeated_index_share(cases) -> float | None:
    """Share of the cases with momenta whose momenta repeat an index."""
    lists = [k for k in map(momenta, cases) if k is not None]
    return sum(len(set(k)) < len(k) for k in lists) / len(lists) if lists else None


def visit_order(workload: str, seed: int) -> list[list[int]]:
    """Per ladder point, the seeded order in which the pool is visited."""
    pool = POOL[workload]
    return [random.Random(f"{seed}/{workload}/{p}").sample(range(pool), pool) for p in range(len(LADDERS[workload]))]


class Inputs:
    """Magcoh input objects for one case, built before any timing starts."""

    def __init__(self, workload: str, case: dict, out_path: str):
        self.workload = workload
        self.case = case
        if workload in ("permanent-ryser", "reduce-scatter"):
            N = case["N"]
            self.spec = magcoh.MagnonStateSpec(N, len(case["k"]), magcoh.MomentumVector(N, tuple(case["k"])))
            self.sub = magcoh.SubsystemSpec(N, tuple(case["sites"]))
        elif workload == "single-mode":
            self.k = 2.0 * math.pi * case["j"] / case["N"]
            self.epsilon0 = magcoh.dispersion(1.0, self.k)
        else:
            self.argv = [*case["argv"], "-o", out_path]
            self.out_path = out_path


def run_op(inp: Inputs):
    """One timed op.  Every public call goes through a module attribute, so
    the traced run's wrappers see it.  A NullStateError propagates."""
    w = inp.workload
    if w in ("permanent-ryser", "reduce-scatter"):
        table = magcoh.build_state(inp.spec)
        rho = magcoh.reduce(table, inp.sub)
        return table, rho, magcoh.coherence_report(rho)
    if w == "single-mode":
        c = inp.case
        rho = magcoh.reduce_single_mode(c["N"], c["n"], c["m"], inp.k)
        report = magcoh.coherence_report(rho)
        averages = [magcoh.averaged_coherence_single_mode(c["N"], c["n"], c["m"], inp.k, s) for s in ("r", "l1", "ln")]
        N2, n2, m2 = c["N_thermo"], c["n_thermo"], c["m_thermo"]
        density = magcoh.finite_size_coherence_density(N2, n2, m2)
        split = magcoh.beta_decomposition(N2, n2, m2, inp.epsilon0)
        curve = magcoh.sweep(inp.epsilon0, -4.0 / inp.epsilon0, 4.0 / inp.epsilon0, SWEEP_COUNT)
        return rho, report, averages, density, split, curve
    return magcoh.cli.main(inp.argv)


def prepare_cli_output(inp: Inputs) -> None:
    """Remove the previous op's output file, so a missing file shows."""
    if os.path.exists(inp.out_path):
        os.remove(inp.out_path)


def summarize(inp: Inputs, outcome) -> dict:
    """Scalar summary of an op's outcome, the form references are kept in.

    ``outcome`` is what ``run_op`` returned, or the NullStateError it
    raised.
    """
    w = inp.workload
    if w == "cli-render":
        data = b""
        if os.path.exists(inp.out_path):
            with open(inp.out_path, "rb") as fh:
                data = fh.read()
        return {"exit": outcome, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(outcome, magcoh.NullStateError):
        return {"null": True}
    if w == "single-mode":
        rho, report, averages, density, split, curve = outcome
        return {
            "null": False,
            **_block_summary(rho, report),
            "averages": averages,
            "density": density,
            "beta": [split.beta, split.beta_incoherent, split.beta_coherence],
            "sweep": [math.fsum(p.u for p in curve.points), math.fsum(p.heat_capacity for p in curve.points)],
        }
    table, rho, report = outcome
    return {
        "null": False,
        "normalization": table.normalization,
        "projection": _projection(inp.case, table.amplitudes),
        **_block_summary(rho, report),
    }


def _block_summary(rho, report) -> dict:
    return {
        "dims": [rho.blocks[q].shape[0] for q in rho.q_values],
        "weights": [rho.block_weights[q] for q in rho.q_values],
        "q": list(rho.q_values),
        "c_l1": report.c_l1,
        "c_r": report.c_r,
    }


def _projection(case: dict, amplitudes: np.ndarray) -> list[float]:
    """<w, a> for a unit vector w seeded by the case, as [re, im]."""
    seed = int.from_bytes(hashlib.sha256(repr(sorted(case.items())).encode()).digest()[:8], "little")
    w = np.random.default_rng(seed).standard_normal(len(amplitudes))
    p = complex(np.dot(w / np.linalg.norm(w), amplitudes))
    return [p.real, p.imag]


def warm_up(workload: str, out_path: str) -> None:
    """Run the op chain once on tiny inputs, so lazy imports and first-call
    costs land in set-up rather than in the first timed op."""
    if workload == "cli-render":
        small = ["--N", "7", "--m", "2", "--k", "1,3"]
        for argv in (
            ["state", *small],
            ["reduce", *small, "--n", "3"],
            ["reduce", *small, "--sites", "1,4,6"],
            ["coherence", *small, "--n", "3"],
            ["thermo", "--epsilon0", "1", "--beta-min", "-1", "--beta-max", "1", "--count", "5"],
            ["verify", "--N", "6"],
        ):
            magcoh.cli.main([*argv, "-o", out_path])
        return
    if workload == "single-mode":
        case = {"N": 10, "n": 4, "m": 5, "j": 3, "N_thermo": 200, "n_thermo": 100, "m_thermo": 60}
    elif workload == "permanent-ryser":
        case = {"N": 9, "k": [1, 1, 2, 4, 4, 5, 7], "sites": [2, 3, 7]}
    else:
        case = {"N": 10, "k": [1, 4, 6], "sites": [1, 3, 4, 8, 9]}
    run_op(Inputs(workload, case, out_path))
