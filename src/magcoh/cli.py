"""Command-line front end: build states, reduce them, report coherence,
sweep the two-level thermodynamics, and run the self-verification suite.

Results go to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 2 domain error, 3 infeasible request, 4 internal-consistency
failure.  Floats are rendered with 17 significant digits, so identical
invocations produce byte-identical output.  Complex arrays (amplitude
tables, density blocks) are rendered as nested [re, im] pairs one row
per formatting call, and thermo CSV points one line per call, with the
same ``%.17g`` bytes as formatting each float on its own.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import thermo
from .coherence import averaged_coherence_single_mode, coherence_report
from .errors import InternalConsistencyError, DomainError, MagcohError
from .magnon_state import MagnonStateSpec, MomentumVector, build_state, embed_full
from .reduced_density import (
    SubsystemSpec,
    oracle_partial_trace,
    reduce,
    reduce_single_mode,
)
from .verify import run_suite

__all__ = ["main"]


def _non_finite(value) -> InternalConsistencyError:
    return InternalConsistencyError(f"refusing to serialize non-finite value {float(value)!r}")


def _fmt_float(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise _non_finite(value)
    return f"{value:.17g}"


def _render_complex_array(obj: np.ndarray) -> str:
    # real and imaginary parts interleaved along the last axis
    parts = np.ascontiguousarray(obj, dtype=np.complex128).view(np.float64)
    finite = np.isfinite(parts)
    if not finite.all():
        raise _non_finite(parts[~finite][0])
    template = "[" + ", ".join(["[%.17g, %.17g]"] * obj.shape[-1]) + "]"

    def rows(a: np.ndarray) -> str:
        if a.ndim == 1:
            return template % tuple(a.tolist())
        return "[" + ", ".join(rows(r) for r in a) + "]"

    return rows(parts)


def _render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        return _render_complex_array(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ": " + _render_json(v) for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    raise InternalConsistencyError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"momentum indices must be comma-separated integers, got {text!r}") from None


def _spec_from_args(args) -> MagnonStateSpec:
    indices = _parse_indices(args.k)
    if len(indices) != args.m:
        raise DomainError(f"got {len(indices)} momentum indices for m={args.m}")
    return MagnonStateSpec(args.N, args.m, MomentumVector(args.N, indices))


def _spec_doc(spec: MagnonStateSpec) -> dict:
    return {"N": spec.N, "m": spec.m, "k_indices": list(spec.k.indices), "J": spec.J}


def _subsystem_from_args(args, N: int) -> SubsystemSpec | None:
    if getattr(args, "sites", None) and getattr(args, "n", None) is not None:
        raise DomainError("--sites and --n are mutually exclusive")
    if getattr(args, "sites", None):
        return SubsystemSpec(N, _parse_indices(args.sites))
    if getattr(args, "n", None) is not None:
        return SubsystemSpec.prefix(N, args.n)
    return None


def _blocks_doc(reduced) -> list:
    docs = []
    weights = reduced.block_weights
    for q in reduced.q_values:
        block = reduced.blocks[q]
        docs.append(
            {
                "q": q,
                "dimension": block.shape[0],
                "weight": weights[q],
                "labels": [list(l) for l in reduced.labels(q)],
                "matrix": block,
            }
        )
    return docs


def cmd_state(args) -> int:
    spec = _spec_from_args(args)
    table = build_state(spec, budget=args.budget)
    doc = {
        "spec": _spec_doc(spec),
        "normalization": table.normalization,
        "basis": [list(l) for l in table.basis()],
        "amplitudes": table.amplitudes,
    }
    _emit(_render_json(doc), args.output)
    return 0


def cmd_reduce(args) -> int:
    spec = _spec_from_args(args)
    sub = _subsystem_from_args(args, spec.N) or SubsystemSpec.prefix(spec.N, spec.N)
    if args.method == "general":
        reduced = reduce(build_state(spec, budget=args.budget), sub, budget=args.budget)
    elif args.method == "single-mode":
        if not spec.k.is_constant():
            raise DomainError("the single-mode route needs all momentum indices equal")
        if sub.sites != tuple(range(1, sub.n + 1)):
            raise DomainError("the single-mode route labels its basis by prefix blocks; use --n")
        k_value = 2.0 * math.pi * spec.k.indices[0] / spec.N
        reduced = reduce_single_mode(spec.N, sub.n, spec.m, k_value, budget=args.budget)
    else:
        vec = embed_full(build_state(spec, budget=args.budget), budget=args.budget)
        reduced = oracle_partial_trace(vec, sub, budget=args.budget)
    doc = {
        "spec": _spec_doc(spec),
        "subsystem": {"parent_N": sub.parent_N, "sites": list(sub.sites)},
        "method": args.method,
        "trace": reduced.total_trace(),
        "off_block_residual": reduced.off_block_residual,
        "blocks": _blocks_doc(reduced),
    }
    _emit(_render_json(doc), args.output)
    return 0


def cmd_coherence(args) -> int:
    spec = _spec_from_args(args)
    sub = _subsystem_from_args(args, spec.N)
    # no subsystem: the whole chain, whose reduction is the pure projector
    kept = sub or SubsystemSpec.prefix(spec.N, spec.N)
    report = coherence_report(reduce(build_state(spec, budget=args.budget), kept, budget=args.budget))
    doc = {
        "spec": _spec_doc(spec),
        "subsystem": None if sub is None else {"parent_N": sub.parent_N, "sites": list(sub.sites)},
        "log_units": "nats",
        "report": {
            "c_l1": report.c_l1,
            "c_r": report.c_r,
            "c_ln": report.c_ln,
            "effective_dimension": report.effective_dimension,
            "basis_dimension": report.basis_dimension,
        },
        "single_mode_averages": None,
        "average_gaps": None,
    }
    if spec.k.is_constant():
        k_value = 2.0 * math.pi * spec.k.indices[0] / spec.N
        averages = {
            name: averaged_coherence_single_mode(spec.N, kept.n, spec.m, k_value, name)
            for name in ("r", "l1", "ln")
        }
        doc["single_mode_averages"] = {"c_r": averages["r"], "c_l1": averages["l1"], "c_ln": averages["ln"]}
        doc["average_gaps"] = {
            "c_r": report.c_r - averages["r"],
            "c_l1": report.c_l1 - averages["l1"],
            "c_ln": report.c_ln - averages["ln"],
        }
    _emit(_render_json(doc), args.output)
    return 0


def cmd_thermo(args) -> int:
    curve = thermo.sweep(args.epsilon0, args.beta_min, args.beta_max, args.count)
    lines = ["beta_c,u,heat_capacity,epsilon0"]
    for p in curve.points:
        row = (*p, curve.epsilon0)
        if not all(map(math.isfinite, row)):
            raise _non_finite(next(v for v in row if not math.isfinite(v)))
        lines.append("%.17g,%.17g,%.17g,%.17g" % row)
    _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.N, args.m, args.seed)
    lines = [f"verification suite: N={args.N} m={args.m} seed={args.seed}"]
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag}  {r.name:<40} max_residual={r.max_residual:.3e}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} families passed")
    _emit("\n".join(lines), args.output)
    return 0 if failed == 0 else 4


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, required=True, help="chain length")
    p.add_argument("--m", type=int, required=True, help="number of flipped spins")
    p.add_argument("--k", required=True, help="comma-separated momentum grid indices, one per flip")
    p.add_argument("--budget", type=int, default=None, help="override the size ceilings")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magcoh",
        description="Exact magnon states, block reductions, coherence measures and two-level thermodynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build a plane-wave state table as JSON")
    _add_state_options(p_state)
    p_state.set_defaults(handler=cmd_state)

    p_reduce = sub.add_parser("reduce", help="reduced density operator of a subsystem as JSON")
    _add_state_options(p_reduce)
    p_reduce.add_argument("--sites", default=None, help="comma-separated subsystem sites (1-based)")
    p_reduce.add_argument("--n", type=int, default=None, help="prefix block size {1..n}")
    p_reduce.add_argument(
        "--method",
        choices=("general", "single-mode", "oracle"),
        default="general",
        help="reduction route (default general)",
    )
    p_reduce.set_defaults(handler=cmd_reduce)

    p_coh = sub.add_parser("coherence", help="coherence measures of a state or its reduction as JSON")
    _add_state_options(p_coh)
    p_coh.add_argument("--sites", default=None, help="comma-separated subsystem sites (1-based)")
    p_coh.add_argument("--n", type=int, default=None, help="prefix block size {1..n}")
    p_coh.set_defaults(handler=cmd_coherence)

    p_thermo = sub.add_parser("thermo", help="two-level thermodynamic sweep as CSV")
    p_thermo.add_argument("--epsilon0", type=float, required=True, help="single-flip energy")
    p_thermo.add_argument("--beta-min", type=float, required=True)
    p_thermo.add_argument("--beta-max", type=float, required=True)
    p_thermo.add_argument("--count", type=int, required=True, help="number of grid points")
    p_thermo.add_argument("-o", "--output", default=None)
    p_thermo.set_defaults(handler=cmd_thermo)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--N", type=int, default=8)
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MagcohError as err:
        print(f"error[{err.category}]: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
