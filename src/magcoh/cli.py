"""Command-line front end: build states, reduce them, report coherence,
sweep the two-level thermodynamics, and run the self-verification suite.

Results go to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 2 domain error, 3 infeasible request, 4 internal-consistency
failure, 141 (128 + SIGPIPE, with nothing on stderr) when the reader of
stdout closed it early.  Floats are rendered with 17 significant digits,
so identical invocations produce byte-identical output.

Output is streamed.  A JSON document is walked twice: the first walk
raises any error the rendering can raise (a non-finite float, named as
the first one in rendering order, an unknown type, or a complex array
that is neither a vector nor a matrix), so a refused
document writes nothing; the second writes the text piece by piece as it
is rendered.  No copy of the whole document is held, so peak memory
follows the largest piece, not the size of the output.  Complex arrays
(amplitude tables, density blocks, as nested [re, im] pairs) and the
thermo CSV (the sweep's record array) are row-major float tables, which
one loop writes a few thousand pairs or lines at a time through the
array formatter in ``_fmt`` (17 certified digits per float in numpy,
CPython's own ``%.17g`` for the rest); site lists (the state basis,
block labels) come from the combination iterator in row chunks through
a ``%d`` row template; a reduction's sectors are read one at a time as
they are rendered.  Every byte is that of formatting each number on its
own with ``%.17g``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, islice

import numpy as np

from . import combinat, thermo
from ._fmt import join_g17
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


# Items per written piece: site lists of a table, [re, im] pairs of a
# complex array, or thermo CSV lines.  It bounds the float kernel's
# scratch, some 140-170 bytes per float: about 0.6 MB for a piece of
# pairs and 1 MB for one of CSV lines, whose written text is a sixth of
# that.
_PIECE = 2048


@dataclass(frozen=True)
class _SiteLists:
    """The C(n, m) m-site lists of {1, ..., n} in canonical order, which
    render as a JSON list of integer lists without being held: the rows
    are drawn from the combination iterator one chunk at a time."""

    n: int
    m: int


class _Lazy:
    """A document value read when it is rendered, afresh on each walk, so
    that a value built on demand (a rank-one sector's dense block) is
    alive only while it is checked or written."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], object]):
        self.read = read


def _float_pieces(values: np.ndarray, head: str, group: int, seps: Sequence[str]) -> Iterator[str]:
    """``head``, then the text of a float64 array read as a row-major
    table (a 1-D array is one row), written _PIECE groups of ``group``
    floats at a time.  The text after a float is seps[0] inside a group,
    seps[1] after a group, seps[2] after a row and seps[3] after the
    last float; a row is a whole number of groups."""
    flat = values.reshape(-1)
    width, step = values.shape[-1], _PIECE * group
    yield head
    for start in range(0, flat.size, step):
        stop = min(start + step, flat.size)
        # start is a whole number of groups; a row's end overrides a group's
        codes = np.zeros(stop - start, dtype=np.intp)
        codes[group - 1 :: group] = 1
        codes[(width - 1 - start) % width :: width] = 2
        if stop == flat.size:
            codes[-1] = 3
        yield join_g17(flat[start:stop], seps, codes)


def _complex_rows(obj: np.ndarray, render: bool) -> Iterator[str]:
    if obj.ndim not in (1, 2):
        raise InternalConsistencyError(f"cannot serialize a {obj.ndim}-d complex array")
    # real and imaginary parts interleaved along the last axis
    parts = np.ascontiguousarray(obj, dtype=np.complex128).view(np.float64)
    finite = np.isfinite(parts)
    if not finite.all():
        raise _non_finite(parts[~finite][0])
    del finite
    if not render:
        return
    if parts.size == 0:
        # only brackets: "[]", or "[[], []]" for rows without pairs
        yield json.dumps(parts.tolist())
        return
    # [re, im] pairs in rows; the pieces cross row boundaries
    ndim = parts.ndim
    seps = (", ", "], [", "]" * ndim + ", " + "[" * ndim, "]" * (ndim + 1))
    yield from _float_pieces(parts, "[" * (ndim + 1), 2, seps)


def _site_list_rows(table: _SiteLists) -> Iterator[str]:
    # "%d" gives the bytes of str(int), so each row reads as a list of ints
    template = "[" + ", ".join(["%d"] * table.m) + "]"
    rows = combinat._iter_combinations(table.n, table.m)
    yield "["
    sep = ""
    while chunk := list(islice(rows, _PIECE)):
        yield sep + ", ".join(map(template.__mod__, chunk))
        sep = ", "
    yield "]"


def _chunks(obj, render: bool = True) -> Iterator[str]:
    """The JSON text of ``obj`` in pieces: a scalar or key per piece, a
    complex array one row (or one _PIECE pairs of a longer row) per
    piece, a site-list table _PIECE rows per piece.

    With ``render`` false the walk visits the same values in the same
    order and raises the same errors (a non-finite float, an unknown
    type, a complex array of another rank), but skips formatting arrays
    and site lists and yields nothing for them: the writer's checking
    pass.
    """
    if isinstance(obj, _Lazy):
        obj = obj.read()
    if obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield _fmt_float(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        yield from _complex_rows(obj, render)
    elif isinstance(obj, _SiteLists):
        if render:
            yield from _site_list_rows(obj)
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ", "
            yield from _chunks(v, render)
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield ("" if i == 0 else ", ") + json.dumps(str(k)) + ": "
            yield from _chunks(v, render)
        yield "}"
    else:
        raise InternalConsistencyError(f"cannot serialize {type(obj).__name__}")


def _render_json(obj) -> str:
    return "".join(_chunks(obj))


def _write(chunks: Iterable[str], path: str | None) -> None:
    """Write text pieces to stdout, or to a new file at ``path``."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _emit(doc, path: str | None) -> None:
    """Write ``doc`` as one line of JSON.  A first walk raises any error
    the rendering can raise, so a refused document writes nothing; the
    second streams the text, and no copy of the whole document is held."""
    deque(_chunks(doc, render=False), maxlen=0)
    _write(chain(_chunks(doc), ("\n",)), path)


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; ``what`` names them in the refusal."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{what} indices must be comma-separated integers, got {text!r}") from None


def _spec_from_args(args) -> MagnonStateSpec:
    indices = _parse_indices(args.k, "momentum")
    if len(indices) != args.m:
        raise DomainError(f"got {len(indices)} momentum indices for m={args.m}")
    spec = MagnonStateSpec(args.N, args.m, MomentumVector(args.N, indices))
    if args.budget is not None and args.budget < 1:
        raise DomainError(f"--budget must be at least 1, got {args.budget}")
    return spec


def _spec_doc(spec: MagnonStateSpec) -> dict:
    return {"N": spec.N, "m": spec.m, "k_indices": list(spec.k.indices), "J": spec.J}


def _subsystem_from_args(args, N: int) -> SubsystemSpec | None:
    if args.sites is not None and args.n is not None:
        raise DomainError("--sites and --n are mutually exclusive")
    if args.sites is not None:
        # an empty --sites is an empty subsystem, which SubsystemSpec refuses
        return SubsystemSpec(N, _parse_indices(args.sites, "site") if args.sites else ())
    if args.n is not None:
        return SubsystemSpec.prefix(N, args.n)
    return None


def _blocks_doc(reduced) -> list:
    """One record per sector; each dense block is read when it is rendered."""
    weights = reduced.block_weights
    return [
        {
            "q": q,
            "dimension": math.comb(reduced.n, q),
            "weight": weights[q],
            "labels": _SiteLists(reduced.n, q),
            "matrix": _Lazy(partial(reduced.blocks.__getitem__, q)),
        }
        for q in reduced.q_values
    ]


def cmd_state(args) -> int:
    spec = _spec_from_args(args)
    table = build_state(spec, budget=args.budget)
    doc = {
        "spec": _spec_doc(spec),
        "normalization": table.normalization,
        "basis": _SiteLists(table.N, table.m),
        "amplitudes": table.amplitudes,
    }
    _emit(doc, args.output)
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
        k_value = float(spec.k.values[0])
        reduced = reduce_single_mode(spec.N, sub.n, spec.m, k_value, budget=args.budget)
    else:
        reduced = oracle_partial_trace(embed_full(build_state(spec, budget=args.budget)), sub)
    doc = {
        "spec": _spec_doc(spec),
        "subsystem": {"parent_N": sub.parent_N, "sites": list(sub.sites)},
        "method": args.method,
        "trace": reduced.total_trace(),
        "off_block_residual": reduced.off_block_residual,
        "blocks": _blocks_doc(reduced),
    }
    _emit(doc, args.output)
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
        k_value = float(spec.k.values[0])
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
    _emit(doc, args.output)
    return 0


def cmd_thermo(args) -> int:
    curve = thermo.sweep(args.epsilon0, args.beta_min, args.beta_max, args.count)
    table = np.asarray(curve.points).view(np.float64).reshape(-1, 3)
    # values in row order: every row is (*point, eps0), so eps0 comes after
    # the first row's point and before any later row's values
    finite = np.isfinite(table)
    if not finite[:1].all():
        raise _non_finite(table[:1][~finite[:1]][0])
    line_end = "," + _fmt_float(curve.epsilon0) + "\n"
    if not finite.all():
        raise _non_finite(table[~finite][0])
    del finite
    seps = (",", line_end, line_end, line_end)
    _write(_float_pieces(table, "beta_c,u,heat_capacity,epsilon0\n", 3, seps), args.output)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.N, args.m, args.seed)
    lines = [f"verification suite: N={args.N} m={args.m} seed={args.seed}"]
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag}  {r.name:<40} max_residual={r.max_residual:.3e}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} families passed")
    _write(("\n".join(lines), "\n"), args.output)
    return 0 if failed == 0 else 4


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, required=True, help="chain length")
    p.add_argument("--m", type=int, required=True, help="number of flipped spins")
    p.add_argument("--k", required=True, help="comma-separated momentum grid indices, one per flip")
    p.add_argument("--budget", type=int, default=None, help="override the amplitude and block ceilings")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: ``parse_args``
    keeps no state between calls, so every ``main`` call shares it."""
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
        code = args.handler(args)
        # a closed pipe can first show when buffered output is flushed
        sys.stdout.flush()
        return code
    except MagcohError as err:
        print(f"error[{err.category}]: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit, which
        # still holds the unwritten bytes, does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # 128 + SIGPIPE, as a shell reports a process that signal ended
        return 141


if __name__ == "__main__":
    sys.exit(main())
