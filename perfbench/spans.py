"""Span recorder for the traced run, and the runtime wrappers that feed it.

magcoh itself is not edited.  ``instrumented`` replaces, for the
duration of a traced op, every reference a magcoh module holds to one of
the ``TARGETS`` functions (the names one module imports from another, and
the public functions the benchmark calls), plus
``BlockDensityMatrix.validate`` and ``numpy.linalg.eigvalsh``, with a
wrapper that records a span.  An ``eigvalsh`` span is named after the
layer of the span that encloses it, so spectra taken for validation and
for coherence are told apart.

Spans live in flat arrays (name id, start, end, parent, op id, and the
time covered by children) and are written out once, when the run ends.
A span's self time is its duration minus its children's durations;
the wrappers call synchronously, so children never overlap.

Work counts are tallied at the same boundaries from each call's
arguments (computed from inputs, not read from magcoh's internals), except
``magnon_state.null_states``, ``verify.families`` and
``cli.output_bytes``, which count outcomes.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import magcoh
from magcoh import combinat, magnon_state, reduced_density, coherence, thermo, cli, verify

OP_SPAN = "bench.op"


class SpanRecorder:
    """Spans of one run, kept in memory.  ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._current = contextvars.ContextVar("span", default=-1)

    def begin(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._current.get())
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.child.append(0.0)
        token = self._current.set(i)
        self.start.append(self.clock())
        return i, token

    def finish(self, i: int, token) -> None:
        t = self.clock()
        self._current.reset(token)
        self.end[i] = t
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def enclosing_layer(self) -> str:
        i = self._current.get()
        return self.names[self.name[i]].split(".", 1)[0] if i >= 0 else "bench"

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, summed self time) per span name."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        own = np.frombuffer(self.end, dtype=np.float64) - start - np.frombuffer(self.child, dtype=np.float64)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span to an .npz file: names plus one array per field."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _sectors(N: int, n: int, m: int):
    q_lo, q_hi = max(0, m - (N - n)), min(n, m)
    return [(math.comb(n, q), math.comb(N - n, m - q)) for q in range(q_lo, q_hi + 1)]


def _tally_build(counts, args):
    spec = args[0]
    counts["magnon_state.amplitudes"] += math.comb(spec.N, spec.m)


def _tally_reduce(counts, args):
    state, sub = args[0], args[1]
    sectors = _sectors(state.N, sub.n, state.m)
    counts["reduced_density.scatter_entries"] += math.comb(state.N, state.m)
    # one complex multiply-add (8 real flops) per term of V^T conj(V)
    counts["reduced_density.gram_flops"] += sum(8 * da * da * db for da, db in sectors)
    counts["reduced_density.block_entries"] += sum(da * da for da, _ in sectors)


def _tally_single_mode(counts, args):
    N, n, m = args[0], args[1], args[2]
    counts["reduced_density.block_entries"] += sum(da * da for da, _ in _sectors(N, n, m))


# (module, function name, tally of the call's arguments)
TARGETS = (
    (combinat, "rank_combination", None),
    (combinat, "enumerate_combinations", None),
    (combinat, "hypergeometric_pmf", None),
    (magnon_state, "build_state", _tally_build),
    (reduced_density, "reduce", _tally_reduce),
    (reduced_density, "reduce_single_mode", _tally_single_mode),
    (coherence, "coherence_report", None),
    (coherence, "averaged_coherence_single_mode", None),
    (thermo, "finite_size_coherence_density", None),
    (thermo, "beta_decomposition", None),
    (thermo, "sweep", None),
    (cli, "main", None),
    (verify, "run_suite", None),
)
_MODULES = (magcoh, combinat, magnon_state, reduced_density, coherence, thermo, cli, verify)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _output_bytes(argv) -> int:
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _wrap(rec: SpanRecorder, name: str, fn, tally):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tally is not None:
            tally(rec.counts, args)
        i, token = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except magcoh.NullStateError:
            if name == "magnon_state.build_state":
                rec.counts["magnon_state.null_states"] += 1
            raise
        finally:
            rec.finish(i, token)
        if name == "verify.run_suite":
            rec.counts["verify.families"] += len(result)
        elif name == "cli.main":
            rec.counts["cli.output_bytes"] += _output_bytes(args[0])
        return result

    return traced


def _wrap_eigvalsh(rec: SpanRecorder, fn):
    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        name = rec.enclosing_layer() + ".eigvalsh"
        d = np.shape(a)[-1]
        rec.counts[name + ".dim3"] += d * d * d
        i, token = rec.begin(name)
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.finish(i, token)

    return traced


@contextmanager
def instrumented(rec: SpanRecorder):
    """Route every traced call through ``rec`` until the block exits."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, fname, tally in TARGETS:
            fn = getattr(module, fname)
            wrapper = _wrap(rec, f"{_layer(module)}.{fname}", fn, tally)
            for mod in _MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patch(mod, attr, wrapper)
        validate = reduced_density.BlockDensityMatrix.validate
        patch(reduced_density.BlockDensityMatrix, "validate", _wrap(rec, "reduced_density.validate", validate, None))
        patch(np.linalg, "eigvalsh", _wrap_eigvalsh(rec, np.linalg.eigvalsh))
        yield rec
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def op_span(rec: SpanRecorder, op_id: int):
    """Root span of one traced op; everything the op calls nests under it."""
    rec.op_id = op_id
    i, token = rec.begin(OP_SPAN)
    try:
        yield
    finally:
        rec.finish(i, token)
