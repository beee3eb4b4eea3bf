"""Reduced density operators of chain subsystems, in magnon-number blocks.

Tracing out the complement of an n-site subsystem never mixes site
lists with different spin-up counts q, so the reduced operator is kept
block by block: one Hermitian matrix per admissible q, over the C(n, q)
q-flip site lists in the canonical combination order, which (n, q)
alone determines.  The pure projector of a whole-chain state is the
reduction to every site.  A dense bitmask partial
trace over the full 2^N embedding gives an independent check of the
combinatorial route, and a closed form covers single-mode states,
whose block weights follow the hypergeometric law.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .combinat import (
    SiteList,
    _as_int,
    _as_real,
    _site_sums,
    admissible_q,
    combination_array,
    enumerate_combinations,
    rank_combination,
    sector_law,
    validate_sitelist,
)
from .errors import DomainError, InfeasibilityError, InternalConsistencyError
from .magnon_state import (
    AMPLITUDE_BUDGET,
    AmplitudeTable,
    FullStateVector,
    _bit_masks,
    _full_size,
    _resolve_budget,
)

__all__ = [
    "SubsystemSpec",
    "BlockDensityMatrix",
    "reduce",
    "reduce_single_mode",
    "oracle_partial_trace",
]

# Acceptance thresholds of BlockDensityMatrix.validate, and the Hermiticity
# tolerance the coherence measures apply to a plain matrix handed to them.
TRACE_TOL = 1e-10
BLOCK_HERMITICITY_TOL = 1e-12
NEGATIVE_EIGENVALUE_FLOOR = -1e-10
INPUT_HERMITICITY_TOL = 1e-10

# Rows per tile of _hermiticity_residual: its scratch memory is a few
# tile x d arrays instead of three d x d ones.
_HERMITICITY_TILE = 64


def _hermiticity_residual(b: np.ndarray) -> float:
    """max |b - b^H| over a square complex matrix, one row tile at a time.

    Equals ``float(np.abs(b - b.conj().T).max())`` bit for bit.  Entry
    (r, c) and entry (c, r) of b - b^H round to the same modulus: their
    real parts are exact negations, re b_rc - re b_cr, and their
    imaginary parts are the same sum, im b_rc + im b_cr.  So the upper
    triangle r <= c carries the maximum, and every such pair lies in the
    tile that holds row r.  A NaN tile is returned at once, since
    Python's ``max`` drops a NaN that comes second; an infinite entry on
    the diagonal or in a mirrored pair gives inf - inf = NaN, without a
    RuntimeWarning.
    """
    worst = 0.0
    # inf - inf is NaN, which the callers reject; numpy's warning is noise
    with np.errstate(invalid="ignore"):
        for i in range(0, b.shape[0], _HERMITICITY_TILE):
            j = i + _HERMITICITY_TILE
            tile = float(np.abs(b[i:j, i:] - b[i:, i:j].T.conj()).max())
            if tile != tile:
                return tile
            worst = max(worst, tile)
    return worst


@dataclass(frozen=True)
class SubsystemSpec:
    """A subset of chain sites, not necessarily contiguous."""

    parent_N: int
    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent_N", _as_int(self.parent_N, "parent chain length"))
        if self.parent_N < 1:
            raise DomainError(f"parent chain length must be positive, got {self.parent_N}")
        clean = validate_sitelist(self.sites, self.parent_N)
        if not clean:
            raise DomainError("subsystem needs at least one site")
        object.__setattr__(self, "sites", clean)

    @classmethod
    def prefix(cls, parent_N: int, n: int) -> "SubsystemSpec":
        """The contiguous block {1, ..., n}."""
        return cls(parent_N, tuple(range(1, _as_int(n, "n") + 1)))

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.sites)
        return tuple(s for s in range(1, self.parent_N + 1) if s not in inside)


def _read_only(b) -> np.ndarray:
    """A read-only view of ``b`` taken through ``np.asarray``, so a nested
    list becomes the array it reads as and no entry is copied."""
    view = np.asarray(b).view()
    view.flags.writeable = False
    return view


def _rank_one_rows(w: float, rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows w phi_i phi^H of a rank-one sector, one per entry phi_i of
    ``rows``: the one expression every dense rank-one row comes from."""
    return w * np.outer(rows, phi.conj())


class _RankOneBlocks(Mapping):
    """Read-only sectors w phi phi^H, kept as their (w, phi) pairs.

    ``sectors[q]`` is the real weight w and a read-only view of the phase
    vector phi of sector q, in a read-only mapping.  Each ``self[q]``
    builds a fresh dense block and caches nothing, so a caller that reads
    one sector at a time holds one dense block at a time.
    """

    def __init__(self, sectors: dict[int, tuple[float, np.ndarray]]):
        self.sectors = MappingProxyType({q: (w, _read_only(phi)) for q, (w, phi) in sectors.items()})

    def __getitem__(self, q: int) -> np.ndarray:
        w, phi = self.sectors[q]
        return _rank_one_rows(w, phi, phi)

    def __iter__(self):
        return iter(self.sectors)

    def __len__(self) -> int:
        return len(self.sectors)


@dataclass
class BlockDensityMatrix:
    """Hermitian subsystem density operator keyed by spin-up count q.

    ``blocks[q]`` is the C(n, q) x C(n, q) matrix over the canonical
    q-flip site lists of the subsystem, which ``labels(q)`` derives from
    (n, q) rather than storing.  ``blocks`` is either a read-only mapping
    of read-only views of the dense matrices it was built from, so an
    operator that has passed ``validate`` cannot be edited, or, for the
    rank-one sectors w phi phi^H of ``reduce_single_mode``, a read-only
    mapping that keeps each sector as its (w, phi) pair and builds a
    fresh dense block on every access, caching none: the package reads
    such sectors one at a time, so at most one dense sector is alive at
    once.  The diagonal, the block weights and ``validate`` read (w, phi)
    in O(C(n, q)), and ``block_abs_sum`` reads it with one complex row per
    distinct phase, so no coherence measure builds a dense rank-one block.  For
    operators obtained from the dense oracle, ``off_block_residual``
    records the largest matrix element found between different flip
    sectors (structurally zero for magnon states).  A rank-one sector's
    spectrum is read off its weight; every other sector is diagonalised
    when asked.  Only ``reduce`` attaches Gram factors, after building
    each block from its factor: ``_factors[q]`` is the db x da matrix V
    with ``blocks[q] = V.T @ V.conj()``, which ``validate`` uses to check
    positivity from the smaller side.  The constructor takes no factor,
    so no caller can hand over one that disagrees with its block.
    """

    n: int
    blocks: Mapping[int, np.ndarray]
    off_block_residual: float | None = None
    _factors: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _validated: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n = _as_int(self.n, "n")
        if not isinstance(self.blocks, _RankOneBlocks):
            self.blocks = MappingProxyType({q: _read_only(b) for q, b in self.blocks.items()})

    @property
    def q_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.blocks))

    def labels(self, q: int) -> list[SiteList]:
        """Basis of sector q: the q-flip site lists of {1, ..., n}, in order."""
        return enumerate_combinations(self.n, q)

    def _rank_one(self, q: int) -> tuple[float, np.ndarray] | None:
        """(w, phi) of sector q if it is kept in that form, else None."""
        return self.blocks.sectors[q] if isinstance(self.blocks, _RankOneBlocks) else None

    def block_diagonal(self, q: int) -> np.ndarray:
        """Diagonal of sector q, complex, with the dense block's bits."""
        rank_one = self._rank_one(q)
        if rank_one is None:
            return np.diag(self.blocks[q])
        w, phi = rank_one
        return w * (phi * phi.conj())

    def block_abs_sum(self, q: int) -> float:
        """Sum of |b_ij| over sector q, with the dense block's bits.

        A dense sector is summed as ``np.abs(block).sum()``.  A rank-one
        sector w phi phi^H never builds its complex block: rows i and j
        whose phases compare equal are equal entry for entry, since the
        same scalar multiplies the same vector, and phi_l = exp(ik sum(l))
        takes at most q (n - q) + 1 values, one per site sum.  So the
        moduli of one row per distinct phase are gathered into the d x d
        modulus array and summed in one ``.sum()``, the flat pairwise sum
        the dense block gets; a running total of row sums would round
        differently.
        """
        rank_one = self._rank_one(q)
        if rank_one is None:
            return float(np.abs(self.blocks[q]).sum())
        w, phi = rank_one
        _, first, row_of = np.unique(phi, return_index=True, return_inverse=True)
        return float(np.abs(_rank_one_rows(w, phi[first], phi))[row_of].sum())

    def _abs_sum(self) -> float:
        """Sum of |rho_ij| over every sector, read one sector at a time."""
        return sum(self.block_abs_sum(q) for q in self.q_values)

    def _basis_dimension(self) -> int:
        return sum(math.comb(self.n, q) for q in self.q_values)

    def _dephased(self) -> "BlockDensityMatrix":
        """The operator with every off-diagonal element dropped."""
        return BlockDensityMatrix(self.n, {q: np.diag(self.block_diagonal(q)) for q in self.q_values})

    def _weight(self, q: int) -> float:
        return float(self.block_diagonal(q).sum().real)

    @property
    def block_weights(self) -> dict[int, float]:
        return {q: self._weight(q) for q in self.q_values}

    def total_trace(self) -> float:
        return sum(self.block_weights.values())

    def diagonal(self) -> np.ndarray:
        """Populations in the canonical basis, blocks in ascending q."""
        return np.concatenate([self.block_diagonal(q).real for q in self.q_values])

    def block_spectrum(self, q: int) -> np.ndarray:
        """Eigenvalues of sector q, ascending: for a rank-one sector, d - 1
        zeros and then the weight ``block_weights`` gives; for any other,
        a fresh ``eigvalsh`` of the dense block."""
        if self._rank_one(q) is None:
            return np.linalg.eigvalsh(self.blocks[q])
        return np.append(np.zeros(math.comb(self.n, q) - 1), self._weight(q))

    def spectrum(self) -> np.ndarray:
        """All eigenvalues across blocks, sorted descending."""
        parts = [self.block_spectrum(q) for q in self.q_values]
        return np.sort(np.concatenate(parts))[::-1]

    def purity(self) -> float:
        return sum(float(np.vdot(b, b).real) for b in self.blocks.values())

    def _lowest_eigenvalue(self, q: int) -> float:
        v = self._factors.get(q)
        if v is not None and v.shape[0] < v.shape[1]:
            lowest = float(np.linalg.eigvalsh(v @ v.conj().T).min())
            # min(0.0, nan) would be 0.0; a NaN must reach validate's comparison
            return 0.0 if lowest > 0.0 else lowest
        return float(self.block_spectrum(q).min())

    def validate(self) -> "BlockDensityMatrix":
        """Check shapes, Hermiticity, positivity and unit trace; returns self.

        Each sector q must lie in [0, n] and be C(n, q) x C(n, q).  A
        rank-one sector w phi phi^H needs a phase vector of length
        C(n, q) and a finite w and phi; being real times a projector, it
        is Hermitian by construction and is never built densely here.
        Hermiticity of a dense block is read off the block, which the
        constructor took through ``np.asarray``, so nested lists check
        like arrays.  The Hermiticity residual max |b - b^H| is taken
        over row tiles of the upper triangle, so it needs O(tile x d)
        scratch memory rather than three d x d temporaries; it is exact,
        not a bound, because entries (r, c) and (c, r) of b - b^H have the
        same modulus to the last bit (see ``_hermiticity_residual``).  Only
        ``reduce`` attaches Gram factors.  A factor V with fewer rows than
        columns gives a sector's lowest eigenvalue as min(0, lowest
        eigenvalue of V V^H): by the Schmidt decomposition V V^H carries
        the block's nonzero spectrum, and the block has da - db zeros
        besides.  Without such
        a factor it is the least entry of ``block_spectrum``, in closed
        form for a rank-one sector and from the dense block for any other.
        Every comparison fails on NaN.  An operator that passes is marked,
        so the coherence measures check it once, not on every call.
        """
        for q in self.q_values:
            if not 0 <= q <= self.n:
                raise InternalConsistencyError(f"block q={q} lies outside [0, {self.n}]")
            dim = math.comb(self.n, q)
            rank_one = self._rank_one(q)
            if rank_one is None:
                b = self.blocks[q]
                if b.ndim != 2 or b.shape[0] != b.shape[1]:
                    raise InternalConsistencyError(f"block q={q} is not square: shape {b.shape}")
                if b.shape[0] != dim:
                    raise InternalConsistencyError(f"block q={q} has {b.shape[0]} rows, not C({self.n}, {q}) = {dim}")
                herm = _hermiticity_residual(b)
                if not herm <= BLOCK_HERMITICITY_TOL:
                    raise InternalConsistencyError(f"block q={q} departs from Hermiticity by {herm:.3e}")
            else:
                w, phi = rank_one
                if phi.shape != (dim,):
                    raise InternalConsistencyError(f"rank-one block q={q} has a phase vector of shape {phi.shape}, not ({dim},)")
                if not (math.isfinite(w) and np.isfinite(phi).all()):
                    raise InternalConsistencyError(f"rank-one block q={q} has a non-finite weight or phase")
            lowest = self._lowest_eigenvalue(q)
            if not lowest >= NEGATIVE_EIGENVALUE_FLOOR:
                raise InternalConsistencyError(f"block q={q} has eigenvalue {lowest:.3e} below the floor")
        off = abs(self.total_trace() - 1.0)
        if not off <= TRACE_TOL:
            raise InternalConsistencyError(f"total trace departs from 1 by {off:.3e}")
        self._validated = True
        return self


def _check_blocks(n: int, qs, budget: int) -> None:
    """Refuse, before any is built, a sector q whose C(n, q) x C(n, q)
    block would exceed the budget."""
    for q in qs:
        if (d := math.comb(n, q)) * d > budget:
            raise InfeasibilityError(f"sector q={q} needs a {d} x {d} block, budget is {budget}")


def reduce(state: AmplitudeTable, sub: SubsystemSpec, budget: int | None = None) -> BlockDensityMatrix:
    """Reduced density operator of a subsystem, by direct coefficient sums.

    Groups the state amplitudes as a (complement rank) x (subsystem
    rank) matrix V per flip sector q; each block is then the Gram matrix
    V^T conj(V) of the columns, which keeps the cost at one pass over the
    table plus one small matrix product per sector.

    The split runs on arrays.  Small-int tables give each chain site its
    1-based position within the subsystem or the complement, 0 on the
    other side; one gather of each over ``combination_array(N, m)``
    splits every site list at once, and a row's count of nonzero
    subsystem positions is its sector q.  Per sector, the rows are
    selected, each side is compressed by its nonzero mask (already
    increasing, since the rows are), ranked, and stored with one
    fancy-index assignment.  The ranks still come from
    ``rank_combination``, one call per half of every site list, each
    half a tuple of plain ints taken straight from the compressed table,
    so a call costs one exactness pass and one probe of its LRU cache:
    a closed-form rank over the position arrays would drop those calls,
    and the benchmark counts them.  The position scratch is freed before
    the Gram products.

    The factors V are attached to the result before ``validate`` runs, so
    it checks positivity on the smaller side of each sector (the
    complement side whenever db < da).  Both budget refusals come before
    any allocation.  A budget that is not an integer of at least 1 is a
    DomainError.
    """
    budget = _resolve_budget(budget, AMPLITUDE_BUDGET)
    N, m = state.N, state.m
    if sub.parent_N != N:
        raise DomainError(f"subsystem belongs to an N={sub.parent_N} chain, state has N={N}")
    n = sub.n
    sector = admissible_q(N, n, m)
    if math.comb(N, m) > budget:
        raise InfeasibilityError(f"reduction scans {math.comb(N, m)} amplitudes, budget is {budget}")
    # each db x da buffer is a slice of the amplitude table, so only a
    # da x da block can outgrow the budget the table fits in
    _check_blocks(n, sector, budget)

    buffers = _scatter(state, sub, sector)
    rho = BlockDensityMatrix(n, {q: v.T @ v.conj() for q, v in buffers.items()})
    rho._factors = buffers
    return rho.validate()


def _scatter(state: AmplitudeTable, sub: SubsystemSpec, sector: range) -> dict[int, np.ndarray]:
    """The db x da factor V of each sector q, V[rank of the complement
    half, rank of the subsystem half] = amplitude of the site list.

    Its scratch, the position tables over every row, is dropped on
    return, before the Gram products and ``validate`` allocate theirs.
    """
    N, m, n = state.N, state.m, sub.n
    nb = N - n
    # 1-based position of each chain site within its side, 0 on the other
    pos_a = np.zeros(N + 1, dtype=np.min_scalar_type(N))
    pos_b = np.zeros_like(pos_a)
    pos_a[list(sub.sites)] = np.arange(1, n + 1)
    pos_b[list(sub.complement)] = np.arange(1, nb + 1)
    rows = combination_array(N, m)
    inside, outside = pos_a[rows], pos_b[rows]
    del rows
    q_row = np.count_nonzero(inside, axis=1)
    buffers = {}
    for q in sector:
        sel = np.flatnonzero(q_row == q)
        v = np.zeros((math.comb(nb, m - q), math.comb(n, q)), dtype=np.complex128)
        v[_side_ranks(outside[sel], m - q, nb), _side_ranks(inside[sel], q, n)] = state.amplitudes[sel]
        buffers[q] = v
    return buffers


def _side_ranks(pos: np.ndarray, q: int, n: int) -> np.ndarray:
    """Rank among the q-lists of {1, ..., n} of each row's nonzero
    entries, for a position table whose rows each hold q nonzero entries
    in increasing order; one ``rank_combination`` call per row.

    Each row goes to it as a tuple of plain ints, so the call is one
    cache probe: ``zip`` over the columns of the compressed table builds
    the tuples in C, one at a time, and q = 0 rows are the empty tuple.
    """
    rows = len(pos)
    keys = zip(*pos[pos > 0].reshape(rows, q).T.tolist()) if q else repeat((), rows)
    return np.fromiter(map(rank_combination, keys, repeat(n)), dtype=np.intp, count=rows)


def reduce_single_mode(N: int, n: int, m: int, k: float, budget: int | None = None) -> BlockDensityMatrix:
    """Closed-form reduction when all m flips share one wavenumber k.

    Each admissible sector is the pure equal-weight phase state on q
    flips, carrying its hypergeometric weight, all of which come from
    one ``sector_law`` call; no amplitude table is ever built, so this
    route scales to chains far beyond the general one.  A sector of
    dimension d is kept as its weight p/d and its phase vector phi,
    phi_l = exp(ik sum(l)); its dense block (p/d) phi phi^H is built
    only when read.  The site sums sum(l) of every admissible sector
    come from one Pascal's-rule pass (``combinat._site_sums``) that
    visits only the (n', q) cells feeding the admissible range, so no
    site-list table is built.  Being rank one, a sector has the spectrum
    (0, ..., 0, trace), read off the weight rather than diagonalised.  The
    budget still caps d x d, the size of a block when read, and every
    sector is checked against it before any is built; a budget that is
    not an integer of at least 1 is a DomainError, as is a k that is not
    a finite real number; integer-valued floats N, n and m are taken as
    their integers.
    """
    N, n, m, k = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m"), _as_real(k, "wavenumber")
    budget = _resolve_budget(budget, AMPLITUDE_BUDGET)
    law = sector_law(N, n, m)
    qs = law.q.tolist()
    _check_blocks(n, qs, budget)
    sums = _site_sums(n, qs[0], qs[-1])
    sectors = {q: (p / math.comb(n, q), np.exp(1j * k * s)) for q, p, s in zip(qs, law.p.tolist(), sums)}
    return BlockDensityMatrix(n, _RankOneBlocks(sectors)).validate()


def oracle_partial_trace(v: FullStateVector, sub: SubsystemSpec) -> BlockDensityMatrix:
    """Brute-force partial trace over the dense 2^N embedding.

    Independent of the combinatorial route: reshapes the vector by
    subsystem and complement bitmasks, forms the dense subsystem
    operator, then projects it onto flip sectors.  The largest element
    between different sectors is reported as ``off_block_residual``.
    FULL_VECTOR_BUDGET caps the 2^N vector and AMPLITUDE_BUDGET the 4^n
    dense operator.
    """
    N = v.N
    if sub.parent_N != N:
        raise DomainError(f"subsystem belongs to an N={sub.parent_N} chain, vector has N={N}")
    size = _full_size(N, "oracle trace scans")
    n = sub.n
    if (1 << (2 * n)) > AMPLITUDE_BUDGET:
        raise InfeasibilityError(f"oracle trace builds a 2^{n} x 2^{n} operator, budget is {AMPLITUDE_BUDGET}")

    idx = np.arange(size)
    a = np.zeros(size, dtype=np.int64)
    for i, s in enumerate(sub.sites):
        a |= ((idx >> (s - 1)) & 1) << i
    b = np.zeros(size, dtype=np.int64)
    for i, s in enumerate(sub.complement):
        b |= ((idx >> (s - 1)) & 1) << i
    grouped = np.zeros((1 << (N - n), 1 << n), dtype=np.complex128)
    grouped[b, a] = v.entries
    dense = grouped.T @ grouped.conj()

    pops = np.array([i.bit_count() for i in range(1 << n)], dtype=np.int64)
    # n >= 1, so sectors 0 and 1 always meet off the diagonal
    residual = float(np.abs(dense[pops[:, None] != pops[None, :]]).max())

    blocks: dict[int, np.ndarray] = {}
    for q in range(n + 1):
        masks = _bit_masks(n, q)
        block = dense[np.ix_(masks, masks)]
        if np.abs(block).max() > 0.0:
            blocks[q] = block
    return BlockDensityMatrix(n, blocks, off_block_residual=residual).validate()

