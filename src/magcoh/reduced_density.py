"""Reduced density operators of chain subsystems, in magnon-number blocks.

Tracing out the complement of an n-site subsystem never mixes site
lists with different spin-up counts q, so the reduced operator is kept
block by block: one Hermitian matrix per admissible q, over the C(n, q)
q-flip site lists in the canonical combination order, which (n, q)
alone determines.  The general route keeps each block as its Gram
factor and the single-mode route as its weight and phase vector, each
building a dense block only when it is read, so at most one dense
sector is alive at a time.  One private read of a sector,
``BlockDensityMatrix._sector_reads``, gives its populations, sum of
|b_ij| and spectrum together, and every coherence measure, the diagonal
and the spectrum are taken from it.  The pure projector of a
whole-chain state is the reduction to every site.  A dense bitmask
partial trace through the full 2^N product basis gives an independent
check of the combinatorial route, and a closed form covers single-mode
states, whose block weights follow the hypergeometric law.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .combinat import (
    _as_int,
    _as_real,
    _binomial_past,
    _int_text,
    _sector,
    _site_sums,
    admissible_q,
    combination_array,
    rank_combination,
    sector_law,
    validate_sitelist,
)
from .errors import DomainError, InfeasibilityError, InternalConsistencyError
from .magnon_state import (
    AMPLITUDE_BUDGET,
    FULL_VECTOR_BUDGET,
    AmplitudeTable,
    _bit_masks,
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
            raise DomainError(f"parent chain length must be positive, got {_int_text(self.parent_N)}")
        clean = validate_sitelist(self.sites, self.parent_N)
        if not clean:
            raise DomainError("subsystem needs at least one site")
        object.__setattr__(self, "sites", clean)

    @classmethod
    def prefix(cls, parent_N: int, n: int) -> "SubsystemSpec":
        """The contiguous block {1, ..., n}; an n past ``sys.maxsize``,
        which no tuple can index, is an InfeasibilityError, and one past
        the chain a DomainError, both refused before any site is listed."""
        if (n := _as_int(n, "n")) > sys.maxsize:
            raise InfeasibilityError(f"n={_int_text(n)} sites exceed the {sys.maxsize} entries a tuple can index")
        if n > _as_int(parent_N, "parent chain length"):
            # the last site alone, which the chain's own checks refuse
            return cls(parent_N, (n,))
        return cls(parent_N, tuple(range(1, n + 1)))

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


def _rank_one_diagonal(w: float, phi: np.ndarray) -> np.ndarray:
    """Diagonal w phi_i phi_i^* of a rank-one sector, complex, with the
    bits of the dense block's diagonal."""
    return w * (phi * phi.conj())


class _LazyBlocks(Mapping):
    """Read-only sectors kept in a factored form, ``sectors[q]``, in a
    read-only mapping.  Each ``self[q]`` builds a fresh dense block and
    caches nothing, so a caller that reads one sector at a time holds one
    dense block at a time; a membership test reads no sector."""

    sectors: Mapping[int, object]

    def __iter__(self):
        return iter(self.sectors)

    def __len__(self) -> int:
        return len(self.sectors)

    def __contains__(self, q) -> bool:
        return q in self.sectors


class _RankOneBlocks(_LazyBlocks):
    """Sectors w phi phi^H, kept as their (w, phi) pairs: ``sectors[q]``
    is the real weight w and a read-only view of the phase vector phi."""

    def __init__(self, sectors: dict[int, tuple[float, np.ndarray]]):
        self.sectors = MappingProxyType({q: (w, _read_only(phi)) for q, (w, phi) in sectors.items()})

    def __getitem__(self, q: int) -> np.ndarray:
        w, phi = self.sectors[q]
        return _rank_one_rows(w, phi, phi)


class _GramBlocks(_LazyBlocks):
    """Sectors V^T conj(V), kept as their Gram factors: ``sectors[q]`` is
    a read-only view of the db x da factor V, and ``self[q]`` a fresh,
    read-only ``V.T @ V.conj()``, so a block cannot disagree with its
    factor."""

    def __init__(self, factors: dict[int, np.ndarray]):
        self.sectors = MappingProxyType({q: _read_only(v) for q, v in factors.items()})

    def __getitem__(self, q: int) -> np.ndarray:
        v = self.sectors[q]
        b = v.T @ v.conj()
        b.flags.writeable = False
        return b


@dataclass(frozen=True, eq=False)
class BlockDensityMatrix:
    """Hermitian subsystem density operator keyed by spin-up count q.

    ``blocks[q]`` is the C(n, q) x C(n, q) matrix over the canonical
    q-flip site lists of the subsystem, ``enumerate_combinations(n, q)``,
    which (n, q) determines, so no block stores them.  The operator is
    frozen, so no field can be rebound after ``validate`` has passed it,
    and ``blocks`` is a read-only mapping of one of three kinds, so no
    entry can be edited either:

    - read-only views of the dense matrices it was built from;
    - for ``reduce``, each sector V^T conj(V) kept as its read-only db x da
      Gram factor V, with every read building a fresh, read-only
      ``V.T @ V.conj()``, so a block cannot disagree with its factor;
    - for ``reduce_single_mode``, each rank-one sector w phi phi^H kept as
      its (w, phi) pair, with every read building a fresh dense block.

    The last two cache no dense block: the package reads their sectors one
    at a time, so at most one dense sector is alive at once, and a
    validated ``reduce`` operator holds only its factors (0.65 MiB where
    the dense blocks take 14.1 MiB at (N, m, n) = (24, 5, 12)).  Every
    read of the sectors for a measure goes through ``_sector_reads``, one
    per sector in ascending q: ``diagonal()``, ``spectrum()`` and each
    coherence measure take all three of its reads (populations, sum of
    |b_ij|, ascending spectrum), so each builds a Gram sector once and
    diagonalises every dense sector.  A rank-one sector is read from
    (w, phi): its diagonal and weight in O(C(n, q)), its moduli sum with
    one complex row per distinct phase and its spectrum off its weight,
    so no measure and no check builds a dense rank-one block.  A
    membership test ``q in blocks`` reads no sector.  For operators
    obtained from the dense oracle, ``off_block_residual`` records the
    largest matrix element found between different flip sectors
    (structurally zero for magnon states).  The constructor has no factor
    argument: a Gram sector is handed over as its factor alone, so no
    caller can pair a block with a factor it disagrees with.  A block has
    no tuple equality, so operators compare by identity.
    """

    n: int
    blocks: Mapping[int, np.ndarray]
    off_block_residual: float | None = None
    _validated: bool = field(default=False, init=False, repr=False)
    # the weight of each sector, summed by the validate that passed
    _weights: dict[int, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        if self.off_block_residual is not None:
            object.__setattr__(self, "off_block_residual", _as_real(self.off_block_residual, "off_block_residual"))
        if not isinstance(self.blocks, _LazyBlocks):
            object.__setattr__(self, "blocks", MappingProxyType({q: _read_only(b) for q, b in self.blocks.items()}))

    @property
    def q_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.blocks))

    def _rank_one(self, q: int) -> tuple[float, np.ndarray] | None:
        """(w, phi) of sector q if it is kept in that form, else None."""
        return self.blocks.sectors[q] if isinstance(self.blocks, _RankOneBlocks) else None

    def _weight(self, q: int) -> float:
        """Trace of sector q: the complex sum of its diagonal, real part."""
        rank_one = self._rank_one(q)
        if rank_one is None:
            return float(np.diag(self.blocks[q]).sum().real)
        return float(_rank_one_diagonal(*rank_one).sum().real)

    @property
    def block_weights(self) -> dict[int, float]:
        """Trace of each sector: once ``validate`` has passed, the weights
        it summed, so no sector is read again."""
        if self._validated:
            return dict(self._weights)
        return {q: self._weight(q) for q in self.q_values}

    def diagonal(self) -> np.ndarray:
        """Populations in the canonical basis, blocks in ascending q."""
        return np.concatenate([populations for populations, _, _ in self._reads()])

    def spectrum(self) -> np.ndarray:
        """All eigenvalues across blocks, sorted descending."""
        return np.sort(np.concatenate([ascending for _, _, ascending in self._reads()]))[::-1]

    def _sector_reads(self, q: int) -> tuple[np.ndarray, float, np.ndarray]:
        """The populations, sum of |b_ij| and ascending spectrum of sector
        q, the one read of a sector that every measure takes.

        A dense sector is built once, read as ``np.diag(b).real``,
        ``np.abs(b).sum()`` and ``eigvalsh(b)``, and dropped on return.  A
        rank-one sector w phi phi^H is never built.  Its diagonal
        w |phi_i|^2 is taken once.  Its moduli sum keeps the dense block's
        bits: rows i and j whose phases compare equal are equal entry for
        entry, since the same scalar multiplies the same vector, and
        phi_l = exp(ik sum(l)) takes at most q (n - q) + 1 values, one per
        site sum.  So the moduli of one row per distinct phase are
        gathered into the d x d modulus array and summed in one ``.sum()``,
        the flat pairwise sum the dense block gets; a running total of row
        sums would round differently.  Its spectrum is d - 1 zeros and
        then the weight, the diagonal's complex sum with ``_weight``'s bits.
        """
        rank_one = self._rank_one(q)
        if rank_one is None:
            b = self.blocks[q]
            return np.diag(b).real.copy(), float(np.abs(b).sum()), np.linalg.eigvalsh(b)
        w, phi = rank_one
        diagonal = _rank_one_diagonal(w, phi)
        _, first, row_of = np.unique(phi, return_index=True, return_inverse=True)
        abs_sum = float(np.abs(_rank_one_rows(w, phi[first], phi))[row_of].sum())
        return diagonal.real, abs_sum, np.append(np.zeros(math.comb(self.n, q) - 1), diagonal.sum().real)

    def _reads(self) -> list[tuple[np.ndarray, float, np.ndarray]]:
        """``_sector_reads`` of every sector, in ascending q."""
        return [self._sector_reads(q) for q in self.q_values]

    def purity(self) -> float:
        # map hands each block on and drops it before the next is built,
        # where a generator's loop variable would keep two alive
        return sum(map(_square_sum, self.blocks.values()))

    def _lowest_eigenvalue(self, q: int, block: np.ndarray) -> float:
        """Lowest eigenvalue of the dense sector q, whose block is ``block``.

        A Gram factor V with fewer rows than columns gives it as min(0,
        lowest eigenvalue of V V^H): by the Schmidt decomposition V V^H
        carries the block's nonzero spectrum, and the block has da - db
        zeros besides.  Otherwise it is the least entry of the block's
        ``eigvalsh``.
        """
        v = self.blocks.sectors[q] if isinstance(self.blocks, _GramBlocks) else None
        if v is not None and v.shape[0] < v.shape[1]:
            lowest = float(np.linalg.eigvalsh(v @ v.conj().T).min())
            # min(0.0, nan) would be 0.0; a NaN must reach validate's comparison
            return 0.0 if lowest > 0.0 else lowest
        return float(np.linalg.eigvalsh(block).min())

    def _checked_weight(self, q: int) -> float:
        """Check sector q for ``validate``, from one read of a dense sector,
        and return its weight with the bits ``block_weights`` gives."""
        if not 0 <= q <= self.n:
            raise InternalConsistencyError(f"block q={_int_text(q)} lies outside [0, {_int_text(self.n)}]")
        dim = math.comb(self.n, q)
        rank_one = self._rank_one(q)
        if rank_one is None:
            b = self.blocks[q]
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise InternalConsistencyError(f"block q={q} is not square: shape {b.shape}")
            if b.shape[0] != dim:
                raise InternalConsistencyError(
                    f"block q={q} has {b.shape[0]} rows, not C({_int_text(self.n)}, {q}) = {_int_text(dim)}"
                )
            herm = _hermiticity_residual(b)
            if not herm <= BLOCK_HERMITICITY_TOL:
                raise InternalConsistencyError(f"block q={q} departs from Hermiticity by {herm:.3e}")
            # a block that passed is finite, so its diagonal sums without a RuntimeWarning
            weight = float(np.diag(b).sum().real)
            lowest = self._lowest_eigenvalue(q, b)
        else:
            w, phi = rank_one
            if phi.shape != (dim,):
                raise InternalConsistencyError(f"rank-one block q={q} has a phase vector of shape {phi.shape}, not ({dim},)")
            if not (math.isfinite(w) and np.isfinite(phi).all()):
                raise InternalConsistencyError(f"rank-one block q={q} has a non-finite weight or phase")
            weight = self._weight(q)
            # the least of d - 1 zeros and the weight; min(0.0, nan) would be 0.0
            lowest = 0.0 if weight > 0.0 else weight
        if not lowest >= NEGATIVE_EIGENVALUE_FLOOR:
            raise InternalConsistencyError(f"block q={q} has eigenvalue {lowest:.3e} below the floor")
        return weight

    def validate(self) -> "BlockDensityMatrix":
        """Check shapes, Hermiticity, positivity and unit trace; returns self.

        Each sector q must lie in [0, n] and be C(n, q) x C(n, q).  A
        rank-one sector w phi phi^H needs a phase vector of length
        C(n, q) and a finite w and phi; being real times a projector, it
        is Hermitian by construction and is never built densely here.
        Every other sector is read once, in ascending q, and that one
        block gives its shape, Hermiticity, positivity and weight before
        the next is built.  Hermiticity is read off the block, which the
        constructor took through ``np.asarray``, so nested lists check
        like arrays.  The Hermiticity residual max |b - b^H| is taken
        over row tiles of the upper triangle, so it needs O(tile x d)
        scratch memory rather than three d x d temporaries; it is exact,
        not a bound, because entries (r, c) and (c, r) of b - b^H have the
        same modulus to the last bit (see ``_hermiticity_residual``).  A
        sector's lowest eigenvalue comes from the smaller side of its Gram
        factor where that is the row side (``_lowest_eigenvalue``), in
        closed form for a rank-one sector, and from the dense block
        otherwise.  Every comparison fails on NaN.  An operator that
        passes is marked, and keeps the weights it summed, so the
        coherence measures check it once, not on every call, and
        ``block_weights`` reads no sector.
        """
        weights = {q: self._checked_weight(q) for q in self.q_values}
        off = abs(sum(weights.values()) - 1.0)
        if not off <= TRACE_TOL:
            raise InternalConsistencyError(f"total trace departs from 1 by {off:.3e}")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_validated", True)
        return self


def _square_sum(b: np.ndarray) -> float:
    """sum of |b_ij|^2, the trace of b^2 for a Hermitian b."""
    return float(np.vdot(b, b).real)


def _check_blocks(n: int, qs: range, budget: int) -> None:
    """Refuse, before any is built, the first sector q of ``qs`` whose
    C(n, q) x C(n, q) block would exceed the budget.

    That block exceeds it when C(n, q) exceeds isqrt(budget).  C(n, q)
    rises up to q = n // 2 and falls beyond, so the widest sector of
    ``qs`` is top = min(qs[-1], max(qs[0], n // 2)) and the walk from
    qs[0] stops there.  It is short: a passing q <= n / 2 has
    2^q <= C(n, q) <= isqrt(budget), so at most log2(budget) / 2 + 1
    sectors pass before one fails or top is reached.  Each test is a
    product that stops past the bound (``combinat._binomial_past``), so
    no binomial of a wide sector is formed.
    """
    side, q = math.isqrt(budget), qs[0]
    top = min(qs[-1], max(q, n // 2))
    while (d := _binomial_past(n, q, side)) is None:
        if q == top:
            return
        q += 1
    raise InfeasibilityError(f"sector q={q} needs a {d} x {d} block, budget is {_int_text(budget)}")


def reduce(state: AmplitudeTable, sub: SubsystemSpec, budget: int | None = None) -> BlockDensityMatrix:
    """Reduced density operator of a subsystem, by direct coefficient sums.

    Groups the state amplitudes as a (complement rank) x (subsystem
    rank) matrix V per flip sector q; each block is then the Gram matrix
    V^T conj(V) of the columns, which keeps the cost at one pass over the
    table plus one small matrix product per read of a sector.

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
    the first Gram product.

    The result keeps each sector as its factor V and builds the dense
    block V^T conj(V) afresh, with the same bits, whenever it is read, so
    a validated result holds no dense block: 0.65 MiB of factors at
    (N, m, n) = (24, 5, 12), where the blocks take 14.1 MiB.  ``validate``
    reads each block once and checks positivity on the smaller side of
    each sector (the complement side whenever db < da).  Both budget
    refusals come before any allocation.  A budget that is not an
    integer of at least 1 is a DomainError.
    """
    budget = _resolve_budget(budget, AMPLITUDE_BUDGET)
    N, m = state.N, state.m
    if sub.parent_N != N:
        raise DomainError(f"subsystem belongs to an N={_int_text(sub.parent_N)} chain, state has N={_int_text(N)}")
    n = sub.n
    sector = admissible_q(N, n, m)
    if state.amplitudes.size > budget:
        raise InfeasibilityError(f"reduction scans {state.amplitudes.size} amplitudes, budget is {budget}")
    # each db x da buffer is a slice of the amplitude table, so only a
    # da x da block can outgrow the budget the table fits in
    _check_blocks(n, sector, budget)

    return BlockDensityMatrix(n, _GramBlocks(_scatter(state, sub, sector))).validate()


def _scatter(state: AmplitudeTable, sub: SubsystemSpec, sector: range) -> dict[int, np.ndarray]:
    """The db x da factor V of each sector q, V[rank of the complement
    half, rank of the subsystem half] = amplitude of the site list.

    Its scratch, the position tables over every row, is dropped on
    return, before ``validate`` builds the first Gram product.
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
    one ``sector_law`` call.  That law spans its float support, which is
    the whole admissible range while s = min(n, m, N - n, N - m) < 380,
    and every block the default budget admits has s below that; only a
    larger caller budget can reach a law that leaves out sectors, and
    those are exactly the sectors of weight 0.0.  No amplitude table is
    ever built, so this
    route scales to chains far beyond the general one.  A sector of
    dimension d is kept as its weight p/d and its phase vector phi,
    phi_l = exp(ik sum(l)); its dense block (p/d) phi phi^H is built
    only when read.  The site sums sum(l) of every admissible sector
    come from one Pascal's-rule pass (``combinat._site_sums``) that
    visits only the (n', q) cells feeding the admissible range, so no
    site-list table is built.  Being rank one, a sector has the spectrum
    (0, ..., 0, trace), read off the weight rather than diagonalised.  The
    budget still caps d x d, the size of a block when read, and every
    sector is checked against it from n and the admissible range alone,
    after the sector law's own refusals and before the law or any sector
    is built; a budget that is not an integer of at least 1 is a
    DomainError, as is a k that is not a finite real number;
    integer-valued floats N, n and m are taken as their integers.
    """
    N, n, m, k = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m"), _as_real(k, "wavenumber")
    budget = _resolve_budget(budget, AMPLITUDE_BUDGET)
    _check_blocks(n, _sector(N, n, m), budget)
    law = sector_law(N, n, m)
    qs = law.q.tolist()
    sums = _site_sums(n, qs[0], qs[-1])
    sectors = {q: (p / math.comb(n, q), np.exp(1j * k * s)) for q, p, s in zip(qs, law.p.tolist(), sums)}
    return BlockDensityMatrix(n, _RankOneBlocks(sectors)).validate()


def oracle_partial_trace(state: AmplitudeTable, sub: SubsystemSpec) -> BlockDensityMatrix:
    """Brute-force partial trace through the dense 2^N product basis.

    Independent of the combinatorial route: places each amplitude in a
    2^(N - n) x 2^n matrix by its complement and subsystem bits, forms
    the dense subsystem operator, then projects it onto flip sectors.
    The largest element between different sectors is reported as
    ``off_block_residual``.  FULL_VECTOR_BUDGET caps that 2^N-entry
    matrix and AMPLITUDE_BUDGET the 4^n dense operator.
    """
    N = state.N
    if sub.parent_N != N:
        raise DomainError(f"subsystem belongs to an N={_int_text(sub.parent_N)} chain, state has N={_int_text(N)}")
    if (1 << N) > FULL_VECTOR_BUDGET:
        raise InfeasibilityError(f"oracle trace scans 2^{N} entries, budget is {FULL_VECTOR_BUDGET}")
    n = sub.n
    if (1 << (2 * n)) > AMPLITUDE_BUDGET:
        raise InfeasibilityError(f"oracle trace builds a 2^{n} x 2^{n} operator, budget is {AMPLITUDE_BUDGET}")

    masks = _bit_masks(N, state.m)
    a = np.zeros(len(masks), dtype=np.int64)
    for i, s in enumerate(sub.sites):
        a |= ((masks >> (s - 1)) & 1) << i
    b = np.zeros(len(masks), dtype=np.int64)
    for i, s in enumerate(sub.complement):
        b |= ((masks >> (s - 1)) & 1) << i
    grouped = np.zeros((1 << (N - n), 1 << n), dtype=np.complex128)
    grouped[b, a] = state.amplitudes
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

