"""Plane-wave magnon states of the periodic ferromagnetic Heisenberg chain.

The chain couples N spin-1/2 sites through ``H = -J sum_l sigma_l .
sigma_{l+1}`` with Pauli operators (eigenvalues +-1) and periodic
closure, so the fully polarised all-down state has energy ``-J N`` and
one spin flip with wavenumber k costs ``8 J sin^2(k/2)``.  Wavenumbers
are quantised on the grid ``k_j = 2 pi j / N``; only grid indices are
accepted, which keeps phase arithmetic exact modulo N and the
eigenstate checks sharp.

An m-flip state assigns each spin-up site list ``l`` (canonical
lexicographic order, 1-based sites) the amplitude ``G * f`` where ``f``
sums ``exp(i k_pi . l)`` over all permutations pi of the m wavenumbers
and G normalises the table.  ``f`` is the permanent of the m x m phase
matrix ``exp(i k_a l_b)``.  Up to m = 4 each row is a direct
permutation sum.  Beyond, one subset DP computes the whole table at once:
f(l) is the coefficient of prod_{s in l} y_s in the product of the m
linear forms L_a(y) = sum_s exp(i k_a s) y_s, so multiplying the forms
in one at a time over the subsets of the chain costs sum_{j <= m}
j C(N, j) additions for all C(N, m) rows together, where per-row Ryser
costs m 2^m per row.  The largest group of mu equal indices enters in
closed form, mu! exp(i k sum(l)), so a single-mode table costs C(N, m) m.
The subset ranks and site sums of the DP depend on the chain alone, so
one plan of them, for the (N, depth) asked for last, is cached and
replayed across momenta: every subset of a chain up to 16 sites, so one
plan serves every m there, and the m levels asked for on a longer chain.
On a 2-vCPU Xeon a whole N = 16, m = 10..12 table takes 2.2-2.6 ms with
the plan cached, against 8.9-9.1 ms when its every-subset plan is built
first (once per new chain); a one-off m = 5 table there pays that build
too, 6.5 ms against 0.8 ms for levels 1..5 alone.  One at N = 26, m = 8
with distinct indices, whose plan is over the ceiling, takes 0.22 s.
``_permanents`` picks the route, and holds it to its ceiling, for every
caller.  Ryser's 2^m inclusion-exclusion, ``_ryser_permanents``, is no
route: it is the reference that ``verify`` and the tests check the
permutation sum against, called directly.

Tables are immutable after construction; everything here is pure and
safe to call concurrently.  The two caches are too: each is a one-entry
``lru_cache`` of read-only arrays, so a concurrent caller keeps reading
the arrays it took, and a racing call can at worst build one again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .combinat import (
    _as_int,
    _as_real,
    _binomial_past,
    _finite,
    _int_text,
    _site_sums,
    combination_array,
)
from .errors import DomainError, InfeasibilityError, NullStateError

__all__ = [
    "MomentumVector",
    "MagnonStateSpec",
    "AmplitudeTable",
    "dispersion",
    "build_state",
    "single_mode_state",
    "apply_hamiltonian",
]

# Default ceilings in complex entries: amplitude tables and matrix buffers,
# and separately the 2^N-entry matrix of the oracle partial trace, which
# grows much faster.
AMPLITUDE_BUDGET = 10_000_000
FULL_VECTOR_BUDGET = 2 ** 14

# Below the weight threshold a momentum choice is treated as fully
# destructive rather than as a state with a gigantic normalization.
NULL_STATE_THRESHOLD = 1e-20


def _resolve_budget(budget: int | None, default: int) -> int:
    """``budget``, or ``default`` when it is None.

    Every budget argument of the package comes through here.  A budget is
    an integer read by ``_as_int`` (so 2.5, NaN, +-inf and complex values
    are DomainErrors, not ceilings that everything or nothing fits
    under), and one below 1 is a DomainError too.
    """
    if budget is None:
        return default
    if (budget := _as_int(budget, "budget")) < 1:
        raise DomainError(f"budget must be at least 1, got {_int_text(budget)}")
    return budget


def _check_table(n: int, q: int, budget: int) -> None:
    """Refuse a table of the C(n, q) q-lists of n sites past the budget,
    deciding it without forming a binomial much past the budget."""
    if (count := _binomial_past(n, q, budget)) is not None:
        raise InfeasibilityError(f"state table needs {count} amplitudes, budget is {_int_text(budget)}")


# Largest m summed over all m! permutations; guards memory, as each row chunk gathers rows x m! phases.
_DIRECT_PERMANENT_LIMIT = 4
# Largest m the subset DP takes on; guards time.  The DP over an n-site
# chain costs sum_{j <= m} j C(n, j) additions, m 2^(m - 1) for a lone
# m-site list, the sub-chain form no public route hands over; at 20 that
# is 1.0e7 for a lone list and 4.2e8 for the whole chain at N = 25, the
# longest whose widest level fits AMPLITUDE_BUDGET.  20! < 2^63 also keeps
# every permanent's count of roots of unity within an int64.
_PERMANENT_LIMIT = 20
# Site-list rows per chunk of the permutation and Ryser kernels; guards their rows x m! and rows x m^2 temporaries.
_CHUNK_ROWS = 4096
# DP slots per slice when a level is copied or phase-twisted; guards the temporaries of those passes.
_CHUNK_SLOTS = 1 << 16


@dataclass(frozen=True)
class MomentumVector:
    """Multiset of wavenumbers as integer grid indices on an N-site chain."""

    N: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", _as_int(self.N, "chain length"))
        if self.N < 1:
            raise DomainError(f"chain length must be positive, got N={_int_text(self.N)}")
        clean = []
        for j in self.indices:
            i = _as_int(j, "momentum index")
            if not 0 <= i < self.N:
                raise DomainError(f"momentum index {_int_text(i)} outside [0, {_int_text(self.N)})")
            clean.append(i)
        object.__setattr__(self, "indices", tuple(clean))

    @classmethod
    def constant(cls, N: int, index: int, m: int) -> "MomentumVector":
        """m copies of the same grid index: a single-mode momentum choice.

        A negative m is a DomainError, and an m past ``sys.maxsize``, which
        no tuple can index, an InfeasibilityError.
        """
        if (m := _as_int(m, "flip count")) < 0:
            raise DomainError(f"flip count must be non-negative, got m={_int_text(m)}")
        if m > sys.maxsize:
            raise InfeasibilityError(f"m={_int_text(m)} indices exceed the {sys.maxsize} entries a tuple can index")
        return cls(N, (index,) * m)

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def values(self) -> np.ndarray:
        """Wavenumbers 2 pi j / N, consistent with the stored indices."""
        return 2.0 * np.pi * np.asarray(self.indices, dtype=float) / self.N

    def is_constant(self) -> bool:
        return len(set(self.indices)) <= 1


@dataclass(frozen=True)
class MagnonStateSpec:
    """Full description of an m-flip plane-wave state on an N-site chain.

    The state does not depend on the coupling J; the energies do, so J
    is an argument of ``dispersion`` and ``apply_hamiltonian``.
    """

    N: int
    m: int
    k: MomentumVector

    def __post_init__(self):
        object.__setattr__(self, "N", _as_int(self.N, "chain length"))
        object.__setattr__(self, "m", _as_int(self.m, "flip count"))
        if not 1 <= self.m <= self.N:
            raise DomainError(f"flip count must satisfy 1 <= m <= N, got m={_int_text(self.m)}, N={_int_text(self.N)}")
        if self.k.N != self.N:
            raise DomainError(f"momentum grid N={_int_text(self.k.N)} does not match chain N={_int_text(self.N)}")
        if self.k.m != self.m:
            raise DomainError(f"need {_int_text(self.m)} momentum indices, got {self.k.m}")


@dataclass(frozen=True, eq=False)
class AmplitudeTable:
    """Normalised amplitudes over the C(N, m) site lists in canonical
    order, ``enumerate_combinations(N, m)``.

    ``normalization`` is the real scalar that multiplied the raw basis
    phases: the overall constant G for permanent-built states, the
    1/sqrt(C(n, q)) prefactor for directly constructed single-mode
    tables.  An array has no tuple equality, so tables compare by
    identity.
    """

    N: int
    m: int
    amplitudes: np.ndarray
    normalization: float

    def __post_init__(self):
        object.__setattr__(self, "N", _as_int(self.N, "chain length"))
        object.__setattr__(self, "m", _as_int(self.m, "flip count"))
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.N < 0 or self.m < 0:
            raise DomainError(
                f"amplitude table needs N >= 0 and m >= 0, got N={_int_text(self.N)}, m={_int_text(self.m)}"
            )
        # C(N, m), 0 for m > N, is formed only when it is at most the entry
        # count, so the check costs at most min(m, N - m) integer steps
        past = _binomial_past(self.N, self.m, max(amps.size, 1))
        if past is not None or amps.shape != (math.comb(self.N, self.m),):
            raise DomainError(
                f"amplitude table for N={_int_text(self.N)}, m={_int_text(self.m)} needs shape"
                f" ({past or math.comb(self.N, self.m)},), got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "normalization", _as_real(self.normalization, "normalization"))
        if not self.normalization > 0:
            raise DomainError(f"normalization must be positive, got {self.normalization}")


def _coupling(J) -> float:
    """J as a float when it is a finite real number above 0, else DomainError."""
    if not (J := _as_real(J, "coupling")) > 0:
        raise DomainError(f"coupling must be positive, got J={J}")
    return J


def dispersion(J: float, k: float) -> float:
    """Single-flip excitation energy 8 J sin^2(k/2); one past the float
    range is an InfeasibilityError."""
    J = _coupling(J)
    s = math.sin(0.5 * _as_real(k, "wavenumber"))
    energy = 8.0 * J * s * s
    if energy == math.inf:
        # 8 J can overflow where the energy, at most 8 J, does not
        energy = 8.0 * (J * s * s)
    return _finite(energy, "single-flip energy")


# Keeps one table, the m! x m int64 permutation indices of the latest m,
# so the memory it holds after a call is what that call allocated: at
# most 768 bytes on the permutation-sum route (m <= 4), and 276 KiB at
# m = 7, the largest reference call verify makes.
@lru_cache(maxsize=1)
def _permutation_table(m: int) -> np.ndarray:
    """All orderings of range(m) in itertools order, one per row, read-only."""
    table = np.array(list(permutations(range(m))), dtype=np.int64)
    table.flags.writeable = False
    return table


def _direct_permanents(indices, N: int, sites: np.ndarray) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every row of site lists,
    summed over all m! permutations.  Exponents are reduced modulo N in
    integers, so each phase is gathered from the N roots of unity, bit for
    bit the exponential each term would otherwise evaluate."""
    rows, m = sites.shape
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty(rows, dtype=np.complex128)
    kperm = idx[_permutation_table(m)]
    roots = np.exp(2j * np.pi / N * np.arange(N))
    for lo in range(0, rows, _CHUNK_ROWS):
        chunk = sites[lo:lo + _CHUNK_ROWS]
        dots = (chunk @ kperm.T) % N
        out[lo:lo + len(chunk)] = roots[dots].sum(axis=1)
    return out


def _ryser_permanents(indices, N: int, sites: np.ndarray) -> np.ndarray:
    """The same permanents by Ryser's inclusion-exclusion over all 2^m
    index subsets, walked in binary reflected Gray order with repeated
    indices treated as distinct: the reference for the other kernels."""
    rows, m = sites.shape
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty(rows, dtype=np.complex128)
    unit = 2j * np.pi / N
    for lo in range(0, rows, _CHUNK_ROWS):
        chunk = sites[lo:lo + _CHUNK_ROWS]
        # (index, site, row): each step adds or removes one contiguous
        # (site, row) slab and multiplies rowsum down its site axis.
        a = np.exp(unit * ((idx[:, None, None] * chunk.T[None, :, :]) % N))
        rowsum = np.zeros((m, len(chunk)), dtype=np.complex128)
        acc = np.zeros(len(chunk), dtype=np.complex128)
        for step in range(1, 1 << m):
            # step flips bit j of the Gray code step ^ (step >> 1)
            j = (step & -step).bit_length() - 1
            if (step ^ (step >> 1)) >> j & 1:
                rowsum += a[j]
            else:
                rowsum -= a[j]
            term = rowsum.prod(axis=0)
            # each step moves the subset size by one, so the sign alternates
            if step & 1:
                acc -= term
            else:
                acc += term
        out[lo:lo + len(chunk)] = acc if m % 2 == 0 else -acc
    return out


# Ceiling on the index entries of a retained subset-DP plan, which guards
# process memory: 2^20 int32 entries are 4 MiB.  The plan of the chain
# 1..N to depth d holds sum_{j<d} (j + 2) C(N, j + 1) entries: 590 k for
# every subset of N = 16 (depth 15) but 1.25 M at N = 17, so a chain up
# to 16 sites keeps every level and a longer one the depth asked for,
# 201 k at N = 22, m = 5 and 317 k at N = 24, m = 5.  At N = 18, m = 9
# (1.34 M) and N = 26, m = 8 (21.4 M) the levels are computed per call.
_PLAN_ENTRY_CEILING = 1 << 20


def _plan_entries(N: int, depth: int) -> int:
    """Index entries of the plan of the chain 1..N to ``depth``."""
    return sum((j + 2) * math.comb(N, j + 1) for j in range(depth))


# Keeps one plan, that of the (N, depth) asked for last.
@lru_cache(maxsize=1)
def _chain_plan(N: int, depth: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Levels 1 to ``depth`` of the subset DP over the chain 1..N as
    read-only (drops, total) pairs: drops[i, r] is the rank one level down
    of subset r less its slot i, so the last row is the parent, and
    total[r] is its site sum mod N."""
    levels = []
    for _, drops, total in _computed_levels(N, range(1, N + 1), depth, True, keep=True):
        drops.flags.writeable = total.flags.writeable = False
        levels.append((drops, total))
    return tuple(levels)


class _ChunkDrops:
    """Slot-drop ranks of a level that no later level reads: drops[i, rows]
    is gathered when the DP asks for that row chunk, never held whole."""

    def __init__(self, below, base, parent, t):
        self.below, self.base, self.parent, self.t = below, base, parent, t

    def __getitem__(self, key):
        i, rows = key
        col = self.base[self.below[i][self.parent[rows]]]
        col += self.t[rows]
        return col


def _subset_levels(N: int, chain, m: int, slots: bool):
    """(parent, drops, total) for levels 1..m of the subset DP over the
    increasing site list ``chain``: the parent rank of each subset, its
    slot-drop ranks drops[i, rows] for slots i below the last, and its
    site sum mod N.

    None of this depends on the momenta.  The whole chain 1..N with m < N,
    a ``build_state`` table, replays the first m levels of ``_chain_plan``
    when its plan fits _PLAN_ENTRY_CEILING: every level up to N - 1, which
    every chain up to 16 sites fits, else levels 1..m.  Any other chain,
    and a plan over the ceiling, runs ``_computed_levels``, with slot drops
    only when ``slots``.  Either way the ranks are the same integers.
    """
    if len(chain) == N > m:
        depth = N - 1 if _plan_entries(N, N - 1) <= _PLAN_ENTRY_CEILING else m
        if _plan_entries(N, depth) <= _PLAN_ENTRY_CEILING:
            return ((drops[-1], drops, total) for drops, total in _chain_plan(N, depth)[:m])
    return _computed_levels(N, chain, m, slots)


def _computed_levels(N: int, chain, m: int, slots: bool, keep: bool = False):
    """Yield (parent, drops, total) for levels 1..m of the subset DP over
    ``chain``, each computed from the one below and then dropped.

    A level-(j+1) subset is a level-j parent plus one larger chain
    position t, so the children of each parent are contiguous and every
    "one site removed" rank is a gather: dropping t gives the parent, and
    dropping slot i < j gives child t of the parent's own slot-i drop.
    Slot drops are built only when ``slots``, and those of the last level
    one row chunk at a time (``_ChunkDrops``) unless ``keep`` asks for
    every level whole, as a retained plan holds them.
    """
    n = len(chain)
    itype = np.int32 if math.comb(n, min(m, n // 2)) <= np.iinfo(np.int32).max else np.int64
    stype = np.int32 if N < 2 ** 30 else np.int64
    # level 0: the empty subset, its "last position" -1, its site sum 0
    drops, total, base = None, np.zeros(1, dtype=stype), None
    last = np.full(1, -1, dtype=itype)
    sites = (np.asarray(chain, dtype=np.int64) % N).astype(stype)
    for j in range(m):
        counts = (n - 1) - last
        parent = np.repeat(np.arange(len(last), dtype=itype), counts)
        child_base = np.cumsum(counts, dtype=itype)  # child rank = child_base[parent] + t
        child_base -= counts + last + 1
        t = np.arange(len(parent), dtype=itype)
        t -= child_base[parent]
        level_total = total[parent]
        level_total += sites[t]
        level_total[level_total >= N] -= N
        chunked = _ChunkDrops(drops, base, parent, t)
        if keep or (slots and j + 1 < m):
            new_drops = np.empty((j + 1, len(parent)), dtype=itype)
            new_drops[j] = parent
            # row chunks keep every temporary small
            for lo in range(0, len(parent), _CHUNK_SLOTS):
                rows = slice(lo, lo + _CHUNK_SLOTS)
                for i in range(j):
                    new_drops[i, rows] = chunked[i, rows]
        else:
            new_drops = chunked if slots else None
        del chunked  # else it keeps the level below alive through the next one
        yield parent, new_drops, level_total
        last, total, drops, base = t, level_total, new_drops, child_base


def _subset_permanents(indices, N: int, chain) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every m-subset s of
    the increasing site list ``chain``, in lexicographic order.

    With L_a(y) = sum_s w^(k_a s) y_s and w = exp(2 pi i / N), the
    permanent of subset S is the coefficient of prod_{s in S} y_s in
    L_1 ... L_m.  Level j holds these coefficients for the first j forms
    over every j-subset, lexicographically: with k the (j+1)-th index,
    T_{j+1}(S') is the sum over s in S' of w^(k s) T_j(S' - s).

    The ranks of S' - s and the site sums come from ``_subset_levels``,
    which replays the cached plan of the chain 1..N rather than
    recomputing them; this numeric pass reads them in the same order
    either way, so every table keeps its bits.  Levels are stored
    untwisted, T_j(S) = w^(c sum S) W_j(S) with c the ``twist``, so a
    level's phases cost one multiply per entry rather than one per slot.
    The largest group of mu equal indices kappa enters in closed form,
    T_mu(S) = mu! w^(kappa sum S); each other index adds one level, at
    sum_j j C(n, j) gathered additions in all.  The widest level holds
    C(n, min(m, n // 2)) entries.
    """
    m = len(indices)
    indices = list(indices)
    kappa = max(indices, key=indices.count)
    mu = indices.count(kappa)
    # equal indices side by side: between two copies the twist is 1
    rest = sorted(i for i in indices if i != kappa)
    roots = np.exp(2j * np.pi / N * np.arange(N))

    def phases(c, sums):
        """w^(c s) for every site sum s."""
        exponent = np.multiply(sums, c, dtype=np.int64)
        exponent %= N
        return roots[exponent]

    twist, table, total = kappa, None, None
    for j, (parent, drops, level_total) in enumerate(_subset_levels(N, chain, m, mu < m)):
        if j >= mu:
            k = rest[j - mu]
            u = table if k == twist else table * phases(twist - k, total)
            del table  # freed before its children's table is allocated
            table = u[parent]  # the slot that drops t
            twist = k
            for lo in range(0, len(parent), _CHUNK_SLOTS):
                rows = slice(lo, lo + _CHUNK_SLOTS)
                for i in range(j):
                    table[rows] += u[drops[i, rows]]
            u = None
        total = level_total
        if j + 1 == mu:
            table = float(math.factorial(mu))
    if mu == m:
        table = np.full(len(total), table, dtype=np.complex128)
    for lo in range(0, len(total), _CHUNK_SLOTS):
        table[lo:lo + _CHUNK_SLOTS] *= phases(twist, total[lo:lo + _CHUNK_SLOTS])
    return table


def _permanents(indices, N: int, chain, budget: int) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every m-subset s of
    the increasing site list ``chain``, in lexicographic order: the whole
    table when ``chain`` is 1..N, as ``build_state`` asks, and one value
    when it is one site list, a form only the tests hand over.

    The route is the permutation sum up to m = 4 and the subset DP
    beyond.  Each is held to what it spends: the permutation sum stores
    m! m permutation entries and the DP its widest level,
    C(n, min(m, n // 2)) entries, both within ``budget``.  The DP's
    sum_{j <= m} j C(n, j) additions, m 2^(m - 1) over a lone site list,
    stop at m = 20.
    """
    m, n = len(indices), len(chain)
    if m == 0:
        return np.ones(1, dtype=np.complex128)
    if m <= _DIRECT_PERMANENT_LIMIT:
        perms = math.factorial(m)
        if perms * m > budget:
            raise InfeasibilityError(
                f"permutation sum stores m! = {perms} orderings of {m} indices, {perms * m} entries; budget is {budget}"
            )
        sites = combination_array(n, m)
        if chain[-1] != n:
            # rows are positions in the chain, which are its sites only when it is 1..n
            sites = np.asarray(chain, dtype=np.int64)[sites - 1]
        return _direct_permanents(indices, N, sites)
    if m > _PERMANENT_LIMIT:
        raise InfeasibilityError(f"permanent cost grows as 2^m; m={m} exceeds the limit {_PERMANENT_LIMIT}")
    widest = min(m, n // 2)
    size = math.comb(n, widest)
    if size > budget:
        raise InfeasibilityError(
            f"permanent table level {widest} holds C({n}, {widest}) = {size} entries, budget is {budget}"
        )
    return _subset_permanents(indices, N, chain)


def build_state(spec: MagnonStateSpec, budget: int | None = None) -> AmplitudeTable:
    """Construct the normalised m-flip plane-wave state table.

    Parameters
    ----------
    spec : MagnonStateSpec
        Chain length, flip count and momentum indices.
    budget : int, optional
        Ceiling on stored amplitudes; defaults to AMPLITUDE_BUDGET.  It
        also caps the permanent route: m! m permutation entries for
        m <= 4, the widest level of the subset DP, C(N, j) with
        j = min(m, N // 2), beyond.  A budget that is not an integer of
        at least 1 (``_resolve_budget``) is a DomainError.

    Returns
    -------
    AmplitudeTable
        Unit-norm amplitudes over C(N, m) site lists in canonical order.

    Raises
    ------
    InfeasibilityError
        If C(N, m) or the permanent route exceeds the budget, or m
        exceeds the permanent limit of 20, which holds the subset DP's
        sum_{j <= m} j C(N, j) additions.
    NullStateError
        If the momentum choice interferes to the zero vector.
    """
    budget = _resolve_budget(budget, AMPLITUDE_BUDGET)
    N, k = spec.N, spec.k
    _check_table(N, spec.m, budget)
    f = _permanents(k.indices, N, range(1, N + 1), budget)
    weight = float(np.vdot(f, f).real)
    if weight < NULL_STATE_THRESHOLD:
        raise NullStateError(
            f"momentum indices {k.indices} interfere destructively on N={N} (weight {weight:.3e})"
        )
    g = 1.0 / math.sqrt(weight)
    f *= g
    return AmplitudeTable(spec.N, spec.m, f, g)


def single_mode_state(n: int, q: int, k: float) -> AmplitudeTable:
    """Equal-weight table exp(i k sum(l)) / sqrt(C(n, q)) over q-flip lists.

    This is the pure state each magnon-number block of a single-mode
    reduction collapses to; q = 0 gives the trivial one-entry table.
    The phases come from the sector's site sums (``combinat._site_sums``),
    so no site-list table is built.  A table of more than AMPLITUDE_BUDGET
    entries is an InfeasibilityError, refused before any is built, as
    ``build_state`` refuses it.  Integer-valued floats n and q are taken
    as their integers; k must be a finite real number.
    """
    n, q, k = _as_int(n, "n"), _as_int(q, "q"), _as_real(k, "wavenumber")
    if n < 1:
        raise DomainError(f"block size must be positive, got n={_int_text(n)}")
    if not 0 <= q <= n:
        raise DomainError(f"flip count must satisfy 0 <= q <= n, got q={_int_text(q)}, n={_int_text(n)}")
    _check_table(n, q, AMPLITUDE_BUDGET)
    (sums,) = _site_sums(n, q, q)
    pref = 1.0 / math.sqrt(len(sums))
    return AmplitudeTable(n, q, pref * np.exp(1j * k * sums), pref)


# Longest chain whose site-list masks fit an int64, site l at bit l - 1;
# bit 63 is the sign.
_MASK_SITES = 63


def _bit_masks(n: int, m: int) -> np.ndarray:
    """The int64 bit mask of each m-list of {1, ..., n} in canonical
    order, site l at bit l - 1: its index in the 2^n product basis."""
    return (np.int64(1) << (combination_array(n, m) - 1)).sum(axis=1)


def apply_hamiltonian(state: AmplitudeTable, J: float = 1.0) -> np.ndarray:
    """Apply H = -J sum_l sigma_l . sigma_{l+1} to an amplitude table a,
    giving H a over the same C(N, m) site lists in canonical order.

    Uses sigma_l . sigma_{l+1} = 2 SWAP - 1, so the action is J N a minus
    2 J times the sum of bond-swapped copies of a.  A swap keeps the flip
    count, so each copy is one gather whose rows a sorted search of the
    site-list bit masks finds.  Meant as the brute-force oracle; the masks
    are int64, which holds chains up to N = 63.  J must be a finite real
    above 0, as in ``dispersion``.
    """
    J = _coupling(J)
    N = state.N
    if N > _MASK_SITES:
        raise InfeasibilityError(f"site-list bit masks need {_int_text(N)} bits, int64 holds {_MASK_SITES}")
    masks = _bit_masks(N, state.m)
    order = np.argsort(masks)
    a = state.amplitudes
    out = (J * N) * a
    for l in range(N):
        r = (l + 1) % N
        differ = ((masks >> l) ^ (masks >> r)) & 1
        swapped = masks ^ ((differ << l) | (differ << r))
        out -= 2.0 * J * a[order[np.searchsorted(masks, swapped, sorter=order)]]
    return out
