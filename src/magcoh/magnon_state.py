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
matrix ``exp(i k_a l_b)``.  Up to m = 6 each row is a direct
permutation sum.  Beyond, one subset DP computes the whole table at once:
f(l) is the coefficient of prod_{s in l} y_s in the product of the m
linear forms L_a(y) = sum_s exp(i k_a s) y_s, so multiplying the forms
in one at a time over the subsets of the chain costs sum_{j <= m}
j C(N, j) additions for all C(N, m) rows together, where per-row Ryser
costs m 2^m per row.  The largest group of mu equal indices enters in
closed form, mu! exp(i k sum(l)), so a single-mode table costs C(N, m) m.
On a 2-vCPU Xeon a whole N = 16, m = 10..12 table takes about 9 ms, and
one at N = 26, m = 8 with distinct indices 0.37 s.  Ryser's 2^m
inclusion-exclusion stays as a cross-check route.

Tables are immutable after construction; everything here is pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .combinat import SiteList, combination_array, enumerate_combinations, validate_sitelist
from .errors import DomainError, InfeasibilityError, NullStateError

__all__ = [
    "AMPLITUDE_BUDGET",
    "FULL_VECTOR_BUDGET",
    "MomentumVector",
    "MagnonStateSpec",
    "AmplitudeTable",
    "FullStateVector",
    "dispersion",
    "momentum_grid",
    "amplitude_f",
    "build_state",
    "single_mode_state",
    "embed_full",
    "apply_hamiltonian",
]

# Default ceilings: amplitude tables and matrix buffers in complex entries,
# dense 2^N embeddings separately since they grow much faster.
AMPLITUDE_BUDGET = 10_000_000
FULL_VECTOR_BUDGET = 2 ** 14

# Below the weight threshold a momentum choice is treated as fully
# destructive rather than as a state with a gigantic normalization.
NULL_STATE_THRESHOLD = 1e-20

_DIRECT_PERMANENT_LIMIT = 6
_PERMANENT_LIMIT = 20
_CHUNK_ROWS = 4096
_CHUNK_SLOTS = 1 << 16


@dataclass(frozen=True)
class MomentumVector:
    """Multiset of wavenumbers as integer grid indices on an N-site chain."""

    N: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"chain length must be positive, got N={self.N}")
        clean = []
        for j in self.indices:
            i = int(j)
            if i != j:
                raise DomainError(f"momentum indices must be integers, got {j!r}")
            if not 0 <= i < self.N:
                raise DomainError(f"momentum index {i} outside [0, {self.N})")
            clean.append(i)
        object.__setattr__(self, "indices", tuple(clean))

    @classmethod
    def constant(cls, N: int, index: int, m: int) -> "MomentumVector":
        """m copies of the same grid index: a single-mode momentum choice."""
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
    """Full description of an m-flip plane-wave state on an N-site chain."""

    N: int
    m: int
    k: MomentumVector
    J: float = 1.0

    def __post_init__(self):
        if not 1 <= self.m <= self.N:
            raise DomainError(f"flip count must satisfy 1 <= m <= N, got m={self.m}, N={self.N}")
        if self.k.N != self.N:
            raise DomainError(f"momentum grid N={self.k.N} does not match chain N={self.N}")
        if self.k.m != self.m:
            raise DomainError(f"need {self.m} momentum indices, got {self.k.m}")
        if not self.J > 0:
            raise DomainError(f"coupling must be positive, got J={self.J}")


@dataclass(frozen=True)
class AmplitudeTable:
    """Normalised amplitudes over the C(N, m) site lists in canonical order.

    ``normalization`` is the real scalar that multiplied the raw basis
    phases: the overall constant G for permanent-built states, the
    1/sqrt(C(n, q)) prefactor for directly constructed single-mode
    tables.
    """

    N: int
    m: int
    amplitudes: np.ndarray
    normalization: float
    spec: MagnonStateSpec | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = math.comb(self.N, self.m)
        if amps.shape != (expected,):
            raise DomainError(
                f"amplitude table for N={self.N}, m={self.m} needs shape ({expected},), got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if not self.normalization > 0:
            raise DomainError(f"normalization must be positive, got {self.normalization}")

    def basis(self) -> list[SiteList]:
        return enumerate_combinations(self.N, self.m)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FullStateVector:
    """Dense state over the 2^N product basis; site l maps to bit l-1."""

    N: int
    entries: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.entries, dtype=np.complex128)
        if vec.shape != (1 << self.N,):
            raise DomainError(f"full vector for N={self.N} needs 2^N entries, got shape {vec.shape}")
        vec.setflags(write=False)
        object.__setattr__(self, "entries", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def dispersion(J: float, k: float) -> float:
    """Single-flip excitation energy 8 J sin^2(k/2)."""
    if not J > 0:
        raise DomainError(f"coupling must be positive, got J={J}")
    s = math.sin(0.5 * k)
    return 8.0 * J * s * s


def momentum_grid(N: int) -> np.ndarray:
    """The N allowed wavenumbers 2 pi j / N in [0, 2 pi)."""
    if N < 1:
        raise DomainError(f"chain length must be positive, got N={N}")
    return 2.0 * np.pi * np.arange(N) / N


def _phase_permanents(indices, N: int, sites: np.ndarray, force: str | None = None) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every row of site lists.

    These are the per-row routes: the m <= 6 default and the two
    cross-check routes; ``_subset_permanents`` takes every m > 6 table.
    Phases are reduced modulo N in integer arithmetic before
    exponentiation, so the result does not degrade on long chains; the
    direct route gathers them from a table of the N roots of unity,
    bit for bit the exponentials it would otherwise evaluate per term.
    ``force`` pins the route: "direct" (the default) is the permutation
    sum, "ryser" the inclusion-exclusion over all 2^m index subsets,
    walked in binary reflected Gray order with repeated indices treated
    as distinct.
    """
    if force not in (None, "direct", "ryser"):
        raise DomainError(f"permanent route must be 'direct' or 'ryser', got {force!r}")
    rows, m = sites.shape
    if m == 0:
        return np.ones(rows, dtype=np.complex128)
    if m > _PERMANENT_LIMIT:
        raise InfeasibilityError(f"permanent cost grows as 2^m; m={m} exceeds the limit {_PERMANENT_LIMIT}")
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty(rows, dtype=np.complex128)
    unit = 2j * np.pi / N
    if force != "ryser":
        kperm = idx[np.array(list(permutations(range(m))), dtype=np.int64)]
        # every reduced exponent is one of N values: exponentiate those once
        roots = np.exp(unit * np.arange(N))
        for lo in range(0, rows, _CHUNK_ROWS):
            chunk = sites[lo:lo + _CHUNK_ROWS]
            dots = (chunk @ kperm.T) % N
            out[lo:lo + len(chunk)] = roots[dots].sum(axis=1)
        return out
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


def _subset_permanents(indices, N: int, chain, budget: int) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every m-subset s of
    the increasing site list ``chain``, in lexicographic order.

    With L_a(y) = sum_s w^(k_a s) y_s and w = exp(2 pi i / N), the
    permanent of subset S is the coefficient of prod_{s in S} y_s in
    L_1 ... L_m.  Level j holds these coefficients for the first j forms
    over every j-subset, lexicographically: with k the (j+1)-th index,
    T_{j+1}(S') is the sum over s in S' of w^(k s) T_j(S' - s).

    A level-(j+1) subset is a level-j parent plus one larger chain
    position t, so the children of each parent are contiguous and every
    "one site removed" rank is a gather: dropping t gives the parent, and
    dropping slot i < j gives child t of the parent's own slot-i drop.
    Levels are stored untwisted, T_j(S) = w^(c sum S) W_j(S) with c the
    ``twist``, so a level's phases cost one multiply per entry rather
    than one per slot.  The largest group of mu equal indices kappa enters
    in closed form, T_mu(S) = mu! w^(kappa sum S); each other index adds
    one level, at sum_j j C(n, j) gathered additions in all.

    Raises InfeasibilityError when the widest level exceeds ``budget``.
    """
    m, n = len(indices), len(chain)
    if m > _PERMANENT_LIMIT:
        raise InfeasibilityError(f"permanent cost grows as 2^m; m={m} exceeds the limit {_PERMANENT_LIMIT}")
    widest = min(m, n // 2)
    size = math.comb(n, widest)
    if size > budget:
        raise InfeasibilityError(
            f"permanent table level {widest} holds C({n}, {widest}) = {size} entries, budget is {budget}"
        )
    itype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    stype = np.int32 if N < 2 ** 30 else np.int64
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

    sites = (np.asarray(chain, dtype=np.int64) % N).astype(stype)
    # level 0: the empty subset, its "last position" -1, its site sum 0
    last = np.full(1, -1, dtype=itype)
    total = np.zeros(1, dtype=stype)
    # drops[i, r]: rank one level down of subset r less its slot i, kept
    # while a later level needs it
    drops = None
    base = None  # child rank = base[parent] + t for the parents of this level
    twist, table = kappa, None
    for j in range(m):
        counts = (n - 1) - last
        parent = np.repeat(np.arange(len(last), dtype=itype), counts)
        child_base = np.cumsum(counts, dtype=itype)
        child_base -= counts + last + 1
        t = np.arange(len(parent), dtype=itype)
        t -= child_base[parent]
        multiply, keep = j >= mu, mu < m and j + 1 < m
        if multiply:
            k = rest[j - mu]
            u = table if k == twist else table * phases(twist - k, total)
            table = u[parent]  # the slot that drops t
            twist = k
        if keep:
            new_drops = np.empty((j + 1, len(parent)), dtype=itype)
            new_drops[j] = parent
        if multiply or keep:
            # row chunks keep every temporary small
            for lo in range(0, len(parent), _CHUNK_SLOTS):
                rows = slice(lo, lo + _CHUNK_SLOTS)
                for i in range(j):
                    col = base[drops[i][parent[rows]]]
                    col += t[rows]
                    if keep:
                        new_drops[i, rows] = col
                    if multiply:
                        table[rows] += u[col]
        total = total[parent]
        total += sites[t]
        total[total >= N] -= N
        last, base = t, child_base
        drops = new_drops if keep else None
        u = None
        if j + 1 == mu:
            table = float(math.factorial(mu))
    if mu == m:
        table = np.full(len(total), table, dtype=np.complex128)
    for lo in range(0, len(total), _CHUNK_SLOTS):
        table[lo:lo + _CHUNK_SLOTS] *= phases(twist, total[lo:lo + _CHUNK_SLOTS])
    return table


def amplitude_f(k: MomentumVector, l, force: str | None = None) -> complex:
    """Unnormalised amplitude of one site list: the permanent sum over
    permutations of the wavenumbers."""
    sites = validate_sitelist(l, k.N)
    if len(sites) != k.m:
        raise DomainError(f"site list has {len(sites)} entries, momentum has {k.m}")
    if force is None and k.m > _DIRECT_PERMANENT_LIMIT:
        return complex(_subset_permanents(k.indices, k.N, sites, AMPLITUDE_BUDGET)[0])
    row = np.asarray(sites, dtype=np.int64).reshape(1, max(len(sites), 0))
    return complex(_phase_permanents(k.indices, k.N, row, force=force)[0])


def build_state(spec: MagnonStateSpec, budget: int | None = None) -> AmplitudeTable:
    """Construct the normalised m-flip plane-wave state table.

    Parameters
    ----------
    spec : MagnonStateSpec
        Chain length, flip count, momentum indices and coupling.
    budget : int, optional
        Ceiling on stored amplitudes; defaults to AMPLITUDE_BUDGET.  For
        m > 6 it also caps the widest level of the subset DP, C(N, j)
        with j = min(m, N // 2).

    Returns
    -------
    AmplitudeTable
        Unit-norm amplitudes over C(N, m) site lists in canonical order.

    Raises
    ------
    InfeasibilityError
        If C(N, m) or the widest DP level exceeds the budget, or m exceeds
        the permanent limit.
    NullStateError
        If the momentum choice interferes to the zero vector.
    """
    budget = AMPLITUDE_BUDGET if budget is None else budget
    N, k = spec.N, spec.k
    dim = math.comb(N, spec.m)
    if dim > budget:
        raise InfeasibilityError(f"state table needs {dim} amplitudes, budget is {budget}")
    if spec.m > _DIRECT_PERMANENT_LIMIT:
        f = _subset_permanents(k.indices, N, range(1, N + 1), budget)
    else:
        f = _phase_permanents(k.indices, N, combination_array(N, spec.m))
    weight = float(np.vdot(f, f).real)
    if weight < NULL_STATE_THRESHOLD:
        raise NullStateError(
            f"momentum indices {k.indices} interfere destructively on N={N} (weight {weight:.3e})"
        )
    g = 1.0 / math.sqrt(weight)
    f *= g
    return AmplitudeTable(spec.N, spec.m, f, g, spec)


def single_mode_state(n: int, q: int, k: float) -> AmplitudeTable:
    """Equal-weight table exp(i k sum(l)) / sqrt(C(n, q)) over q-flip lists.

    This is the pure state each magnon-number block of a single-mode
    reduction collapses to; q = 0 gives the trivial one-entry table.
    """
    if n < 1:
        raise DomainError(f"block size must be positive, got n={n}")
    if not 0 <= q <= n:
        raise DomainError(f"flip count must satisfy 0 <= q <= n, got q={q}, n={n}")
    sums = combination_array(n, q).sum(axis=1)
    pref = 1.0 / math.sqrt(len(sums))
    return AmplitudeTable(n, q, pref * np.exp(1j * k * sums), pref)


def embed_full(state: AmplitudeTable, budget: int | None = None) -> FullStateVector:
    """Scatter an amplitude table into the dense 2^N product basis."""
    budget = FULL_VECTOR_BUDGET if budget is None else budget
    size = 1 << state.N
    if size > budget:
        raise InfeasibilityError(f"dense embedding needs 2^{state.N} entries, budget is {budget}")
    masks = (np.int64(1) << (combination_array(state.N, state.m) - 1)).sum(axis=1)
    entries = np.zeros(size, dtype=np.complex128)
    entries[masks] = state.amplitudes
    return FullStateVector(state.N, entries)


def apply_hamiltonian(v: FullStateVector, J: float = 1.0, budget: int | None = None) -> FullStateVector:
    """Apply H = -J sum_l sigma_l . sigma_{l+1} to a dense vector.

    Uses sigma_l . sigma_{l+1} = 2 SWAP - 1, so the action is J N v
    minus 2 J times the sum of bond-swapped copies of v.  Meant as the
    brute-force oracle; the budget caps the dense size.
    """
    budget = FULL_VECTOR_BUDGET if budget is None else budget
    size = 1 << v.N
    if size > budget:
        raise InfeasibilityError(f"dense operator application on 2^{v.N} entries, budget is {budget}")
    idx = np.arange(size)
    out = (J * v.N) * v.entries.copy()
    for l in range(v.N):
        r = (l + 1) % v.N
        bl = (idx >> l) & 1
        br = (idx >> r) & 1
        swapped = idx ^ (((bl ^ br) << l) | ((bl ^ br) << r))
        out -= 2.0 * J * v.entries[swapped]
    return FullStateVector(v.N, out)
