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
matrix ``exp(i k_a l_b)``: it is evaluated by direct permutation sum
for small m and by Ryser's inclusion-exclusion beyond.  Ryser's subsets
are grouped by how many copies x_i of each distinct index with
multiplicity mu_i they hold, weighted by prod_i C(mu_i, x_i), and walked
in Gray-code order with one row-sum update per step, trading m! m for
prod_i (mu_i + 1) m cost: m + 1 terms for a single-mode state, 2^m when
every index differs.

Tables are immutable after construction; everything here is pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import Counter
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


def _gray_steps(counts):
    """Walk every copy-count vector 0 <= x_i <= counts[i] in reflected
    mixed-radix Gray order, starting from x = 0 (Knuth, TAOCP 7.2.1.1,
    Algorithm H).

    Yields ``(j, delta, weight)`` per step: digit j moved by delta = +-1
    and the new vector carries ``weight = prod_i C(counts[i], x_i)``,
    kept as an exact integer by one ratio update per step.  With every
    count equal to 1 the walk is the binary reflected Gray code and the
    weight stays 1.
    """
    n = len(counts)
    x = [0] * n
    direction = [1] * n
    focus = list(range(n + 1))
    weight = 1
    while True:
        j = focus[0]
        focus[0] = 0
        if j == n:
            return
        mu, old = counts[j], x[j]
        delta = direction[j]
        x[j] = old + delta
        if delta > 0:
            weight = weight * (mu - old) // (old + 1)
        else:
            weight = weight * old // (mu - old + 1)
        yield j, delta, weight
        if x[j] == 0 or x[j] == mu:
            direction[j] = -delta
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1


def _phase_permanents(indices, N: int, sites: np.ndarray, force: str | None = None) -> np.ndarray:
    """Permanent of [exp(2 pi i idx_a s_b / N)] for every row of site lists.

    Phases are reduced modulo N in integer arithmetic before
    exponentiation, so the result does not degrade on long chains; the
    direct route gathers them from a table of the N roots of unity,
    bit for bit the exponentials it would otherwise evaluate per term.
    Left alone, small m uses the permutation sum and larger m Ryser's
    inclusion-exclusion over copy counts of the distinct indices.
    ``force`` pins the route for cross-checks: "direct" is the
    permutation sum, "ryser" the expanded inclusion-exclusion over all
    2^m index subsets, with repeated indices treated as distinct.
    """
    if force not in (None, "direct", "ryser"):
        raise DomainError(f"permanent route must be 'direct' or 'ryser', got {force!r}")
    rows, m = sites.shape
    if m == 0:
        return np.ones(rows, dtype=np.complex128)
    if m > _PERMANENT_LIMIT:
        raise InfeasibilityError(f"permanent cost grows as 2^m; m={m} exceeds the limit {_PERMANENT_LIMIT}")
    idx = np.asarray(indices, dtype=np.int64)
    method = force or ("direct" if m <= _DIRECT_PERMANENT_LIMIT else "ryser")
    out = np.empty(rows, dtype=np.complex128)
    unit = 2j * np.pi / N
    if method == "direct":
        kperm = idx[np.array(list(permutations(range(m))), dtype=np.int64)]
        # every reduced exponent is one of N values: exponentiate those once
        roots = np.exp(unit * np.arange(N))
        for lo in range(0, rows, _CHUNK_ROWS):
            chunk = sites[lo:lo + _CHUNK_ROWS]
            dots = (chunk @ kperm.T) % N
            out[lo:lo + len(chunk)] = roots[dots].sum(axis=1)
        return out
    if force is None:
        # first-seen order, so distinct indices walk the expanded route's steps
        groups = Counter(idx.tolist())
        idx, counts = np.array(list(groups), dtype=np.int64), list(groups.values())
    else:
        counts = [1] * m
    for lo in range(0, rows, _CHUNK_ROWS):
        chunk = sites[lo:lo + _CHUNK_ROWS]
        # (distinct index, site, row): each step adds one contiguous
        # (site, row) slab and multiplies rowsum down its site axis.
        a = np.exp(unit * ((idx[:, None, None] * chunk.T[None, :, :]) % N))
        rowsum = np.zeros((m, len(chunk)), dtype=np.complex128)
        acc = np.zeros(len(chunk), dtype=np.complex128)
        for step, (j, delta, weight) in enumerate(_gray_steps(counts), 1):
            if delta > 0:
                rowsum += a[j]
            else:
                rowsum -= a[j]
            term = rowsum.prod(axis=0)
            if weight != 1:
                term *= weight
            # each step moves sum(x) by one, so the sign alternates
            if step & 1:
                acc -= term
            else:
                acc += term
        out[lo:lo + len(chunk)] = acc if m % 2 == 0 else -acc
    return out


def amplitude_f(k: MomentumVector, l, force: str | None = None) -> complex:
    """Unnormalised amplitude of one site list: the permanent sum over
    permutations of the wavenumbers."""
    sites = validate_sitelist(l, k.N)
    if len(sites) != k.m:
        raise DomainError(f"site list has {len(sites)} entries, momentum has {k.m}")
    row = np.asarray(sites, dtype=np.int64).reshape(1, max(len(sites), 0))
    return complex(_phase_permanents(k.indices, k.N, row, force=force)[0])


def build_state(spec: MagnonStateSpec, budget: int | None = None) -> AmplitudeTable:
    """Construct the normalised m-flip plane-wave state table.

    Parameters
    ----------
    spec : MagnonStateSpec
        Chain length, flip count, momentum indices and coupling.
    budget : int, optional
        Ceiling on stored amplitudes; defaults to AMPLITUDE_BUDGET.

    Returns
    -------
    AmplitudeTable
        Unit-norm amplitudes over C(N, m) site lists in canonical order.

    Raises
    ------
    InfeasibilityError
        If C(N, m) exceeds the budget or m exceeds the permanent limit.
    NullStateError
        If the momentum choice interferes to the zero vector.
    """
    budget = AMPLITUDE_BUDGET if budget is None else budget
    N, k = spec.N, spec.k
    dim = math.comb(N, spec.m)
    if dim > budget:
        raise InfeasibilityError(f"state table needs {dim} amplitudes, budget is {budget}")
    f = _phase_permanents(k.indices, N, combination_array(N, spec.m))
    weight = float(np.vdot(f, f).real)
    if weight < NULL_STATE_THRESHOLD:
        raise NullStateError(
            f"momentum indices {k.indices} interfere destructively on N={N} (weight {weight:.3e})"
        )
    g = 1.0 / math.sqrt(weight)
    return AmplitudeTable(spec.N, spec.m, f * g, g, spec)


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
