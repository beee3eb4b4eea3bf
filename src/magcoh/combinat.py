"""Exact and log-space combinatorics for spin-chain state counting.

Binomial coefficients come from ``math.comb`` as exact integers;
``log_binomial`` takes the exact log up to ``EXACT_LIMIT`` and switches
to log-gamma evaluation beyond, so chain lengths of order 10^3 and more
remain usable in log space.  Combination sequences follow one canonical
order, lexicographic on 1-based site indices; every matrix basis in
this package refers back to it.  ``rank_combination`` keeps its most
recent ranks in a bounded ``functools.lru_cache`` (``_RANK_CACHE_SIZE``
entries), since ``reduce`` ranks the same subsystem and complement
halves many times over; a tuple of plain ints reaches that cache after
one C-level pass over its entries, with no copy and no per-entry check.
Every integer argument of the package, site indices included, is read
by ``_as_int`` and every real one by ``_as_real``, so each kind of
argument has one rule and one refusal.

All functions here are pure and safe for concurrent use; the rank
cache is too, since ``lru_cache`` guards its own bookkeeping and only
stores results that depend on nothing but the key.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import combinations

import numpy as np

# after numpy on purpose: imported first, dataclasses loads inspect, ast and dis
# ahead of numpy (which loads them anyway), and the process then stays about
# 0.25 MiB more resident (peak RSS measured on CPython 3.11)
from dataclasses import dataclass

from .errors import DomainError, InfeasibilityError, InternalConsistencyError

__all__ = [
    "log_binomial",
    "enumerate_combinations",
    "rank_combination",
    "admissible_q",
    "hypergeometric_pmf",
    "SectorLaw",
    "sector_law",
    "binary_entropy",
]

# Largest n for which C(n, k) is carried as an exact integer.
EXACT_LIMIT = 64

SiteList = tuple[int, ...]

# Entries of the rank_combination cache.  It bounds the process memory the
# cache holds: an entry (key tuple of site ints, n, rank and the LRU link)
# takes 250 to 290 bytes at m = 5..12, so a full cache holds 4 to 4.6 MiB.
# The largest working set of one reduce call in the benchmark ladder is
# 3,172 keys; past the ceiling the LRU thrashes, costing about what an
# uncached rank does.
_RANK_CACHE_SIZE = 1 << 14


def _as_int(x, name: str) -> int:
    """``x`` as an int when it is integer-valued (2.0 -> 2), else DomainError.

    Every integer argument of the package comes through here, site
    indices included, so one rule holds throughout: an int passes as it
    stands, any other value that ``int`` maps to an equal int (4.0,
    ``np.int64(4)``, ``Fraction(4)``) passes as that int, and anything
    else is refused.  Complex values are refused by type, numpy's
    included: ``int`` would take ``np.complex128(4)`` to 4 with only a
    warning.
    """
    if type(x) is int:
        return x
    try:
        if isinstance(x, (complex, np.complexfloating)) or (i := int(x)) != x:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an integer, got {_int_text(x)}") from None
    return i


def _as_real(x, name: str) -> float:
    """``x`` as a float when it is a finite real number, else DomainError.

    Every real argument of the package comes through here.  Complex
    values (numpy's included) and strings are refused by type, since
    ``float`` would take ``np.complex128(1)`` to 1.0 with only a warning
    and ``"1"`` to 1.0; NaN and +-inf are refused as non-finite.  The
    value itself is kept: a float passes as it stands, and any other
    real (an int, ``np.float64``) as ``float`` of it.
    """
    if type(x) is not float:
        try:
            if isinstance(x, (complex, np.complexfloating, str, bytes)):
                raise TypeError
            x = float(x)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{name} must be a finite real number, got {_int_text(x)}") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _finite(x: float, name: str) -> float:
    """A computed ``x`` when it is finite, else an InfeasibilityError
    saying that ``name`` leaves the float range."""
    if not math.isfinite(x):
        raise InfeasibilityError(f"{name} leaves the float range")
    return x


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); exact log below EXACT_LIMIT, log-gamma beyond.

    An n whose lnGamma(n + 1) leaves the float range (n + 1 past about
    2e305) is an InfeasibilityError.  Integer-valued floats are taken as
    their integers.
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got n={_int_text(n)}")
    if k < 0 or k > n:
        raise DomainError(f"binomial needs 0 <= k <= n, got n={_int_text(n)}, k={_int_text(k)}")
    if n <= EXACT_LIMIT:
        return math.log(math.comb(n, k))
    try:
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    except OverflowError:
        raise InfeasibilityError(f"ln C(n, k) at n={_int_text(n)} takes a log-gamma past the float range") from None


def _comb_exceeds(n: int, q: int, bound: int) -> bool:
    """Whether C(n, q) > bound, for 0 <= q <= n and bound >= 1, without
    forming a binomial much past the bound.

    Steps C(n, i + 1) = C(n, i) (n - i) / (i + 1), exact in integers, for
    i below j = min(q, n - q), and stops once one passes the bound.  The
    steps rise, since i < j <= n / 2, and C(n, i) >= (n / i)^i >= 2^i, so
    there are at most log2(bound) + 1 of them, whatever n and q.
    """
    c = 1
    for i in range(min(q, n - q)):
        c = c * (n - i) // (i + 1)
        if c > bound:
            return True
    return False


# Digits of the longest integer a message prints in full: CPython's default
# int-to-str limit, past which str() of an int raises ValueError.
_TEXT_DIGITS = 4300


def _int_text(x) -> str:
    """An int or a refused value as a message prints it: ``str(x)`` for
    an integer (numpy's included), ``repr(x)`` for any other value.  An
    int of more digits than ``_TEXT_DIGITS``, where str() raises, prints
    as "10^4300" or ">10^4300", with "-" or "<-" in front when negative,
    and any other value whose repr raises as its type "past the 4300-digit
    limit"."""
    try:
        return str(x) if isinstance(x, (int, np.integer)) else repr(x)
    except ValueError:
        pass
    if not isinstance(x, int):
        return f"{type(x).__name__} past the {_TEXT_DIGITS}-digit limit"
    if abs(x) == 10**_TEXT_DIGITS:
        return f"{'-' if x < 0 else ''}10^{_TEXT_DIGITS}"
    return f"{'>' if x > 0 else '<-'}10^{_TEXT_DIGITS}"


def _binomial_past(n: int, q: int, bound: int) -> str | None:
    """None if C(n, q) <= bound; else C(n, q) as ``_int_text`` prints it.
    Every test is ``_comb_exceeds``, so the binomial of a wide sector is
    never formed."""
    if not _comb_exceeds(n, q, bound):
        return None
    if _comb_exceeds(n, q, 10**_TEXT_DIGITS):
        return f">10^{_TEXT_DIGITS}"
    return _int_text(math.comb(n, q))


def validate_sitelist(sites, n: int) -> SiteList:
    """Check a strictly increasing list of site indices within [1, n].

    n and each entry that is not an int go through ``_as_int``, so
    integer-valued floats and numpy integers are taken as their ints and
    a complex value is refused by type.  One pass checks each entry in
    turn, that it is an integer, exceeds the entry before it and lies in
    [1, n], and stops at the first that breaks a rule; the message names
    that entry, or that pair, and the list's length, so a long refused
    list is neither walked past its fault nor printed.  This runs on each
    miss of the rank cache, for each ``SubsystemSpec`` and for each lone
    site list, and before the cache lookup for any rank key that is not
    all ints or floats, or is longer than n; the halves ``reduce`` ranks
    are tuples of plain ints, so it checks one only on a cache miss, not
    per amplitude.
    """
    if type(n) is not int:
        n = _as_int(n, "n")
    sites, out = tuple(sites), []
    for s in sites:
        if type(s) is not int:
            s = _as_int(s, "site index")
        if out and s <= out[-1]:
            raise DomainError(
                f"site indices must be strictly increasing, got {_int_text(out[-1])} then {_int_text(s)}"
                f" at entry {len(out) + 1} of {len(sites)}"
            )
        if not 1 <= s <= n:
            raise DomainError(
                f"site indices must lie in [1, {_int_text(n)}], got {_int_text(s)}"
                f" at entry {len(out) + 1} of {len(sites)}"
            )
        out.append(s)
    return tuple(out)


def _iter_combinations(n: int, m: int):
    """The m-element site lists of {1, ..., n} as tuples, in the canonical
    lexicographic order every basis of the package refers to."""
    return combinations(range(1, n + 1), m)


def enumerate_combinations(n: int, m: int) -> list[SiteList]:
    """All m-element site lists from {1, ..., n} in lexicographic order.

    More than ``sys.maxsize`` lists, which no list can index, is an
    InfeasibilityError, refused before any is built.
    """
    n, m = _as_int(n, "n"), _as_int(m, "m")
    if n < 0 or m < 0 or m > n:
        raise DomainError(f"cannot enumerate {_int_text(m)}-subsets of {_int_text(n)} sites")
    if (count := _binomial_past(n, m, sys.maxsize)) is not None:
        raise InfeasibilityError(f"{count} site lists exceed the {sys.maxsize} entries a list can index")
    return list(_iter_combinations(n, m))


def combination_array(n: int, m: int) -> np.ndarray:
    """The C(n, m) site lists of ``enumerate_combinations`` as one
    (C(n, m), m) int64 array, row r holding the list of rank r.

    Built level by level from the first-element recursion, with no
    Python object per row.  Level j holds the j-lists of {1, ..., nn},
    nn = n - m + j; its rows that start with site f are f followed by
    the (j-1)-lists of {f + 1, ..., nn}, which are the last C(nn - f,
    j - 1) rows of level j - 1 (the lists of {f, ..., nn - 1}) plus 1.
    So each level is one shifted slice copy per leading site.  m > n
    gives a (0, m) table; negative n or m is a DomainError, and a table
    past ``sys.maxsize`` bytes, which no array can index, an
    InfeasibilityError, refused before any level is built.
    Integer-valued floats are taken as their integers.
    """
    n, m = _as_int(n, "n"), _as_int(m, "m")
    if n < 0 or m < 0:
        raise DomainError(f"cannot tabulate {_int_text(m)}-subsets of {_int_text(n)} sites")
    # numpy caps the bytes of the rows times m int64 columns, and of the
    # columns alone when there are no rows; the final level is the widest
    if 8 * m > sys.maxsize or (m <= n and _comb_exceeds(n, m, sys.maxsize // (8 * max(m, 1)))):
        raise InfeasibilityError(
            f"{_int_text(m)}-subsets of {_int_text(n)} sites exceed the {sys.maxsize} bytes an array can index"
        )
    if m > n:
        return np.zeros((0, m), dtype=np.int64)
    prev = np.zeros((1, 0), dtype=np.int64)
    for j in range(1, m + 1):
        nn = n - m + j
        level = np.empty((math.comb(nn, j), j), dtype=np.int64)
        start = 0
        for f in range(1, nn - j + 2):
            count = math.comb(nn - f, j - 1)
            level[start : start + count, 0] = f
            np.add(prev[len(prev) - count :], 1, out=level[start : start + count, 1:])
            start += count
        prev = level
    return prev


def _site_sums(n: int, q_lo: int, q_hi: int) -> list[np.ndarray]:
    """Row sums of ``combination_array(n, q)`` for q = q_lo, ..., q_hi,
    as int64 arrays, without building the tables.

    Pascal's rule in lexicographic order: the q-lists of {1, ..., n'}
    that hold site 1 come first and are 1 followed by a (q-1)-list of
    {1, ..., n'-1} shifted up by 1; the rest are a q-list of {1, ...,
    n'-1} shifted up by 1.  So S(n', q) = [S(n'-1, q-1) + q, S(n'-1, q)
    + q].  The pass keeps only the cells (n', q) that feed some target,
    q_lo - (n - n') <= q <= q_hi, each no larger than a target it feeds.
    Needs 0 <= q_lo <= q_hi <= n.
    """
    # cells of the current n', keyed by q
    cells = {0: np.zeros(1, dtype=np.int64)}
    for nn in range(1, n + 1):
        nxt = {}
        for q in range(max(0, q_lo - (n - nn)), min(q_hi, nn) + 1):
            parts = []
            if q >= 1:
                parts.append(cells[q - 1] + q)
            if q < nn:
                parts.append(cells[q] + q)
            nxt[q] = np.concatenate(parts)
        cells = nxt
    return [cells[q] for q in range(q_lo, q_hi + 1)]


def rank_combination(sites, n: int) -> int:
    """Zero-based lexicographic rank of a site list among C(n, m) peers.

    Counts the lists that come after t = (s_1, ..., s_m) rather than
    those before it: a later list first differs at some slot i with a
    larger entry, and its entries from slot i on are any (m - i + 1)-subset
    of {s_i + 1, ..., n}.  So rank = C(n, m) - 1 - sum_i C(n - s_i,
    m - i + 1), in exact integers: O(m), at m + 1 ``math.comb`` calls
    whatever the site values.

    Ranks are memoised in a bounded LRU cache of ``_RANK_CACHE_SIZE``
    entries keyed by (sites, n), because ``reduce`` ranks each subsystem
    and complement half many times.  Only successful results are kept,
    and only under keys equal to a key of ints: n goes through
    ``_as_int``, and a tuple is used as the key as it stands once
    ``type(sum(key, 0.0)) is float`` shows in one C-level pass that its
    entries add up to a Python float, as ints, bools and floats do.  Such
    a key equals, with the same hash, the int key it validates to, so it
    ranks alike, and ``_rank`` validates it on every miss, so 1.5 is
    refused there and never cached.  Any other entry makes the sum
    another type or raises: a numpy integer scalar makes it a numpy
    float64, whose additions cannot overflow, so no width of numpy
    integer warns here; a complex value makes it complex; a string or
    None raises.  Such a key is validated to ints before the lookup, so
    1+0j, which equals 1, cannot hit the cache, and invalid input always
    raises its DomainError.  So is a key longer than n, which no site list
    of n sites is, so its refusal stops at its first fault instead of
    summing and hashing the whole tuple.  Any other iterable, an ndarray
    included, is copied to a tuple first, so a generator is materialised
    once.
    """
    if type(n) is not int:
        n = _as_int(n, "n")
    key = sites if type(sites) is tuple else tuple(sites)
    try:
        exact = len(key) <= n and type(sum(key, 0.0)) is float
    except Exception:
        # the entries' own addition may raise anything (a TypeError,
        # Decimal's InvalidOperation); validation then gives the key its refusal
        exact = False
    return _rank(key if exact else validate_sitelist(key, n), n)


@lru_cache(maxsize=_RANK_CACHE_SIZE)
def _rank(sites: SiteList, n: int) -> int:
    t = validate_sitelist(sites, n)
    if n < 0:
        raise DomainError(f"cannot rank a site list among {_int_text(n)} sites")
    m = len(t)
    return math.comb(n, m) - 1 - sum(math.comb(n - s, m - i) for i, s in enumerate(t))


def admissible_q(N: int, n: int, m: int) -> range:
    """Range of spin-up counts an n-site block of an N-chain with m flips admits.

    The complement holds m - q flips, so q runs from max(0, m - (N - n))
    to min(n, m).  Integer-valued floats are taken as their integers.
    """
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    if not 1 <= n <= N:
        raise DomainError(f"block size must satisfy 1 <= n <= N, got n={_int_text(n)}, N={_int_text(N)}")
    if not 0 <= m <= N:
        raise DomainError(f"flip count must satisfy 0 <= m <= N, got m={_int_text(m)}, N={_int_text(N)}")
    return range(max(0, m - (N - n)), min(n, m) + 1)


def hypergeometric_pmf(N: int, n: int, m: int, q: int) -> float:
    """Probability that q of the m flipped spins land inside an n-site block.

    Equals C(N-n, m-q) C(n, q) / C(N, m); assembled in log space and
    exponentiated so large chains cannot overflow.  Beyond EXACT_LIMIT
    each of the three log-binomials carries three ``math.lgamma``
    roundings of size up to u lnGamma(N+1), so the result has relative
    error up to (9 lnGamma(N+1) + 4) u, with u = 2^-53: about 2e-10 at
    N = 1e5.  No library route takes its weights from here: they all
    use ``sector_law``, which stays near roundoff.  This per-q lgamma
    evaluation is the independent route that ``verify`` and the tests
    hold ``sector_law`` against.  An integer-valued float q is taken as
    its integer.
    """
    q = _as_int(q, "q")
    if q not in admissible_q(N, n, m):
        raise DomainError(
            f"q={_int_text(q)} outside the admissible range for N={_int_text(N)}, n={_int_text(n)}, m={_int_text(m)}"
        )
    return math.exp(log_binomial(N - n, m - q) + log_binomial(n, q) - log_binomial(N, m))


@dataclass(frozen=True, eq=False)
class SectorLaw:
    """The hypergeometric law of one block over a run of its flip counts.

    ``q`` are the flip counts, ``p`` their probabilities (summing to 1
    up to roundoff), ``log_p`` = ln p(q) and ``log_dim`` = ln C(n, q),
    the log dimension of each sector.  The arrays are read-only, and an
    array has no tuple equality, so laws compare by identity.
    """

    q: np.ndarray
    p: np.ndarray
    log_p: np.ndarray
    log_dim: np.ndarray

    def __post_init__(self):
        for array in (self.q, self.p, self.log_p, self.log_dim):
            array.setflags(write=False)


def _log_ratio_cumsum(anchor: int, log_ratio: np.ndarray) -> np.ndarray:
    # ln f(q) - ln f(anchor) from ln f(q+1)/f(q), summed outward from anchor
    up = np.cumsum(log_ratio[anchor:])
    down = -np.cumsum(log_ratio[:anchor][::-1])[::-1]
    return np.concatenate([down, [0.0], up])


def _sector(N: int, n: int, m: int) -> range:
    # the admissible range of a law the int64 ratios can build
    sector = admissible_q(N, n, m)
    if (N + 2) ** 2 >= 2 ** 63:
        raise InfeasibilityError(f"sector law at N={_int_text(N)} needs (N+2)^2 < 2^63 for exact int64 ratios")
    return sector


def _law(N: int, n: int, m: int, sector: range, lo: int, hi: int) -> SectorLaw:
    """The sector law over q in [lo, hi], a run of the admissible range
    ``sector`` that holds the mode, normalised over that run.

    Every q gets the same ln-weight and ln C(n, q) bits whatever the
    run, since both are summed outward from the mode and each cumulative
    sum is sequential; only the normalising total depends on the run.
    An end of the run inside ``sector`` must carry weight 0.0, so that a
    run drops only exact zeros of the whole law, else
    InternalConsistencyError.
    """
    q = np.arange(lo, hi + 1, dtype=np.int64)
    mode = min(max((n + 1) * (m + 1) // (N + 2), sector[0]), sector[-1]) - lo
    steps = q[:-1]
    num = (n - steps) * (m - steps)
    den = (steps + 1) * (N - n - m + steps + 1)
    excess = ((n + 1) * (m + 1) - (N + 2) * (steps + 1)) / den
    log_ratio = np.where(np.abs(excess) < 0.5, np.log1p(excess), np.log(num / den))
    log_weight = _log_ratio_cumsum(mode, log_ratio)
    weight = np.exp(log_weight)
    if (lo > sector[0] and weight[0] != 0.0) or (hi < sector[-1] and weight[-1] != 0.0):
        raise InternalConsistencyError(f"sector-law run [{lo}, {hi}] of N={N}, n={n}, m={m} cuts off a nonzero weight")
    total = float(weight.sum())
    log_dim = _log_ratio_cumsum(mode, np.log((n - steps) / (steps + 1))) + log_binomial(n, int(q[mode]))
    return SectorLaw(q, weight / total, log_weight - math.log(total), log_dim)


def sector_law(N: int, n: int, m: int) -> SectorLaw:
    """Hypergeometric sector law of an n-site block over its float
    support, vectorised over q.

    Builds ln p from the mode outward as a cumulative sum of the exact
    ratio p(q+1)/p(q) = (n-q)(m-q) / ((q+1)(N-n-m+q+1)), whose excess
    over 1 is the integer (n+1)(m+1) - (N+2)(q+1) over the denominator;
    near the mode each step is log1p of that small quotient, so its
    rounding error is proportional to the step, not a fixed u.  ln C(n, q) is
    summed the same way from ``log_binomial(n, q_mode)``.  The weights
    are normalised by their sum, so no lgamma error enters p.

    The law covers the flip counts whose float64 weight can be nonzero:
    q in [floor(mu - t), ceil(mu + t)] within the admissible range, with
    mu = n m / N, s = min(n, m, N - n, N - m), R the number of admissible
    q and t = sqrt(s (746 + ln R) / 2) + 2.  Hoeffding's inequality for
    sampling without replacement (W. Hoeffding, JASA 58, 13, 1963,
    sec. 6), applied to whichever of the block, the flips or their
    complements is smallest, bounds the tail beyond mu +- d by
    exp(-2 d^2 / s); the mode carries at least 1/R, so p(q)/p(mode) <
    R exp(-2 (q - mu)^2 / s) < exp(-746) < 2^-1075 outside the window,
    and ``np.exp`` gives exactly 0.0 there.  So the window drops only
    exact zeros of the law over the whole admissible range, which has
    s + 1 entries and holds mu.  While s < 380, t >= s and the window is
    that whole range, so the arrays are those of the whole-range law bit
    for bit; where the window is shorter, only the normalising total's
    summation order differs, and a chain of 1e8 sites sums about 2e5
    sectors rather than 3e7.

    Raises InfeasibilityError when (N+2)^2 exceeds int64, where the
    ratio's integer numerator and denominator would no longer be exact.
    Integer-valued floats are taken as their integers.
    """
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    sector = _sector(N, n, m)
    s = min(n, m, N - n, N - m)
    t = math.sqrt(s * (746.0 + math.log(len(sector))) / 2.0) + 2.0
    mu = n * m / N
    return _law(N, n, m, sector, max(math.floor(mu - t), sector[0]), min(math.ceil(mu + t), sector[-1]))


def binary_entropy(x: float) -> float:
    """s(x) = -x ln x - (1-x) ln(1-x) in nats, with s(0) = s(1) = 0."""
    x = _as_real(x, "binary entropy argument")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x}")
    total = 0.0
    if x > 0.0:
        total -= x * math.log(x)
    if x < 1.0:
        total -= (1.0 - x) * math.log1p(-x)
    return total
