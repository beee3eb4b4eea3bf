"""Rounding-error models shared by the tests, and exact oracles for the
sector law and for the plane-wave permanents.

u = 2^-53 and gamma(T) = T u / (1 - T u) after T rounded operations
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
ch. 3).  ``log``, ``log1p`` and ``exp`` are taken to be within 2 ulps.
The integers of the ratio p(q+1)/p(q) stay below 2^53 for N < 9e7, so
they convert to floats exactly.

From the anchor (the mode), sector q is T = |q - q_mode| ratio steps away
and ln p drops by L = ln p(q_mode) - ln p(q) >= 0 over them.  Each step is
off by at most 2u (1 + |r|), and every partial sum of the running total
lies below L in magnitude, so ln p~ carries at most 2u (T + 1)(L + 1).
Normalising by the sum Z of the exp'd weights adds Z's relative error,
the p-weighted mean of the per-sector errors plus gamma(Q) for Q sectors.
ln C(n, q) starts from ``log_binomial`` at the anchor, whose three
lgamma terms and two subtractions stay within 5 u lnGamma(n+1), and its
partial sums lie within the largest ln C.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

U = 2.0 ** -53


def gamma(T: float) -> float:
    """Relative error bound after T rounded operations."""
    return T * U / (1.0 - T * U)


def anchor(N: int, n: int, m: int) -> int:
    """Index of the mode the law is summed outward from."""
    q_min, q_max = max(0, m - (N - n)), min(n, m)
    return min(max((n + 1) * (m + 1) // (N + 2), q_min), q_max) - q_min


def sector_law_bounds(N: int, n: int, m: int, law):
    """Per-sector bounds: relative error of p, absolute errors of ln p and ln C(n, q)."""
    a = anchor(N, n, m)
    steps = np.abs(np.arange(len(law.q)) - a)
    drop = np.abs(law.log_p[a] - law.log_p)
    log_weight = 2.0 * U * (steps + 1) * (drop + 1)
    rel_weight = log_weight + 2.0 * U
    rel_total = float(law.p @ rel_weight) + gamma(len(law.q))
    rel_p = rel_weight + rel_total + U
    abs_log_p = log_weight + rel_total + 2.0 * U + U * np.abs(law.log_p)
    largest = float(law.log_dim.max())
    abs_log_dim = (5.0 * math.lgamma(n + 1) + 1.0) * U + U * (steps + 2) * (3.0 * largest + 2.0)
    return rel_p, abs_log_p, abs_log_dim


def exact_law(N: int, n: int, m: int):
    """Correctly rounded p(q), ln p(q) and ln C(n, q) over the admissible range.

    Walks the exact integer recurrences C(N-n, m-q) C(n, q) and C(n, q)
    in q, so the whole law costs one pass of small big-integer products.
    A p(q) below the normal range gets ln p(q) from the two integers
    instead; its share of any p-weighted sum is below 1e-307.
    """
    q_min, q_max = max(0, m - (N - n)), min(n, m)
    count = math.comb(N - n, m - q_min) * math.comb(n, q_min)
    dim = math.comb(n, q_min)
    total = math.comb(N, m)
    p, log_p, log_dim = [], [], []
    for q in range(q_min, q_max + 1):
        value = count / total
        p.append(value)
        log_p.append(math.log(value) if value >= sys.float_info.min else math.log(count) - math.log(total))
        log_dim.append(math.log(dim))
        count = count * (n - q) * (m - q) // ((q + 1) * (N - n - m + q + 1))
        dim = dim * (n - q) // (q + 1)
    return np.array(p), np.array(log_p), np.array(log_dim)


# A root-table entry exp(2 pi i r / N) is within 22 u of w^r: its angle
# carries three roundings of relative size u on a value of at most 2 pi
# (19 u), and exp adds 2 ulps to each part.  Multiplying a table entry by
# it adds the complex product's sqrt(2) gamma(2): 25 steps in all.
TWIST_STEPS = 25


def dp_steps(k) -> int:
    """Rounded steps per amplitude on the subset-DP permanent route.

    The largest group of mu equal indices starts every level-mu entry at
    mu! times a root (one rounding of mu!); each later level twists its
    entries by a root and sums j + 1 of them (j additions), and the last
    level is twisted back once.  The error of an amplitude is then at most
    gamma(dp_steps(k)) m!, m! being the sum of the moduli of its terms.
    """
    k = list(k)
    mu = max(k.count(i) for i in k)
    return 1 + TWIST_STEPS + sum(j + TWIST_STEPS for j in range(mu, len(k)))


def count_polynomials(k, N: int, rows) -> np.ndarray:
    """Exact permutation counts c[r, e], e < N, of each site-list row.

    c[r, e] counts the permutations pi with sum_b k_pi(b) s_b = e (mod N),
    so the row's permanent is the count polynomial sum_e c[r, e] x^e of
    Z[x]/(x^N - 1) at x = exp(2 pi i / N).  Built one site of the row at a
    time over the subsets of momentum slots used so far (every slot its
    own, whatever its value), the transpose of the library's subset DP.
    """
    rows = np.asarray(rows, dtype=np.int64)
    count, m = rows.shape
    k = np.asarray(k, dtype=np.int64)
    bits = np.arange(m)
    gather = (np.arange(N)[None, :] - (k[:, None, None] * rows.T[None, :, :])[..., None]) % N
    masks = np.zeros(1, dtype=np.int64)
    level = np.zeros((1, count, N), dtype=np.int64)
    level[0, :, 0] = 1
    slot = np.empty(1 << m, dtype=np.int64)
    for b in range(m):
        free = (masks[:, None] >> bits) & 1 == 0
        grown = np.unique((masks[:, None] | (1 << bits))[free])
        slot[grown] = np.arange(len(grown))
        nxt = np.zeros((len(grown), count, N), dtype=np.int64)
        for a in range(m):
            src = free[:, a]
            # multiplying by x^(k_a s_b) moves coefficient e - shift to e
            nxt[slot[masks[src] | 1 << a]] += level[src][:, np.arange(count)[:, None], gather[a, b]]
        masks, level = grown, nxt
    return level[0]


@lru_cache(maxsize=None)
def cyclotomic(N: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_N, lowest degree first: x^N - 1 divided
    by Phi_d for every proper divisor d of N."""
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly = _divide_monic(poly, cyclotomic(d))[0]
    return tuple(poly)


def _divide_monic(num, den):
    """Quotient and remainder of integer polynomials, den monic."""
    num, deg = list(num), len(den) - 1
    quot = [0] * max(len(num) - deg, 1)
    for e in range(len(num) - 1, deg - 1, -1):
        c = num[e]
        if c:
            quot[e - deg] = c
            for i, d in enumerate(den):
                num[e - deg + i] -= c * d
    return quot, num[:deg]


def vanishes(counts, N: int) -> np.ndarray:
    """Per row, whether the permanent is exactly zero: Phi_N, the minimal
    polynomial of exp(2 pi i / N), divides the count polynomial."""
    phi = cyclotomic(N)
    return np.array([not any(_divide_monic([int(c) for c in row], phi)[1]) for row in counts])


def exact_permanents(counts, N: int) -> np.ndarray:
    """The count polynomials at exp(2 pi i / N) in extended precision;
    within (N + 4) eps m! of exact, eps the long-double unit roundoff."""
    angle = 2.0 * np.arccos(np.longdouble(-1.0)) * np.arange(N, dtype=np.longdouble) / N
    counts = np.asarray(counts).astype(np.longdouble)
    return counts @ np.cos(angle) + 1j * (counts @ np.sin(angle))
