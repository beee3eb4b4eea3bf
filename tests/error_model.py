"""Rounding-error models shared by the tests, and an exact sector-law oracle.

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
