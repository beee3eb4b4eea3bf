"""Compare an op's summary with its reference, within rounding-error bounds.

Every tolerance is a first-order rounding-error bound of the route that
produced the reference (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 3): a quantity formed from terms of total
magnitude S through a chain of T rounded operations is off by at most
gamma(T) * S, with gamma(T) = T u / (1 - T u) and u = 2^-53.  T and S are
computed from the case's inputs and the reference itself; the bound is
doubled because the reference and the candidate each carry that error
while a later route may round differently.

- General route (``build_state`` + ``reduce``): a permanent takes
  T_f = m 2^m steps on the Ryser route (m > 6) and m m! on the direct
  route; normalising adds D = C(N, m); a Gram entry of sector q adds its
  inner length L_q = C(N - n, m - q).
- Sector law: C(n, q) enters as ln C from ``math.lgamma`` (or the exact
  log below 64), so ln p(q) carries 9 lgamma errors of size u lnGamma(N+1),
  i.e. p(q) has relative error eps_p = (9 lnGamma(N+1) + 4) u.
- Spectra: ``eigvalsh`` is backward stable, |d lambda| <= gamma(4 d) ||B||
  plus the entry error (Weyl), and x ln x then amplifies it by at most
  1 + |ln floor| above the coherence module's eigenvalue floor.
- Sums of nonnegative terms (sector averages, sweep sums) have S equal to
  the value itself.
"""

from __future__ import annotations

import math

from workloads import SWEEP_COUNT

U = 2.0 ** -53
# Eigenvalues below this are zeros in x ln x (magcoh.coherence.EIGENVALUE_FLOOR).
EIGENVALUE_FLOOR = 1e-14
_ENTROPY_SLOPE = 1.0 + abs(math.log(EIGENVALUE_FLOOR))


def gamma(T: float) -> float:
    """Higham's gamma_T: relative error bound after T rounded operations."""
    return T * U / (1.0 - T * U)


def permanent_steps(m: int) -> int:
    """Rounded steps per permanent on the route magcoh selects for m."""
    return m * 2 ** m if m > 6 else m * math.factorial(m)


def sector_law_error(N: int) -> float:
    """Relative error of one hypergeometric p(q) on an N-site chain."""
    return (9.0 * math.lgamma(N + 1.0) + 4.0) * U


def _block_tolerances(ref: dict, entry_error) -> dict:
    """Bounds for block weights, C_l1 and C_r of a block operator.

    ``entry_error(q, d)`` is the relative error of sector q's entries.
    """
    weights, c_l1, c_r = [], 0.0, 0.0
    for q, d, w in zip(ref["q"], ref["dims"], ref["weights"]):
        eps = entry_error(q, d)
        weights.append(2.0 * (eps + gamma(d)) * w)
        # sum_ij |rho_ij| over the block is at most d w (Cauchy-Schwarz)
        c_l1 += 2.0 * (eps + gamma(d * d)) * d * w
        # Weyl per eigenvalue, then x ln x slope, summed over d eigenvalues
        c_r += 2.0 * _ENTROPY_SLOPE * d * (d * eps + gamma(4 * d)) * w
    return {"weights": weights, "c_l1": c_l1, "c_r": c_r}


def tolerances(workload: str, case: dict, ref: dict) -> dict:
    """Absolute tolerance for every compared field of a non-null summary."""
    if workload == "single-mode":
        eps_p = sector_law_error(case["N"])
        tol = _block_tolerances(ref, lambda q, d: eps_p + gamma(4))
        N2, n2 = case["N_thermo"], case["n_thermo"]
        Q = n2 + 1
        eps_sum = sector_law_error(N2) + gamma(Q + 2)
        tol["averages"] = [2.0 * (eps_p + gamma(case["n"] + 3)) * abs(v) for v in ref["averages"]]
        tol["density"] = 2.0 * eps_sum * abs(ref["density"])
        # each slope differences two sector sums below ln Q + n ln 2 (+1 for
        # the p ln p derivative) over the energy step 2 n eps0 / N
        du = 2.0 * n2 * 8.0 * math.sin(math.pi * case["j"] / case["N"]) ** 2 / N2
        span = math.log(Q) + n2 * math.log(2.0) + 1.0
        tol["beta"] = [2.0 * (2.0 * eps_sum * span / du + gamma(4) * abs(b)) for b in ref["beta"]]
        tol["sweep"] = [2.0 * gamma(SWEEP_COUNT + 8) * abs(s) for s in ref["sweep"]]
        return tol
    N, m, n = case["N"], len(case["k"]), len(case["sites"])
    T_f = permanent_steps(m)
    D = math.comb(N, m)
    tol = _block_tolerances(ref, lambda q, d: gamma(2 * T_f + D + math.comb(N - n, m - q)))
    tol["normalization"] = 2.0 * gamma(T_f + D) * ref["normalization"]
    # |<w, a>| <= ||w|| ||a|| = 1
    tol["projection"] = [2.0 * gamma(T_f + D)] * 2
    return tol


def compare(workload: str, case: dict, got: dict, ref: dict) -> list[str]:
    """Problems found comparing a summary with its reference; empty if none."""
    if workload == "cli-render":
        return [f"{key}: got {got[key]!r}, expected {ref[key]!r}" for key in ("exit", "bytes", "sha256") if got[key] != ref[key]]
    if got["null"] != ref["null"]:
        return [f"null state: got {got['null']}, expected {ref['null']}"]
    if ref["null"]:
        return []
    if got["q"] != ref["q"] or got["dims"] != ref["dims"]:
        return [f"sectors: got {got['q']} {got['dims']}, expected {ref['q']} {ref['dims']}"]
    problems = []
    for key, tol in tolerances(workload, case, ref).items():
        values, expected, bounds = got[key], ref[key], tol
        if not isinstance(expected, list):
            values, expected, bounds = [values], [expected], [tol]
        for i, (v, e, t) in enumerate(zip(values, expected, bounds)):
            if not abs(v - e) <= t:
                problems.append(f"{key}[{i}]: got {v!r}, expected {e!r}, tolerance {t:.3e}")
    return problems
