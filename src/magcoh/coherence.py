"""Coherence quantifiers in the canonical site-list basis.

Every measure accepts either a BlockDensityMatrix or a plain Hermitian
matrix of unit trace.  A plain matrix is checked as a block operator is,
once per call, when a public function receives it: one that is not
square, has a non-finite entry, departs from Hermiticity by more than
INPUT_HERMITICITY_TOL or from unit trace by more than TRACE_TOL, or has
an eigenvalue below NEGATIVE_EIGENVALUE_FLOOR (the floor ``validate``
holds a block to) is a DomainError.  The check keeps the spectrum it
takes for that floor, so a plain matrix is diagonalised once per call.
A block operator is checked by its own ``validate``, once in its life:
the package routes return operators that have passed it, and one that
has not (built by hand) is validated on entry, a refusal again being a
DomainError.
Every measure is read off one ``coherence_report``: it reads each sector
once, in ascending q, for its populations, its sum of |rho_ij| and its
ascending spectrum (the ``reads`` of the operator's sector form; a plain
matrix is one sector), so a factored sector is built densely once per report.
``c_l1`` and ``c_r`` are the report's two fields, and each costs one
report.  Logarithms are natural throughout, so entropic quantities are
in nats.
The l1 measure sums |rho_ij| over all stored blocks and subtracts the
trace; a rank-one sector w phi phi^H is summed from one complex row per
distinct phase, with the dense block's bits and without building the
block.  The relative-entropy measure subtracts the von Neumann entropy
from the Shannon entropy of the diagonal.  Two quantities follow from
C_l1 and are read off a ``CoherenceReport``, their one public name: the
log measure C_ln = ln(1 + C_l1), which gives up the entropic reading in
exchange for additivity and O(d^2) cost, and the effective dimension
1 + C_l1, the number of basis states the operator coherently explores.
Eigenvalues below EIGENVALUE_FLOOR are treated as exact zeros inside
x ln x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .combinat import _as_int, _as_real, _comb_exceeds, _int_text, _sector, sector_law
from .errors import DomainError, InfeasibilityError, InternalConsistencyError
from .reduced_density import (
    INPUT_HERMITICITY_TOL,
    NEGATIVE_EIGENVALUE_FLOOR,
    TRACE_TOL,
    BlockDensityMatrix,
    _hermiticity_residual,
)

__all__ = [
    "CoherenceReport",
    "c_l1",
    "c_r",
    "max_coherence",
    "averaged_coherence_single_mode",
    "coherence_report",
]

EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class CoherenceReport:
    """All three measures of one operator, with the basis size they refer
    to; C_ln and the effective dimension follow from C_l1."""

    c_l1: float
    c_r: float
    basis_dimension: int

    @property
    def c_ln(self) -> float:
        """ln(1 + C_l1); additive over tensor products of maximally coherent states."""
        return math.log1p(self.c_l1)

    @property
    def effective_dimension(self) -> float:
        """1 + C_l1: how many basis states the operator coherently explores."""
        return 1.0 + self.c_l1


def _reads(rho) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """(populations, sum of |rho_ij|, ascending spectrum) of each sector of
    a checked operator, in ascending q.

    A BlockDensityMatrix that has passed ``validate`` answers its own
    ``_reads``; one that has not is validated first, once in its life.  Any
    other input is checked as a plain matrix and is its own one sector,
    whose spectrum is the ``eigvalsh`` its positivity floor was read from.
    """
    if isinstance(rho, BlockDensityMatrix):
        if not rho._validated:
            try:
                rho.validate()
            except InternalConsistencyError as err:
                raise DomainError(f"density operator {err}") from err
        return rho._reads()
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square density matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("density matrix has non-finite entries")
    if not _hermiticity_residual(a) <= INPUT_HERMITICITY_TOL:
        raise DomainError("density matrix departs from Hermiticity beyond tolerance")
    off = abs(np.trace(a) - 1.0)
    if not off <= TRACE_TOL:
        raise DomainError(f"density matrix trace departs from 1 by {off:.3e}")
    ascending = np.linalg.eigvalsh(a)
    lowest = float(ascending.min())
    if not lowest >= NEGATIVE_EIGENVALUE_FLOOR:
        raise DomainError(f"density matrix has eigenvalue {lowest:.3e} below the floor")
    return [(np.diag(a).real, float(np.abs(a).sum()), ascending)]


def _entropy(values) -> float:
    # x ln x -> 0 below the floor
    kept = np.asarray(values, dtype=float)
    kept = kept[kept > EIGENVALUE_FLOOR]
    return float(-(kept * np.log(kept)).sum()) if kept.size else 0.0


def c_l1(rho) -> float:
    """Sum of |rho_ij| minus the trace; zero exactly on diagonal operators.
    The ``c_l1`` field of ``coherence_report``, whose cost it has."""
    return coherence_report(rho).c_l1


def c_r(rho) -> float:
    """Relative entropy of coherence: S(diag(rho)) - S(rho), in nats.
    The ``c_r`` field of ``coherence_report``, whose cost it has."""
    return coherence_report(rho).c_r


def max_coherence(d: int) -> tuple[float, float]:
    """Largest attainable (C_r, C_l1) in dimension d: (ln d, d - 1).

    A d - 1 beyond the float range is an InfeasibilityError.
    """
    d = _as_int(d, "dimension")
    if d < 1:
        raise DomainError(f"dimension must be a positive integer, got {_int_text(d)}")
    try:
        l1 = float(d - 1)
    except OverflowError:
        raise InfeasibilityError(
            f"d - 1 exceeds the float range (max {sys.float_info.max:.6g}), so the l1 maximum is not representable"
        ) from None
    return math.log(d), l1


def averaged_coherence_single_mode(N: int, n: int, m: int, k: float, measure: str = "r") -> float:
    """Sector-averaged coherence of a single-mode reduction, in closed form.

    Each admissible sector is maximally coherent on C(n, q) site lists,
    so averaging the sector values over the hypergeometric weights gives
    sum_q p(q) ln C(n, q) for the relative-entropy measure and
    sum_q p(q) (C(n, q) - 1) for the l1 measure, each one dot product
    over a single ``sector_law`` call.  The "ln" choice averages
    ln C(n, q) the same way.  The law spans its float support, which
    drops only weights that are exactly 0.0, and every l1 term that
    passes the float-range refusal is finite, so no measure loses a
    term.  The directly evaluated C_ln of the
    mixture is larger in general (strictly, unless one sector carries
    all the weight), so the two are reported separately rather than
    conflated.

    The wavenumber k only rotates phases inside each sector and drops
    out of every measure; it is accepted to mirror the direct route, and
    is read by the same finite-real check, so a complex, string or
    non-finite k is a DomainError there as here.  The l1 average
    raises InfeasibilityError once some C(n, q) leaves the float range,
    decided from n and the admissible range before the law is built.
    Integer-valued floats N, n and m are taken as their integers.
    """
    if measure not in ("r", "l1", "ln"):
        raise DomainError(f"measure must be one of 'r', 'l1', 'ln', got {_int_text(measure)}")
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    _as_real(k, "wavenumber")
    if measure == "l1":
        sector = _sector(N, n, m)
        # the widest admissible sector, nearest n/2, overflows first; float()
        # of an integer from 2^1024 - 2^970 on rounds to 2^1024 and overflows
        q = min(max(n // 2, sector[0]), sector[-1])
        if _comb_exceeds(n, q, 2**1024 - 2**970 - 1):
            raise InfeasibilityError(
                f"C({n}, {q}) exceeds the float range (max {sys.float_info.max:.6g}), so the l1 average is not representable"
            )
    law = sector_law(N, n, m)
    if measure != "l1":
        return float(law.p @ law.log_dim)
    dims = np.array([float(math.comb(n, q)) for q in law.q.tolist()])
    return float(law.p @ (dims - 1.0))


def coherence_report(rho) -> CoherenceReport:
    """Evaluate C_l1 and C_r from one pass over the sectors and package
    them together; the basis dimension is the length of the diagonal C_r
    reads.

    Each sector is read once, in ascending q, for its populations, its
    sum of |rho_ij| and its spectrum, so a factored sector is built
    densely once and dropped before the next.  C_l1 is the summed moduli
    less the trace, and C_r the Shannon entropy of the concatenated
    diagonal less that of the spectrum sorted descending, each clamped
    at 0.
    """
    diagonals, abs_sums, spectra = zip(*_reads(rho))
    diagonal = np.concatenate(diagonals)
    spectrum = np.sort(np.concatenate(spectra))[::-1]
    return CoherenceReport(
        c_l1=max(0.0, sum(abs_sums) - 1.0),
        c_r=max(0.0, _entropy(diagonal) - _entropy(spectrum)),
        basis_dimension=len(diagonal),
    )
