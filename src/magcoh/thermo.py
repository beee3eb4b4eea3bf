"""Two-level coherence thermodynamics of single-mode magnon blocks.

An n-site block of an N-chain carrying m same-mode flips holds q of
them with hypergeometric probability, at energy cost q times the
single-flip energy eps0.  Per site this gives energy density
u = m eps0 / N, and for long chains the coherence per site approaches
the binary entropy s(u / eps0), so the conjugate temperature and the
heat capacity are exactly those of a classical two-level gas: the
energy density follows the logistic curve in beta and the heat
capacity shows the Schottky peak near eps0 beta ~ 2.4.  ``sweep``
tabulates both over a beta grid as one read-only record array.

Inverse temperatures carry units of inverse energy; entropic
quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinat import _as_int, _as_real, admissible_q, binary_entropy, sector_law
from .errors import DivergenceError, DomainError

__all__ = [
    "ThermoCurve",
    "BetaDecomposition",
    "internal_energy",
    "coherence_density",
    "beta_c",
    "energy_from_beta",
    "heat_capacity",
    "schottky_peak",
    "finite_size_coherence_density",
    "beta_decomposition",
    "sweep",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class ThermoCurve:
    """A two-level sweep at ``epsilon0``: ``points`` is a read-only record
    array, one row per grid point, of float64 fields ``beta_c``, ``u`` and
    ``heat_capacity``.  An array has no tuple equality, so curves compare
    by identity."""

    epsilon0: float
    points: np.recarray


@dataclass(frozen=True)
class BetaDecomposition:
    """Finite-difference split of the inverse temperature.

    ``beta`` differentiates the block entropy, ``beta_incoherent`` the
    entropy of the dephased block, and ``beta_coherence`` the coherence
    itself, all with respect to the block energy; the first equals the
    difference of the other two up to the reported truncation bound.
    """

    beta: float
    beta_incoherent: float
    beta_coherence: float
    truncation_bound: float

    @property
    def identity_residual(self) -> float:
        return abs(self.beta - self.beta_incoherent + self.beta_coherence)


def _as_epsilon0(epsilon0) -> float:
    """eps0 as a float when it is a finite real number above 0, else DomainError."""
    if not (epsilon0 := _as_real(epsilon0, "single-flip energy")) > 0:
        raise DomainError(f"single-flip energy must be positive and finite, got {epsilon0}")
    return epsilon0


def internal_energy(N: int, n: int, m: int, epsilon0: float) -> float:
    """Mean block energy n m eps0 / N: q eps0 averaged over the sector law."""
    admissible_q(N, n, m)
    return n * m * _as_epsilon0(epsilon0) / N


def coherence_density(u: float, epsilon0: float) -> float:
    """Large-chain coherence per site, s(u / eps0) in nats."""
    epsilon0, u = _as_epsilon0(epsilon0), _as_real(u, "energy density")
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    return binary_entropy(u / epsilon0)


def beta_c(u: float, epsilon0: float) -> float:
    """Coherence inverse temperature ln(eps0/u - 1) / eps0.

    Positive below half filling, zero at u = eps0/2, negative above;
    the band edges are signalled as signed divergences.
    """
    epsilon0, u = _as_epsilon0(epsilon0), _as_real(u, "energy density")
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    if u == 0.0:
        raise DivergenceError("beta_c -> +infinity at the empty band edge", sign=+1)
    if u == epsilon0:
        raise DivergenceError("beta_c -> -infinity at the full band edge", sign=-1)
    return math.log(epsilon0 / u - 1.0) / epsilon0


def _two_level(beta: np.ndarray, epsilon0: float) -> tuple[np.ndarray, np.ndarray]:
    """(energy density, heat capacity) arrays over a finite float64 beta array.

    Both come from the one e = exp(-|x|) at x = eps0 beta:
    u = eps0 e / (1 + e) for x >= 0 and eps0 / (1 + e) below, and
    C = x^2 e / (1 + e)^2.  e is taken per point by ``math.exp``, whose
    last bit ``np.exp`` does not always reproduce; every other step is
    one float64 operation in that formula's order.  Where e underflows
    to 0, |x| > 745 and C is 0: x^2 may overflow there, and inf times
    e = 0 would be NaN.  Elsewhere x^2 < 6e5 is finite.
    """
    # overflow, and the NaN of inf times 0, arise only where e = 0
    with np.errstate(over="ignore", invalid="ignore"):
        x = epsilon0 * beta
        e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), dtype=np.float64, count=x.size)
        r = 1.0 + e
        # eps0 * 1.0 is eps0, so the x < 0 branch is eps0 / r bit for bit
        u = epsilon0 * np.where(x >= 0.0, e, 1.0) / r
        c = x * x * e / (r * r)
    c[e == 0.0] = 0.0
    return u, c


def energy_from_beta(beta: float, epsilon0: float) -> float:
    """Logistic energy density eps0 / (exp(eps0 beta) + 1); inverse of beta_c."""
    epsilon0, beta = _as_epsilon0(epsilon0), _as_real(beta, "inverse temperature")
    return float(_two_level(np.array([beta], dtype=np.float64), epsilon0)[0][0])


def heat_capacity(beta: float, epsilon0: float) -> float:
    """Schottky form (eps0 beta)^2 exp(-eps0 beta) / (1 + exp(-eps0 beta))^2.

    Evaluated through exp(-|eps0 beta|) only, so it is finite, even in
    beta, and vanishes at both temperature extremes: it is exactly 0
    once exp(-|eps0 beta|) underflows.
    """
    epsilon0, beta = _as_epsilon0(epsilon0), _as_real(beta, "inverse temperature")
    return float(_two_level(np.array([beta], dtype=np.float64), epsilon0)[1][0])


def schottky_peak(epsilon0: float) -> tuple[float, float]:
    """Locate the heat-capacity maximum; returns (beta_peak, peak_value).

    Golden-section search on the dimensionless variable x = eps0 beta,
    so the peak position scales as 1/eps0 while the peak height does
    not depend on eps0 at all.
    """
    epsilon0 = _as_epsilon0(epsilon0)
    a, b = 0.5, 8.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = heat_capacity(c, 1.0), heat_capacity(d, 1.0)
    while b - a > 1e-10:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = heat_capacity(c, 1.0)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = heat_capacity(d, 1.0)
    x = 0.5 * (a + b)
    return x / epsilon0, heat_capacity(x, 1.0)


def finite_size_coherence_density(N: int, n: int, m: int) -> float:
    """Exact coherence per site of an n-site single-mode block.

    Averages ln C(n, q) over the sector law and divides by n; converges
    to the binary entropy s(m / N) as the chain grows at fixed filling.
    """
    law = sector_law(N, n, m)
    return float(law.p @ law.log_dim) / n


def _sector_entropies(N: int, n: int, m: int) -> tuple[float, float]:
    # (block entropy, block coherence) of the single-mode reduction
    law = sector_law(N, n, m)
    return -float(law.p @ law.log_p), float(law.p @ law.log_dim)


def beta_decomposition(N: int, n: int, m: int, epsilon0: float) -> BetaDecomposition:
    """Split beta = beta_incoherent - beta_coherence by centered differences.

    Block energy moves in exact steps of n eps0 / N when the flip count
    changes by one, so derivatives are taken over one flip either way,
    and the truncation bound is estimated by comparing that stencil with
    the two-flip one.  Integer-valued floats N, n and m are taken as
    their integers.
    """
    epsilon0 = _as_epsilon0(epsilon0)
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    if m < 2 or m + 2 > N:
        raise DomainError(f"centered differences need m within [2, N - 2]; got m={m}, N={N}")
    values = {}
    for shift in (-2, -1, 1, 2):
        mm = m + shift
        entropy, avg_log = _sector_entropies(N, n, mm)
        values[shift] = (entropy, entropy + avg_log, avg_log, internal_energy(N, n, mm, epsilon0))

    def slope(component: int, h: int) -> float:
        du = values[h][3] - values[-h][3]
        return (values[h][component] - values[-h][component]) / du

    beta = slope(0, 1)
    beta_incoherent = slope(1, 1)
    beta_coherence = slope(2, 1)
    bound = sum(abs(slope(i, 1) - slope(i, 2)) / 3.0 for i in range(3))
    bound += 1e-13 * (1.0 + abs(beta) + abs(beta_incoherent) + abs(beta_coherence))
    return BetaDecomposition(beta, beta_incoherent, beta_coherence, bound)


def sweep(epsilon0: float, beta_min: float, beta_max: float, count: int) -> ThermoCurve:
    """Tabulate (beta, u, heat capacity) on a uniform beta grid, as the
    points of one ThermoCurve at ``epsilon0``.

    The inputs are checked once; the whole grid then goes through one
    array evaluation of the two-level law, which gives each point the
    same bits as ``energy_from_beta`` and ``heat_capacity``.  The grid
    and the two arrays become the columns of the curve's record array.
    """
    epsilon0 = _as_epsilon0(epsilon0)
    count = _as_int(count, "point count")
    if count < 1:
        raise DomainError(f"point count must be a positive integer, got {count!r}")
    # a NaN endpoint fails the order test too, so finiteness is tested first
    try:
        beta_min, beta_max = _as_real(beta_min, "beta_min"), _as_real(beta_max, "beta_max")
    except DomainError:
        raise DomainError("sweep endpoints must be finite") from None
    if count > 1 and not beta_min < beta_max:
        raise DomainError(f"need beta_min < beta_max, got [{beta_min}, {beta_max}]")
    # finite endpoints can still overflow linspace's step; that is
    # reported as the non-finite grid point below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(beta_min, beta_max, count) if count > 1 else np.array([beta_min])
    finite = np.isfinite(grid)
    if not finite.all():
        # refuses the first non-finite grid point
        _as_real(grid[~finite][0], "inverse temperature")
    u, c = _two_level(grid, epsilon0)
    points = np.rec.fromarrays((grid, u, c), names=("beta_c", "u", "heat_capacity"))
    points.flags.writeable = False
    return ThermoCurve(epsilon0, points)
