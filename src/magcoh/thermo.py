"""Two-level coherence thermodynamics of single-mode magnon blocks.

An n-site block of an N-chain carrying m same-mode flips holds q of
them with hypergeometric probability, at energy cost q times the
single-flip energy eps0.  Per site this gives energy density
u = m eps0 / N, and for long chains the coherence per site approaches
the binary entropy s(u / eps0), so the conjugate temperature and the
heat capacity are exactly those of a classical two-level gas: the
energy density follows the logistic curve in beta and the heat
capacity shows the Schottky peak near eps0 beta ~ 2.4.

Inverse temperatures carry units of inverse energy; entropic
quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinat import admissible_q, binary_entropy, sector_law
from .errors import DivergenceError, DomainError

__all__ = [
    "ThermoPoint",
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


@dataclass(frozen=True)
class ThermoPoint:
    beta_c: float
    u: float
    heat_capacity: float
    epsilon0: float


@dataclass(frozen=True)
class ThermoCurve:
    points: tuple[ThermoPoint, ...]
    beta_min: float
    beta_max: float
    count: int


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


def _check_epsilon0(epsilon0: float) -> None:
    if not epsilon0 > 0 or math.isinf(epsilon0):
        raise DomainError(f"single-flip energy must be positive and finite, got {epsilon0}")


def internal_energy(N: int, n: int, m: int, epsilon0: float) -> float:
    """Mean block energy n m eps0 / N: q eps0 averaged over the sector law."""
    admissible_q(N, n, m)
    _check_epsilon0(epsilon0)
    return n * m * epsilon0 / N


def coherence_density(u: float, epsilon0: float) -> float:
    """Large-chain coherence per site, s(u / eps0) in nats."""
    _check_epsilon0(epsilon0)
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    return binary_entropy(u / epsilon0)


def beta_c(u: float, epsilon0: float) -> float:
    """Coherence inverse temperature ln(eps0/u - 1) / eps0.

    Positive below half filling, zero at u = eps0/2, negative above;
    the band edges are signalled as signed divergences.
    """
    _check_epsilon0(epsilon0)
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    if u == 0.0:
        raise DivergenceError("beta_c -> +infinity at the empty band edge", sign=+1)
    if u == epsilon0:
        raise DivergenceError("beta_c -> -infinity at the full band edge", sign=-1)
    return math.log(epsilon0 / u - 1.0) / epsilon0


def _check_beta(beta: float) -> None:
    if not math.isfinite(beta):
        raise DomainError(f"inverse temperature must be finite, got {beta}")


def _two_level(beta: float, epsilon0: float) -> tuple[float, float]:
    # (energy density, heat capacity) at x = eps0 beta from the one
    # e = exp(-|x|): u = eps0 e / (1 + e) for x >= 0, eps0 / (1 + e) below
    x = epsilon0 * beta
    e = math.exp(-abs(x))
    r = 1.0 + e
    return (epsilon0 * e / r if x >= 0.0 else epsilon0 / r), x * x * e / (r * r)


def energy_from_beta(beta: float, epsilon0: float) -> float:
    """Logistic energy density eps0 / (exp(eps0 beta) + 1); inverse of beta_c."""
    _check_epsilon0(epsilon0)
    _check_beta(beta)
    return _two_level(beta, epsilon0)[0]


def heat_capacity(beta: float, epsilon0: float) -> float:
    """Schottky form (eps0 beta)^2 exp(-eps0 beta) / (1 + exp(-eps0 beta))^2.

    Evaluated through exp(-|eps0 beta|) only, so it is finite, even in
    beta, and vanishes at both temperature extremes.
    """
    _check_epsilon0(epsilon0)
    _check_beta(beta)
    return _two_level(beta, epsilon0)[1]


def schottky_peak(epsilon0: float) -> tuple[float, float]:
    """Locate the heat-capacity maximum; returns (beta_peak, peak_value).

    Golden-section search on the dimensionless variable x = eps0 beta,
    so the peak position scales as 1/eps0 while the peak height does
    not depend on eps0 at all.
    """
    _check_epsilon0(epsilon0)
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


def beta_decomposition(N: int, n: int, m: int, epsilon0: float, dm: int = 1) -> BetaDecomposition:
    """Split beta = beta_incoherent - beta_coherence by centered differences.

    Block energy moves in exact steps of n eps0 / N when the flip count
    changes by one, so derivatives are taken over integer steps dm and
    the truncation bound is estimated by comparing the dm and 2 dm
    stencils.
    """
    _check_epsilon0(epsilon0)
    if int(dm) != dm or dm < 1:
        raise DomainError(f"difference step must be a positive integer, got {dm!r}")
    if m - 2 * dm < 0 or m + 2 * dm > N:
        raise DomainError(
            f"centered differences need m within [2 dm, N - 2 dm]; got m={m}, dm={dm}, N={N}"
        )
    values = {}
    for shift in (-2 * dm, -dm, dm, 2 * dm):
        mm = m + shift
        entropy, avg_log = _sector_entropies(N, n, mm)
        values[shift] = (entropy, entropy + avg_log, avg_log, internal_energy(N, n, mm, epsilon0))

    def slope(component: int, h: int) -> float:
        du = values[h][3] - values[-h][3]
        return (values[h][component] - values[-h][component]) / du

    beta = slope(0, dm)
    beta_incoherent = slope(1, dm)
    beta_coherence = slope(2, dm)
    bound = sum(abs(slope(i, dm) - slope(i, 2 * dm)) / 3.0 for i in range(3))
    bound += 1e-13 * (1.0 + abs(beta) + abs(beta_incoherent) + abs(beta_coherence))
    return BetaDecomposition(beta, beta_incoherent, beta_coherence, bound)


def sweep(epsilon0: float, beta_min: float, beta_max: float, count: int) -> ThermoCurve:
    """Tabulate (beta, u, heat capacity) on a uniform beta grid.

    The inputs are checked once; each point is then one two-level
    evaluation, the same bits as ``energy_from_beta`` and
    ``heat_capacity``.
    """
    _check_epsilon0(epsilon0)
    if int(count) != count or count < 1:
        raise DomainError(f"point count must be a positive integer, got {count!r}")
    if count > 1 and not beta_min < beta_max:
        raise DomainError(f"need beta_min < beta_max, got [{beta_min}, {beta_max}]")
    if not (math.isfinite(beta_min) and math.isfinite(beta_max)):
        raise DomainError("sweep endpoints must be finite")
    # finite endpoints can still overflow linspace's step; that is
    # reported as the non-finite grid point below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(beta_min, beta_max, count) if count > 1 else np.array([beta_min])
    finite = np.isfinite(grid)
    if not finite.all():
        _check_beta(float(grid[~finite][0]))
    points = tuple(ThermoPoint(b, *_two_level(b, epsilon0), epsilon0) for b in grid.tolist())
    return ThermoCurve(points, beta_min, beta_max, count)
