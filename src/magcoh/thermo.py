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
import sys
from dataclasses import dataclass

import numpy as np

from .combinat import _as_int, _as_real, _finite, _int_text, admissible_q, binary_entropy, sector_law
from .errors import DivergenceError, DomainError, InfeasibilityError

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

# x = eps0 beta at the heat-capacity maximum.  With y = x / 2 the heat
# capacity is y^2 / cosh^2 y, stationary where y tanh y = 1, that is
# x tanh(x / 2) = 2; this is the float nearest its positive root.
_SCHOTTKY_X = 2.3993572805154675


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
    """Mean block energy n m eps0 / N: q eps0 averaged over the sector law.

    N, n and m are read as Python integers, so a numpy integer's product
    n m cannot overflow.  Where n m, N or the float expression leaves the
    float range, or the float expression underflows to 0 for n m > 0, the
    mean is taken in exact integers; a mean past the float range, or a
    nonzero one that rounds to 0, is an InfeasibilityError.
    """
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    admissible_q(N, n, m)
    epsilon0 = _as_epsilon0(epsilon0)
    name = f"mean block energy at N={_int_text(N)}"
    try:
        energy = n * m * epsilon0 / N
        if energy == math.inf:
            # n m eps0 can overflow where the mean, at most m eps0, does not
            energy = n * m / N * epsilon0
    except OverflowError:
        energy = math.inf
    if energy == math.inf or energy == 0.0 < n * m:
        # n m, N or n m / N past the float range, or a nonzero mean that
        # underflowed: the mean as one correctly rounded integer quotient,
        # eps0 = p / q exactly, refused where it overflows too or rounds to 0
        p, q = epsilon0.as_integer_ratio()
        try:
            energy = n * m * p / (N * q)
        except OverflowError:
            energy = math.inf
        if energy == 0.0 < n * m:
            energy = math.inf
    return _finite(energy, name)


def coherence_density(u: float, epsilon0: float) -> float:
    """Large-chain coherence per site, s(u / eps0) in nats."""
    epsilon0, u = _as_epsilon0(epsilon0), _as_real(u, "energy density")
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    return binary_entropy(u / epsilon0)


def beta_c(u: float, epsilon0: float) -> float:
    """Coherence inverse temperature ln(eps0/u - 1) / eps0.

    Positive below half filling, zero at u = eps0/2, negative above;
    the band edges are signalled as signed divergences.  Where eps0/u
    overflows, the log is taken as ln(eps0 - u) - ln(u); a result past
    the float range is an InfeasibilityError.
    """
    epsilon0, u = _as_epsilon0(epsilon0), _as_real(u, "energy density")
    if not 0.0 <= u <= epsilon0:
        raise DomainError(f"energy density must lie in [0, {epsilon0}], got {u}")
    if u == 0.0:
        raise DivergenceError("beta_c -> +infinity at the empty band edge", sign=+1)
    if u == epsilon0:
        raise DivergenceError("beta_c -> -infinity at the full band edge", sign=-1)
    ratio = epsilon0 / u
    log_odds = math.log(ratio - 1.0) if ratio < math.inf else math.log(epsilon0 - u) - math.log(u)
    return _finite(log_odds / epsilon0, "beta_c")


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
    """Heat-capacity maximum; returns (beta_peak, peak_value).

    The peak sits at x = eps0 beta = ``_SCHOTTKY_X``, so its position
    scales as 1/eps0 while its height does not depend on eps0 at all; a
    position past the float range is an InfeasibilityError.
    """
    return _finite(_SCHOTTKY_X / _as_epsilon0(epsilon0), "heat-capacity peak beta"), heat_capacity(_SCHOTTKY_X, 1.0)


def finite_size_coherence_density(N: int, n: int, m: int) -> float:
    """Exact coherence per site of an n-site single-mode block.

    Averages ln C(n, q) over the sector law and divides by n; converges
    to the binary entropy s(m / N) as the chain grows at fixed filling.
    The sum runs over the law's float support (``sector_law``), which
    drops only weights that are exactly 0.0, so a chain of 1e8 sites
    sums about 2e5 sectors rather than 3e7.
    """
    law = sector_law(N, n, m)
    return float(law.p @ law.log_dim) / _as_int(n, "n")


def beta_decomposition(N: int, n: int, m: int, epsilon0: float) -> BetaDecomposition:
    """Split beta = beta_incoherent - beta_coherence by centered differences.

    Block energy moves in exact steps of n eps0 / N when the flip count
    changes by one, so derivatives are taken over one flip either way,
    and the truncation bound is estimated by comparing that stencil with
    the two-flip one.  The block entropy -sum p ln p and the block
    coherence sum p ln C(n, q) at each shifted flip count are dot
    products over one ``sector_law``.  Integer-valued floats N, n and m
    are taken as their integers.  A field past the float range, as at an
    eps0 so small that 1/eps0 overflows, is an InfeasibilityError.
    """
    epsilon0 = _as_epsilon0(epsilon0)
    N, n, m = _as_int(N, "N"), _as_int(n, "n"), _as_int(m, "m")
    if m < 2 or m + 2 > N:
        raise DomainError(f"centered differences need m within [2, N - 2]; got m={_int_text(m)}, N={_int_text(N)}")
    values = {}
    for shift in (-2, -1, 1, 2):
        mm = m + shift
        law = sector_law(N, n, mm)
        entropy, avg_log = -float(law.p @ law.log_p), float(law.p @ law.log_dim)
        values[shift] = (entropy, entropy + avg_log, avg_log, internal_energy(N, n, mm, epsilon0))

    def slope(component: int, h: int) -> float:
        du = values[h][3] - values[-h][3]
        # an energy step that underflows to 0 leaves a slope past the float range
        return (values[h][component] - values[-h][component]) / du if du else math.inf

    beta = slope(0, 1)
    beta_incoherent = slope(1, 1)
    beta_coherence = slope(2, 1)
    bound = sum(abs(slope(i, 1) - slope(i, 2)) / 3.0 for i in range(3))
    bound += 1e-13 * (1.0 + abs(beta) + abs(beta_incoherent) + abs(beta_coherence))
    split = BetaDecomposition(beta, beta_incoherent, beta_coherence, bound)
    for name, value in vars(split).items():
        _finite(value, name)
    return split


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
        raise DomainError(f"point count must be a positive integer, got {_int_text(count)}")
    # the record array holds three float64 fields per point
    if 24 * count > sys.maxsize:
        raise InfeasibilityError(f"{_int_text(count)} points exceed the {sys.maxsize} bytes an array can index")
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
