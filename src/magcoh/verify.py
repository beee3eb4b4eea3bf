"""Self-checking invariant suite behind the ``verify`` subcommand.

Each family probes one identity or bound the package relies on, from
combinatorial normalisation up to the two-level thermodynamic limit,
and reports its worst residual.  Equality families report the largest
deviation; inequality and trend families report the largest violation,
so a satisfied bound shows residual zero no matter how much margin it
has.  Everything is driven by one seeded generator, so a given
(N, m, seed) triple always produces the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coherence as coh
from . import thermo
from .combinat import (
    _as_int,
    admissible_q,
    enumerate_combinations,
    hypergeometric_pmf,
    log_binomial,
    rank_combination,
    unrank_combination,
)
from .errors import DomainError, NullStateError
from .magnon_state import (
    MagnonStateSpec,
    MomentumVector,
    _direct_permanents,
    _ryser_permanents,
    apply_hamiltonian,
    build_state,
    dispersion,
    embed_full,
    single_mode_state,
)
from .reduced_density import (
    SubsystemSpec,
    oracle_partial_trace,
    reduce,
    reduce_single_mode,
)
from .thermo import _two_level

__all__ = ["FamilyResult", "run_suite", "FAMILY_NAMES"]


@dataclass(frozen=True)
class FamilyResult:
    name: str
    passed: bool
    max_residual: float
    detail: str


def _done(residual: float, tol: float, detail: str = "") -> tuple[bool, float, str]:
    # (passed, max_residual, detail); run_suite adds the family's name
    return residual <= tol, float(residual), detail or f"tolerance {tol:g}"


def _random_state(rng, N: int, m: int):
    for _ in range(32):
        idx = tuple(int(x) for x in rng.integers(0, N, size=m))
        try:
            return build_state(MagnonStateSpec(N, m, MomentumVector(N, idx)))
        except NullStateError:
            continue
    raise NullStateError(f"could not draw a non-null momentum choice for N={N}, m={m}")


def _random_sites(rng, N: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(int(s) + 1 for s in rng.choice(N, size=n, replace=False)))


def _random_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _eigenstate_residual(N: int, indices: tuple[int, ...]) -> float:
    spec = MagnonStateSpec(N, len(indices), MomentumVector(N, indices))
    vec = embed_full(build_state(spec))
    energy = -spec.J * N + sum(dispersion(spec.J, 2.0 * math.pi * j / N) for j in indices)
    out = apply_hamiltonian(vec, spec.J)
    return float(np.linalg.norm(out.entries - energy * vec.entries))


def _compare_blocks(left, right) -> float:
    worst = 0.0
    for q in sorted(set(left.blocks) | set(right.blocks)):
        a = left.blocks.get(q)
        b = right.blocks.get(q)
        if a is None:
            worst = max(worst, float(np.abs(b).max()))
        elif b is None:
            worst = max(worst, float(np.abs(a).max()))
        else:
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


# ---------------------------------------------------------------- combinat

def _fam_hypergeometric_normalization(N, m, rng):
    worst = 0.0
    for nn, bn, bm in ((12, 5, 3), (40, 13, 7), (200, 81, 45), (1000, 137, 41)):
        total = sum(hypergeometric_pmf(nn, bn, bm, q) for q in admissible_q(nn, bn, bm))
        worst = max(worst, abs(total - 1.0))
    return _done(worst, 1e-12)


def _fam_hypergeometric_symmetry(N, m, rng):
    worst = 0.0
    for nn, bn, bm in ((12, 5, 3), (30, 11, 7), (200, 45, 81)):
        for q in admissible_q(nn, bn, bm):
            worst = max(worst, abs(hypergeometric_pmf(nn, bn, bm, q) - hypergeometric_pmf(nn, bm, bn, q)))
    return _done(worst, 1e-12)


def _fam_binomial_log_agreement(N, m, rng):
    worst = 0.0
    # lgamma[j] = ln Gamma(j + 1), the same value as a call per (n, k) pair
    lgamma = [math.lgamma(j + 1) for j in range(65)]
    for nn in range(1, 65):
        for kk in range(nn + 1):
            exact = math.log(math.comb(nn, kk))
            gamma = lgamma[nn] - lgamma[kk] - lgamma[nn - kk]
            worst = max(worst, abs(gamma - exact) / max(1.0, abs(exact)))
    return _done(worst, 1e-10)


def _fam_combination_enumeration(N, m, rng):
    seq = enumerate_combinations(6, 3)
    bad = 0.0
    if len(seq) != 20 or len(set(seq)) != 20 or seq != sorted(seq):
        bad = 1.0
    for r, l in enumerate(seq):
        if rank_combination(l, 6) != r or unrank_combination(r, 6, 3) != l:
            bad = 1.0
    return _done(bad, 0.0, "lexicographic order and rank round trip")


# ------------------------------------------------------------- state layer

def _fam_state_normalization(N, m, rng):
    worst = max(abs(_random_state(rng, N, m).norm() - 1.0) for _ in range(5))
    return _done(worst, 1e-10)


def _fam_permanent_consistency(N, m, rng):
    # both reference kernels on one site list, as a one-row int64 table
    worst = 0.0
    for mm in range(2, 8):
        k = tuple(int(x) for x in rng.integers(0, 12, size=mm))
        scale = float(math.factorial(mm))
        for _ in range(8):
            sites = np.array([_random_sites(rng, 12, mm)], dtype=np.int64)
            direct = complex(_direct_permanents(k, 12, sites)[0])
            ryser = complex(_ryser_permanents(k, 12, sites)[0])
            worst = max(worst, abs(direct - ryser) / scale)
    return _done(worst, 1e-10)


def _fam_single_mode_consistency(N, m, rng):
    worst = 0.0
    for idx in {0, 1, N // 2}:
        built = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, idx, m)))
        direct = single_mode_state(N, m, 2.0 * math.pi * idx / N)
        anchor = int(np.argmax(np.abs(built.amplitudes)))
        phase = built.amplitudes[anchor] / direct.amplitudes[anchor]
        worst = max(worst, float(np.abs(built.amplitudes - phase * direct.amplitudes).max()))
    return _done(worst, 1e-10)


def _fam_one_magnon_eigenstate(N, m, rng):
    worst = max(_eigenstate_residual(N, (j,)) for j in range(N))
    return _done(worst, 1e-12)


def _fam_dilute_eigenstate_trend(N, m, rng):
    residuals = [_eigenstate_residual(nn, (1, 3)) for nn in (8, 10, 12, 14)]
    worst = max(0.0, max(b - a for a, b in zip(residuals, residuals[1:])))
    note = "two-flip residuals " + ", ".join(f"{r:.3e}" for r in residuals)
    return _done(worst, 0.0, note)


def _fam_translation_covariance(N, m, rng):
    state = _random_state(rng, N, m)
    phase = np.exp(1j * state.spec.k.values.sum())
    worst = 0.0
    for r, l in enumerate(state.basis()):
        shifted = tuple(sorted(s % N + 1 for s in l))
        got = state.amplitudes[rank_combination(shifted, N)]
        worst = max(worst, abs(got - phase * state.amplitudes[r]))
    return _done(worst, 1e-10)


# --------------------------------------------------------------- reduction

def _fam_oracle_equivalence(N, m, rng):
    worst = 0.0
    for _ in range(8):
        state = _random_state(rng, N, m)
        n = int(rng.integers(1, min(N - 1, 10) + 1))
        sub = SubsystemSpec(N, _random_sites(rng, N, n))
        worst = max(worst, _compare_blocks(reduce(state, sub), oracle_partial_trace(embed_full(state), sub)))
    return _done(worst, 1e-10, "8 random subsystems")


def _fam_block_weight_law(N, m, rng):
    state = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 1, m)))
    n = max(1, N // 2)
    weights = reduce(state, SubsystemSpec.prefix(N, n)).block_weights
    worst = max(abs(w - hypergeometric_pmf(N, n, m, q)) for q, w in weights.items())
    return _done(worst, 1e-10)


def _fam_purity_monotone(N, m, rng):
    worst = 0.0
    for _ in range(4):
        state = _random_state(rng, N, m)
        n = int(rng.integers(1, N))
        reduced = reduce(state, SubsystemSpec(N, _random_sites(rng, N, n)))
        worst = max(worst, reduced.purity() - 1.0)
    full = reduce(_random_state(rng, N, m), SubsystemSpec.prefix(N, N))
    worst = max(worst, abs(full.purity() - 1.0))
    return _done(worst, 1e-10, "reductions stay mixed, full chain stays pure")


def _fam_complementarity(N, m, rng):
    state = _random_state(rng, N, m)
    sub = SubsystemSpec(N, _random_sites(rng, N, N // 2))
    co = SubsystemSpec(N, sub.complement)
    vec = embed_full(state)
    left = oracle_partial_trace(vec, sub).spectrum()
    right = oracle_partial_trace(vec, co).spectrum()
    keep = max(len(left[left > 1e-12]), len(right[right > 1e-12]))
    worst = float(np.abs(left[:keep] - right[:keep]).max())
    return _done(worst, 1e-8, "matching nonzero spectra of complementary blocks")


def _fam_single_mode_contiguity(N, m, rng):
    state = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 1, m)))
    n = max(2, N // 2)
    block = reduce(state, SubsystemSpec.prefix(N, n))
    scattered = reduce(state, SubsystemSpec(N, _random_sites(rng, N, n)))
    worst = max(
        float(np.abs(np.abs(block.blocks[q]) - np.abs(scattered.blocks[q])).max())
        for q in block.q_values
    )
    return _done(worst, 1e-10, "entry moduli ignore where the block sits")


# --------------------------------------------------------------- coherence

def _fam_zero_iff_diagonal(N, m, rng):
    diag = np.diag(rng.random(6) + 0.1)
    diag = diag / np.trace(diag)
    flat = max(coh.c_l1(diag), coh.c_r(diag), coh.c_ln(diag))
    rho = _random_density(rng, 6)
    alive = min(coh.c_l1(rho), coh.c_r(rho), coh.c_ln(rho))
    ok = flat <= 1e-14 and alive > 1e-10
    return ok, flat, f"smallest off-diagonal response {alive:.3e}"


def _fam_coherence_upper_bounds(N, m, rng):
    worst = 0.0
    for d in (4, 5, 6):
        rho = _random_density(rng, d)
        worst = max(worst, coh.c_r(rho) - math.log(d), coh.c_l1(rho) - (d - 1.0))
        top = np.full((d, d), 1.0 / d, dtype=np.complex128)
        worst = max(worst, abs(coh.c_r(top) - math.log(d)), abs(coh.c_l1(top) - (d - 1.0)))
    return _done(worst, 1e-10)


def _fam_partial_trace_contractivity(N, m, rng):
    worst = 0.0
    for _ in range(3):
        state = _random_state(rng, N, m)
        parent = coh.coherence_report(reduce(state, SubsystemSpec.prefix(N, N)))
        for n in (1, N // 2, N - 1):
            child = coh.coherence_report(reduce(state, SubsystemSpec(N, _random_sites(rng, N, n))))
            worst = max(
                worst,
                child.c_l1 - parent.c_l1,
                child.c_r - parent.c_r,
                child.c_ln - parent.c_ln,
            )
    return _done(max(0.0, worst), 1e-10)


def _fam_convexity(N, m, rng):
    worst = 0.0
    for _ in range(4):
        a, b = _random_density(rng, 6), _random_density(rng, 6)
        for lam in (0.25, 0.5, 0.75):
            mix = lam * a + (1.0 - lam) * b
            worst = max(worst, coh.c_l1(mix) - (lam * coh.c_l1(a) + (1 - lam) * coh.c_l1(b)))
            worst = max(worst, coh.c_r(mix) - (lam * coh.c_r(a) + (1 - lam) * coh.c_r(b)))
    return _done(max(0.0, worst), 1e-10)


def _fam_averaged_identity(N, m, rng):
    worst = 0.0
    k = 2.0 * math.pi / N
    for n in {1, N // 2, N - 1, N}:
        for mm in {1, 2, max(1, N // 3)}:
            reduced = reduce_single_mode(N, n, mm, k)
            worst = max(worst, abs(coh.c_r(reduced) - coh.averaged_coherence_single_mode(N, n, mm, k, "r")))
            worst = max(worst, abs(coh.c_l1(reduced) - coh.averaged_coherence_single_mode(N, n, mm, k, "l1")))
    return _done(worst, 1e-10)


def _fam_effective_dimension_multiplicativity(N, m, rng):
    worst = 0.0
    for d1, d2 in ((2, 3), (3, 4)):
        top = np.kron(np.full((d1, d1), 1.0 / d1), np.full((d2, d2), 1.0 / d2)).astype(np.complex128)
        worst = max(worst, abs(coh.effective_dimension(top) - d1 * d2))
        worst = max(worst, abs(coh.c_ln(top) - math.log(d1) - math.log(d2)))
    return _done(worst, 1e-10)


# ------------------------------------------------------------------ thermo

def _fam_thermo_inverse_pair(N, m, rng):
    worst = 0.0
    for eps in (1.0, 3.5):
        us = np.linspace(0.01, 0.99, 99) * eps
        betas = np.array([thermo.beta_c(u, eps) for u in us])
        worst = max(worst, float(np.abs(_two_level(betas, eps)[0] - us).max()))
    return _done(worst, 1e-12)


def _fam_heat_capacity_limits(N, m, rng):
    eps = 2.0
    grid = np.linspace(-40.0, 40.0, 161) / eps
    values = _two_level(grid, eps)[1]
    mirrored = _two_level(-grid, eps)[1]
    at_zero, hot, cold = _two_level(np.array([0.0, 50.0 / eps, -50.0 / eps]), eps)[1].tolist()
    worst = max(0.0, -float(values.min()), at_zero, hot, cold, float(np.abs(values - mirrored).max()))
    return _done(worst, 1e-12, "non-negative, even, vanishing at both extremes")


def _fam_negative_temperature_branch(N, m, rng):
    eps = 1.3
    bad = 0.0
    for u in np.linspace(0.02, 0.98, 49) * eps:
        beta = thermo.beta_c(float(u), eps)
        want = math.copysign(1.0, eps / 2.0 - u)
        if u != eps / 2.0 and math.copysign(1.0, beta) != want:
            bad = 1.0
    bad = max(bad, abs(thermo.beta_c(eps / 2.0, eps)))
    return _done(bad, 1e-12, "sign of beta flips exactly at half filling")


def _fam_energy_monotone_in_beta(N, m, rng):
    eps = 0.9
    grid = np.linspace(-30.0, 30.0, 301) / eps
    u = _two_level(grid, eps)[0]
    worst = max(0.0, float(np.diff(u).max()))
    return _done(worst, 0.0, "energy density strictly falls with beta")


def _fam_two_level_correspondence(N, m, rng):
    eps = 1.7
    worst = 0.0
    h = 1e-5 * eps
    for u in np.linspace(0.2, 0.8, 13) * eps:
        slope = (thermo.coherence_density(u + h, eps) - thermo.coherence_density(u - h, eps)) / (2 * h)
        worst = max(worst, abs(thermo.beta_c(float(u), eps) - slope))
    betas = np.array([-1.5, -0.4, 0.3, 0.9, 2.2])
    t = 1.0 / betas
    dt = 1e-5 * np.abs(t)
    # rows: the energy on both sides of each temperature, the heat capacity at it
    u, c = (a.reshape(3, -1) for a in _two_level(np.concatenate([1.0 / (t + dt), 1.0 / (t - dt), betas]), eps))
    worst = max(worst, float(np.abs(c[2] - (u[0] - u[1]) / (2 * dt)).max()))
    return _done(worst, 1e-6, "beta and heat capacity match the numeric derivatives")


def _fam_coherence_density_intensivity(N, m, rng):
    limit = thermo.coherence_density(0.15, 1.0)
    devs = [abs(thermo.finite_size_coherence_density(40 * s, 16 * s, 6 * s) - limit) for s in (1, 2, 4)]
    worst = max(0.0, max(b - a for a, b in zip(devs, devs[1:])))
    note = "deviations from the limit " + ", ".join(f"{d:.3e}" for d in devs)
    return _done(worst, 0.0, note)


# the suite is every _fam_ function, in definition order, which is the printed order
_FAMILIES = {
    name[len("_fam_"):].replace("_", "-"): fn for name, fn in list(globals().items()) if name.startswith("_fam_")
}
FAMILY_NAMES = tuple(_FAMILIES)


def run_suite(N: int = 8, m: int = 2, seed: int = 7) -> list[FamilyResult]:
    """Run every invariant family on an (N, m) working point.

    N is capped at 14 because several families go through the dense
    2^N oracle; m must leave room for a proper subsystem, and the seed
    must be non-negative, as numpy's generator requires.  N, m and the
    seed are read by ``_as_int``, so integer-valued floats and numpy
    integers run the suite of their ints, and any other value is a
    DomainError.
    """
    N, m, seed = _as_int(N, "N"), _as_int(m, "m"), _as_int(seed, "seed")
    if seed < 0:
        raise DomainError(f"suite needs a non-negative seed, got seed={seed}")
    if not 4 <= N <= 14:
        raise DomainError(f"suite needs 4 <= N <= 14 for the dense oracle families, got N={N}")
    if not 1 <= m <= N - 1:
        raise DomainError(f"suite needs 1 <= m <= N - 1, got m={m}")
    rng = np.random.default_rng(seed)
    return [FamilyResult(name, *family(N, m, rng)) for name, family in _FAMILIES.items()]
