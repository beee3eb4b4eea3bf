"""Acceptance gate: one test per criterion, each printing its verdict.

Every criterion re-derives its expectation from an independent route
(dense oracle, big-integer combinatorics, finite differences) and
checks the package against it at the stated tolerance, timing the
budgeted ones with perf_counter.
"""

import math
import time

import numpy as np
import pytest

from magcoh import (
    MagnonStateSpec,
    MomentumVector,
    NullStateError,
    SubsystemSpec,
    apply_hamiltonian,
    averaged_coherence_single_mode,
    beta_c,
    beta_decomposition,
    binary_entropy,
    build_state,
    c_l1,
    c_r,
    coherence_report,
    dispersion,
    energy_from_beta,
    finite_size_coherence_density,
    heat_capacity,
    hypergeometric_pmf,
    oracle_partial_trace,
    reduce,
    reduce_single_mode,
    schottky_peak,
)


def _verdict(capsys, idx, label, body):
    try:
        note = body()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {idx:02d} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {idx:02d} {label}: PASS ({note})")


def _random_state(rng, N, m):
    while True:
        idx = tuple(int(x) for x in rng.integers(0, N, size=m))
        try:
            return build_state(MagnonStateSpec(N, m, MomentumVector(N, idx)))
        except NullStateError:
            continue


def _random_sites(rng, N, n):
    return tuple(sorted(int(s) + 1 for s in rng.choice(N, size=n, replace=False)))


def _block_distance(left, right):
    worst = 0.0
    for q in set(left.blocks) | set(right.blocks):
        a = left.blocks.get(q)
        b = right.blocks.get(q)
        if a is None:
            worst = max(worst, float(np.abs(b).max()))
        elif b is None:
            worst = max(worst, float(np.abs(a).max()))
        else:
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


def test_c01_one_magnon_eigenstates(capsys):
    def body():
        start = time.perf_counter()
        worst = 0.0
        for N in range(4, 13):
            for j in range(N):
                spec = MagnonStateSpec(N, 1, MomentumVector(N, (j,)))
                state = build_state(spec)
                energy = -N + dispersion(1.0, 2.0 * math.pi * j / N)
                worst = max(worst, float(np.linalg.norm(apply_hamiltonian(state) - energy * state.amplitudes)))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, worst
        assert elapsed < 5.0, elapsed
        return f"worst residual {worst:.2e} over N=4..12, {elapsed:.2f}s"

    _verdict(capsys, 1, "one-magnon eigenstates are exact", body)


def test_c02_reduction_matches_the_dense_oracle(capsys):
    def body():
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        trials = 60
        for _ in range(trials):
            N = int(rng.integers(4, 13))
            m = int(rng.integers(1, 4))
            state = _random_state(rng, N, m)
            n = int(rng.integers(1, min(N - 1, 11) + 1))
            sub = SubsystemSpec(N, _random_sites(rng, N, n))
            got = reduce(state, sub)
            want = oracle_partial_trace(state, sub)
            worst = max(worst, _block_distance(got, want))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, worst
        assert elapsed < 60.0, elapsed
        return f"{trials} random specs, worst entry gap {worst:.2e}, {elapsed:.2f}s"

    _verdict(capsys, 2, "combinatorial reduction equals the dense trace", body)


def test_c03_single_site_blocks_are_incoherent(capsys):
    def body():
        rng = np.random.default_rng(3)
        worst = 0.0
        for N, m in ((5, 1), (8, 2), (10, 3), (12, 3)):
            state = _random_state(rng, N, m)
            site = int(rng.integers(1, N + 1))
            reduced = reduce(state, SubsystemSpec(N, (site,)))
            worst = max(worst, c_l1(reduced), c_r(reduced), coherence_report(reduced).c_ln)
        assert worst < 1e-14, worst
        return f"largest single-site measure {worst:.2e}"

    _verdict(capsys, 3, "single-site reductions carry no coherence", body)


def test_c04_full_chain_states_are_maximally_coherent(capsys):
    def body():
        worst = 0.0
        for N in range(4, 13):
            for m in range(1, min(4, N) + 1):
                state = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 1, m)))
                rho = reduce(state, SubsystemSpec.prefix(N, N))
                d = math.comb(N, m)
                worst = max(worst, abs(c_r(rho) - math.log(d)))
                worst = max(worst, abs(c_l1(rho) - (d - 1.0)))
        assert worst < 1e-10, worst
        return f"worst gap to (ln C, C-1) is {worst:.2e} up to N=12, m=4"

    _verdict(capsys, 4, "full-chain single-mode states saturate both measures", body)


def test_c05_sector_averaged_identities(capsys):
    def body():
        worst = 0.0
        for N in range(4, 13):
            k = 2.0 * math.pi / N
            for m in range(1, min(4, N) + 1):
                for n in range(1, N + 1):
                    reduced = reduce_single_mode(N, n, m, k)
                    worst = max(worst, abs(c_r(reduced) - averaged_coherence_single_mode(N, n, m, k, "r")))
                    worst = max(worst, abs(c_l1(reduced) - averaged_coherence_single_mode(N, n, m, k, "l1")))
        assert worst < 1e-10, worst
        return f"worst identity gap {worst:.2e} over every n, N=4..12, m<=4"

    _verdict(capsys, 5, "averaged coherence identities hold", body)


def test_c06_block_weights_follow_the_sector_law(capsys):
    def body():
        w = reduce_single_mode(4, 2, 2, 0.0).block_weights
        for q, want in ((0, 1.0 / 6.0), (1, 2.0 / 3.0), (2, 1.0 / 6.0)):
            assert abs(w[q] - want) < 1e-10, (q, w[q])
        worst = 0.0
        for N, n, m, idx in ((8, 3, 2, 1), (10, 4, 3, 2), (12, 5, 4, 1), (9, 9, 2, 3)):
            closed = reduce_single_mode(N, n, m, 2.0 * math.pi * idx / N).block_weights
            state = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, idx, m)))
            general = reduce(state, SubsystemSpec.prefix(N, n)).block_weights
            for q in closed:
                law = hypergeometric_pmf(N, n, m, q)
                worst = max(worst, abs(closed[q] - law), abs(general[q] - law))
        assert worst < 1e-10, worst
        return f"(4,2,2) -> (1/6, 2/3, 1/6); worst law gap {worst:.2e}"

    _verdict(capsys, 6, "block weights are hypergeometric", body)


def test_c07_measures_contract_under_reduction(capsys):
    def body():
        rng = np.random.default_rng(7)
        worst = -math.inf
        for _ in range(8):
            N = int(rng.integers(5, 11))
            m = int(rng.integers(1, 4))
            state = _random_state(rng, N, m)
            parent = coherence_report(reduce(state, SubsystemSpec.prefix(N, N)))
            for n in sorted({1, int(rng.integers(1, N)), N - 1}):
                child = coherence_report(reduce(state, SubsystemSpec(N, _random_sites(rng, N, n))))
                worst = max(
                    worst,
                    child.c_l1 - parent.c_l1,
                    child.c_r - parent.c_r,
                    child.c_ln - parent.c_ln,
                )
        assert worst < 1e-10, worst
        return f"largest child-minus-parent excess {worst:.2e} across all three measures"

    _verdict(capsys, 7, "coherence never grows under reduction", body)


def test_c08_thermodynamic_round_trip_and_derivative(capsys):
    def body():
        eps = 1.0
        worst_rt = 0.0
        for u in np.linspace(0.01, 0.99, 1000) * eps:
            worst_rt = max(worst_rt, abs(energy_from_beta(beta_c(float(u), eps), eps) - u))
        assert worst_rt < 1e-12, worst_rt
        worst_fd = 0.0
        eps = 2.3
        for beta in (-3.0, -1.2, -0.3, 0.5, 1.4, 2.8):
            t = 1.0 / beta
            dt = 1e-6 * abs(t)
            du = energy_from_beta(1.0 / (t + dt), eps) - energy_from_beta(1.0 / (t - dt), eps)
            worst_fd = max(worst_fd, abs(heat_capacity(beta, eps) - du / (2.0 * dt)))
        assert worst_fd < 1e-6, worst_fd
        return f"round trip {worst_rt:.2e} on 1000 points, derivative gap {worst_fd:.2e}"

    _verdict(capsys, 8, "temperature and energy invert each other", body)


def test_c09_schottky_peak_location_and_height(capsys):
    def body():
        heights = []
        worst = 0.0
        for eps in (0.5, 1.0, 8.0):
            beta_peak, height = schottky_peak(eps)
            worst = max(worst, abs(eps * beta_peak - 2.39936))
            heights.append(height)
        spread = max(heights) - min(heights)
        assert worst < 1e-4, worst
        assert spread < 1e-10, spread
        return f"eps0*beta off by {worst:.2e}, height spread {spread:.2e}"

    _verdict(capsys, 9, "Schottky anomaly sits at the two-level point", body)


def test_c10_coherence_density_reaches_its_limit(capsys):
    def body():
        start = time.perf_counter()
        limit = binary_entropy(0.1)
        devs = [abs(finite_size_coherence_density(N, N // 2, N // 10) - limit) for N in (40, 200, 1000)]
        elapsed = time.perf_counter() - start
        assert devs[0] > devs[1] > devs[2], devs
        assert devs[2] < 0.01, devs[2]
        assert elapsed < 10.0, elapsed
        return f"deviations {devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e}, final below 0.01, {elapsed:.2f}s"

    _verdict(capsys, 10, "finite-size coherence density converges", body)


def test_c11_beta_decomposition_identity(capsys):
    def body():
        d = beta_decomposition(60, 20, 6, 1.7)
        assert d.identity_residual <= d.truncation_bound, (d.identity_residual, d.truncation_bound)
        return (
            f"|beta - beta_I + beta_C| = {d.identity_residual:.2e} "
            f"within the reported bound {d.truncation_bound:.2e} at (60, 20, 6)"
        )

    _verdict(capsys, 11, "inverse temperature splits into its two parts", body)
