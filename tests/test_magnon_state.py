import math
from itertools import permutations

import numpy as np
import pytest

import error_model as model
from magcoh import (
    DomainError,
    InfeasibilityError,
    MagnonStateSpec,
    MomentumVector,
    NullStateError,
    amplitude_f,
    apply_hamiltonian,
    build_state,
    dispersion,
    embed_full,
    momentum_grid,
    rank_combination,
    single_mode_state,
)
from magcoh.combinat import combination_array
from magcoh.magnon_state import (
    AMPLITUDE_BUDGET,
    FULL_VECTOR_BUDGET,
    FullStateVector,
    _phase_permanents,
    _subset_permanents,
)

# Forced Ryser amplitudes (N, k, sites, re, im) of the expanded 2^m
# subset sum; this cross-check route must keep these exact bits.
FORCED_RYSER_PINS = [
    (11, (1, 1, 2, 5, 5, 5, 9), (1, 3, 4, 6, 8, 10, 11), "0x1.0c6e68708e838p+5", "-0x1.72c8d93cd75dfp+7"),
    (16, (3,) * 8, (2, 3, 5, 7, 11, 13, 14, 16), "-0x1.e22e5e3190971p+13", "0x1.2305a53f99729p+15"),
    (13, (0, 2, 2, 7, 7, 11, 11, 12, 4), (1, 2, 4, 5, 7, 8, 10, 12, 13), "-0x1.432b25f0196eap+9", "-0x1.312cc4052bf3ep+8"),
    (12, (6, 6, 6, 1, 1, 0, 0, 9, 9, 9), (1, 2, 3, 4, 6, 7, 8, 9, 11, 12), "0x1.0cb529158de74p+10", "-0x1.0cb529158dce2p+10"),
]

# Forced direct amplitudes (N, k, sites, re, im) of the permutation sum;
# the root-table gather must reproduce the per-term exponentials bit for bit.
FORCED_DIRECT_PINS = [
    (11, (1, 4, 9), (2, 5, 10), "-0x1.59c97795bb2cfp-2", "-0x1.9620fde4b0498p-4"),
    (13, (0, 2, 2, 7, 11), (1, 3, 4, 9, 12), "0x1.e4bbacee243b8p-1", "-0x1.c147c1ef493d8p-1"),
    (16, (3, 5, 6, 8, 13, 15), (2, 3, 7, 11, 13, 16), "0x1.555ea869383a4p+4", "-0x1.e6ce3b9cfb2b2p+3"),
    (12, (1, 1, 2, 5, 5, 9, 9), (1, 3, 4, 6, 8, 10, 11), "-0x1.2000000000048p+5", "-0x1.f2d4a45635640p+5"),
]


# Exact nulls whose rounding noise still clears the absolute weight threshold.
MISSED_NULL = "the absolute null threshold misses this exact null (ROADMAP Open item 5)"


def brute_phase_sum(k_values, sites):
    """Independent oracle: sum exp(i k_pi . l) over all permutations."""
    total = 0.0 + 0.0j
    for perm in permutations(k_values):
        total += np.exp(1j * np.dot(perm, sites))
    return total


def random_momentum(rng, N, m):
    return MomentumVector(N, tuple(int(x) for x in rng.integers(0, N, size=m)))


def test_dispersion_values():
    assert dispersion(1.0, 0.0) == 0.0
    assert abs(dispersion(1.0, math.pi) - 8.0) < 1e-12
    assert abs(dispersion(1.0, 2.0 * math.pi / 3.0) - 6.0) < 1e-12
    assert abs(dispersion(2.5, math.pi) - 20.0) < 1e-12


def test_dispersion_needs_positive_coupling():
    with pytest.raises(DomainError):
        dispersion(0.0, 1.0)
    with pytest.raises(DomainError):
        dispersion(-1.0, 1.0)


def test_momentum_grid():
    assert np.allclose(momentum_grid(2), [0.0, math.pi])
    grid = momentum_grid(5)
    assert len(grid) == 5
    assert grid[0] == 0.0
    assert np.all(grid >= 0.0) and np.all(grid < 2.0 * math.pi)
    with pytest.raises(DomainError):
        momentum_grid(0)


class TestMomentumVector:
    def test_values_match_indices(self):
        k = MomentumVector(8, (0, 3, 7))
        assert np.allclose(k.values, 2.0 * math.pi * np.array([0, 3, 7]) / 8.0, atol=1e-15)
        assert k.m == 3

    def test_index_range_enforced(self):
        with pytest.raises(DomainError):
            MomentumVector(4, (4,))
        with pytest.raises(DomainError):
            MomentumVector(4, (-1,))

    def test_constant_helper(self):
        k = MomentumVector.constant(6, 2, 3)
        assert k.indices == (2, 2, 2)
        assert k.is_constant()
        assert not MomentumVector(6, (1, 2)).is_constant()


class TestSpec:
    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(DomainError):
            MagnonStateSpec(4, 2, MomentumVector(4, (1,)))
        with pytest.raises(DomainError):
            MagnonStateSpec(4, 0, MomentumVector(4, ()))
        with pytest.raises(DomainError):
            MagnonStateSpec(4, 1, MomentumVector(5, (1,)))

    def test_rejects_non_positive_coupling(self):
        with pytest.raises(DomainError):
            MagnonStateSpec(4, 1, MomentumVector(4, (1,)), J=0.0)


class TestAmplitude:
    def test_one_flip_is_a_plane_wave(self):
        k = MomentumVector(8, (3,))
        for l in (1, 4, 8):
            want = np.exp(1j * 2.0 * math.pi * 3 * l / 8.0)
            assert abs(amplitude_f(k, (l,)) - want) < 1e-13

    def test_constant_mode_closed_form(self):
        # all wavenumbers equal: f = m! exp(i k sum(l))
        k = MomentumVector(10, (3, 3, 3))
        kval = 2.0 * math.pi * 3 / 10.0
        got = amplitude_f(k, (2, 5, 9))
        want = math.factorial(3) * np.exp(1j * kval * (2 + 5 + 9))
        assert abs(got - want) < 1e-12

    def test_destructive_pair(self):
        # k = {0, pi} on sites {1, 2}: e^{0+2pi i} + e^{pi i} cancels
        k = MomentumVector(4, (0, 2))
        assert abs(amplitude_f(k, (1, 2))) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_permutation_sum(self, m):
        rng = np.random.default_rng(100 + m)
        N = 12
        for _ in range(6):
            k = random_momentum(rng, N, m)
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
            got = amplitude_f(k, sites)
            want = brute_phase_sum(k.values, np.array(sites))
            assert abs(got - want) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("m", [3, 7, 8])
    def test_direct_and_ryser_agree(self, m):
        rng = np.random.default_rng(7 * m)
        N = 11
        for _ in range(6):
            k = random_momentum(rng, N, m)
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
            d = amplitude_f(k, sites, force="direct")
            r = amplitude_f(k, sites, force="ryser")
            assert abs(d - r) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_grouped_route_matches_expanded_routes(self, m):
        # few distinct indices, so every multiset repeats one and the
        # default route starts from a closed-form group
        rng = np.random.default_rng(31 * m)
        N = 11
        for _ in range(3):
            k = MomentumVector(N, tuple(int(x) for x in rng.integers(0, 4, size=m)))
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
            default = amplitude_f(k, sites)
            for route in ("ryser", "direct"):
                assert abs(default - amplitude_f(k, sites, force=route)) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_grouped_route_is_expanded_route_for_distinct_indices(self, m):
        # distinct indices: the default route's closed-form group is one
        # index, so its table is the expanded 2^m Ryser sum to rounding
        rng = np.random.default_rng(43 * m)
        N = 12
        idx = tuple(int(x) for x in rng.choice(N, size=m, replace=False))
        sites = combination_array(N, m)
        table = _subset_permanents(idx, N, range(1, N + 1), AMPLITUDE_BUDGET)
        ryser = _phase_permanents(idx, N, sites, force="ryser")
        assert np.abs(table - ryser).max() <= 1e-10 * math.factorial(m)
        # a single row runs the same kernel over its own sites: both are
        # within gamma(T_dp) m! of exact
        k = MomentumVector(N, idx)
        one = amplitude_f(k, tuple(sites[7]))
        assert abs(one - table[7]) <= 2 * model.gamma(model.dp_steps(idx)) * math.factorial(m)
        assert abs(one - amplitude_f(k, tuple(sites[7]), force="ryser")) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("N, idx, sites, re, im", FORCED_RYSER_PINS)
    def test_forced_ryser_keeps_its_bits(self, N, idx, sites, re, im):
        got = amplitude_f(MomentumVector(N, idx), sites, force="ryser")
        assert got == complex(float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize("N, idx, sites, re, im", FORCED_DIRECT_PINS)
    def test_forced_direct_keeps_its_bits(self, N, idx, sites, re, im):
        got = amplitude_f(MomentumVector(N, idx), sites, force="direct")
        assert got == complex(float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_direct_route_phases_are_the_per_term_exponentials(self, m):
        # repeated and distinct indices alike; at m = 5 the table spans two row chunks
        rng = np.random.default_rng(500 + m)
        N = {1: 13, 2: 13, 3: 13, 4: 16, 5: 18, 6: 12}[m]
        sites = combination_array(N, m)
        for idx in (tuple(int(x) for x in rng.integers(0, N, size=m)), tuple(range(1, m + 1))):
            kperm = np.array(idx, dtype=np.int64)[np.array(list(permutations(range(m))), dtype=np.int64)]
            want = np.exp(2j * np.pi / N * ((sites @ kperm.T) % N)).sum(axis=1)
            assert np.array_equal(_phase_permanents(idx, N, sites), want)
            assert np.array_equal(_phase_permanents(idx, N, sites, force="direct"), want)

    @pytest.mark.parametrize("m", [8, 14, 20])
    def test_single_mode_at_the_ceiling(self, m):
        # one index group: the whole permanent is its closed form m! w^(j sum l)
        N, j = 23, 5
        rng = np.random.default_rng(m)
        sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
        k = MomentumVector.constant(N, j, m)
        got = amplitude_f(k, sites)
        want = math.factorial(m) * np.exp(2j * math.pi * (j * sum(sites) % N) / N)
        assert abs(got - want) <= model.gamma(model.dp_steps(k.indices)) * math.factorial(m)

    def test_unknown_route_rejected(self):
        k = MomentumVector(8, (1, 2, 3))
        for route in ("glynn", "", "Ryser"):
            with pytest.raises(DomainError):
                amplitude_f(k, (1, 2, 3), force=route)

    def test_sitelist_must_match_mode_count(self):
        with pytest.raises(DomainError):
            amplitude_f(MomentumVector(6, (1, 2)), (1,))

    def test_permanent_size_limit(self):
        k = MomentumVector(64, tuple(range(21)))
        with pytest.raises(InfeasibilityError):
            amplitude_f(k, tuple(range(1, 22)))


def dp_kernel_cases():
    """(N, k) for m = 7..12: distinct, repeated and single-mode indices."""
    rng = np.random.default_rng(2024)
    for m in range(7, 13):
        N = m + 2 if m < 11 else m + 1
        yield N, tuple(int(x) for x in rng.choice(N, size=m, replace=False))
        yield N, tuple(int(x) for x in rng.integers(0, 3, size=m))
        yield N, (int(rng.integers(N)),) * m


class TestSubsetPermanents:
    """The default m > 6 route against exact count polynomials: an
    amplitude sums m! unit-modulus terms, so it is within gamma(T_dp) m!
    of exact, plus the long-double evaluation of the oracle."""

    @staticmethod
    def bound(N, k):
        m = len(k)
        oracle = (N + 22) * float(np.finfo(np.longdouble).eps)
        return (model.gamma(model.dp_steps(k)) + oracle) * math.factorial(m)

    def test_oracle_counts_the_permutations(self):
        rng = np.random.default_rng(77)
        for m in (1, 3, 5):
            N = 9
            k = MomentumVector(N, tuple(int(x) for x in rng.integers(0, N, size=m)))
            rows = combination_array(N, m)[::7]
            counts = model.count_polynomials(k.indices, N, rows)
            assert (counts.sum(axis=1) == math.factorial(m)).all()
            for row, value in zip(rows, model.exact_permanents(counts, N)):
                assert abs(complex(value) - brute_phase_sum(k.values, row)) < 1e-12

    @pytest.mark.parametrize("N, idx", list(dp_kernel_cases()))
    def test_full_table_matches_the_exact_oracle(self, N, idx):
        m = len(idx)
        rows = combination_array(N, m)
        want = model.exact_permanents(model.count_polynomials(idx, N, rows), N)
        got = _subset_permanents(idx, N, range(1, N + 1), AMPLITUDE_BUDGET)
        assert float(np.abs(got - want).max()) <= self.bound(N, idx)

    @pytest.mark.parametrize("N, idx", list(dp_kernel_cases()))
    def test_single_rows_match_the_exact_oracle(self, N, idx):
        m = len(idx)
        rng = np.random.default_rng(N * m)
        chain = 2 * N + 1
        k = MomentumVector(chain, idx)
        rows = np.array([sorted(rng.choice(np.arange(1, chain + 1), size=m, replace=False)) for _ in range(3)])
        want = model.exact_permanents(model.count_polynomials(idx, chain, rows), chain)
        for row, value in zip(rows, want):
            assert abs(amplitude_f(k, tuple(int(s) for s in row)) - value) <= self.bound(chain, idx)

    @pytest.mark.parametrize("idx", [(1, 4, 4, 9, 13, 17, 17), (2, 3, 5, 7, 11, 13, 19)])
    def test_table_spanning_several_row_chunks(self, idx):
        # C(20, 7) = 77520 rows: the last level runs in two row chunks
        N, m = 20, len(idx)
        table = _subset_permanents(idx, N, range(1, N + 1), AMPLITUDE_BUDGET)
        rows = combination_array(N, m)
        ranks = np.r_[0:3, 65533:65539, len(rows) - 3:len(rows)]
        want = model.exact_permanents(model.count_polynomials(idx, N, rows[ranks]), N)
        assert float(np.abs(table[ranks] - want).max()) <= self.bound(N, idx)

    def test_widest_level_is_held_to_the_budget(self):
        # C(12, 8) = 495 amplitudes fit, but level 6 holds C(12, 6) = 924
        spec = MagnonStateSpec(12, 8, MomentumVector(12, tuple(range(8))))
        with pytest.raises(InfeasibilityError, match="level 6 holds C\\(12, 6\\) = 924"):
            build_state(spec, budget=900)
        assert build_state(spec, budget=924).amplitudes.shape == (495,)
        # C(26, 14) fits the default budget, C(26, 13) does not
        wide = MagnonStateSpec(26, 14, MomentumVector(26, tuple(range(14))))
        with pytest.raises(InfeasibilityError, match="level 13"):
            build_state(wide)


class TestBuildState:
    def test_one_flip_uniform_modulus(self):
        spec = MagnonStateSpec(2, 1, MomentumVector(2, (0,)))
        st = build_state(spec)
        assert np.allclose(st.amplitudes, [1 / math.sqrt(2)] * 2)
        assert abs(st.normalization - 1 / math.sqrt(2)) < 1e-15

    def test_single_mode_moduli(self):
        spec = MagnonStateSpec(4, 2, MomentumVector.constant(4, 1, 2))
        st = build_state(spec)
        assert np.allclose(np.abs(st.amplitudes), 1 / math.sqrt(6), atol=1e-14)

    def test_unit_norm_for_random_momenta(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            N = int(rng.integers(4, 11))
            m = int(rng.integers(1, 4))
            try:
                st = build_state(MagnonStateSpec(N, m, random_momentum(rng, N, m)))
            except NullStateError:
                continue
            assert abs(st.norm() - 1.0) < 1e-12

    def test_normalization_helper_matches_brute_force(self):
        N, m = 6, 2
        k = MomentumVector(N, (1, 4))
        total = 0.0
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                total += abs(brute_phase_sum(k.values, np.array([a, b]))) ** 2
        assert abs(build_state(MagnonStateSpec(N, m, k)).normalization - 1.0 / math.sqrt(total)) < 1e-12

    def test_constant_mode_normalization_closed_form(self):
        # G = 1 / (m! sqrt(C(N, m))) when every flip shares one mode
        N, m = 9, 3
        g = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 2, m))).normalization
        assert abs(g - 1.0 / (math.factorial(m) * math.sqrt(math.comb(N, m)))) < 1e-14

    def test_null_state_detected(self):
        # two flips sharing indices {0, 1} on N = 2 cancel identically
        with pytest.raises(NullStateError):
            build_state(MagnonStateSpec(2, 2, MomentumVector(2, (0, 1))))

    @pytest.mark.parametrize("N, idx", [
        (8, (0,) * 7 + (1,)),
        (14, tuple(range(14))),
        pytest.param(10, (0,) * 9 + (1,), marks=pytest.mark.xfail(strict=True, reason=MISSED_NULL)),
        pytest.param(16, tuple(range(16)), marks=pytest.mark.xfail(strict=True, reason=MISSED_NULL)),
    ])
    def test_exact_nulls_beyond_the_direct_route_are_detected(self, N, idx):
        # every table row's count polynomial vanishes mod Phi_N
        rows = combination_array(N, len(idx))
        assert model.vanishes(model.count_polynomials(idx, N, rows), N).all()
        with pytest.raises(NullStateError):
            build_state(MagnonStateSpec(N, len(idx), MomentumVector(N, idx)))

    def test_budget_enforced(self):
        spec = MagnonStateSpec(30, 3, MomentumVector.constant(30, 1, 3))
        with pytest.raises(InfeasibilityError):
            build_state(spec, budget=100)

    def test_translation_moves_phases_not_moduli(self):
        N, m = 8, 2
        st = build_state(MagnonStateSpec(N, m, MomentumVector(N, (1, 3))))
        phase = np.exp(1j * st.spec.k.values.sum())
        for r, l in enumerate(st.basis()):
            shifted = tuple(sorted(s % N + 1 for s in l))
            got = st.amplitudes[rank_combination(shifted, N)]
            assert abs(got - phase * st.amplitudes[r]) < 1e-12


class TestSingleModeState:
    def test_trivial_sector(self):
        st = single_mode_state(4, 0, 1.3)
        assert st.amplitudes.shape == (1,)
        assert st.amplitudes[0] == 1.0 + 0.0j

    def test_zero_mode_is_uniform(self):
        st = single_mode_state(4, 2, 0.0)
        assert np.allclose(st.amplitudes, 1 / math.sqrt(6))

    def test_agrees_with_permanent_route(self):
        N, m, idx = 7, 3, 2
        built = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, idx, m)))
        direct = single_mode_state(N, m, 2.0 * math.pi * idx / N)
        assert np.abs(built.amplitudes - direct.amplitudes).max() < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            single_mode_state(4, 5, 0.0)
        with pytest.raises(DomainError):
            single_mode_state(0, 0, 0.0)


class TestFullEmbedding:
    def test_two_site_one_flip(self):
        st = build_state(MagnonStateSpec(2, 1, MomentumVector(2, (0,))))
        vec = embed_full(st)
        r = 1 / math.sqrt(2)
        assert np.allclose(vec.entries, [0.0, r, r, 0.0])

    def test_support_has_m_bits_set(self):
        st = build_state(MagnonStateSpec(6, 2, MomentumVector(6, (1, 2))))
        vec = embed_full(st)
        for idx in np.nonzero(np.abs(vec.entries) > 1e-14)[0]:
            assert int(idx).bit_count() == 2
        assert abs(vec.norm() - 1.0) < 1e-12

    def test_budget(self):
        st = build_state(MagnonStateSpec(6, 1, MomentumVector(6, (1,))))
        with pytest.raises(InfeasibilityError):
            embed_full(st, budget=32)
        assert FULL_VECTOR_BUDGET == 2 ** 14


class TestHamiltonian:
    def test_polarised_ground_state(self):
        # all spins down: every bond term gives -J
        N = 5
        vec = np.zeros(2 ** N, dtype=complex)
        vec[0] = 1.0
        out = apply_hamiltonian(FullStateVector(N, vec), J=1.0)
        assert np.allclose(out.entries, -N * vec)

    @pytest.mark.parametrize("N", [2, 4, 6, 9])
    def test_one_flip_eigenstates(self, N):
        for j in range(N):
            spec = MagnonStateSpec(N, 1, MomentumVector(N, (j,)))
            vec = embed_full(build_state(spec))
            energy = -N + dispersion(1.0, 2.0 * math.pi * j / N)
            out = apply_hamiltonian(vec, J=1.0)
            assert np.linalg.norm(out.entries - energy * vec.entries) < 1e-12

    def test_hermitian_on_random_vectors(self):
        rng = np.random.default_rng(5)
        N = 6
        for _ in range(5):
            u = rng.normal(size=2 ** N) + 1j * rng.normal(size=2 ** N)
            v = rng.normal(size=2 ** N) + 1j * rng.normal(size=2 ** N)
            hu = apply_hamiltonian(FullStateVector(N, u), J=1.3).entries
            hv = apply_hamiltonian(FullStateVector(N, v), J=1.3).entries
            assert abs(np.vdot(u, hv) - np.vdot(hu, v)) < 1e-9 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_two_flip_residual_shrinks_with_dilution(self):
        """Finite-size two-flip tables are approximate eigenstates whose
        defect falls as the chain grows at fixed flip count."""
        residuals = []
        for N in (8, 10, 12, 14):
            spec = MagnonStateSpec(N, 2, MomentumVector(N, (1, 3)))
            vec = embed_full(build_state(spec))
            energy = -N + sum(dispersion(1.0, 2.0 * math.pi * j / N) for j in (1, 3))
            out = apply_hamiltonian(vec)
            residuals.append(float(np.linalg.norm(out.entries - energy * vec.entries)))
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
