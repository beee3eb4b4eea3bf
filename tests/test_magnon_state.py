import math
import sys
import threading
from itertools import permutations

import numpy as np
import pytest

import error_model as model
from magcoh import (
    AmplitudeTable,
    DomainError,
    InfeasibilityError,
    MagnonStateSpec,
    MomentumVector,
    NullStateError,
    apply_hamiltonian,
    build_state,
    dispersion,
    enumerate_combinations,
    rank_combination,
    single_mode_state,
)
from magcoh import magnon_state
from magcoh.combinat import combination_array
from magcoh.magnon_state import (
    _DIRECT_PERMANENT_LIMIT,
    AMPLITUDE_BUDGET,
    _chain_plan,
    _direct_permanents,
    _permanents,
    _ryser_permanents,
    _subset_permanents,
)

# Ryser amplitudes (N, k, sites, re, im) of the expanded 2^m subset sum,
# the kernel called on one site list as a one-row int64 table; this
# reference must keep these exact bits.
FORCED_RYSER_PINS = [
    (11, (1, 1, 2, 5, 5, 5, 9), (1, 3, 4, 6, 8, 10, 11), "0x1.0c6e68708e838p+5", "-0x1.72c8d93cd75dfp+7"),
    (16, (3,) * 8, (2, 3, 5, 7, 11, 13, 14, 16), "-0x1.e22e5e3190971p+13", "0x1.2305a53f99729p+15"),
    (13, (0, 2, 2, 7, 7, 11, 11, 12, 4), (1, 2, 4, 5, 7, 8, 10, 12, 13), "-0x1.432b25f0196eap+9", "-0x1.312cc4052bf3ep+8"),
    (12, (6, 6, 6, 1, 1, 0, 0, 9, 9, 9), (1, 2, 3, 4, 6, 7, 8, 9, 11, 12), "0x1.0cb529158de74p+10", "-0x1.0cb529158dce2p+10"),
]

# Permutation-sum amplitudes (N, k, sites, re, im), the kernel called the
# same way; the root-table gather must reproduce the per-term exponentials
# bit for bit.
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


def one_row(kernel, k: MomentumVector, sites) -> complex:
    """A reference kernel's permanent of one site list, passed as the
    one-row int64 table the permutation-sum route builds for it."""
    return complex(kernel(k.indices, k.N, np.array([sites], dtype=np.int64))[0])


def lone_list(k: MomentumVector, sites) -> complex:
    """The permanent of one site list on the route a table takes: the
    dispatcher handed that list as its chain, within AMPLITUDE_BUDGET.
    Up to m = 4 the chain positions are remapped to its sites; beyond,
    the subset DP runs over the list itself."""
    return complex(_permanents(k.indices, k.N, sites, AMPLITUDE_BUDGET)[0])


def test_dispersion_values():
    assert dispersion(1.0, 0.0) == 0.0
    assert abs(dispersion(1.0, math.pi) - 8.0) < 1e-12
    assert abs(dispersion(1.0, 2.0 * math.pi / 3.0) - 6.0) < 1e-12
    assert abs(dispersion(2.5, math.pi) - 20.0) < 1e-12


@pytest.mark.parametrize("J", [0.0, -0.0, -1.0])
def test_energies_need_positive_coupling(J):
    state = single_mode_state(6, 2, 0.5)
    for call in (lambda: dispersion(J, 1.0), lambda: apply_hamiltonian(state, J)):
        with pytest.raises(DomainError, match="^coupling must be positive"):
            call()


class TestMomentumVector:
    def test_values_match_indices(self):
        k = MomentumVector(8, (0, 3, 7))
        assert np.allclose(k.values, 2.0 * math.pi * np.array([0, 3, 7]) / 8.0, atol=1e-15)
        assert k.m == 3

    def test_values_of_every_index_are_the_grid(self):
        # the N allowed wavenumbers 2 pi j / N, in [0, 2 pi)
        assert np.allclose(MomentumVector(2, (0, 1)).values, [0.0, math.pi])
        grid = MomentumVector(5, tuple(range(5))).values
        assert len(grid) == 5
        assert grid[0] == 0.0
        assert np.all(grid >= 0.0) and np.all(grid < 2.0 * math.pi)

    def test_index_range_enforced(self):
        with pytest.raises(DomainError):
            MomentumVector(4, (4,))
        with pytest.raises(DomainError):
            MomentumVector(4, (-1,))

    def test_chain_length_must_be_positive(self):
        with pytest.raises(DomainError, match=r"^chain length must be positive, got N=0$"):
            MomentumVector(0, ())

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

    def test_each_fact_has_one_field(self):
        # J is an argument of the energies; N and m belong to the table
        assert list(MagnonStateSpec.__dataclass_fields__) == ["N", "m", "k"]
        assert list(AmplitudeTable.__dataclass_fields__) == ["N", "m", "amplitudes", "normalization"]


class TestAmplitudeTable:
    def test_refuses_a_table_of_the_wrong_shape(self):
        with pytest.raises(DomainError, match=r"^amplitude table for N=4, m=1 needs shape \(4,\), got \(6,\)$"):
            AmplitudeTable(4, 1, np.ones(6), 0.5)

    @pytest.mark.parametrize("g", [0.0, -0.5])
    def test_refuses_a_normalization_not_above_zero(self, g):
        with pytest.raises(DomainError, match="^normalization must be positive"):
            AmplitudeTable(4, 1, np.ones(4), g)


class TestAmplitude:
    def test_one_flip_is_a_plane_wave(self):
        k = MomentumVector(8, (3,))
        for l in (1, 4, 8):
            want = np.exp(1j * 2.0 * math.pi * 3 * l / 8.0)
            assert abs(lone_list(k, (l,)) - want) < 1e-13

    def test_constant_mode_closed_form(self):
        # all wavenumbers equal: f = m! exp(i k sum(l))
        k = MomentumVector(10, (3, 3, 3))
        kval = 2.0 * math.pi * 3 / 10.0
        got = lone_list(k, (2, 5, 9))
        want = math.factorial(3) * np.exp(1j * kval * (2 + 5 + 9))
        assert abs(got - want) < 1e-12

    def test_no_flip_is_the_empty_permanent(self):
        assert lone_list(MomentumVector(5, ()), ()) == 1 + 0j

    def test_destructive_pair(self):
        # k = {0, pi} on sites {1, 2}: e^{0+2pi i} + e^{pi i} cancels
        k = MomentumVector(4, (0, 2))
        assert abs(lone_list(k, (1, 2))) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_permutation_sum(self, m):
        rng = np.random.default_rng(100 + m)
        N = 12
        for _ in range(6):
            k = random_momentum(rng, N, m)
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
            got = lone_list(k, sites)
            want = brute_phase_sum(k.values, np.array(sites))
            assert abs(got - want) <= 1e-10 * math.factorial(m)
            if m <= _DIRECT_PERMANENT_LIMIT:
                # the remapped chain positions are the sites, bit for bit
                assert got == one_row(_direct_permanents, k, sites)

    @pytest.mark.parametrize("m", [3, 7, 8])
    def test_direct_and_ryser_agree(self, m):
        rng = np.random.default_rng(7 * m)
        N = 11
        for _ in range(6):
            k = random_momentum(rng, N, m)
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
            d = one_row(_direct_permanents, k, sites)
            r = one_row(_ryser_permanents, k, sites)
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
            default = lone_list(k, sites)
            for kernel in (_ryser_permanents, _direct_permanents):
                assert abs(default - one_row(kernel, k, sites)) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_grouped_route_is_expanded_route_for_distinct_indices(self, m):
        # distinct indices: the default route's closed-form group is one
        # index, so its table is the expanded 2^m Ryser sum to rounding
        rng = np.random.default_rng(43 * m)
        N = 12
        idx = tuple(int(x) for x in rng.choice(N, size=m, replace=False))
        sites = combination_array(N, m)
        table = _subset_permanents(idx, N, range(1, N + 1))
        ryser = _ryser_permanents(idx, N, sites)
        assert np.abs(table - ryser).max() <= 1e-10 * math.factorial(m)
        # a single row runs the same kernel over its own sites: both are
        # within gamma(T_dp) m! of exact
        k = MomentumVector(N, idx)
        one = lone_list(k, tuple(sites[7]))
        assert abs(one - table[7]) <= 2 * model.gamma(model.dp_steps(idx)) * math.factorial(m)
        assert abs(one - one_row(_ryser_permanents, k, sites[7])) <= 1e-10 * math.factorial(m)

    @pytest.mark.parametrize("N, idx, sites, re, im", FORCED_RYSER_PINS)
    def test_forced_ryser_keeps_its_bits(self, N, idx, sites, re, im):
        got = one_row(_ryser_permanents, MomentumVector(N, idx), sites)
        assert got == complex(float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize("N, idx, sites, re, im", FORCED_DIRECT_PINS)
    def test_forced_direct_keeps_its_bits(self, N, idx, sites, re, im):
        got = one_row(_direct_permanents, MomentumVector(N, idx), sites)
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
            assert np.array_equal(_direct_permanents(idx, N, sites), want)
            if m <= _DIRECT_PERMANENT_LIMIT:
                assert np.array_equal(_permanents(idx, N, range(1, N + 1), AMPLITUDE_BUDGET), want)

    def test_permutation_table_is_built_once_per_m(self, monkeypatch):
        built = []

        def counted(items):
            built.append(len(items))
            return permutations(items)

        monkeypatch.setattr(magnon_state, "permutations", counted)
        magnon_state._permutation_table.cache_clear()
        sites = combination_array(9, 5)
        first = _direct_permanents((1, 1, 2, 4, 7), 9, sites)
        for _ in range(7):
            assert np.array_equal(_direct_permanents((1, 1, 2, 4, 7), 9, sites), first)
        assert built == [5]
        table = magnon_state._permutation_table(5)
        assert not table.flags.writeable
        assert table.tolist() == [list(p) for p in permutations(range(5))]
        _direct_permanents((1, 2, 3), 9, combination_array(9, 3))
        assert built == [5, 3]
        assert magnon_state._permutation_table.cache_info().currsize == 1

    @pytest.mark.parametrize("m", [8, 14, 20])
    def test_single_mode_at_the_ceiling(self, m):
        # one index group: the whole permanent is its closed form m! w^(j sum l)
        N, j = 23, 5
        rng = np.random.default_rng(m)
        sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=m, replace=False)))
        k = MomentumVector.constant(N, j, m)
        got = lone_list(k, sites)
        want = math.factorial(m) * np.exp(2j * math.pi * (j * sum(sites) % N) / N)
        assert abs(got - want) <= model.gamma(model.dp_steps(k.indices)) * math.factorial(m)

    def test_permanent_size_limit(self):
        k = MomentumVector(64, tuple(range(21)))
        with pytest.raises(InfeasibilityError):
            lone_list(k, tuple(range(1, 22)))

    def test_permutation_sum_is_held_to_the_budget(self, monkeypatch):
        # m = 4: 4! 4 = 96 permutation entries; the 5-row table fits 50
        spec = MagnonStateSpec(5, 4, MomentumVector(5, (0, 1, 2, 4)))
        assert build_state(spec, budget=96).amplitudes.shape == (5,)

        def unreachable(*args):
            raise AssertionError("the permutation array was built")

        monkeypatch.setattr(magnon_state, "permutations", unreachable)
        magnon_state._permutation_table.cache_clear()
        with pytest.raises(InfeasibilityError, match=r"^permutation sum stores m! = 24 orderings of 4 indices, 96 entries; budget is 50$"):
            build_state(spec, budget=50)

    def test_forced_direct_still_runs_at_m_9(self):
        k = MomentumVector(23, (1, 2, 2, 5, 7, 11, 13, 17, 19))
        sites = (1, 3, 4, 6, 9, 12, 15, 20, 22)
        direct = one_row(_direct_permanents, k, sites)
        assert abs(direct - lone_list(k, sites)) <= 1e-10 * math.factorial(9)


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
        got = _subset_permanents(idx, N, range(1, N + 1))
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
            assert abs(lone_list(k, tuple(int(s) for s in row)) - value) <= self.bound(chain, idx)

    @pytest.mark.parametrize("idx", [(1, 4, 4, 9, 13, 17, 17), (2, 3, 5, 7, 11, 13, 19)])
    def test_table_spanning_several_row_chunks(self, idx):
        # C(20, 7) = 77520 rows: the last level runs in two row chunks
        N, m = 20, len(idx)
        table = _subset_permanents(idx, N, range(1, N + 1))
        rows = combination_array(N, m)
        ranks = np.r_[0:3, 65533:65539, len(rows) - 3:len(rows)]
        want = model.exact_permanents(model.count_polynomials(idx, N, rows[ranks]), N)
        assert float(np.abs(table[ranks] - want).max()) <= self.bound(N, idx)

    @staticmethod
    def per_call(monkeypatch, idx, N):
        """The whole-chain table with no plan built or read."""
        with monkeypatch.context() as mp:
            mp.setattr(magnon_state, "_PLAN_ENTRY_CEILING", 0)
            before = _chain_plan.cache_info()
            table = _subset_permanents(idx, N, range(1, N + 1))
            assert _chain_plan.cache_info() == before
        return table

    def test_plan_is_built_once_per_chain_and_keeps_every_bit(self, monkeypatch):
        _chain_plan.cache_clear()
        rng = np.random.default_rng(2020)
        lone = MomentumVector(14, (1, 3, 3, 6, 9, 12))
        lone_value = lone_list(lone, (2, 3, 5, 8, 11, 14))
        builds = []
        for N, m in ((16, 10), (16, 12), (16, 11), (22, 5), (16, 11)):
            misses = _chain_plan.cache_info().misses
            for idx in (tuple(rng.integers(0, N, size=m).tolist()), tuple(rng.choice(N, size=m, replace=False).tolist())):
                got = _subset_permanents(idx, N, range(1, N + 1))
                want = self.per_call(monkeypatch, idx, N)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert lone_list(lone, (2, 3, 5, 8, 11, 14)) == lone_value
            builds.append(_chain_plan.cache_info().misses - misses)
        # one whole-chain plan serves every m at N = 16; the N = 22 plan
        # replaced it, so it is built anew
        assert builds == [1, 0, 0, 1, 1]

    def test_every_m_at_16_sites_replays_one_plan(self, monkeypatch):
        _chain_plan.cache_clear()
        rng = np.random.default_rng(16)
        for m in range(5, 16):
            for idx in (tuple(rng.integers(0, 16, size=m).tolist()), tuple(rng.choice(16, size=m, replace=False).tolist())):
                got = _subset_permanents(idx, 16, range(1, 17))
                want = self.per_call(monkeypatch, idx, 16)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        info = _chain_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 21, 1)
        assert len(_chain_plan(16, 15)) == 15

    def test_longer_chains_keep_the_depth_asked_for(self, monkeypatch):
        # N = 17 is the first chain whose every-subset plan is over the ceiling
        assert magnon_state._plan_entries(16, 15) <= magnon_state._PLAN_ENTRY_CEILING
        assert magnon_state._plan_entries(17, 16) > magnon_state._PLAN_ENTRY_CEILING
        _chain_plan.cache_clear()
        rng = np.random.default_rng(17)
        misses = []
        # m = 11 holds 1.12 M entries, over the ceiling, so it builds no plan
        for m in (5, 10, 10, 11, 5):
            idx = tuple(rng.integers(0, 17, size=m).tolist())
            got = _subset_permanents(idx, 17, range(1, 18))
            want = self.per_call(monkeypatch, idx, 17)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            misses.append(_chain_plan.cache_info().misses)
        assert misses == [1, 2, 2, 2, 3]
        assert [len(drops) for drops, _ in _chain_plan(17, 5)] == [1, 2, 3, 4, 5]
        assert _chain_plan.cache_info().misses == 3

    def test_alternating_chains_keep_every_bit(self):
        # reduce-scatter's m = 5 builds alternate N = 22 and 24, so each
        # rebuilds the plan the other replaced
        _chain_plan.cache_clear()
        first = {}
        for calls, N in enumerate((22, 24, 22), 1):
            bits = build_state(MagnonStateSpec(N, 5, MomentumVector(N, (1, 4, 6, 9, 13)))).amplitudes.view(np.uint64)
            assert _chain_plan.cache_info().misses == calls
            assert np.array_equal(bits, first.setdefault(N, bits))

    def test_concurrent_callers_keep_every_bit(self, monkeypatch):
        # threads that build, replace and replay the plan under a short
        # switch interval; each must read a whole plan, never a half-built one
        _chain_plan.cache_clear()
        rng = np.random.default_rng(7)
        # N = 16, 22 and 24 interleave, as reduce-scatter's m = 5 builds do
        shapes = ((12, 5), (12, 8), (13, 6), (12, 7), (13, 9), (16, 6), (22, 5), (24, 5))
        cases = [(N, tuple(rng.integers(0, N, size=m).tolist())) for N, m in shapes]
        want = [self.per_call(monkeypatch, idx, N).view(np.uint64) for N, idx in cases]
        bad = []

        def worker(order):
            for c in order:
                N, idx = cases[c]
                if not np.array_equal(_subset_permanents(idx, N, range(1, N + 1)).view(np.uint64), want[c]):
                    bad.append(cases[c])

        orders = [[int(c) for c in rng.permutation(len(cases))] * 8 for _ in range(6)]
        threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        # one plan is left cached, and the next caller of each chain reads a whole one
        assert _chain_plan.cache_info().currsize == 1
        worker(range(len(cases)))
        assert bad == []

    def test_plan_over_the_ceiling_is_not_retained(self, monkeypatch):
        _chain_plan.cache_clear()
        idx = (1, 2, 2, 5, 7, 11, 13, 13, 14, 15)
        want = self.per_call(monkeypatch, idx, 16)
        monkeypatch.setattr(magnon_state, "_PLAN_ENTRY_CEILING", magnon_state._plan_entries(16, 10) - 1)
        got = _subset_permanents(idx, 16, range(1, 17))
        assert _chain_plan.cache_info().currsize == 0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # under a ceiling below the whole-chain plan a depth-9 plan is kept,
        # and stays as it is while a deeper one is refused
        _subset_permanents(idx[:9], 16, range(1, 17))
        kept = _chain_plan.cache_info()
        assert (kept.misses, kept.currsize) == (1, 1)
        assert np.array_equal(_subset_permanents(idx, 16, range(1, 17)).view(np.uint64), want.view(np.uint64))
        assert _chain_plan.cache_info() == kept
        assert len(_chain_plan(16, 9)) == 9
        assert _chain_plan.cache_info().hits == kept.hits + 1

    def test_plan_arrays_are_read_only(self):
        _chain_plan.cache_clear()
        _subset_permanents((0, 1, 1, 4, 6, 9, 9), 12, range(1, 13))
        plan = _chain_plan(12, 11)
        assert _chain_plan.cache_info().misses == 1
        with pytest.raises(TypeError):
            plan[0] = plan[1]
        arrays = [a for level in plan for a in level]
        assert len(arrays) == 2 * 11
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0, 0] = 1

    def test_lone_site_lists_leave_the_plan_alone(self):
        _chain_plan.cache_clear()
        for sites in ((1, 3, 4, 6, 8, 9, 12), tuple(range(1, 13))):
            lone_list(MomentumVector(12, (2, 2, 3, 5, 7, 8, 11, 0, 0, 1, 6, 4)[:len(sites)]), sites)
        assert _chain_plan.cache_info().misses == 0
        _subset_permanents((0, 1, 1, 4, 6, 9, 9), 12, range(1, 13))
        info = _chain_plan.cache_info()
        lone_list(MomentumVector(12, (0, 1, 1, 4, 6, 9, 9)), (1, 3, 4, 6, 8, 9, 12))
        assert _chain_plan.cache_info() == info

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
            assert abs(float(np.linalg.norm(st.amplitudes)) - 1.0) < 1e-12

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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_a_domain_error(self, budget):
        spec = MagnonStateSpec(8, 2, MomentumVector(8, (1, 3)))
        with pytest.raises(DomainError, match=rf"^budget must be at least 1, got {budget}$"):
            build_state(spec, budget=budget)

    def test_translation_moves_phases_not_moduli(self):
        N, m, k = 8, 2, MomentumVector(8, (1, 3))
        st = build_state(MagnonStateSpec(N, m, k))
        phase = np.exp(1j * k.values.sum())
        for r, l in enumerate(enumerate_combinations(N, m)):
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

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_wavenumber_is_a_domain_error(self, k):
        with pytest.raises(DomainError, match="wavenumber must be finite"):
            single_mode_state(6, 2, k)


def dense_hamiltonian(N, entries, J):
    """H = -J sum_l sigma_l . sigma_{l+1} on a dense 2^N vector, site l at
    bit l - 1: J N v minus 2 J times each bond-swapped copy of v."""
    idx = np.arange(1 << N)
    out = (J * N) * entries.copy()
    for l in range(N):
        r = (l + 1) % N
        bl = (idx >> l) & 1
        br = (idx >> r) & 1
        swapped = idx ^ (((bl ^ br) << l) | ((bl ^ br) << r))
        out -= 2.0 * J * entries[swapped]
    return out


def product_indices(state):
    """The 2^N product-basis index of each site list of the table."""
    rows = enumerate_combinations(state.N, state.m)
    return np.array([sum(1 << (l - 1) for l in sites) for sites in rows], dtype=np.int64)


def embed(state):
    """The table scattered into the dense 2^N product basis."""
    entries = np.zeros(1 << state.N, dtype=np.complex128)
    entries[product_indices(state)] = state.amplitudes
    return entries


def random_table(rng, N, m):
    dim = math.comb(N, m)
    return AmplitudeTable(N, m, rng.normal(size=dim) + 1j * rng.normal(size=dim), 1.0)


def eigen_residual(N, indices):
    """||H a - E a|| of the plane-wave table and its dispersion energy,
    once on the table and once on its dense 2^N embedding."""
    state = build_state(MagnonStateSpec(N, len(indices), MomentumVector(N, indices)))
    energy = -N + sum(dispersion(1.0, 2.0 * math.pi * j / N) for j in indices)
    table = float(np.linalg.norm(apply_hamiltonian(state) - energy * state.amplitudes))
    vec = embed(state)
    dense = float(np.linalg.norm(dense_hamiltonian(N, vec, 1.0) - energy * vec))
    return table, dense


class TestHamiltonian:
    @pytest.mark.parametrize("N", range(1, 11))
    def test_is_the_dense_action_bit_for_bit_on_the_sector(self, N):
        rng = np.random.default_rng(N)
        for m in range(N + 1):
            for J in (1.0, 1.3):
                state = random_table(rng, N, m)
                want = dense_hamiltonian(N, embed(state), J)[product_indices(state)]
                got = apply_hamiltonian(state, J)
                assert got.dtype == np.complex128 and got.shape == state.amplitudes.shape
                assert got.tobytes() == want.tobytes(), (N, m, J)

    def test_polarised_ground_state(self):
        # all spins down, the m = 0 table: every bond term gives -J
        for N in (1, 5):
            assert apply_hamiltonian(AmplitudeTable(N, 0, [1.0], 1.0), J=1.0).tolist() == [-N + 0j]

    @pytest.mark.parametrize("N", [2, 4, 6, 9, 40, 63])
    def test_one_flip_eigenstates(self, N):
        for j in range(N):
            spec = MagnonStateSpec(N, 1, MomentumVector(N, (j,)))
            state = build_state(spec)
            energy = -N + dispersion(1.0, 2.0 * math.pi * j / N)
            assert np.linalg.norm(apply_hamiltonian(state, J=1.0) - energy * state.amplitudes) < 1e-12

    def test_refuses_chains_past_the_int64_masks(self):
        with pytest.raises(InfeasibilityError, match=r"^site-list bit masks need 64 bits, int64 holds 63$"):
            apply_hamiltonian(single_mode_state(64, 1, 0.5))

    @pytest.mark.parametrize("N, m", [(6, 3), (9, 2), (12, 5)])
    def test_hermitian_on_random_tables(self, N, m):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u, v = random_table(rng, N, m), random_table(rng, N, m)
            hu, hv = apply_hamiltonian(u, J=1.3), apply_hamiltonian(v, J=1.3)
            a, b = u.amplitudes, v.amplitudes
            assert abs(np.vdot(a, hv) - np.vdot(hu, b)) < 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)

    @pytest.mark.parametrize("N", range(4, 15))
    def test_residual_text_is_the_dense_text(self, N):
        # the norms sum C(N, m) and 2^N squares, so they may differ in the
        # last bit; the printed residual may not
        for k in [(j,) for j in range(N)] + [(1, 3)]:
            table, dense = eigen_residual(N, k)
            assert f"{table:.3e}" == f"{dense:.3e}", (N, k)

    def test_two_flip_residual_shrinks_with_dilution(self):
        """Finite-size two-flip tables are approximate eigenstates whose
        defect falls as the chain grows at fixed flip count."""
        residuals = []
        for N in (8, 10, 12, 14, 20, 30):
            spec = MagnonStateSpec(N, 2, MomentumVector(N, (1, 3)))
            state = build_state(spec)
            energy = -N + sum(dispersion(1.0, 2.0 * math.pi * j / N) for j in (1, 3))
            residuals.append(float(np.linalg.norm(apply_hamiltonian(state) - energy * state.amplitudes)))
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
