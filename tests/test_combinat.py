import itertools
import math
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

import error_model as model
from magcoh import (
    DomainError,
    InfeasibilityError,
    InternalConsistencyError,
    MagnonStateSpec,
    MomentumVector,
    SubsystemSpec,
    admissible_q,
    averaged_coherence_single_mode,
    beta_decomposition,
    binary_entropy,
    enumerate_combinations,
    finite_size_coherence_density,
    hypergeometric_pmf,
    log_binomial,
    max_coherence,
    rank_combination,
    reduce_single_mode,
    sector_law,
    single_mode_state,
    sweep,
)
from magcoh import combinat
from magcoh.combinat import _RANK_CACHE_SIZE, EXACT_LIMIT, _site_sums, combination_array
from magcoh.reduced_density import _side_ranks


def per_slot_rank(sites, n):
    """Exact-integer oracle: count the lists before sites, slot by slot."""
    m, rank, prev = len(sites), 0, 0
    for i, s in enumerate(sites, start=1):
        for c in range(prev + 1, s):
            rank += math.comb(n - c, m - i)
        prev = s
    return rank


class TestBinomial:
    # log_binomial: the exact log up to EXACT_LIMIT, log-gamma beyond
    @pytest.mark.parametrize("n,k,value", [(0, 0, 1), (4, 2, 6), (6, 0, 1), (6, 6, 1), (10, 3, 120)])
    def test_small_exact(self, n, k, value):
        assert log_binomial(n, k) == math.log(value)

    def test_large_is_log_only(self):
        # frozen against the big-integer value 17310309456440
        assert abs(log_binomial(100, 10) - math.log(math.comb(100, 10))) < 1e-10
        assert abs(log_binomial(100, 10) - 30.48232336227865) < 1e-10

    def test_exact_kept_up_to_the_limit(self):
        assert log_binomial(EXACT_LIMIT, 32) == math.log(math.comb(EXACT_LIMIT, 32))

    def test_exact_and_log_agree_below_the_limit(self):
        for n in range(EXACT_LIMIT + 1):
            for k in range(n + 1):
                assert log_binomial(n, k) == math.log(math.comb(n, k))

    def test_gamma_route_matches_exact_logs(self):
        # the n > 64 formula, evaluated where the exact answer is known
        for n in (20, 40, 64):
            for k in (0, 1, n // 3, n // 2, n):
                gamma = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                exact = math.log(math.comb(n, k))
                assert abs(gamma - exact) <= 1e-10 * max(1.0, abs(exact))

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, -1), (3, 4)])
    def test_domain(self, n, k):
        with pytest.raises(DomainError):
            log_binomial(n, k)

    @pytest.mark.parametrize("n,k", [(5, 2), (64, 32), (100, 10), (1000, 333)])
    def test_integer_valued_floats_keep_the_bits(self, n, k):
        # both routes: exact log up to EXACT_LIMIT, log-gamma beyond
        expected = log_binomial(n, k).hex()
        assert log_binomial(n, float(k)).hex() == expected
        assert log_binomial(float(n), float(k)).hex() == expected

    @pytest.mark.parametrize("n,k", [(5, 2.5), (5.5, 2), (100, 10.25), (5, float("nan")), (5, "2")])
    def test_non_integer_arguments_are_domain_errors(self, n, k):
        with pytest.raises(DomainError, match="must be an integer"):
            log_binomial(n, k)


class TestCombinations:
    def test_lexicographic_listing(self):
        assert enumerate_combinations(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert enumerate_combinations(4, 0) == [()]

    def test_listing_is_sorted_and_complete(self):
        seq = enumerate_combinations(6, 3)
        assert len(seq) == 20
        assert len(set(seq)) == 20
        assert seq == sorted(seq)

    def test_rank_examples(self):
        assert rank_combination((1, 2), 4) == 0
        assert rank_combination((3, 4), 4) == 5
        assert rank_combination((), 5) == 0

    def test_rank_is_the_listing_position_to_twelve_sites(self):
        for n in range(13):
            for m in range(n + 1):
                for r, l in enumerate(enumerate_combinations(n, m)):
                    assert rank_combination(l, n) == r

    @seed(2207)
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), max_size=n) if n else st.just(set()))))
    def test_rank_matches_the_per_slot_count(self, case):
        n, chosen = case
        sites = tuple(sorted(chosen))
        assert rank_combination(sites, n) == per_slot_rank(sites, n)

    def test_bad_sitelists_rejected(self):
        with pytest.raises(DomainError):
            rank_combination((2, 2), 5)
        with pytest.raises(DomainError):
            rank_combination((3, 1), 5)
        with pytest.raises(DomainError):
            rank_combination((0, 1), 5)
        with pytest.raises(DomainError):
            rank_combination((1, 6), 5)
        with pytest.raises(DomainError):
            rank_combination((1, 2.5), 5)

    def test_enumerate_domain(self):
        with pytest.raises(DomainError):
            enumerate_combinations(3, 4)


class TestAdmissibleRange:
    def test_small_chain(self):
        r = admissible_q(4, 2, 2)
        assert r == range(0, 3)
        assert list(r) == [0, 1, 2]
        assert 1 in r and 3 not in r
        assert len(r) == 3

    def test_crowded_complement(self):
        # 9 flips on 10 sites: a 2-site block must hold at least one
        assert admissible_q(10, 2, 9) == range(1, 3)

    def test_whole_chain(self):
        assert admissible_q(7, 7, 3) == range(3, 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            admissible_q(4, 0, 1)
        with pytest.raises(DomainError):
            admissible_q(4, 5, 1)
        with pytest.raises(DomainError):
            admissible_q(4, 2, 5)


class TestHypergeometric:
    def test_exact_small_value(self):
        # C(2,1)C(2,1)/C(4,2) = 4/6
        assert abs(hypergeometric_pmf(4, 2, 2, 1) - 2.0 / 3.0) < 1e-15
        assert abs(hypergeometric_pmf(4, 2, 2, 0) - 1.0 / 6.0) < 1e-15

    def test_matches_big_integer_ratios(self):
        for N, n, m in [(12, 5, 3), (30, 11, 7), (60, 24, 13)]:
            for q in admissible_q(N, n, m):
                exact = math.comb(N - n, m - q) * math.comb(n, q) / math.comb(N, m)
                assert abs(hypergeometric_pmf(N, n, m, q) - exact) < 1e-13

    @pytest.mark.parametrize("N,n,m", [(12, 5, 3), (40, 13, 7), (200, 81, 45), (200, 176, 168)])
    def test_normalization(self, N, n, m):
        total = sum(hypergeometric_pmf(N, n, m, q) for q in admissible_q(N, n, m))
        assert abs(total - 1.0) < 1e-12

    def test_normalization_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            N = int(rng.integers(2, 201))
            n = int(rng.integers(1, N + 1))
            m = int(rng.integers(0, N + 1))
            total = sum(hypergeometric_pmf(N, n, m, q) for q in admissible_q(N, n, m))
            assert abs(total - 1.0) < 1e-12

    def test_block_and_flip_roles_commute(self):
        for N, n, m in [(12, 5, 3), (30, 11, 7), (200, 45, 81)]:
            for q in admissible_q(N, n, m):
                assert abs(hypergeometric_pmf(N, n, m, q) - hypergeometric_pmf(N, m, n, q)) < 1e-12

    def test_empty_band(self):
        assert hypergeometric_pmf(10, 4, 0, 0) == 1.0

    def test_q_outside_range(self):
        with pytest.raises(DomainError):
            hypergeometric_pmf(4, 2, 2, 3)
        with pytest.raises(DomainError):
            hypergeometric_pmf(10, 2, 9, 0)

    def test_non_integer_q_is_a_domain_error(self):
        with pytest.raises(DomainError):
            hypergeometric_pmf(8, 3, 2, 1.5)
        with pytest.raises(DomainError, match="must be an integer"):
            hypergeometric_pmf(8, 3, 2, 2.5)

    @pytest.mark.parametrize("N,n,m,q", [(8, 3, 2, 2), (8, 3, 2, 0), (200, 81, 45, 18), (1000, 400, 300, 120)])
    def test_integer_valued_float_q_keeps_the_bits(self, N, n, m, q):
        assert hypergeometric_pmf(N, n, m, float(q)).hex() == hypergeometric_pmf(N, n, m, q).hex()


class TestSectorLaw:
    @pytest.mark.parametrize("N,n,m", [(1000, 500, 300), (100_000, 50_000, 31_259)])
    def test_matches_exact_integers_around_the_mode_and_in_the_tails(self, N, n, m):
        law = sector_law(N, n, m)
        rel_p, abs_log_p, abs_log_dim = model.sector_law_bounds(N, n, m, law)
        first, last = int(law.q[0]), int(law.q[-1])
        mode = model.anchor(N, n, m)
        picks = {first, last, *(min(max(mode + d, first), last) for d in (-400, -120, -30, -4, 0, 3, 25, 110, 380))}
        for q in sorted(picks):
            i = q - first
            count, total = math.comb(N - n, m - q) * math.comb(n, q), math.comb(N, m)
            exact = count / total
            # the oracle is correctly rounded, so it adds u on its side
            assert abs(law.p[i] - exact) <= (rel_p[i] + model.U) * exact, q
            if exact >= sys.float_info.min:
                log_exact, oracle = math.log(exact), 2.0 * model.U * (1.0 + abs(math.log(exact)))
            else:
                # tail below the normal range: ln p from the two integers, each log within 2 ulps
                log_count, log_total = math.log(count), math.log(total)
                log_exact, oracle = log_count - log_total, 2.0 * model.U * (1.0 + log_count + log_total)
            assert abs(law.log_p[i] - log_exact) <= abs_log_p[i] + oracle, q
            log_dim = math.log(math.comb(n, q))
            assert abs(law.log_dim[i] - log_dim) <= abs_log_dim[i] + 2.0 * model.U * log_dim, q

    @seed(1401)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 80).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N), st.integers(0, N))))
    def test_matches_fractions_on_small_chains(self, triple):
        N, n, m = triple
        law = sector_law(N, n, m)
        assert list(law.q) == list(admissible_q(N, n, m))
        rel_p, abs_log_p, abs_log_dim = model.sector_law_bounds(N, n, m, law)
        total = math.comb(N, m)
        for i, q in enumerate(law.q.tolist()):
            exact = Fraction(math.comb(N - n, m - q) * math.comb(n, q), total)
            assert abs(Fraction(law.p[i]) - exact) <= Fraction(rel_p[i]) * exact
            log_exact = math.log(float(exact))
            assert abs(law.log_p[i] - log_exact) <= abs_log_p[i] + 2.0 * model.U * (1.0 + abs(log_exact))
            log_dim = math.log(math.comb(n, q))
            assert abs(law.log_dim[i] - log_dim) <= abs_log_dim[i] + 2.0 * model.U * log_dim
        assert abs(math.fsum(law.p) - 1.0) <= float(law.p @ rel_p)

    def test_single_sector(self):
        law = sector_law(10, 10, 4)
        assert law.q.tolist() == [4]
        assert law.p.tolist() == [1.0] and law.log_p.tolist() == [0.0]
        assert law.log_dim.tolist() == [math.log(210)]

    def test_domain_and_ceiling(self):
        with pytest.raises(DomainError):
            sector_law(4, 2, 5)
        with pytest.raises(InfeasibilityError, match="2\\^63"):
            sector_law(2 ** 32, 3, 2)


def whole_range_law(N, n, m):
    """The sector law over the whole admissible range in the one-function
    form it had before the law was built over runs of that range: the
    reference the whole-run kernel must keep bit for bit."""
    sector = admissible_q(N, n, m)
    q = np.arange(sector.start, sector.stop, dtype=np.int64)
    mode = min(max((n + 1) * (m + 1) // (N + 2), sector[0]), sector[-1]) - sector[0]
    steps = q[:-1]
    num = (n - steps) * (m - steps)
    den = (steps + 1) * (N - n - m + steps + 1)
    excess = ((n + 1) * (m + 1) - (N + 2) * (steps + 1)) / den
    log_ratio = np.where(np.abs(excess) < 0.5, np.log1p(excess), np.log(num / den))
    log_weight = combinat._log_ratio_cumsum(mode, log_ratio)
    weight = np.exp(log_weight)
    total = float(weight.sum())
    log_dim = combinat._log_ratio_cumsum(mode, np.log((n - steps) / (steps + 1))) + log_binomial(n, int(q[mode]))
    return q, weight / total, log_weight - math.log(total), log_dim


LAW_FIELDS = ("q", "p", "log_p", "log_dim")


def law_bytes(law):
    return [getattr(law, f).tobytes() for f in LAW_FIELDS]


def whole_run(N, n, m):
    """``combinat._law`` over the whole admissible range: the law before
    the window drops its exact zeros."""
    sector = admissible_q(N, n, m)
    return combinat._law(N, n, m, sector, sector[0], sector[-1])


class TestSupportLaw:
    """``sector_law`` spans the law's float support only."""

    def test_whole_range_law_keeps_its_bits(self):
        grid = {
            (N, n, m)
            for N in (1, 2, 9, 64, 65, 1_000, 3_001, 12_345, 100_000)
            for n in (1, N // 7, N // 2, N - 1, N)
            for m in (0, 1, N // 3, 3 * N // 10, N // 2, N - 2, N)
            if 1 <= n <= N and 0 <= m <= N
        }
        for N, n, m in sorted(grid):
            assert law_bytes(whole_run(N, n, m)) == [a.tobytes() for a in whole_range_law(N, n, m)], (N, n, m)

    @seed(3401)
    @settings(deadline=None, database=None)
    @given(
        st.one_of(
            st.integers(1, 16_000).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N), st.integers(0, N))),
            # s = min(n, m, N - n, N - m) >= 1,500, where the window truncates
            st.integers(6_000, 16_000).flatmap(
                lambda N: st.tuples(st.just(N), st.integers(N // 4, N - N // 4), st.integers(N // 4, N - N // 4))
            ),
        )
    )
    def test_window_holds_every_nonzero_weight_and_keeps_the_sums(self, triple):
        N, n, m = triple
        full, window = whole_run(N, n, m), sector_law(N, n, m)
        lo, hi = int(window.q[0]), int(window.q[-1])
        nonzero = full.q[full.p != 0.0]
        assert lo <= nonzero[0] and nonzero[-1] <= hi
        # ln C(n, q) is summed from the same mode whatever the run
        start = lo - int(full.q[0])
        assert window.log_dim.tobytes() == full.log_dim[start : start + len(window.q)].tobytes()
        entropy, avg_log = -float(window.p @ window.log_p), float(window.p @ window.log_dim)
        event("window covers the range" if len(window.q) == len(full.q) else "window truncates")
        if len(window.q) == len(full.q):
            assert law_bytes(window) == law_bytes(full)
            assert entropy == -float(full.p @ full.log_p) and avg_log == float(full.p @ full.log_dim)
            return
        # the error model of the whole law through one dot product of Q terms, as
        # for the sums at N = 1e5 in test_thermo.py; the window's total has fewer terms
        p, log_p, log_dim = model.exact_law(N, n, m)
        rel_p, abs_log_p, abs_log_dim = model.sector_law_bounds(N, n, m, full)
        want_entropy, want_avg_log = -math.fsum(p * log_p), math.fsum(p * log_dim)
        Q = len(full.q)
        tol_entropy = float(full.p @ (rel_p * np.abs(full.log_p) + abs_log_p)) + model.gamma(Q) * want_entropy
        tol_avg_log = float(full.p @ (rel_p * full.log_dim + abs_log_dim)) + model.gamma(Q) * want_avg_log
        assert abs(entropy - want_entropy) <= tol_entropy + 3.0 * model.U * (want_entropy + 1.0)
        assert abs(avg_log - want_avg_log) <= tol_avg_log + 4.0 * model.U * want_avg_log

    @pytest.mark.parametrize("N,n,m,entries", [(1_000, 500, 300, 301), (10_000, 5_000, 3_000, 2_133), (10**6, 5 * 10**5, 3 * 10**5, 21_341)])
    def test_window_size(self, N, n, m, entries):
        # covers the range whenever s = min(n, m, N - n, N - m) < 380, and up to
        # s near 1,500 when the mean n m / N sits mid-range
        assert len(sector_law(N, n, m).q) == entries

    def test_a_run_that_cuts_a_nonzero_weight_is_refused(self):
        N, n, m = 10_000, 5_000, 3_000
        sector = admissible_q(N, n, m)
        window, full = sector_law(N, n, m), whole_run(N, n, m)
        lo, hi = int(window.q[0]), int(window.q[-1])
        nonzero = full.q[full.p != 0.0]
        # each run starts or ends one past the outermost nonzero weight
        for run in ((int(nonzero[0]) + 1, hi), (lo, int(nonzero[-1]) - 1)):
            with pytest.raises(InternalConsistencyError, match="cuts off a nonzero weight"):
                combinat._law(N, n, m, sector, *run)
        assert law_bytes(combinat._law(N, n, m, sector, lo, hi)) == law_bytes(window)

    @seed(3701)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.integers(1, 20_000).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.one_of(st.integers(1, min(N, 60)), st.integers(max(1, N - 60), N), st.integers(1, N)),
                st.one_of(st.integers(0, min(N, 60)), st.integers(max(0, N - 60), N), st.integers(0, N)),
            )
        ),
        st.floats(-4.0, 4.0),
    )
    def test_an_admitted_reduction_reads_the_whole_range(self, triple, k):
        # every sector the default budget admits has s < 380, where the
        # window is the whole admissible range
        N, n, m = triple
        try:
            reduced = reduce_single_mode(N, n, m, k)
        except InfeasibilityError:
            event("refused by the budget")
            return
        event("admitted")
        sector = admissible_q(N, n, m)
        assert reduced.q_values == tuple(sector)
        whole = whole_run(N, n, m)
        sums = _site_sums(n, sector[0], sector[-1])
        for q, p, s in zip(sector, whole.p.tolist(), sums):
            w, phi = reduced.blocks.sectors[q]
            assert w.hex() == (p / math.comb(n, q)).hex(), q
            assert phi.tobytes() == np.exp(1j * k * s).tobytes(), q

    @seed(3702)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.integers(1, 1_030).flatmap(
            lambda n: st.integers(n, 40_000).flatmap(lambda N: st.tuples(st.just(N), st.just(n), st.integers(0, N)))
        )
    )
    def test_the_l1_average_is_the_whole_range_sum_where_the_window_covers_it(self, triple):
        N, n, m = triple
        try:
            got = averaged_coherence_single_mode(N, n, m, 0.0, "l1")
        except InfeasibilityError:
            event("C(n, q) leaves the float range")
            return
        whole = whole_run(N, n, m)
        if len(sector_law(N, n, m).q) < len(whole.q):
            event("window truncates")
            return
        event("window covers the range")
        dims = np.array([float(math.comb(n, q)) for q in whole.q.tolist()])
        assert got.hex() == float(whole.p @ (dims - 1.0)).hex()

    def test_arrays_are_read_only(self):
        law = sector_law(8, 3, 2)
        for field in LAW_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(law, field)[0] = 0


class TestBinaryEntropy:
    def test_pinned_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.5) - math.log(2.0)) < 1e-15
        # frozen high-precision value of s(0.1)
        assert abs(binary_entropy(0.1) - 0.3250829733914482) < 1e-12

    def test_symmetry(self):
        for x in np.linspace(0.01, 0.99, 17):
            assert abs(binary_entropy(float(x)) - binary_entropy(float(1.0 - x))) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: SubsystemSpec(8, (NAN,)),
        lambda: SubsystemSpec(8, (None,)),
        lambda: SubsystemSpec(8, ("2",)),
        lambda: rank_combination((1, NAN), 5),
        lambda: rank_combination((1, 2), 5.5),
        lambda: rank_combination((1, 2), "5"),
        lambda: MomentumVector(8, (INF,)),
        lambda: MomentumVector(8, ("a",)),
        lambda: MomentumVector(8, (1.5,)),
        lambda: max_coherence(NAN),
        lambda: sweep(1.0, -1.0, 1.0, NAN),
        lambda: enumerate_combinations(4.5, 2),
        lambda: enumerate_combinations("4", 2),
        lambda: admissible_q(8.5, 3, 2),
        lambda: admissible_q(8, 3, INF),
        lambda: combination_array(4.5, 2),
        lambda: single_mode_state(4.5, 2, 0.1),
        lambda: reduce_single_mode(10, 4.5, 3, 0.1),
        lambda: MagnonStateSpec(8, 2.5, MomentumVector(8, (1, 2))),
        lambda: MomentumVector("10", (1,)),
        lambda: MomentumVector(10.5, (1,)),
        lambda: SubsystemSpec(10.5, (1, 2)),
        lambda: SubsystemSpec.prefix(10, 3.5),
        lambda: sector_law(10, 4.5, 3),
        lambda: finite_size_coherence_density(40, 16, 6.5),
        lambda: beta_decomposition(60, 20, 6.5, 1.0),
        lambda: averaged_coherence_single_mode(10, 4.5, 3, 0.1, "l1"),
    ],
    ids=[
        "subsystem-nan", "subsystem-none", "subsystem-str", "rank-nan", "rank-n-half", "rank-n-str",
        "momentum-inf", "momentum-str", "momentum-half", "max-coherence-nan", "sweep-count-nan",
        "enumerate-half", "enumerate-str", "admissible-half", "admissible-inf", "combination-array-half",
        "single-mode-state-half", "reduce-single-mode-half", "spec-m-half",
        "momentum-n-str", "momentum-n-half", "subsystem-n-half", "prefix-half",
        "sector-law-half", "finite-size-half", "beta-decomposition-half", "averaged-half",
    ],
)
def test_non_integer_arguments_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_integer_valued_floats_are_their_integers():
    assert enumerate_combinations(4.0, 2.0) == enumerate_combinations(4, 2)
    assert admissible_q(8.0, 3.0, 2.0) == range(0, 3)
    assert max_coherence(4.0) == max_coherence(4)
    assert len(sweep(1.0, -1.0, 1.0, 3.0).points) == 3
    assert SubsystemSpec(8, (2.0, 5.0)).sites == (2, 5)
    assert MomentumVector(8, (3.0,)).indices == (3,)
    assert np.array_equal(combination_array(4.0, 2), combination_array(4, 2))
    assert rank_combination((3, 4), 4.0) == rank_combination((3, 4), 4) == 5
    assert np.array_equal(single_mode_state(4.0, 2, 0.1).amplitudes, single_mode_state(4, 2, 0.1).amplitudes)
    by_float, by_int = reduce_single_mode(10, 4.0, 3, 0.1), reduce_single_mode(10, 4, 3, 0.1)
    assert by_float.n == 4 and all(np.array_equal(by_float.blocks[q], by_int.blocks[q]) for q in by_int.q_values)
    assert MagnonStateSpec(8.0, 2.0, MomentumVector(8, (1, 2))).m == 2
    assert MomentumVector(10.0, (1,)).N == 10 and type(MomentumVector(10.0, (1,)).N) is int
    assert SubsystemSpec(10.0, (1, 2)).complement == SubsystemSpec(10, (1, 2)).complement
    assert SubsystemSpec.prefix(10, 3.0).sites == (1, 2, 3)
    by_float, by_int = sector_law(10.0, 4.0, 3.0), sector_law(10, 4, 3)
    for field in LAW_FIELDS:
        assert np.array_equal(getattr(by_float, field), getattr(by_int, field))
    assert finite_size_coherence_density(40.0, 16.0, 6.0) == finite_size_coherence_density(40, 16, 6)
    assert beta_decomposition(60.0, 20.0, 6.0, 1.0) == beta_decomposition(60, 20, 6, 1.0)
    for measure in ("r", "l1", "ln"):
        by_float = averaged_coherence_single_mode(10.0, 4.0, 3.0, 0.1, measure)
        assert by_float == averaged_coherence_single_mode(10, 4, 3, 0.1, measure)


class TestCombinationTables:
    # combination_array and _site_sums against tables built by itertools
    @seed(1507)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 18).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 2))))
    def test_combination_array_is_the_itertools_table(self, case):
        n, m = case
        want = np.array(list(itertools.combinations(range(1, n + 1), m)), dtype=np.int64).reshape(math.comb(n, m), m)
        got = combination_array(n, m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,m", [(-1, 0), (-1, 2), (4, -1), (-3, -2)])
    def test_negative_sizes_are_domain_errors(self, n, m):
        with pytest.raises(DomainError, match="cannot tabulate"):
            combination_array(n, m)

    @seed(1508)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.integers(1, 24)
        .flatmap(lambda N: st.tuples(st.just(N), st.integers(1, min(N, 16)), st.integers(0, N)))
    )
    def test_site_sums_are_the_itertools_row_sums(self, case):
        N, n, m = case
        sector = admissible_q(N, n, m)
        got = _site_sums(n, sector[0], sector[-1])
        assert len(got) == len(sector)
        for q, sums in zip(sector, got):
            want = np.array([sum(l) for l in itertools.combinations(range(1, n + 1), q)], dtype=np.int64)
            assert sums.dtype == np.int64 and np.array_equal(sums, want), q


class TestRankCache:
    # rank_combination memoises under (tuple of ints, int n); no key may change a result
    @seed(2208)
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), max_size=n) if n else st.just(set()))))
    def test_cached_ranks_are_the_closed_form_cold_and_warm(self, case):
        n, chosen = case
        sites = tuple(sorted(chosen))
        want = per_slot_rank(sites, n)
        combinat._rank.cache_clear()
        assert rank_combination(sites, n) == want
        assert combinat._rank.cache_info().misses == 1
        assert rank_combination(sites, n) == want
        assert combinat._rank.cache_info().hits == 1
        assert rank_combination(list(sites), n) == want

    def test_equal_keys_rank_alike_and_invalid_keys_still_raise(self):
        combinat._rank.cache_clear()
        assert rank_combination((1, 2), 5) == 0
        assert rank_combination((1.0, 2.0), 5) == 0
        assert rank_combination(np.array([1, 2]), 5) == 0
        assert rank_combination((1, 2), 5.0) == 0
        assert combinat._rank.cache_info().currsize == 1
        for sites, text in [
            ((1, 2.5), "must be an integer"),
            ((2, 2), r"^site indices must be strictly increasing, got 2 then 2 at entry 2 of 2$"),
            ((1, NAN), "must be an integer"),
            ((1 + 0j, 2), "must be an integer"),
            ((1, 6), r"^site indices must lie in \[1, 5\], got 6 at entry 2 of 2$"),
        ]:
            with pytest.raises(DomainError, match=text):
                rank_combination(sites, 5)
        assert combinat._rank.cache_info().currsize == 1
        with pytest.raises(DomainError, match="among -1 sites"):
            rank_combination((), -1)

    def test_exactness_pass_refuses_or_normalises_every_inexact_key(self):
        # each key comes after (1, 2) is cached, so a key equal to it would hit
        combinat._rank.cache_clear()
        assert rank_combination((1, 2), 5) == 0
        for sites in [(1 + 0j, 2), (np.complex128(1), 2), ("1", 2), (1, None), (Decimal("inf"), Decimal("-inf"))]:
            with pytest.raises(DomainError, match="must be an integer"):
                rank_combination(sites, 5)
        gen = (s for s in (1.0, 2))
        for sites in [(np.int64(1), 2), (Fraction(1), 2), (True, 2), gen]:
            assert rank_combination(sites, 5) == 0
        assert next(gen, None) is None
        assert combinat._rank.cache_info().currsize == 1
        with pytest.raises(DomainError, match=r"lie in \[1, 5\]"):
            rank_combination((1, 2**70), 5)
        assert combinat._rank.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "sites",
        [
            np.array([100, 200], dtype=np.uint8),
            [np.uint8(100), np.uint8(200)],
            (np.uint8(100), np.uint8(200)),
            [100, np.uint8(200)],
            (np.uint8(100), 200),
            (np.int8(100), np.uint8(200)),
        ],
        ids=["ndarray", "list", "tuple", "int-then-uint8", "uint8-then-int", "int8-then-uint8"],
    )
    def test_narrow_numpy_integers_rank_without_a_warning(self, sites):
        # a uint8 sum of these sites would overflow; the exactness pass must
        # neither warn nor raise, whichever way warnings are filtered
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert rank_combination(sites, 255) == per_slot_rank((100, 200), 255)
            assert caught == []

    @seed(2511)
    @settings(deadline=None, database=None)
    @given(st.data())
    def test_side_ranks_are_the_per_slot_rank_of_every_row(self, data):
        # a position table as reduce compresses it: q increasing nonzero
        # positions per row, scattered among zero columns
        n = data.draw(st.integers(0, 12), label="n")
        q = data.draw(st.integers(0, n), label="q")
        width = data.draw(st.integers(q, q + 4), label="width")
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.int64]), label="dtype")
        picks = data.draw(st.lists(st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(width))), max_size=6))
        pos = np.zeros((len(picks), width), dtype=dtype)
        want = []
        for r, (sites, cols) in enumerate(picks):
            sites = sorted(sites[:q])
            pos[r, sorted(cols[:q])] = sites
            want.append(per_slot_rank(tuple(sites), n))
        got = _side_ranks(pos, q, n)
        assert got.dtype == np.intp and got.tolist() == want

    def test_every_iterable_ranks_alike(self):
        for n, m in [(7, 3), (9, 4)]:
            for r, l in enumerate(enumerate_combinations(n, m)):
                forms = [list(l), np.array(l), (s for s in l), tuple(np.array(s) for s in l), l]
                assert [rank_combination(f, n) for f in forms] == [r] * len(forms)

    def test_distinct_keys_beyond_the_ceiling_leave_it_full(self):
        combinat._rank.cache_clear()
        lists = enumerate_combinations(21, 5)
        assert len(lists) > _RANK_CACHE_SIZE
        for r, l in enumerate(lists):
            assert rank_combination(l, 21) == r
        info = combinat._rank.cache_info()
        assert info.maxsize == info.currsize == _RANK_CACHE_SIZE

    def test_concurrent_ranking_through_a_thrashing_cache(self):
        # more threads than cores, more keys than the ceiling, frequent switches
        lists = enumerate_combinations(21, 5)
        wrong = []

        def worker(offset):
            for r in range(offset, len(lists), 3):
                if rank_combination(lists[r], 21) != r:
                    wrong.append(r)

        combinat._rank.cache_clear()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i % 3,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert combinat._rank.cache_info().currsize == _RANK_CACHE_SIZE
