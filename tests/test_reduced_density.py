import dataclasses
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import error_model as model
from error_model import gamma
from magcoh import (
    BlockDensityMatrix,
    CoherenceReport,
    DomainError,
    InfeasibilityError,
    InternalConsistencyError,
    MagnonStateSpec,
    MomentumVector,
    NullStateError,
    SubsystemSpec,
    build_state,
    hypergeometric_pmf,
    admissible_q,
    averaged_coherence_single_mode,
    c_l1,
    c_r,
    coherence_report,
    oracle_partial_trace,
    reduce,
    reduce_single_mode,
    sector_law,
)
import magcoh
from magcoh import coherence, combinat, reduced_density
from magcoh.combinat import combination_array
from magcoh.magnon_state import _DIRECT_PERMANENT_LIMIT, FULL_VECTOR_BUDGET, AmplitudeTable
from magcoh.reduced_density import _HERMITICITY_TILE, _GramBlocks, _RankOneBlocks, _hermiticity_residual


def random_state(rng, N, m):
    while True:
        idx = tuple(int(x) for x in rng.integers(0, N, size=m))
        try:
            return build_state(MagnonStateSpec(N, m, MomentumVector(N, idx)))
        except NullStateError:
            continue


def random_sites(rng, N, n):
    return tuple(sorted(int(s) + 1 for s in rng.choice(N, size=n, replace=False)))


def itertools_site_sums(n, q):
    """sum(l) over the q-flip site lists of {1, ..., n}, in canonical
    order, from itertools rather than the package's tables."""
    return np.array([sum(l) for l in itertools.combinations(range(1, n + 1), q)], dtype=np.int64)


def dense_single_mode(N, n, m, k):
    """The single-mode reduction with every sector stored as its dense
    block (p/d) phi phi^H; not yet validated."""
    law = sector_law(N, n, m)
    blocks = {}
    for q, p in zip(law.q.tolist(), law.p.tolist()):
        phases = np.exp(1j * k * itertools_site_sums(n, q))
        blocks[q] = (p / math.comb(n, q)) * np.outer(phases, phases.conj())
    return BlockDensityMatrix(n, blocks)


def rank_one_spectrum(rho):
    """Eigenvalues of an operator whose dense sectors are each rank one:
    (0, ..., 0, trace) per sector, all sorted descending."""
    parts = [np.append(np.zeros(len(b) - 1), np.trace(b).real) for b in rho.blocks.values()]
    return np.sort(np.concatenate(parts))[::-1]


def block_distance(left, right):
    """Largest entry difference across the union of flip sectors."""
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


class TestSubsystemSpec:
    def test_prefix(self):
        sub = SubsystemSpec.prefix(6, 3)
        assert sub.sites == (1, 2, 3)
        assert sub.n == 3
        assert sub.complement == (4, 5, 6)

    def test_scattered_complement(self):
        sub = SubsystemSpec(7, (2, 5, 7))
        assert sub.complement == (1, 3, 4, 6)

    def test_validation(self):
        with pytest.raises(DomainError):
            SubsystemSpec(5, ())
        with pytest.raises(DomainError):
            SubsystemSpec(5, (0, 1))
        with pytest.raises(DomainError):
            SubsystemSpec(5, (2, 2))
        with pytest.raises(DomainError):
            SubsystemSpec(5, (4, 6))
        with pytest.raises(DomainError, match="^parent chain length must be positive, got 0$"):
            SubsystemSpec(0, ())


class TestReduce:
    def test_single_site_is_diagonal(self):
        st = random_state(np.random.default_rng(0), 8, 2)
        reduced = reduce(st, SubsystemSpec.prefix(8, 1))
        assert reduced.q_values == (0, 1)
        assert all(reduced.blocks[q].shape == (1, 1) for q in (0, 1))
        assert abs(sum(reduced.block_weights.values()) - 1.0) < 1e-12

    def test_whole_chain_is_the_pure_projector(self):
        st = random_state(np.random.default_rng(1), 8, 2)
        reduced = reduce(st, SubsystemSpec.prefix(8, 8))
        assert reduced.q_values == (2,)
        assert abs(reduced.purity() - 1.0) < 1e-12
        spectrum = reduced.spectrum()
        assert abs(spectrum[0] - 1.0) < 1e-12
        assert np.abs(spectrum[1:]).max() < 1e-12
        a = st.amplitudes
        assert np.abs(reduced.blocks[2] - np.outer(a, a.conj())).max() < 1e-14

    def test_matches_oracle_mixed_momenta(self):
        st = build_state(MagnonStateSpec(8, 2, MomentumVector(8, (1, 3))))
        sub = SubsystemSpec.prefix(8, 3)
        assert block_distance(reduce(st, sub), oracle_partial_trace(st, sub)) < 1e-10

    def test_matches_oracle_scattered_sites(self):
        st = build_state(MagnonStateSpec(8, 3, MomentumVector(8, (1, 2, 5))))
        sub = SubsystemSpec(8, (2, 5, 7))
        assert block_distance(reduce(st, sub), oracle_partial_trace(st, sub)) < 1e-10

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            N = int(rng.integers(4, 11))
            m = int(rng.integers(1, 4))
            st = random_state(rng, N, m)
            n = int(rng.integers(1, N))
            sub = SubsystemSpec(N, random_sites(rng, N, n))
            got = reduce(st, sub)
            want = oracle_partial_trace(st, sub)
            assert block_distance(got, want) < 1e-10
            assert want.off_block_residual < 1e-12

    def test_parent_mismatch(self):
        st = random_state(np.random.default_rng(2), 6, 1)
        with pytest.raises(DomainError):
            reduce(st, SubsystemSpec.prefix(7, 2))

    def test_budget(self):
        st = build_state(MagnonStateSpec(12, 3, MomentumVector.constant(12, 1, 3)))
        with pytest.raises(InfeasibilityError):
            reduce(st, SubsystemSpec.prefix(12, 6), budget=10)
        # the 220-entry table fits; the q = 3 block, C(6, 3)^2 = 400 entries, does not
        with pytest.raises(InfeasibilityError, match=r"^sector q=3 needs a 20 x 20 block, budget is 300$"):
            reduce(st, SubsystemSpec.prefix(12, 6), budget=300)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_a_domain_error(self, budget):
        st = build_state(MagnonStateSpec(8, 2, MomentumVector(8, (1, 3))))
        sub = SubsystemSpec.prefix(8, 3)
        for call in (
            lambda: reduce(st, sub, budget=budget),
            lambda: reduce_single_mode(8, 3, 2, 0.3, budget=budget),
        ):
            with pytest.raises(DomainError, match=rf"^budget must be at least 1, got {budget}$"):
                call()


def gram_factor_bound(rows: int, cols: int, w: float) -> float:
    """How far the two sides' lowest eigenvalues can drift apart.

    Exactly, a wide Gram factor V (rows < cols) makes B = V^T conj(V)
    singular and V V^H semidefinite, so both routes read 0.  Each
    computed product is a complex inner product of length L (rows for
    B, cols for V V^H), within gamma(L + 2) |V|^T |V| entrywise, hence
    within gamma(L + 2) ||V||_F^2 = gamma(L + 2) w in 2-norm; by Weyl
    and the backward stability of eigvalsh, the solve of a d x d
    product adds gamma(4d) times its norm, at most w.
    """
    return (gamma(rows + 2) + gamma(4 * cols) + gamma(cols + 2) + gamma(4 * rows)) * w


class TestPositivityFromTheSmallerSide:
    N, m, n = 24, 5, 12

    @pytest.fixture(scope="class")
    def scattered(self):
        rng = np.random.default_rng(24)
        state = build_state(MagnonStateSpec(self.N, self.m, MomentumVector(self.N, (1, 2, 5, 11, 17))))
        return state, SubsystemSpec(self.N, random_sites(rng, self.N, self.n))

    def test_validate_solves_only_the_smaller_side(self, scattered, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def record(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        rho = reduce(*scattered)
        N, m, n = self.N, self.m, self.n
        smaller = [min(math.comb(n, q), math.comb(N - n, m - q)) for q in rho.q_values]
        assert max(smaller) < max(math.comb(n, q) for q in rho.q_values)
        assert sorted(shapes) == sorted((d, d) for d in smaller)
        shapes.clear()
        coherence_report(rho)
        assert sorted(shapes) == sorted(rho.blocks[q].shape for q in rho.q_values)

    def test_smaller_side_matches_the_dense_minimum(self, scattered):
        rho = reduce(*scattered)
        wide = 0
        for q in rho.q_values:
            v = rho.blocks.sectors[q]
            dense = float(np.linalg.eigvalsh(rho.blocks[q]).min())
            if v.shape[0] >= v.shape[1]:
                assert rho._lowest_eigenvalue(q, rho.blocks[q]) == dense
                continue
            wide += 1
            rows, cols = v.shape
            # the factor is in charge: a block that is never read cannot matter
            got = rho._lowest_eigenvalue(q, None)
            assert got <= 0.0
            assert abs(got - dense) <= gram_factor_bound(rows, cols, rho.block_weights[q])
        assert wide == 3

    def test_hand_built_negative_block_is_still_rejected(self, monkeypatch):
        negative = {1: np.array([[0.9, 0.8], [0.8, 0.1]], dtype=complex)}
        with pytest.raises(InternalConsistencyError, match="below the floor"):
            BlockDensityMatrix(2, negative).validate()
        # a factor with as many rows as columns leaves the dense block in
        # charge: a Gram block read as the negative one is still refused
        monkeypatch.setattr(_GramBlocks, "__getitem__", lambda self, q: negative[q])
        with pytest.raises(InternalConsistencyError, match="below the floor"):
            BlockDensityMatrix(2, _GramBlocks({1: np.eye(2, dtype=complex)})).validate()

    def test_no_caller_hands_over_a_gram_factor(self):
        # a wide factor whose Gram matrix is not the block would vouch for
        # a block with spectrum (1.394, -0.394)
        block = [[0.9, 0.8], [0.8, 0.1]]
        with pytest.raises(TypeError, match="factors"):
            BlockDensityMatrix(2, {1: block}, factors={1: np.array([[0.6, 0.8j]])})
        with pytest.raises(InternalConsistencyError, match="below the floor"):
            BlockDensityMatrix(2, {1: block}).validate()


def permanent_steps(k) -> int:
    """Rounded steps per amplitude on the route build_state takes.

    m! unit phases and their sum on the direct route; the subset DP's
    twists and level sums beyond it (``error_model.dp_steps``).
    """
    m = len(k)
    if m <= _DIRECT_PERMANENT_LIMIT:
        return math.factorial(m) + 1
    return model.dp_steps(k)


@st.composite
def route_pair_cases(draw):
    N = draw(st.integers(2, 10))
    m = draw(st.integers(1, N))
    indices = st.integers(0, N - 1)
    k = draw(st.lists(indices, min_size=m, max_size=m, unique=draw(st.booleans())))
    sites = draw(st.sets(st.integers(1, N), min_size=1, max_size=N))
    return N, tuple(k), tuple(sorted(sites))


@seed(3301)
@settings(max_examples=150, deadline=None, database=None)
@given(route_pair_cases())
@example((2, (0, 1), (1,)))
@example((4, (0, 1, 2, 3), (1, 3)))
@example((6, (0, 1, 2, 3, 4, 5), (2, 3, 5)))
@example((8, (0, 0, 0, 0, 0, 0, 0, 1), (1,)))
def test_reduce_matches_the_dense_oracle_on_random_specs(case):
    # The tolerance gamma(2 T_f + C(N, m) + db) w_q per sector allots the
    # table's rounding (T_f steps in f and again in |f|^2, C(N, m) terms
    # in its normalisation) on top of the db-term Gram sum.  Both routes
    # read the same table, so what they can actually differ by is their
    # two Gram roundings, 2 gamma(db + 2) w_q (the oracle's extra terms
    # are exact zeros); the allotment dominates that, as T_f >= 2 and
    # C(N, m) >= db.
    N, k, sites = case
    m = len(k)
    spec = MagnonStateSpec(N, m, MomentumVector(N, k))
    sub = SubsystemSpec(N, sites)
    try:
        state = build_state(spec)
    except NullStateError:
        # the null is no rounding artefact: Phi_N divides every row's exact
        # count polynomial, so every amplitude is exactly zero
        rows = combination_array(N, m)
        assert model.vanishes(model.count_polynomials(k, N, rows), N).all()
        return
    got = reduce(state, sub)
    want = oracle_partial_trace(state, sub)
    assert want.off_block_residual == 0.0
    assert set(want.q_values) <= set(got.q_values) == set(admissible_q(N, sub.n, m))
    T_f = permanent_steps(k)
    for q in got.q_values:
        db = math.comb(N - sub.n, m - q)
        tol = gamma(2 * T_f + math.comb(N, m) + db) * got.block_weights[q]
        ref = want.blocks.get(q, np.zeros_like(got.blocks[q]))
        assert float(np.abs(got.blocks[q] - ref).max()) <= tol, q


def per_row_factors(state, sub):
    """The factor V of every sector, filled one site list at a time: each
    list is split by position tables and both halves are ranked on
    their own, the way ``reduce`` scattered before it ran on arrays."""
    N, m, n = state.N, state.m, sub.n
    nb = N - n
    pos_a, pos_b = [0] * (N + 1), [0] * (N + 1)
    for i, s in enumerate(sub.sites, 1):
        pos_a[s] = i
    for i, s in enumerate(sub.complement, 1):
        pos_b[s] = i
    factors = {q: np.zeros((math.comb(nb, m - q), math.comb(n, q)), dtype=complex) for q in admissible_q(N, n, m)}
    for rank_full, l in enumerate(combinat.enumerate_combinations(N, m)):
        inside = tuple(pos_a[s] for s in l if pos_a[s])
        outside = tuple(pos_b[s] for s in l if pos_b[s])
        factors[len(inside)][combinat.rank_combination(outside, nb), combinat.rank_combination(inside, n)] = state.amplitudes[rank_full]
    return factors


def per_row_reduce(state, sub):
    """``reduce`` with the per-row scatter: the factored sectors of
    ``per_row_factors``, validated."""
    return BlockDensityMatrix(sub.n, _GramBlocks(per_row_factors(state, sub))).validate()


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of one call with a cold rank cache."""
    combinat._rank.cache_clear()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def scatter_cases(draw, max_N=14):
    """(N, momenta, sites) up to N = max_N, with repeated or distinct
    momenta, m up to N, and a prefix, scattered, single-site or
    whole-chain subsystem; the end sectors q = max(0, m - N + n) and
    q = min(n, m) have da = 1 or db = 1 whenever they reach an end of
    either side."""
    N = draw(st.integers(1, max_N))
    m = draw(st.integers(1, min(N, 7)) | st.just(N))
    k = draw(st.lists(st.integers(0, N - 1), min_size=m, max_size=m, unique=draw(st.booleans())))
    shape = draw(st.sampled_from(["prefix", "scattered", "single", "whole"]))
    if shape == "prefix":
        sites = tuple(range(1, draw(st.integers(1, N)) + 1))
    elif shape == "scattered":
        sites = tuple(sorted(draw(st.sets(st.integers(1, N), min_size=1, max_size=N))))
    elif shape == "single":
        sites = (draw(st.integers(1, N)),)
    else:
        sites = tuple(range(1, N + 1))
    return N, tuple(k), sites


class TestArrayScatter:
    @seed(1601)
    @settings(max_examples=120, deadline=None, database=None)
    @given(scatter_cases())
    @example((10, (1, 2, 5), tuple(range(1, 11))))
    @example((10, (1, 2, 5), (4,)))
    @example((5, (0, 1, 1, 3, 4), (2, 4)))
    @example((1, (0,), (1,)))
    @example((14, (0, 2, 3, 7, 9, 12, 13), (1, 4, 5, 8, 10, 13)))
    def test_blocks_and_factors_are_the_per_row_scatter_bit_for_bit(self, case):
        N, k, sites = case
        try:
            state = build_state(MagnonStateSpec(N, len(k), MomentumVector(N, k)))
        except NullStateError:
            return
        sub = SubsystemSpec(N, sites)
        try:
            got = reduce(state, sub)
        except InfeasibilityError:
            # a whole chain of 14 at m = 7 needs a 3432 x 3432 block
            assert max(math.comb(sub.n, q) ** 2 for q in admissible_q(N, sub.n, len(k))) > 10**7
            return
        want = per_row_factors(state, sub)
        assert got.q_values == tuple(want)
        for q, v in want.items():
            assert np.array_equal(got.blocks.sectors[q], v)
            assert np.array_equal(got.blocks[q], v.T @ v.conj())

    def test_ranks_every_half_of_every_site_list_once(self, monkeypatch):
        state = build_state(MagnonStateSpec(12, 4, MomentumVector(12, (1, 3, 3, 8))))
        calls = []
        rank = combinat.rank_combination

        def record(sites, n):
            calls.append(n)
            return rank(sites, n)

        monkeypatch.setattr(reduced_density, "rank_combination", record)
        reduce(state, SubsystemSpec(12, (2, 3, 7, 11, 12)))
        assert sorted(calls) == [5] * math.comb(12, 4) + [7] * math.comb(12, 4)

    @pytest.mark.parametrize("budget,message", [(100, "reduction scans 495 amplitudes"), (1000, "sector q=3 needs a 56 x 56 block")])
    def test_budget_refusals_come_before_the_site_table(self, monkeypatch, budget, message):
        state = build_state(MagnonStateSpec(12, 4, MomentumVector(12, (1, 3, 3, 8))))

        def poisoned(*args):
            raise AssertionError("the site table was built before the budget check")

        monkeypatch.setattr(reduced_density, "combination_array", poisoned)
        with pytest.raises(InfeasibilityError, match=message):
            reduce(state, SubsystemSpec.prefix(12, 8), budget=budget)

    # Peaks of one call on the odd sites.  The per-row reference runs in
    # the same process and validates the same factored sectors, so the
    # widest block validate builds (9.6 MiB at (24, 5)) and whatever numpy
    # allocates internally weigh on both sides alike, and the comparison
    # sees only the scratch of the scatter.  The fixed ceilings are the
    # per-row scatter's peaks on one host while every dense block was kept
    # (17.42 and 20.21 MiB, CPython 3.11, numpy 2) plus 10 % for other
    # interpreter and numpy versions; they still refuse a scatter that
    # keeps full int64 gathers and per-sector lists alive (21.8 and
    # 46.6 MiB).
    @pytest.mark.parametrize("N,k,ceiling_mib", [(24, (1, 2, 5, 11, 17), 17.42 * 1.1), (22, (1, 3, 4, 8, 13, 19, 20), 20.21 * 1.1)])
    def test_peak_memory_stays_below_the_per_row_scatter(self, N, k, ceiling_mib):
        state = build_state(MagnonStateSpec(N, len(k), MomentumVector(N, k)))
        sub = SubsystemSpec(N, tuple(range(1, N + 1, 2)))
        peak = traced_peak(reduce, state, sub)
        assert peak <= traced_peak(per_row_reduce, state, sub)
        assert peak <= ceiling_mib * 2**20

    def test_a_non_finite_amplitude_is_refused_by_validate(self):
        state = build_state(MagnonStateSpec(8, 3, MomentumVector(8, (1, 2, 5))))
        amplitudes = state.amplitudes.copy()
        amplitudes[17] = np.nan
        broken = AmplitudeTable(8, 3, amplitudes, state.normalization)
        for sites in [(2, 3, 7), (1, 2, 3, 4, 5, 6, 7), (4,)]:
            with pytest.raises(InternalConsistencyError, match="Hermiticity by nan"):
                reduce(broken, SubsystemSpec(8, sites))


def measure_bits(rho) -> dict:
    """Every measure of an operator as bytes or hex, so -0.0 and NaN
    compare by their bits; the report runs first, so it validates."""
    report = coherence_report(rho)
    return {
        "report": [report.c_l1.hex(), report.c_r.hex(), report.basis_dimension],
        "weights": {q: w.hex() for q, w in rho.block_weights.items()},
        "diagonal": rho.diagonal().tobytes(),
        "spectrum": rho.spectrum().tobytes(),
        "purity": rho.purity().hex(),
        "c_l1": c_l1(rho).hex(),
        "c_r": c_r(rho).hex(),
    }


# each takes one pass over the sectors of an operator
SECTOR_PASSES = (
    coherence_report,
    c_l1,
    c_r,
    BlockDensityMatrix.diagonal,
    BlockDensityMatrix.spectrum,
    BlockDensityMatrix.purity,
)


def dense_copy(rho) -> BlockDensityMatrix:
    """The operator rebuilt from one read of each of its sectors."""
    return BlockDensityMatrix(rho.n, {q: rho.blocks[q].copy() for q in rho.q_values})


class TestFactoredSectors:
    """``reduce`` keeps each sector as its Gram factor and builds the dense
    block only when it is read."""

    N, m, n = 24, 5, 12

    @pytest.fixture(scope="class")
    def scattered(self):
        rng = np.random.default_rng(24)
        state = build_state(MagnonStateSpec(self.N, self.m, MomentumVector(self.N, (1, 2, 5, 11, 17))))
        return state, SubsystemSpec(self.N, random_sites(rng, self.N, self.n))

    @pytest.fixture
    def reads(self, monkeypatch):
        """The q of every Gram sector read; a read while the memory of an
        earlier block is still referenced, even by a view, fails."""
        seen, alive = [], []
        build = _GramBlocks.__getitem__

        def count(self, q):
            assert all(ref() is None for ref in alive), f"sector {q} read while another dense sector is alive"
            b = build(self, q)
            seen.append(q)
            alive.append(weakref.ref(b if b.base is None else b.base))
            return b

        monkeypatch.setattr(_GramBlocks, "__getitem__", count)
        return seen

    def test_validate_and_the_report_read_each_sector_once(self, scattered, reads):
        rho = reduce(*scattered)
        assert reads == list(rho.q_values) == list(range(self.m + 1))
        # every measure is one pass, one dense sector at a time, in ascending q
        for measure in SECTOR_PASSES:
            reads.clear()
            measure(rho)
            assert reads == list(rho.q_values)

    @pytest.mark.parametrize("single_mode", [False, True], ids=["reduce", "single-mode"])
    def test_membership_reads_no_sector(self, scattered, single_mode):
        rho = reduce_single_mode(20, 8, 3, 0.7) if single_mode else reduce(*scattered)
        lazy, first, last = type(rho.blocks), rho.q_values[0], rho.q_values[-1]
        # a q inside [0, n] that has no sector, and one outside
        assert last < rho.n
        with mock.patch.object(lazy, "__getitem__", autospec=True, side_effect=lazy.__getitem__) as read:
            assert first in rho.blocks and last in rho.blocks
            assert last + 1 not in rho.blocks and -1 not in rho.blocks
        assert read.call_count == 0

    def test_block_weights_read_no_sector(self, scattered, reads):
        rho = reduce(*scattered)
        reads.clear()
        weights = rho.block_weights
        assert reads == []
        weights[0] = 2.0
        assert rho.block_weights[0] != 2.0 and reads == []
        want = dense_copy(rho).validate()
        assert {q: w.hex() for q, w in rho.block_weights.items()} == {q: w.hex() for q, w in want.block_weights.items()}

    def test_a_warm_reduce_holds_its_factors_and_no_dense_block(self, scattered):
        reduce(*scattered)
        tracemalloc.start()
        try:
            rho = reduce(*scattered)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        factors = sum(v.nbytes for v in rho.blocks.sectors.values())
        dense = sum(math.comb(self.n, q) ** 2 for q in rho.q_values) * np.dtype(np.complex128).itemsize
        # 0.65 MiB of factors, where the dense blocks take 14.1 MiB
        assert factors <= held < 2 * 2**20 < dense

    @pytest.mark.parametrize(
        "N,k,sites",
        [
            (10, (1, 2, 5), (2, 5, 7, 9)),
            (10, (0, 1, 3, 6, 8), tuple(range(1, 11))),
            (8, (1, 2, 5), (4,)),
            (16, (0, 0, 1, 3, 3, 5, 7, 7, 9, 12), (1, 2, 3, 4, 5)),
            (9, (0, 1, 3, 4, 5, 7, 8), (2, 3, 5)),
        ],
    )
    def test_every_measure_is_the_dense_copy_bit_for_bit(self, N, k, sites):
        rho = reduce(build_state(MagnonStateSpec(N, len(k), MomentumVector(N, k))), SubsystemSpec(N, sites))
        assert measure_bits(rho) == measure_bits(dense_copy(rho))

    def test_wide_sectors_keep_the_dense_copy_bits(self, scattered):
        rho = reduce(*scattered)
        assert sum(v.shape[0] < v.shape[1] for v in rho.blocks.sectors.values()) == 3
        assert measure_bits(rho) == measure_bits(dense_copy(rho))

    # tier-1 runs 100 examples; CI's factored-operator step runs 5000,
    # derandomized, under --hypothesis-profile=ci
    @seed(4701)
    @settings(deadline=None, database=None)
    @given(scatter_cases(max_N=12))
    @example((12, (0, 1, 3, 4, 7, 9), tuple(range(1, 13))))
    @example((12, (2, 3, 5, 8), (1, 4, 6, 7, 11)))
    def test_reads_and_measures_match_the_dense_copy_and_the_per_row_factors(self, case):
        N, k, sites = case
        try:
            state = build_state(MagnonStateSpec(N, len(k), MomentumVector(N, k)))
        except NullStateError:
            return
        sub = SubsystemSpec(N, sites)
        rho = reduce(state, sub)
        dense = dense_copy(rho)
        want = per_row_factors(state, sub)
        assert rho.q_values == dense.q_values == tuple(want)
        for q, v in want.items():
            assert rho.blocks.sectors[q].tobytes() == v.tobytes()
            assert rho.blocks[q].tobytes() == dense.blocks[q].tobytes() == (v.T @ v.conj()).tobytes()
        assert measure_bits(rho) == measure_bits(dense)
        # hypothesis refuses function-scoped fixtures, so the reads are counted here
        build = _GramBlocks.__getitem__
        for measure in SECTOR_PASSES:
            with mock.patch.object(_GramBlocks, "__getitem__", autospec=True, side_effect=build) as read:
                measure(rho)
            assert [call.args[1] for call in read.call_args_list] == list(rho.q_values)


class TestSingleModeClosedForm:
    def test_block_weights_follow_the_sector_law(self):
        w = reduce_single_mode(4, 2, 2, 0.0).block_weights
        assert abs(w[0] - 1.0 / 6.0) < 1e-12
        assert abs(w[1] - 2.0 / 3.0) < 1e-12
        assert abs(w[2] - 1.0 / 6.0) < 1e-12

    @pytest.mark.parametrize("N,n,m,idx", [(8, 3, 2, 1), (10, 4, 3, 2), (9, 5, 2, 0), (7, 7, 3, 1)])
    def test_agrees_with_general_route(self, N, n, m, idx):
        k = 2.0 * math.pi * idx / N
        closed = reduce_single_mode(N, n, m, k)
        st = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, idx, m)))
        general = reduce(st, SubsystemSpec.prefix(N, n))
        assert block_distance(closed, general) < 1e-10

    def test_each_sector_is_pure(self):
        reduced = reduce_single_mode(10, 4, 3, 1.1)
        for q in reduced.q_values:
            block = reduced.blocks[q]
            w = reduced.block_weights[q]
            assert np.abs(block @ block - w * block).max() < 1e-12

    def test_general_route_weights_match_the_law_too(self):
        N, n, m = 9, 4, 3
        st = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 2, m)))
        weights = reduce(st, SubsystemSpec.prefix(N, n)).block_weights
        for q, w in weights.items():
            assert abs(w - hypergeometric_pmf(N, n, m, q)) < 1e-10

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_supplied_spectra_match_the_dense_eigensolve(self, n):
        # eigvalsh is backward stable: by Weyl each eigenvalue moves by at
        # most gamma(4d) ||B|| <= gamma(4d) w.  The stored block is within
        # gamma(d + 8) w of the exact rank-one operator whose spectrum
        # (0, ..., 0, trace) _sector_reads derives: phase products and the
        # weight scaling round each entry, and the trace sums d of them.
        reduced = reduce_single_mode(2 * n + 1, n, n, 0.9)
        for q in reduced.q_values:
            d, w = reduced.blocks[q].shape[0], reduced.block_weights[q]
            derived = reduced._sector_reads(q)[2]
            assert derived.tolist() == [0.0] * (d - 1) + [w]
            dense = np.linalg.eigvalsh(reduced.blocks[q])
            assert np.abs(derived - dense).max() <= (gamma(4 * d) + gamma(d + 8)) * w

    def test_no_eigensolve_on_the_closed_form_route(self, monkeypatch):
        reduced = reduce_single_mode(20, 8, 9, 0.3)
        dense = coherence_report(BlockDensityMatrix(reduced.n, reduced.blocks))

        def refuse(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        closed = coherence_report(reduce_single_mode(20, 8, 9, 0.3))
        assert closed.c_l1 == dense.c_l1
        # with the Weyl bound delta of the test above, -x ln x moves by at most
        # (|ln w| + 1) delta at the top eigenvalue and delta |ln delta| at each zero
        tol = 0.0
        for q in reduced.q_values:
            d, w = reduced.blocks[q].shape[0], reduced.block_weights[q]
            delta = (gamma(4 * d) + gamma(d + 8)) * w
            tol += (abs(math.log(w)) + 1.0) * delta + (d - 1) * delta * abs(math.log(delta))
        assert abs(closed.c_r - dense.c_r) <= tol

    @pytest.mark.parametrize("N,n,m", [(100_000, 6, 31_259), (50_000, 2, 25_000)])
    def test_weights_match_the_exact_law_on_long_chains(self, N, n, m):
        # each weight is a sector-law p (within rel_p) spread over d unit
        # phase products and summed back by the trace, gamma(d + 8) as in the
        # spectra test above; the oracle is correctly rounded, one more u
        reduced = reduce_single_mode(N, n, m, 0.3)
        law = sector_law(N, n, m)
        rel_p = model.sector_law_bounds(N, n, m, law)[0]
        p = model.exact_law(N, n, m)[0]
        assert reduced.q_values == tuple(law.q.tolist())
        for i, q in enumerate(reduced.q_values):
            d = math.comb(n, q)
            assert abs(reduced.block_weights[q] - p[i]) <= (rel_p[i] + gamma(d + 8) + model.U) * p[i], q

    @pytest.mark.parametrize(
        "N,n,m,k",
        [
            (N, n, m, k)
            for N, ns in ((2, (1, 2)), (5, (1, 2, 5)), (9, (1, 4, 8)), (16, (3, 7)), (30, (10,)))
            for n in ns
            for m in sorted({0, 1, N // 3, N // 2, N - 1, N})
            for k in (0.0, 2.0 * math.pi / N, 0.37)
        ],
    )
    def test_factored_sectors_are_the_dense_construction_bit_for_bit(self, N, n, m, k):
        rho = reduce_single_mode(N, n, m, k)
        dense = dense_single_mode(N, n, m, k).validate()
        assert rho.q_values == dense.q_values
        assert rho.block_weights == dense.block_weights
        assert sum(rho.block_weights.values()) == sum(dense.block_weights.values())
        assert np.array_equal(rho.diagonal(), dense.diagonal())
        spectrum = rank_one_spectrum(dense)
        assert np.array_equal(rho.spectrum(), spectrum)
        assert rho.purity() == dense.purity()
        for q in rho.q_values:
            assert np.array_equal(rho.blocks[q], dense.blocks[q])
        # the dense blocks' report, with their rank-one spectrum in closed form
        c_r = max(0.0, coherence._entropy(dense.diagonal()) - coherence._entropy(spectrum))
        assert coherence_report(rho) == CoherenceReport(c_l1(dense), c_r, coherence_report(dense).basis_dimension)

    def test_dense_blocks_are_built_only_when_read(self, monkeypatch):
        rho = reduce_single_mode(16, 8, 7, 0.2)
        first = rho.blocks[4]
        assert first is not rho.blocks[4] and np.array_equal(first, rho.blocks[4])

        def refuse(self, q):
            raise AssertionError(f"dense block q={q} built")

        # validate, the diagonal, the weights and the spectrum read (w, phi)
        monkeypatch.setattr(_RankOneBlocks, "__getitem__", refuse)
        rho = reduce_single_mode(16, 8, 7, 0.2)
        assert len(rho.diagonal()) == sum(math.comb(8, q) for q in range(8))
        assert abs(sum(rho.block_weights.values()) - 1.0) < 1e-12
        assert rho.spectrum()[0] == max(rho.block_weights.values())

    @pytest.mark.parametrize("N,n,m,sectors", [(1000, 60, 2, (0, 1, 2)), (62, 60, 60, (58, 59, 60))])
    def test_narrow_sector_ranges_of_wide_blocks(self, N, n, m, sectors):
        # the site sums come only from the cells that feed these sectors;
        # a walk over every q at n = 60 would pass through C(60, 30) lists
        rho = reduce_single_mode(N, n, m, 0.3)
        assert rho.q_values == sectors
        for q in sectors:
            assert np.array_equal(rho.blocks.sectors[q][1], np.exp(0.3j * itertools_site_sums(n, q)))

    def test_budget_refusal_comes_before_any_sector_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("site sums built")

        monkeypatch.setattr(reduced_density, "_site_sums", refuse)
        # q = 0 and 1 fit a budget of 100; the q = 2 block, 15 x 15, does not
        with pytest.raises(InfeasibilityError, match=r"^sector q=2 needs a 15 x 15 block, budget is 100$"):
            reduce_single_mode(12, 6, 6, 0.3, budget=100)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_wavenumber_is_a_domain_error(self, k):
        with pytest.raises(DomainError, match="wavenumber must be finite"):
            reduce_single_mode(8, 3, 2, k)
        # the closed-form average mirrors the direct route's refusal
        for measure in ("r", "l1", "ln"):
            with pytest.raises(DomainError, match="wavenumber must be finite"):
                averaged_coherence_single_mode(8, 3, 2, k, measure)

    def test_empty_band(self):
        reduced = reduce_single_mode(6, 3, 0, 0.7)
        assert reduced.q_values == (0,)
        assert np.allclose(reduced.blocks[0], [[1.0]])

    def test_admissible_range_respected(self):
        reduced = reduce_single_mode(10, 2, 9, 0.0)
        assert reduced.q_values == (1, 2)
        assert set(reduced.q_values) == set(admissible_q(10, 2, 9))


class TestOracle:
    def test_polarised_product_state(self):
        reduced = oracle_partial_trace(AmplitudeTable(5, 0, [1.0], 1.0), SubsystemSpec.prefix(5, 2))
        assert reduced.q_values == (0,)
        assert np.allclose(reduced.blocks[0], [[1.0]])
        assert reduced.off_block_residual == 0.0

    def test_half_of_a_shared_flip(self):
        st = build_state(MagnonStateSpec(2, 1, MomentumVector(2, (0,))))
        reduced = oracle_partial_trace(st, SubsystemSpec.prefix(2, 1))
        assert reduced.q_values == (0, 1)
        assert abs(reduced.blocks[0][0, 0] - 0.5) < 1e-14
        assert abs(reduced.blocks[1][0, 0] - 0.5) < 1e-14

    def test_complementary_blocks_share_their_spectrum(self):
        rng = np.random.default_rng(9)
        st = random_state(rng, 10, 2)
        sub = SubsystemSpec(10, random_sites(rng, 10, 4))
        left = oracle_partial_trace(st, sub).spectrum()
        right = oracle_partial_trace(st, SubsystemSpec(10, sub.complement)).spectrum()
        keep = max(int((left > 1e-12).sum()), int((right > 1e-12).sum()))
        assert np.abs(left[:keep] - right[:keep]).max() < 1e-8

    def test_budget(self):
        # the 2^(N - n) x 2^n grouped matrix is the only 2^N-sized array
        assert FULL_VECTOR_BUDGET == 2 ** 14
        st = build_state(MagnonStateSpec(14, 1, MomentumVector(14, (1,))))
        assert oracle_partial_trace(st, SubsystemSpec.prefix(14, 2)).q_values == (0, 1)
        st = build_state(MagnonStateSpec(15, 1, MomentumVector(15, (1,))))
        with pytest.raises(InfeasibilityError, match=r"^oracle trace scans 2\^15 entries, budget is 16384$"):
            oracle_partial_trace(st, SubsystemSpec.prefix(15, 2))
        # within the 2^N scan, the 4^n dense operator has its own ceiling
        st = build_state(MagnonStateSpec(12, 1, MomentumVector(12, (1,))))
        with pytest.raises(
            InfeasibilityError, match=r"^oracle trace builds a 2\^12 x 2\^12 operator, budget is 10000000$"
        ):
            oracle_partial_trace(st, SubsystemSpec.prefix(12, 12))

    def test_refuses_another_chains_subsystem(self):
        st = build_state(MagnonStateSpec(6, 1, MomentumVector(6, (1,))))
        with pytest.raises(DomainError, match=r"^subsystem belongs to an N=7 chain, state has N=6$"):
            oracle_partial_trace(st, SubsystemSpec.prefix(7, 2))


class TestBlockDensityMatrix:
    def test_diagonal_concatenates_sectors(self):
        reduced = reduce_single_mode(8, 3, 2, 0.4)
        diag = reduced.diagonal()
        assert len(diag) == sum(math.comb(3, q) for q in reduced.q_values)
        assert abs(diag.sum() - 1.0) < 1e-12

    def test_purity_below_one_when_mixed(self):
        reduced = reduce_single_mode(8, 3, 2, 0.0)
        expected = sum(w * w for w in reduced.block_weights.values())
        assert abs(reduced.purity() - expected) < 1e-12
        assert reduced.purity() < 1.0

    def test_validation_catches_bad_trace(self):
        blocks = {0: np.array([[0.7]], dtype=complex), 1: np.array([[0.7]], dtype=complex)}
        with pytest.raises(InternalConsistencyError):
            BlockDensityMatrix(1, blocks).validate()

    def test_validation_catches_non_hermitian_block(self):
        blocks = {1: np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)}
        with pytest.raises(InternalConsistencyError):
            BlockDensityMatrix(2, blocks).validate()

    def test_validation_catches_negative_block(self):
        blocks = {1: np.array([[0.9, 0.8], [0.8, 0.1]], dtype=complex)}
        with pytest.raises(InternalConsistencyError):
            BlockDensityMatrix(2, blocks).validate()

    def test_rank_one_spectra_are_derived_and_checked(self):
        phi = np.array([1.0, 1.0j])
        rho = BlockDensityMatrix(2, _RankOneBlocks({1: (0.5, phi)})).validate()
        assert rho.spectrum().tolist() == [1.0, 0.0]
        with pytest.raises(InternalConsistencyError, match="eigenvalue -5.000e-01 below the floor"):
            BlockDensityMatrix(2, _RankOneBlocks({0: (1.5, np.ones(1)), 1: (-0.25, phi)})).validate()

    def test_validation_rejects_nan(self, monkeypatch):
        nan_block = {0: np.array([[np.nan]], dtype=complex), 1: np.array([[0.5]], dtype=complex)}
        with pytest.raises(InternalConsistencyError, match="Hermiticity by nan"):
            BlockDensityMatrix(1, nan_block).validate()
        wide = _GramBlocks({1: np.array([[np.nan, 0.5]])})
        # the block of a NaN factor is NaN too
        with pytest.raises(InternalConsistencyError, match="Hermiticity by nan"):
            BlockDensityMatrix(2, wide).validate()
        # a wide Gram factor puts its own lowest eigenvalue in charge: read
        # as a finite block, the NaN factor still reaches the floor check
        monkeypatch.setattr(_GramBlocks, "__getitem__", lambda self, q: np.full((2, 2), 0.5, dtype=complex))
        with pytest.raises(InternalConsistencyError, match="eigenvalue nan"):
            BlockDensityMatrix(2, wide).validate()

    @pytest.mark.parametrize("entries", [{(0, 0): np.inf}, {(0, 1): np.inf, (1, 0): np.inf}, {(1, 1): -np.inf}])
    def test_infinite_entries_are_rejected_without_a_warning(self, entries):
        # inf - conj(inf) is NaN; tier-1 turns any RuntimeWarning into an error
        b = np.full((2, 2), 0.25, dtype=complex)
        for rc, value in entries.items():
            b[rc] = value
        with pytest.raises(InternalConsistencyError, match="Hermiticity by nan"):
            BlockDensityMatrix(2, {1: b}).validate()
        with pytest.raises(DomainError, match="non-finite"):
            c_r(b)

    def test_a_validated_operator_cannot_be_edited(self):
        source = {0: np.array([[0.5]]), 1: np.array([[0.5]])}
        rho = BlockDensityMatrix(1, source).validate()
        with pytest.raises(TypeError):
            rho.blocks[1] = np.array([[2.0]])
        with pytest.raises(ValueError, match="read-only"):
            rho.blocks[1][0, 0] = 2.0
        assert sum(rho.block_weights.values()) == 1.0 and c_l1(rho) == c_r(rho) == 0.0
        # the blocks are views: nothing was copied, and the source is still the caller's
        assert np.shares_memory(rho.blocks[1], source[1]) and source[1].flags.writeable
        reduced = reduce(build_state(MagnonStateSpec(8, 2, MomentumVector(8, (1, 3)))), SubsystemSpec.prefix(8, 3))
        assert not any(reduced.blocks[q].flags.writeable for q in reduced.q_values)
        with pytest.raises(TypeError):
            reduced.blocks.sectors[1] = np.zeros((7, 3), dtype=complex)
        with pytest.raises(ValueError, match="read-only"):
            reduced.blocks.sectors[1][0, 0] = 2.0
        # each read is a fresh block built from the factor
        assert reduced.blocks[1] is not reduced.blocks[1]
        single = reduce_single_mode(10, 3, 4, 0.7)
        with pytest.raises(TypeError):
            single.blocks.sectors[1] = (0.0, np.zeros(3))
        with pytest.raises(ValueError, match="read-only"):
            single.blocks.sectors[1][1][0] = 2.0

    @pytest.mark.parametrize(
        "name, value",
        [("blocks", {1: 5 * np.eye(3)}), ("n", 2), ("off_block_residual", 0.0), ("_validated", False), ("_weights", {})],
    )
    def test_no_field_of_a_validated_operator_can_be_rebound(self, name, value):
        rho = reduce(build_state(MagnonStateSpec(8, 3, MomentumVector(8, (1, 2, 5)))), SubsystemSpec(8, (2, 3, 7)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rho, name, value)
        assert sum(rho.block_weights.values()) == pytest.approx(1.0)

    def test_nested_list_blocks_validate_like_arrays(self):
        rho = BlockDensityMatrix(1, {0: [[0.5]], 1: [[0.5]]}).validate()
        assert rho.block_weights == {0: 0.5, 1: 0.5}
        assert rho.diagonal().tolist() == [0.5, 0.5]
        with pytest.raises(InternalConsistencyError, match="Hermiticity"):
            BlockDensityMatrix(2, {1: [[0.5, 0.5], [0.1, 0.5]]}).validate()
        with pytest.raises(InternalConsistencyError, match="not square"):
            BlockDensityMatrix(1, {0: [0.5], 1: [[0.5]]}).validate()

    @pytest.mark.parametrize(
        "w,phi,message",
        [
            (0.5, np.array([1.0, np.nan]), "non-finite weight or phase"),
            (0.5, np.array([1.0, complex(0.0, np.inf)]), "non-finite weight or phase"),
            (np.nan, np.array([1.0, 1.0j]), "non-finite weight or phase"),
            (0.5, np.array([1.0, 1.0j, -1.0]), r"phase vector of shape \(3,\), not \(2,\)"),
            (0.5, np.ones((2, 1), dtype=complex), r"phase vector of shape \(2, 1\), not \(2,\)"),
        ],
    )
    def test_rank_one_sectors_are_checked_on_their_factors(self, w, phi, message):
        good = BlockDensityMatrix(2, _RankOneBlocks({1: (0.5, np.array([1.0, 1.0j]))})).validate()
        assert np.array_equal(good.blocks[1], [[0.5, -0.5j], [0.5j, 0.5]])
        with pytest.raises(InternalConsistencyError, match=message):
            BlockDensityMatrix(2, _RankOneBlocks({1: (w, phi)})).validate()

    def test_validation_checks_each_sector_against_its_binomial(self):
        # a unit-trace, Hermitian, positive 2 x 2 block is no q = 1 sector of 3 sites
        flat = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(InternalConsistencyError, match=r"has 2 rows, not C\(3, 1\) = 3"):
            BlockDensityMatrix(3, {1: flat}).validate()
        with pytest.raises(InternalConsistencyError, match=r"has 1 rows, not C\(2, 1\) = 2"):
            BlockDensityMatrix(2, {1: np.ones((1, 1), dtype=complex)}).validate()
        for q in (-1, 3):
            with pytest.raises(InternalConsistencyError, match=r"outside \[0, 2\]"):
                BlockDensityMatrix(2, {q: np.ones((1, 1), dtype=complex)}).validate()
        rho = BlockDensityMatrix(2, {1: flat}).validate()
        assert combinat.enumerate_combinations(rho.n, 1) == [(1,), (2,)]


# every dataclass the package exports, so a new mutable one fails here
VALUE_TYPES = [t for t in map(magcoh.__dict__.get, magcoh.__all__) if dataclasses.is_dataclass(t)]


@pytest.mark.parametrize("value_type", VALUE_TYPES, ids=[t.__name__ for t in VALUE_TYPES])
def test_every_exported_value_type_is_frozen(value_type):
    value = object.__new__(value_type)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value_type)[0].name, None)


_EQ_STATE = MagnonStateSpec(8, 2, MomentumVector(8, (1, 3)))
# a builder of each exported value type with an array field: an array has
# no tuple equality, so each must compare by identity
ARRAY_VALUES = {
    AmplitudeTable: lambda: build_state(_EQ_STATE),
    BlockDensityMatrix: lambda: reduce(build_state(_EQ_STATE), SubsystemSpec(8, (2, 3, 7))),
    magcoh.ThermoCurve: lambda: magcoh.sweep(1.0, -1.0, 1.0, 5),
    magcoh.SectorLaw: lambda: magcoh.sector_law(8, 3, 2),
}


def test_every_exported_value_type_with_an_array_field_is_listed():
    holding = {t for t in VALUE_TYPES if any("array" in str(f.type) for f in dataclasses.fields(t))}
    assert holding == set(ARRAY_VALUES)


@pytest.mark.parametrize("value_type", list(ARRAY_VALUES), ids=[t.__name__ for t in ARRAY_VALUES])
def test_every_exported_value_type_holding_arrays_compares_by_identity(value_type):
    a, b = ARRAY_VALUES[value_type](), ARRAY_VALUES[value_type]()
    assert type(a) is type(b) is value_type
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


@seed(3302)
@settings(max_examples=60, deadline=None, database=None)
@given(route_pair_cases())
def test_reduce_keeps_its_bits_with_the_rank_cache_cold_warm_and_bypassed(case):
    N, k, sites = case
    try:
        state = build_state(MagnonStateSpec(N, len(k), MomentumVector(N, k)))
    except NullStateError:
        return
    sub = SubsystemSpec(N, sites)
    combinat._rank.cache_clear()
    cold = reduce(state, sub)
    warm = reduce(state, sub)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combinat, "_rank", combinat._rank.__wrapped__)
        bypassed = reduce(state, sub)
    for other in (warm, bypassed):
        assert other.q_values == cold.q_values
        for q in cold.q_values:
            assert np.array_equal(other.blocks[q], cold.blocks[q])
            assert np.array_equal(other.blocks.sectors[q], cold.blocks.sectors[q])


@st.composite
def residual_cases(draw):
    """A random complex d x d matrix, Hermitian or not, with one entry in
    either triangle (often in the last, partial tile) perturbed or made
    NaN or infinite."""
    d = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if draw(st.booleans()):
        b = 0.5 * (b + b.conj().T)
    last_tile = (d - 1) // _HERMITICITY_TILE * _HERMITICITY_TILE
    r = draw(st.integers(last_tile, d - 1) | st.integers(0, d - 1))
    c = draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        r, c = c, r
    bad = draw(st.sampled_from([None, 1e-13, 1e-13j, 0.5, complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, -math.inf, complex(0.0, math.inf)]))
    if bad is not None:
        b[r, c] = b[r, c] + bad if abs(bad) < 1.0 else bad
    return b


@seed(1101)
@settings(max_examples=300, deadline=None, database=None)
@given(residual_cases())
@example(np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex))
@example(np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex))
@example(np.eye(2 * _HERMITICITY_TILE + 1, dtype=complex) + np.diag([0] * (2 * _HERMITICITY_TILE) + [np.nan]))
def test_tiled_hermiticity_residual_is_the_dense_one_bit_for_bit(b):
    with np.errstate(invalid="ignore"):
        dense = float(np.abs(b - b.conj().T).max())
    tiled = _hermiticity_residual(b)
    if math.isnan(dense):
        assert math.isnan(tiled)
    else:
        assert tiled.hex() == dense.hex()
    if np.isnan(b).any():
        assert math.isnan(tiled)


def test_hermiticity_check_keeps_to_tiles_on_the_widest_single_mode_sectors():
    # at (30, 12, 15) the q = 6 sector is 924 x 924; the dense residual
    # held three such temporaries, 0.63 of the blocks' bytes
    k = 2 * math.pi * 3 / 30
    rho = reduce_single_mode(30, 12, 15, k)
    law = sector_law(30, 12, 15)
    for q, p in zip(law.q.tolist(), law.p.tolist()):
        dim = math.comb(12, q)
        phases = np.exp(1j * k * itertools_site_sums(12, q))
        assert np.array_equal(rho.blocks[q], (p / dim) * np.outer(phases, phases.conj()))
    total = sum(b.nbytes for b in rho.blocks.values())
    tracemalloc.start()
    try:
        rho.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total / 8


def test_coherence_report_builds_one_rank_one_sector_at_a_time():
    # the dense blocks of (30, 12, 15) hold 41 MiB; reading them one at a
    # time peaks at the widest block (13.7 MiB) plus its moduli
    rho = reduce_single_mode(30, 12, 15, 0.6)
    widest = max(math.comb(12, q) for q in rho.q_values) ** 2 * 16
    tracemalloc.start()
    try:
        coherence_report(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * widest


def test_hermiticity_check_keeps_to_tiles_on_the_widest_dense_sectors():
    # the same (30, 12, 15) sectors held as dense blocks still go through
    # the tiled residual, whose scratch stays far below the blocks' bytes
    rho = dense_single_mode(30, 12, 15, 2 * math.pi * 3 / 30)
    total = sum(b.nbytes for b in rho.blocks.values())
    tracemalloc.start()
    try:
        rho.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total / 8


def test_contiguity_does_not_matter_for_single_mode_moduli():
    N, m, n = 10, 3, 4
    st = build_state(MagnonStateSpec(N, m, MomentumVector.constant(N, 1, m)))
    a = reduce(st, SubsystemSpec.prefix(N, n))
    b = reduce(st, SubsystemSpec(N, (2, 5, 6, 9)))
    for q in a.q_values:
        assert np.abs(np.abs(a.blocks[q]) - np.abs(b.blocks[q])).max() < 1e-12
