import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import error_model as model
from magcoh import (
    AmplitudeTable,
    BlockDensityMatrix,
    DomainError,
    InfeasibilityError,
    MagnonStateSpec,
    MomentumVector,
    NullStateError,
    SubsystemSpec,
    admissible_q,
    averaged_coherence_single_mode,
    build_state,
    c_l1,
    c_r,
    coherence_report,
    max_coherence,
    oracle_partial_trace,
    reduce,
    reduce_single_mode,
    sector_law,
)
import magcoh
from magcoh import coherence, reduced_density


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(rng, N, m):
    while True:
        idx = tuple(int(x) for x in rng.integers(0, N, size=m))
        try:
            return build_state(MagnonStateSpec(N, m, MomentumVector(N, idx)))
        except NullStateError:
            continue


def top_state(d):
    """Maximally coherent density: every entry 1/d."""
    return np.full((d, d), 1.0 / d, dtype=complex)


class TestMeasures:
    def test_single_site_reductions_carry_no_coherence(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            N = int(rng.integers(4, 11))
            m = int(rng.integers(1, 4))
            reduced = reduce(random_state(rng, N, m), SubsystemSpec.prefix(N, 1))
            assert c_l1(reduced) < 1e-14
            assert c_r(reduced) < 1e-14
            assert coherence_report(reduced).c_ln < 1e-14

    def test_maximally_coherent_values(self):
        for d in (2, 5, 8):
            rho = top_state(d)
            assert abs(c_l1(rho) - (d - 1.0)) < 1e-12
            assert abs(c_r(rho) - math.log(d)) < 1e-12
            report = coherence_report(rho)
            assert abs(report.c_ln - math.log(d)) < 1e-12
            assert abs(report.effective_dimension - d) < 1e-12

    def test_full_chain_state_is_maximally_coherent(self):
        spec = MagnonStateSpec(8, 2, MomentumVector.constant(8, 1, 2))
        rho = reduce(build_state(spec), SubsystemSpec.prefix(8, 8))
        d = math.comb(8, 2)
        assert abs(c_r(rho) - math.log(d)) < 1e-10
        assert abs(c_l1(rho) - (d - 1.0)) < 1e-10

    def test_zero_iff_diagonal(self):
        rng = np.random.default_rng(22)
        diag = np.diag(rng.random(6) + 0.1).astype(complex)
        diag /= np.trace(diag).real
        assert c_l1(diag) == 0.0
        assert c_r(diag) < 1e-14
        rho = random_density(rng, 6)
        assert c_l1(rho) > 1e-6
        assert c_r(rho) > 1e-6
        assert coherence_report(rho).c_ln > 1e-6

    def test_a_dephased_block_operator_reports_no_coherence(self):
        reduced = reduce_single_mode(8, 3, 2, 0.7)
        flat = BlockDensityMatrix(reduced.n, {q: np.diag(np.diag(b)) for q, b in reduced.blocks.items()})
        report = coherence_report(flat)
        assert report.c_l1 < 1e-14 and report.c_r < 1e-14
        assert report.c_ln < 1e-14 and abs(report.effective_dimension - 1.0) < 1e-14
        assert report.basis_dimension == coherence_report(reduced).basis_dimension
        assert coherence_report(reduced).c_l1 > 1e-6

    def test_upper_bounds(self):
        rng = np.random.default_rng(23)
        for d in (3, 5, 7):
            rho = random_density(rng, d)
            assert c_r(rho) <= math.log(d) + 1e-12
            assert c_l1(rho) <= d - 1.0 + 1e-10

    def test_log_measure_tracks_l1(self):
        rng = np.random.default_rng(24)
        rho = random_density(rng, 5)
        assert abs(coherence_report(rho).c_ln - math.log1p(c_l1(rho))) < 1e-14

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(25)
        rho = random_density(rng, 6)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
        u = np.diag(phases)
        rotated = u @ rho @ u.conj().T
        for measure in (c_l1, c_r, c_ln):
            assert abs(measure(rotated) - measure(rho)) < 1e-10

    def test_convexity_of_l1_and_r(self):
        rng = np.random.default_rng(26)
        a, b = random_density(rng, 6), random_density(rng, 6)
        for lam in (0.25, 0.5, 0.75):
            mix = lam * a + (1 - lam) * b
            assert c_l1(mix) <= lam * c_l1(a) + (1 - lam) * c_l1(b) + 1e-10
            assert c_r(mix) <= lam * c_r(a) + (1 - lam) * c_r(b) + 1e-10

    def test_contractive_under_reduction(self):
        rng = np.random.default_rng(27)
        for _ in range(4):
            N = int(rng.integers(5, 11))
            m = int(rng.integers(1, 4))
            st = random_state(rng, N, m)
            parent = coherence_report(reduce(st, SubsystemSpec.prefix(N, N)))
            n = int(rng.integers(1, N))
            sites = tuple(sorted(int(s) + 1 for s in rng.choice(N, size=n, replace=False)))
            child = coherence_report(reduce(st, SubsystemSpec(N, sites)))
            assert child.c_l1 <= parent.c_l1 + 1e-10
            assert child.c_r <= parent.c_r + 1e-10
            assert child.c_ln <= parent.c_ln + 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_plain_matrix_is_a_domain_error(self, bad):
        rho = top_state(3)
        rho[0, 1] = rho[1, 0] = bad
        for measure in (c_l1, c_r, coherence_report):
            with pytest.raises(DomainError, match="non-finite"):
                measure(rho)
        with pytest.raises(DomainError, match="non-finite"):
            c_l1(np.full((2, 2), np.nan))

    def test_non_hermitian_plain_matrix_is_a_domain_error(self):
        # c_l1 read 1.0 here while coherence_report refused the matrix
        skewed = np.array([[0.5, 1.0], [0.0, 0.5]])
        for measure in (c_l1, c_r, coherence_report):
            with pytest.raises(DomainError, match="departs from Hermiticity"):
                measure(skewed)
        # within INPUT_HERMITICITY_TOL the matrix is accepted
        nearly = top_state(2) + np.array([[0.0, 1e-11], [0.0, 0.0]])
        assert abs(c_l1(nearly) - 1.0) < 1e-10

    def test_plain_matrix_off_unit_trace_is_a_domain_error(self):
        # c_l1 of 2 * eye(3) read 5.0, on a diagonal operator
        with pytest.raises(DomainError, match=r"^density matrix trace departs from 1 by 5\.000e\+00$"):
            c_l1(2 * np.eye(3))
        for scale in (2.0, 0.5, 1.0 + 1e-9):
            for rho in (scale * np.eye(3) / 3.0, scale * top_state(3)):
                for measure in (c_l1, c_r, coherence_report):
                    with pytest.raises(DomainError, match="trace departs from 1"):
                        measure(rho)
        # within TRACE_TOL the matrix is accepted
        assert c_l1((1.0 + 1e-11) * np.eye(3) / 3.0) < 1e-10

    def test_c_r_of_a_plain_matrix_matches_independent_spectra(self):
        # a pure state's C_r is the Shannon entropy of its populations
        v = np.array([1.0, 1.0j, -1.0]) / math.sqrt(3)
        assert abs(c_r(np.outer(v, v.conj())) - math.log(3)) < 1e-12
        # a full-rank state's spectrum from the non-symmetric LAPACK driver
        rho = random_density(np.random.default_rng(13), 6)
        p = np.diag(rho).real
        lam = np.linalg.eig(rho)[0].real
        want = float((lam * np.log(lam)).sum() - (p * np.log(p)).sum())
        assert abs(c_r(rho) - want) < 1e-10

    def test_additivity_of_the_log_measure(self):
        report = coherence_report(np.kron(top_state(2), top_state(3)))
        assert abs(report.c_ln - math.log(2) - math.log(3)) < 1e-12
        assert abs(report.effective_dimension - 6.0) < 1e-12


def c_ln(rho):
    """C_ln, read off the report, its one public name."""
    return coherence_report(rho).c_ln


def effective_dimension(rho):
    """1 + C_l1, read off the report, its one public name."""
    return coherence_report(rho).effective_dimension


PUBLIC_FUNCTIONS = (c_l1, c_r, c_ln, effective_dimension, coherence_report)


@pytest.mark.parametrize(
    "owner, name",
    [
        *((module, name) for module in (magcoh, coherence) for name in ("c_ln", "effective_dimension", "incoherent_part")),
        (AmplitudeTable, "basis"),
        (AmplitudeTable, "norm"),
        (BlockDensityMatrix, "labels"),
        (BlockDensityMatrix, "total_trace"),
    ],
)
def test_a_retired_name_is_not_public(owner, name):
    assert name not in getattr(owner, "__all__", ())
    assert not hasattr(owner, name)

# one input per refusal of the entry check, each with the whole message
BAD_PLAIN_MATRICES = {
    "not-square": (np.zeros((2, 3)), r"^expected a square density matrix, got shape \(2, 3\)$"),
    "nan-entry": (np.array([[0.5, np.nan], [np.nan, 0.5]]), r"^density matrix has non-finite entries$"),
    "non-hermitian": (np.array([[0.5, 1.0], [0.0, 0.5]]), r"^density matrix departs from Hermiticity beyond tolerance$"),
    "trace-5": (np.diag([3.0, 1.0, 1.0]), r"^density matrix trace departs from 1 by 4\.000e\+00$"),
    "negative": (np.array([[0.9, 0.8], [0.8, 0.1]]), r"^density matrix has eigenvalue -3\.944e-01 below the floor$"),
}


class TestPlainMatrixEntry:
    @pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", BAD_PLAIN_MATRICES.values(), ids=list(BAD_PLAIN_MATRICES))
    def test_every_public_function_refuses_a_bad_plain_matrix(self, fn, bad):
        matrix, message = bad
        with pytest.raises(DomainError, match=message):
            fn(matrix)

    def test_positivity_is_held_to_the_block_floor(self):
        # the floor validate applies to a block: -2e-11 passes, -2e-10 does not
        assert c_l1(np.diag([1.0 + 2e-11, -2e-11])) < 1e-10
        with pytest.raises(DomainError, match=r"^density matrix has eigenvalue -2\.000e-10 below the floor$"):
            c_r(np.diag([1.0 + 2e-10, -2e-10]))

    @pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_a_plain_matrix_is_checked_once_per_call(self, fn, monkeypatch):
        block = reduce(build_state(MagnonStateSpec(8, 2, MomentumVector(8, (1, 3)))), SubsystemSpec.prefix(8, 3))
        shapes = []
        residual = coherence._hermiticity_residual

        def record(a):
            shapes.append(a.shape)
            return residual(a)

        solved = []
        eigvalsh = np.linalg.eigvalsh

        def solve(a):
            solved.append(a.shape)
            return eigvalsh(a)

        # both module names, so a second check in either module would count
        monkeypatch.setattr(coherence, "_hermiticity_residual", record)
        monkeypatch.setattr(reduced_density, "_hermiticity_residual", record)
        # one spectrum serves the positivity floor and C_r alike
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        fn(random_density(np.random.default_rng(5), 6))
        assert shapes == [(6, 6)]
        assert solved == [(6, 6)]
        # a block operator was checked when it was built
        shapes.clear()
        fn(block)
        assert shapes == []


@st.composite
def plain_densities(draw):
    """A plain density matrix of dimension 1..12: full rank, rank-deficient
    or diagonal (with zero populations), as an array or a nested list."""
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("full", "rank-deficient", "diagonal")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        p = rng.random(d) * (rng.random(d) < 0.7)
        p[rng.integers(d)] += 0.5
        rho = np.diag(p / p.sum())
    else:
        rank = d if kind == "full" else int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
    return rho.tolist() if draw(st.booleans()) else rho


def oracle_entropy(values):
    kept = values[values > coherence.EIGENVALUE_FLOOR]
    return float(-(kept * np.log(kept)).sum()) if kept.size else 0.0


@seed(140402)
@settings(max_examples=200, deadline=None, database=None)
@given(plain_densities())
def test_plain_matrix_measures_match_a_dense_oracle_bit_for_bit(rho):
    a = np.asarray(rho, dtype=np.complex128)
    l1 = max(0.0, float(np.abs(a).sum()) - 1.0)
    r = max(0.0, oracle_entropy(np.diag(a).real) - oracle_entropy(np.linalg.eigvalsh(a)[::-1]))
    report = coherence_report(rho)
    assert c_l1(rho).hex() == report.c_l1.hex() == l1.hex()
    assert c_r(rho).hex() == report.c_r.hex() == r.hex()
    assert report.c_ln.hex() == math.log1p(l1).hex()
    assert report.effective_dimension.hex() == (1.0 + l1).hex()
    assert report.basis_dimension == len(a)


# hand-built operators that fail validate: trace 2.1, and a block with
# eigenvalue -0.394
UNCHECKED_OPERATORS = {
    "trace-2.1": ({1: [[2.0, 0.0], [0.0, 0.1]]}, r"^density operator total trace departs from 1 by 1\.100e\+00$"),
    "negative": ({1: [[0.9, 0.8], [0.8, 0.1]]}, r"^density operator block q=1 has eigenvalue -3\.944e-01 below the floor$"),
}


class TestBlockOperatorEntry:
    @pytest.mark.parametrize("fn", PUBLIC_FUNCTIONS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", UNCHECKED_OPERATORS.values(), ids=list(UNCHECKED_OPERATORS))
    def test_a_hand_built_operator_is_validated_on_entry(self, fn, bad):
        blocks, message = bad
        with pytest.raises(DomainError, match=message):
            fn(BlockDensityMatrix(2, blocks))

    def test_each_operator_is_validated_once(self, monkeypatch):
        calls = []
        validate = BlockDensityMatrix.validate

        def count(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(BlockDensityMatrix, "validate", count)
        state = build_state(MagnonStateSpec(8, 2, MomentumVector(8, (1, 3))))
        sub = SubsystemSpec.prefix(8, 3)
        routes = (reduce(state, sub), reduce_single_mode(30, 6, 15, 0.7), oracle_partial_trace(state, sub))
        hand_built = BlockDensityMatrix(1, {0: [[0.5]], 1: [[0.5]]})
        for rho in (*routes, hand_built):
            for fn in PUBLIC_FUNCTIONS:
                fn(rho)
        assert [id(rho) for rho in calls] == [id(rho) for rho in (*routes, hand_built)]


def _single_mode_grid():
    """(N, n, m, k) for the same-bit tests: fixed cases for d = 1 only, odd
    and even widths up to 924, k = 0, pi, on the 2 pi j / N grid and off
    it, N up to 1000; then seeded draws over the same ranges."""
    cases = [
        (8, 1, 3, 0.0),
        (30, 12, 15, 0.0),
        (21, 7, 10, math.pi),
        (1000, 9, 500, 2.0 * math.pi * 137 / 1000),
        (1000, 11, 321, 1.2345),
        (25, 12, 12, -2.0 * math.pi * 3 / 25),
    ]
    rng = np.random.default_rng(140401)
    for kind in range(12):
        N = int(rng.integers(2, 1001))
        n = int(rng.integers(1, min(N, 11) + 1))
        m = int(rng.integers(0, N + 1))
        j = int(rng.integers(0, N))
        k = (0.0, math.pi, 2.0 * math.pi * j / N, float(rng.uniform(-7.0, 7.0)))[kind % 4]
        cases.append((N, n, m, k))
    return cases


def _operators():
    """Each grid case as a single-mode reduction, plus one dense ``reduce``
    and one nested-list block."""
    for N, n, m, k in _single_mode_grid():
        yield pytest.param(lambda N=N, n=n, m=m, k=k: reduce_single_mode(N, n, m, k), id=f"single-mode-{N}-{n}-{m}-{k:.4f}")
    state = MagnonStateSpec(10, 3, MomentumVector(10, (1, 2, 5)))
    yield pytest.param(lambda: reduce(build_state(state), SubsystemSpec(10, (2, 5, 7, 9))), id="reduce")
    yield pytest.param(lambda: BlockDensityMatrix(2, {1: [[0.5, 0.25j], [-0.25j, 0.5]]}).validate(), id="nested-list")


class TestDistinctRowSum:
    @pytest.mark.parametrize("build", _operators())
    def test_every_sector_and_measure_keeps_the_dense_bits(self, build):
        rho = build()
        dense = [float(np.abs(rho.blocks[q]).sum()) for q in rho.q_values]
        assert [rho._sector_reads(q)[1].hex() for q in rho.q_values] == [x.hex() for x in dense]
        want = max(0.0, sum(dense) - 1.0)
        report = coherence_report(rho)
        assert c_l1(rho).hex() == report.c_l1.hex() == want.hex()
        assert c_r(rho).hex() == report.c_r.hex()
        assert report.c_ln.hex() == math.log1p(want).hex()
        assert report.effective_dimension.hex() == (1.0 + want).hex()

    @pytest.mark.parametrize("k", [0.0, 0.7, math.pi])
    def test_single_mode_report_builds_no_dense_block(self, k, monkeypatch):
        rho = reduce_single_mode(30, 12, 15, k)
        want = coherence_report(rho)

        def refuse(self, q):
            raise AssertionError(f"dense block of sector {q} built")

        monkeypatch.setattr(reduced_density._RankOneBlocks, "__getitem__", refuse)
        assert coherence_report(rho) == want
        assert coherence_report(reduce_single_mode(30, 12, 15, k)) == want

    def test_l1_peak_stays_below_one_dense_block(self):
        rho = reduce_single_mode(30, 12, 15, 0.7)
        tracemalloc.start()
        try:
            c_l1(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 924 x 924 complex block is 13.0 MiB; the gathered moduli are half that
        assert peak < 924 * 924 * np.dtype(np.complex128).itemsize


class TestMaxCoherence:
    def test_values(self):
        assert max_coherence(1) == (0.0, 0.0)
        r, l1 = max_coherence(6)
        assert abs(r - math.log(6)) < 1e-15
        assert l1 == 5.0

    def test_domain(self):
        with pytest.raises(DomainError):
            max_coherence(0)
        with pytest.raises(DomainError):
            max_coherence(2.5)
        # ln d is still finite, but d - 1 has no float
        with pytest.raises(InfeasibilityError, match="float range") as err:
            max_coherence(10**400)
        assert err.value.exit_code == 3


class TestAveragedClosedForm:
    def test_single_site_average_vanishes(self):
        assert averaged_coherence_single_mode(8, 1, 3, 0.0, "r") == 0.0
        assert averaged_coherence_single_mode(8, 1, 3, 0.0, "l1") == 0.0

    def test_small_chain_value(self):
        # sectors (0,1,2) with weights (1/6, 2/3, 1/6); only q=1 has ln C(2,1) = ln 2
        want = (2.0 / 3.0) * math.log(2.0)
        assert abs(averaged_coherence_single_mode(4, 2, 2, 0.0, "r") - want) < 1e-14

    @pytest.mark.parametrize("N,n,m", [(8, 3, 2), (8, 4, 2), (10, 4, 3), (12, 5, 4), (9, 9, 2)])
    def test_matches_direct_evaluation(self, N, n, m):
        k = 2.0 * math.pi / N
        reduced = reduce_single_mode(N, n, m, k)
        assert abs(c_r(reduced) - averaged_coherence_single_mode(N, n, m, k, "r")) < 1e-10
        assert abs(c_l1(reduced) - averaged_coherence_single_mode(N, n, m, k, "l1")) < 1e-10

    def test_matches_big_integer_oracle(self):
        # the per-sector bounds of the sector law carried through one
        # Q-term dot product, gamma(Q); float(C(n, q)) - 1 rounds within 3u
        # more.  The oracle sums correctly rounded p and logs (within
        # 2 ulps) exactly with fsum.
        for N, n, m in ((8, 4, 2), (100_000, 6, 31_259), (100_000, 50_000, 31_259)):
            law = sector_law(N, n, m)
            # the exact law at the law's own flip counts
            at = law.q - admissible_q(N, n, m)[0]
            p, _, log_dim = (a[at] for a in model.exact_law(N, n, m))
            rel_p, _, abs_log_dim = model.sector_law_bounds(N, n, m, law)
            extra = model.gamma(len(p)) + 4.0 * model.U
            want = math.fsum(p * log_dim)
            tol = float(law.p @ (rel_p * law.log_dim + abs_log_dim)) + extra * want
            assert abs(averaged_coherence_single_mode(N, n, m, 0.3, "r") - want) <= tol, (N, n, m)
            if n > 1000:
                continue  # C(n, q) leaves the float range
            sizes = np.array([float(math.comb(n, q) - 1) for q in law.q.tolist()])
            want = math.fsum(p * sizes)
            tol = float(law.p @ ((rel_p + 3.0 * model.U) * sizes)) + extra * want
            assert abs(averaged_coherence_single_mode(N, n, m, 0.3, "l1") - want) <= tol, (N, n, m)

    def test_log_measure_average_is_dominated_by_the_direct_value(self):
        # ln is concave, so ln(1 + C_l1) of the mixture exceeds the
        # sector average of ln C(n, q) unless one sector has all the weight
        N, n, m = 8, 4, 2
        k = 0.5
        avg = averaged_coherence_single_mode(N, n, m, k, "ln")
        direct = coherence_report(reduce_single_mode(N, n, m, k)).c_ln
        assert direct > avg + 1e-3
        # degenerate case: a single admissible sector closes the gap
        avg_pure = averaged_coherence_single_mode(8, 8, 2, k, "ln")
        direct_pure = coherence_report(reduce_single_mode(8, 8, 2, k)).c_ln
        assert abs(direct_pure - avg_pure) < 1e-10

    def test_measure_name_checked(self):
        with pytest.raises(DomainError):
            averaged_coherence_single_mode(8, 3, 2, 0.0, "l2")

    def test_l1_average_beyond_the_float_range_is_infeasible(self):
        # C(1200, 600) ~ 1e359 has no float; the entropic averages stay finite
        with pytest.raises(InfeasibilityError, match="float range") as err:
            averaged_coherence_single_mode(3000, 1200, 600, 0.4, "l1")
        assert err.value.exit_code == 3
        for measure in ("r", "ln"):
            assert math.isfinite(averaged_coherence_single_mode(3000, 1200, 600, 0.4, measure))


class TestReport:
    def test_fields_are_consistent(self):
        reduced = reduce_single_mode(9, 4, 3, 1.0)
        report = coherence_report(reduced)
        assert abs(report.c_ln - math.log1p(report.c_l1)) < 1e-14
        assert abs(report.effective_dimension - 1.0 - report.c_l1) < 1e-14
        assert report.basis_dimension == sum(math.comb(4, q) for q in reduced.q_values) == 15
        assert report.c_r <= math.log(report.basis_dimension) + 1e-12
        assert report.c_l1 >= 0.0 and report.c_r >= 0.0

    def test_plain_matrix_input(self):
        report = coherence_report(top_state(4))
        assert report.basis_dimension == 4
        assert abs(report.c_r - math.log(4)) < 1e-12


def _plane_wave_report(N, m, indices):
    """The prefix report of the n = N/2 sites for momentum indices, or
    None for a null state."""
    try:
        state = build_state(MagnonStateSpec(N, m, MomentumVector(N, indices)))
    except NullStateError:
        return None
    return coherence_report(reduce(state, SubsystemSpec.prefix(N, N // 2)))


class TestSingleModeIsMaximal:
    """The headline claim among plane-wave states: a single macroscopically
    occupied mode carries the most prefix coherence.

    The class is the plane-wave states, one per multiset of m momentum
    indices.  Shifting every index by one is a diagonal unitary on the
    subsystem and k -> -k conjugates, so neither moves a measure, and the
    multisets with minimum index 0 cover every class.  The claim does not
    hold among all m-flip states: a product of Dicke states
    D_{n,q} (x) D_{N-n,m-q} has prefix C_r = ln C(n, q), which at
    (N, m, n, q) = (12, 6, 6, 3) is ln 20 = 2.996, above single mode's 2.755.
    """

    # (N, m): single mode's (C_r, C_l1), and the largest over the other classes
    MEASURED = {
        (8, 2): ((1.176, 2.786), (0.766, 1.988)),
        (8, 3): ((1.461, 3.643), (0.930, 2.488)),
        (10, 3): ((1.822, 6.167), (1.305, 4.661)),
    }

    @pytest.mark.parametrize("N,m", list(MEASURED))
    def test_single_mode_has_the_strictly_largest_prefix_coherence(self, N, m):
        reports, worst = {}, 0.0
        for rest in itertools.combinations_with_replacement(range(N), m - 1):
            indices = (0, *rest)
            report = _plane_wave_report(N, m, indices)
            shifted = _plane_wave_report(N, m, tuple((i + 1) % N for i in indices))
            negated = _plane_wave_report(N, m, tuple(-i % N for i in indices))
            if report is None:
                assert shifted is None and negated is None, indices
                continue
            for other in (shifted, negated):
                worst = max(worst, abs(other.c_r - report.c_r), abs(other.c_l1 - report.c_l1))
            reports[indices] = report
        assert worst <= 1e-12
        single = reports.pop((0,) * m)
        runner_up = (max(r.c_r for r in reports.values()), max(r.c_l1 for r in reports.values()))
        assert single.c_r > runner_up[0] and single.c_l1 > runner_up[1]
        assert (single.c_r, single.c_l1) == pytest.approx(self.MEASURED[N, m][0], abs=5e-4)
        assert runner_up == pytest.approx(self.MEASURED[N, m][1], abs=5e-4)

    def test_a_dicke_product_beats_single_mode(self):
        # the prefix of D_{6,3} (x) D_{6,3} is the pure Dicke state D_{6,3}
        dicke = BlockDensityMatrix(6, {3: np.full((20, 20), 1.0 / 20)})
        single = coherence_report(reduce_single_mode(12, 6, 6, 2.0 * math.pi / 12))
        assert round(single.c_r, 3) == 2.755 and round(c_r(dicke), 3) == 2.996
