import math
import random

import numpy as np
import pytest

import error_model as model
from magcoh import thermo
from magcoh import (
    DivergenceError,
    DomainError,
    InfeasibilityError,
    admissible_q,
    beta_c,
    beta_decomposition,
    binary_entropy,
    coherence_density,
    dispersion,
    energy_from_beta,
    finite_size_coherence_density,
    heat_capacity,
    hypergeometric_pmf,
    internal_energy,
    schottky_peak,
    sector_law,
    sweep,
)

def two_level_oracle(beta, eps):
    """(u, C) at one point in Python floats and ``math`` only; C is 0
    where exp(-|eps beta|) underflows."""
    x = eps * beta
    e = math.exp(-abs(x))
    r = 1.0 + e
    u = eps * e / r if x >= 0.0 else eps / r
    return u, (x * x * e / (r * r) if e > 0.0 else 0.0)


# frozen roots of the peak condition x tanh(x/2) = 2, probed by bisection
PEAK_X = 2.399357280515468
PEAK_VALUE = 0.4392288398906452


class TestInternalEnergy:
    def test_closed_form(self):
        assert internal_energy(4, 2, 2, 8.0) == 8.0
        assert internal_energy(10, 5, 0, 3.0) == 0.0

    def test_equals_sector_average(self):
        # independent route: q eps0 averaged over the sector law
        for N, n, m in [(8, 3, 2), (12, 5, 4), (30, 11, 7)]:
            eps = 1.7
            avg = sum(q * eps * hypergeometric_pmf(N, n, m, q) for q in admissible_q(N, n, m))
            assert abs(internal_energy(N, n, m, eps) - avg) < 1e-12

    @pytest.mark.parametrize("kind, value", [(np.int32, 60000), (np.int64, 4 * 10**9)])
    def test_numpy_integers_are_their_python_integers(self, kind, value):
        # n m overflows the numpy type, never the Python integer it stands for
        x = kind(value)
        got = internal_energy(x, x, x, 1.0)
        assert type(got) is float and got == float(value)

    def test_domain(self):
        with pytest.raises(DomainError):
            internal_energy(4, 5, 2, 1.0)
        with pytest.raises(DomainError):
            internal_energy(4, 2, 2, 0.0)


class TestDensityAndTemperature:
    def test_coherence_density_values(self):
        assert coherence_density(0.0, 2.0) == 0.0
        assert coherence_density(2.0, 2.0) == 0.0
        assert abs(coherence_density(1.0, 2.0) - math.log(2.0)) < 1e-15
        assert abs(coherence_density(0.2, 2.0) - binary_entropy(0.1)) < 1e-15

    @pytest.mark.parametrize("u", [-0.1, 2.1])
    def test_coherence_density_needs_u_within_the_band(self, u):
        with pytest.raises(DomainError, match=rf"^energy density must lie in \[0, 2.0\], got {u}$"):
            coherence_density(u, 2.0)

    def test_beta_c_branches(self):
        eps = 1.3
        assert beta_c(eps / 2.0, eps) == 0.0
        assert beta_c(0.1 * eps, eps) > 0.0
        assert beta_c(0.9 * eps, eps) < 0.0

    def test_beta_c_value(self):
        # u = eps/4 leaves ln 3 in the numerator
        eps = 2.0
        assert abs(beta_c(0.5, eps) - math.log(3.0) / eps) < 1e-14

    def test_divergent_edges_are_signed(self):
        with pytest.raises(DivergenceError) as cold:
            beta_c(0.0, 1.5)
        assert cold.value.sign == +1
        with pytest.raises(DivergenceError) as hot:
            beta_c(1.5, 1.5)
        assert hot.value.sign == -1
        with pytest.raises(DomainError):
            beta_c(-0.1, 1.5)
        with pytest.raises(DomainError):
            beta_c(1.6, 1.5)

    def test_energy_from_beta_values(self):
        eps = 2.0
        assert abs(energy_from_beta(0.0, eps) - eps / 2.0) < 1e-15
        assert abs(energy_from_beta(math.log(3.0) / eps, eps) - eps / 4.0) < 1e-14
        assert energy_from_beta(50.0 / eps, eps) < 1e-12
        assert abs(energy_from_beta(-50.0 / eps, eps) - eps) < 1e-12

    def test_energy_from_beta_never_overflows(self):
        assert energy_from_beta(1e6, 1.0) == 0.0 or energy_from_beta(1e6, 1.0) > 0.0
        assert abs(energy_from_beta(-1e6, 1.0) - 1.0) < 1e-15
        with pytest.raises(DomainError):
            energy_from_beta(math.inf, 1.0)

    def test_round_trip(self):
        eps = 1.0
        for u in np.linspace(0.01, 0.99, 199):
            assert abs(energy_from_beta(beta_c(float(u), eps), eps) - u) < 1e-12

    def test_round_trip_scaled(self):
        eps = 3.7
        for u in np.linspace(0.01, 0.99, 99) * eps:
            back = energy_from_beta(beta_c(float(u), eps), eps)
            assert abs(back - u) < 1e-14 * eps


class TestHeatCapacity:
    def test_zero_at_infinite_temperature(self):
        assert heat_capacity(0.0, 2.0) == 0.0

    def test_even_in_beta(self):
        for b in np.linspace(0.1, 20.0, 37):
            assert abs(heat_capacity(float(b), 1.3) - heat_capacity(float(-b), 1.3)) < 1e-15

    def test_vanishes_at_both_extremes(self):
        assert heat_capacity(50.0, 1.0) < 1e-12
        assert heat_capacity(-50.0, 1.0) < 1e-12
        assert heat_capacity(1e8, 1.0) == 0.0

    def test_matches_numerical_derivative(self):
        # C = du/dT with T = 1/beta, centered difference oracle
        eps = 1.7
        for beta in (-2.0, -0.7, 0.4, 1.1, 3.0):
            t = 1.0 / beta
            dt = 1e-6 * abs(t)
            du = energy_from_beta(1.0 / (t + dt), eps) - energy_from_beta(1.0 / (t - dt), eps)
            assert abs(heat_capacity(beta, eps) - du / (2.0 * dt)) < 1e-6


class TestSchottkyPeak:
    def test_frozen_location_and_height(self):
        beta_peak, value = schottky_peak(1.0)
        assert abs(beta_peak - PEAK_X) < 1e-6
        assert abs(value - PEAK_VALUE) < 1e-12

    def test_scaling_in_the_level_splitting(self):
        for eps in (0.5, 2.0, 8.0):
            beta_peak, value = schottky_peak(eps)
            assert abs(eps * beta_peak - PEAK_X) < 1e-6
            assert abs(value - PEAK_VALUE) < 1e-12

    def test_peak_height_does_not_depend_on_the_splitting(self):
        values = {schottky_peak(eps)[1] for eps in (0.25, 1.0, 3.0, 11.0)}
        assert len(values) == 1

    def test_location_solves_the_stationarity_condition(self):
        # dC/dx = 0 at x tanh(x/2) = 2, to a few ulps, and no float
        # beside the root's leaves a smaller residual
        x = schottky_peak(1.0)[0]
        residual = [abs(t * math.tanh(t / 2.0) - 2.0) for t in (math.nextafter(x, 0.0), x, math.nextafter(x, 3.0))]
        assert residual[1] <= 4 * math.ulp(2.0)
        assert residual[1] <= min(residual[0], residual[2])

    def test_location_is_the_golden_section_maximum(self):
        # the independent route: search x = eps0 beta for the largest C
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 0.5, 8.0
        c, d = b - golden * (b - a), a + golden * (b - a)
        gc, gd = heat_capacity(c, 1.0), heat_capacity(d, 1.0)
        while b - a > 1e-10:
            if gc > gd:
                b, d, gd = d, c, gc
                c = b - golden * (b - a)
                gc = heat_capacity(c, 1.0)
            else:
                a, c, gc = c, d, gd
                d = a + golden * (b - a)
                gd = heat_capacity(d, 1.0)
        assert abs(0.5 * (a + b) - schottky_peak(1.0)[0]) < 1e-8

    def test_it_is_actually_the_maximum(self):
        beta_peak, value = schottky_peak(1.0)
        for offset in (-0.05, -0.01, 0.01, 0.05):
            assert heat_capacity(beta_peak + offset, 1.0) < value

    def test_domain(self):
        with pytest.raises(DomainError):
            schottky_peak(0.0)


class TestFiniteSizeDensity:
    def test_small_chain_closed_form(self):
        # only the q = 1 sector of (4, 2, 2) carries ln C(2, 1)
        want = 0.5 * (2.0 / 3.0) * math.log(2.0)
        assert abs(finite_size_coherence_density(4, 2, 2) - want) < 1e-14

    def test_converges_to_the_binary_entropy(self):
        limit = binary_entropy(0.1)
        devs = [
            abs(finite_size_coherence_density(N, N // 2, N // 10) - limit)
            for N in (40, 200, 1000)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.01

    def test_numpy_integers_give_a_float(self):
        got = finite_size_coherence_density(np.int64(40), np.int64(16), np.int64(6))
        assert type(got) is float and got == finite_size_coherence_density(40, 16, 6)

    def test_intensive_under_doubling(self):
        limit = binary_entropy(0.15)
        a = abs(finite_size_coherence_density(40, 16, 6) - limit)
        b = abs(finite_size_coherence_density(80, 32, 12) - limit)
        assert b < a


class TestSectorSumsAgainstExactIntegers:
    """The sector-law dot products at N = 1e5 against fsum over exact p.

    Each tolerance is the sector-law error model propagated through a
    p-weighted sum of Q nonnegative terms (one dot product, gamma(Q)),
    plus the oracle's own rounding: correctly rounded p and logs within
    2 ulps, summed exactly by fsum.
    """

    N, n, m = 100_000, 50_000, 31_259

    @pytest.fixture(scope="class")
    def exact(self):
        return model.exact_law(self.N, self.n, self.m)

    @pytest.fixture(scope="class")
    def bounds(self):
        law = sector_law(self.N, self.n, self.m)
        return law, model.sector_law_bounds(self.N, self.n, self.m, law)

    def test_finite_size_density(self, exact, bounds):
        p, _, log_dim = exact
        law, (rel_p, _, abs_log_dim) = bounds
        avg_log = math.fsum(p * log_dim)
        # one more rounding for the division by n, 4u for the oracle
        tol = (float(law.p @ (rel_p * law.log_dim + abs_log_dim)) + (model.gamma(len(p)) + 5.0 * model.U) * avg_log) / self.n
        got = finite_size_coherence_density(self.N, self.n, self.m)
        assert abs(got - avg_log / self.n) <= tol

    def test_block_entropy_and_coherence(self, exact, bounds):
        # the two dot products beta_decomposition takes at each flip count
        p, log_p, log_dim = exact
        law, (rel_p, abs_log_p, abs_log_dim) = bounds
        entropy, avg_log = -math.fsum(p * log_p), math.fsum(p * log_dim)
        got_entropy, got_avg_log = -float(law.p @ law.log_p), float(law.p @ law.log_dim)
        Q = len(law.q)
        tol_entropy = float(law.p @ (rel_p * np.abs(law.log_p) + abs_log_p)) + model.gamma(Q) * entropy
        tol_entropy += 3.0 * model.U * (entropy + 1.0)
        tol_avg_log = float(law.p @ (rel_p * law.log_dim + abs_log_dim)) + model.gamma(Q) * avg_log
        tol_avg_log += 4.0 * model.U * avg_log
        assert abs(got_entropy - entropy) <= tol_entropy
        assert abs(got_avg_log - avg_log) <= tol_avg_log


class TestThermodynamicSizes:
    """n = N/2 and m = 3N/10 out to N = 1e8, where the whole admissible
    range has 3e7 sectors; the sums read only the law's float support."""

    @pytest.mark.parametrize("N", [10**6, 10**7, 10**8])
    def test_density_falls_short_of_the_binary_entropy_by_order_ln_n_over_n(self, N):
        n, m = N // 2, 3 * N // 10
        gap = binary_entropy(m / N) - finite_size_coherence_density(N, n, m)
        # about 0.52 ln n / n at these sizes
        assert math.log(n) / (4 * n) <= gap <= math.log(n) / n

    def test_beta_decomposition_at_1e8_sums_under_3e5_sectors(self, monkeypatch):
        N, n, m = 10**8, 5 * 10**7, 3 * 10**7
        sizes, support_law = [], thermo.sector_law

        def recording(*args):
            law = support_law(*args)
            sizes.append(len(law.q))
            return law

        monkeypatch.setattr(thermo, "sector_law", recording)
        d = beta_decomposition(N, n, m, 1.0)
        assert d.identity_residual <= d.truncation_bound
        assert len(sizes) == 4 and max(sizes) < 3 * 10**5
        assert len(admissible_q(N, n, m)) > 3 * 10**7


class TestBetaDecomposition:
    def test_identity_holds_to_roundoff(self):
        d = beta_decomposition(60, 20, 6, 1.7)
        assert d.identity_residual < 1e-8
        assert d.identity_residual <= d.truncation_bound

    def test_pure_full_chain_splits_trivially(self):
        # n = N: the block is pure, its entropy flat, so the two pieces agree
        d = beta_decomposition(40, 40, 10, 1.0)
        assert abs(d.beta) < 1e-12
        assert abs(d.beta_incoherent - d.beta_coherence) < 1e-12

    def test_matches_brute_force_differences(self):
        N, n, m, eps = 30, 10, 6, 2.0

        def entropy(mm):
            ps = [hypergeometric_pmf(N, n, mm, q) for q in admissible_q(N, n, mm)]
            return -sum(p * math.log(p) for p in ps if p > 0)

        du = 2 * n * eps / N
        want = (entropy(m + 1) - entropy(m - 1)) / du
        d = beta_decomposition(N, n, m, eps)
        assert abs(d.beta - want) < 1e-12

    def test_coherence_branch_approaches_the_two_level_value(self):
        # beta_C at filling m/N approaches ln(eps/u - 1)/eps as chains grow
        eps = 1.0
        target = beta_c(0.1 * eps, eps)
        devs = []
        for scale in (1, 10, 100):
            N, n, m = 200 * scale, 40 * scale, 20 * scale
            d = beta_decomposition(N, n, m, eps)
            devs.append(abs(d.beta_coherence - target))
        # empirically O(1/scale); check the rate, not just the trend
        assert devs[1] < 0.2 * devs[0]
        assert devs[2] < 0.2 * devs[1]
        assert devs[2] < 2e-3

    def test_step_must_fit(self):
        with pytest.raises(DomainError):
            beta_decomposition(10, 4, 1, 1.0)
        with pytest.raises(DomainError):
            beta_decomposition(10, 4, 9, 1.0)
        # one and two flips either way reach exactly 0 and N
        for m in (2, 8):
            assert beta_decomposition(10, 4, m, 1.0).truncation_bound > 0.0

    def test_a_non_integer_m_is_named_before_it_is_shifted(self):
        with pytest.raises(DomainError, match=r"^m must be an integer, got 2\.5$"):
            beta_decomposition(10, 4, 2.5, 1.0)


# inputs at the edges of the float range: (call, its finite result, or the
# quantity an InfeasibilityError names)
FLOAT_RANGE_EDGES = {
    # eps0 / u overflows, so the log is taken as ln(eps0 - u) - ln(u)
    "beta_c-subnormal-u": (lambda: beta_c(5e-324, 1.0), 744.4400719213812),
    "beta_c-past-the-range": (lambda: beta_c(1e-320, 1e-310), "beta_c"),
    "schottky_peak-subnormal-eps0": (lambda: schottky_peak(1e-320)[0], "heat-capacity peak beta"),
    "dispersion-past-the-range": (lambda: dispersion(1e308, 3.0), "single-flip energy"),
    # 8 J overflows, the energy does not
    "dispersion-8J-overflows": (lambda: dispersion(3e307, 0.1), 8.0 * (3e307 * math.sin(0.05) ** 2)),
    "internal_energy-past-the-range": (lambda: internal_energy(10, 10, 10, 1e308), "mean block energy at N=10"),
    # n m eps0 overflows, the mean does not
    "internal_energy-nm-eps0-overflows": (lambda: internal_energy(100, 10, 10, 1e307), 1e307),
    # n m alone is past the float range, the mean is not
    "internal_energy-nm-past-the-range": (lambda: internal_energy(10**400, 10**400, 1, 1.0), 1.0),
    "internal_energy-nm-and-N-past-the-range": (lambda: internal_energy(10**400, 10**400, 10**400, 1e-300), 1e100),
    # a nonzero mean below the float range is refused whether or not N
    # itself leaves it; m = 0 and a subnormal mean keep their values
    "internal_energy-mean-underflows": (lambda: internal_energy(10**300, 1, 1, 1e-300), "mean block energy at N=10{300}"),
    "internal_energy-mean-underflows-past-the-range-N": (lambda: internal_energy(10**400, 1, 1, 1e-300), "mean block energy at N=10{400}"),
    "internal_energy-m-0": (lambda: internal_energy(10**300, 1, 0, 1e-300), 0.0),
    "internal_energy-subnormal-mean": (lambda: internal_energy(1, 1, 1, 1e-310), 1e-310),
    "beta_decomposition-huge-eps0": (lambda: beta_decomposition(10, 5, 4, 1e308), "mean block energy at N=10"),
    # an energy step that underflows to 0, and slopes past the range
    "beta_decomposition-subnormal-eps0": (lambda: beta_decomposition(10, 5, 4, 5e-324), "beta"),
    "beta_decomposition-tiny-eps0": (lambda: beta_decomposition(1000, 500, 400, 1e-310), "beta_incoherent"),
}


@pytest.mark.parametrize("call, want", FLOAT_RANGE_EDGES.values(), ids=FLOAT_RANGE_EDGES.keys())
def test_a_result_is_finite_or_infeasible(call, want):
    if isinstance(want, str):
        with pytest.raises(InfeasibilityError, match=rf"^{want} leaves the float range$"):
            call()
    else:
        assert call() == want


class TestSweep:
    def test_grid_and_midpoint(self):
        curve = sweep(2.0, -1.0, 1.0, 3)
        assert curve.epsilon0 == 2.0
        assert len(curve.points) == 3
        betas = [p.beta_c for p in curve.points]
        assert betas == [-1.0, 0.0, 1.0]
        mid = curve.points[1]
        assert abs(mid.u - 1.0) < 1e-15
        assert mid.heat_capacity == 0.0

    def test_points_are_consistent(self):
        # one shared two-level kernel: the sweep's points are the scalar calls' bits
        curve = sweep(1.5, -4.0, 4.0, 41)
        for p in curve.points:
            assert p.u == energy_from_beta(p.beta_c, curve.epsilon0)
            assert p.heat_capacity == heat_capacity(p.beta_c, curve.epsilon0)
            assert p.heat_capacity >= 0.0
            assert 0.0 < p.u < curve.epsilon0

    @pytest.mark.parametrize(
        "eps,lo,hi,count",
        [
            (1.0, 0.0, 0.0, 1),
            (2.5, -3.0, 7.0, 1),
            (1.0, -1.0, 1.0, 2001),
            (0.7, -4.0, 4.0, 20001),
            # e = exp(-|x|) underflows past |x| = 745.13
            (1.0, -760.0, 760.0, 30401),
            (3.0, 248.0, 249.0, 1001),
            (1.0, -1e200, 1e200, 3),
            (1.0, -2e154, 2e154, 5),
            (1e300, -1e10, 1e10, 7),
        ],
    )
    def test_points_are_the_per_point_oracle_bit_for_bit(self, eps, lo, hi, count):
        # the rows as Python floats, so the oracle's arithmetic is CPython's
        for beta, u, c in sweep(eps, lo, hi, count).points.tolist():
            want = two_level_oracle(beta, eps)
            assert (u.hex(), c.hex()) == (want[0].hex(), want[1].hex()), beta

    def test_random_grids_are_the_per_point_oracle_bit_for_bit(self):
        rng = random.Random(1529)
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-3.0, 3.0)
            lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-2, 3)
            hi = lo + rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-2, 3) + 1e-9
            for beta, u, c in sweep(eps, lo, hi, rng.choice((1, 2, 3, 17, 401))).points.tolist():
                want = two_level_oracle(beta, eps)
                assert (u.hex(), c.hex()) == (want[0].hex(), want[1].hex())

    def test_huge_beta_heat_capacity_is_zero(self):
        # (eps0 beta)^2 overflows where exp(-|eps0 beta|) is already 0
        for beta in (1e200, -1e200, 2e154, -2e154):
            assert heat_capacity(beta, 1.0) == 0.0
            assert energy_from_beta(beta, 1.0) == (0.0 if beta > 0 else 1.0)
        curve = sweep(1.0, -1e200, 1e200, 3)
        assert [p.heat_capacity for p in curve.points] == [0.0, 0.0, 0.0]
        assert [p.u for p in curve.points] == [1.0, 0.5, 0.0]

    def test_domain(self):
        with pytest.raises(DomainError):
            sweep(1.0, 1.0, -1.0, 5)
        with pytest.raises(DomainError):
            sweep(1.0, 0.0, 1.0, 0)
        with pytest.raises(DomainError):
            sweep(-1.0, 0.0, 1.0, 5)
        # finite endpoints whose difference overflows give a non-finite grid
        with pytest.raises(DomainError, match="inverse temperature"):
            sweep(1.0, -1.7e308, 1.7e308, 3)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, -math.inf)])
    @pytest.mark.parametrize("count", [1, 5])
    def test_non_finite_endpoint_is_named_before_the_order(self, lo, hi, count):
        # a NaN or a reversed infinite endpoint also fails the order test
        with pytest.raises(DomainError, match="^sweep endpoints must be finite$"):
            sweep(1.0, lo, hi, count)

    def test_points_are_one_read_only_record_array(self):
        points = sweep(1.5, -1.0, 1.0, 5).points
        assert isinstance(points, np.recarray)
        assert points.dtype.names == ("beta_c", "u", "heat_capacity")
        assert points.dtype.fields["u"][0] == np.float64
        row = points[1]
        assert isinstance(row.u, float) and isinstance(row.heat_capacity, float)
        writes = [
            lambda: points.__setitem__(0, (0.0, 0.0, 0.0)),
            lambda: points.u.__setitem__(0, 0.0),
            lambda: setattr(points, "heat_capacity", np.zeros(5)),
            lambda: setattr(row, "u", 0.0),
        ]
        for write in writes:
            with pytest.raises(ValueError, match="read-only"):
                write()

    @pytest.mark.parametrize("eps,lo,hi,count", [(0.7, -4.0, 4.0, 2001), (1.0, -1e300, 1e300, 17), (2.0, 0.5, 0.5, 1)])
    def test_columns_are_the_kernel_arrays_by_hex(self, eps, lo, hi, count):
        points = sweep(eps, lo, hi, count).points
        grid = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
        u, c = thermo._two_level(grid, eps)
        for column, want in ((points.beta_c, grid), (points.u, u), (points.heat_capacity, c)):
            assert list(map(float.hex, column.tolist())) == list(map(float.hex, want.tolist()))
