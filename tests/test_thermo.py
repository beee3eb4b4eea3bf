import math

import numpy as np
import pytest

import error_model as model
from magcoh import thermo
from magcoh import (
    DivergenceError,
    DomainError,
    admissible_q,
    beta_c,
    beta_decomposition,
    binary_entropy,
    coherence_density,
    energy_from_beta,
    finite_size_coherence_density,
    heat_capacity,
    hypergeometric_pmf,
    internal_energy,
    schottky_peak,
    sector_law,
    sweep,
)

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
        p, log_p, log_dim = exact
        law, (rel_p, abs_log_p, abs_log_dim) = bounds
        entropy, avg_log = -math.fsum(p * log_p), math.fsum(p * log_dim)
        got_entropy, got_avg_log = thermo._sector_entropies(self.N, self.n, self.m)
        Q = len(p)
        tol_entropy = float(law.p @ (rel_p * np.abs(law.log_p) + abs_log_p)) + model.gamma(Q) * entropy
        tol_entropy += 3.0 * model.U * (entropy + 1.0)
        tol_avg_log = float(law.p @ (rel_p * law.log_dim + abs_log_dim)) + model.gamma(Q) * avg_log
        tol_avg_log += 4.0 * model.U * avg_log
        assert abs(got_entropy - entropy) <= tol_entropy
        assert abs(got_avg_log - avg_log) <= tol_avg_log


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
        with pytest.raises(DomainError):
            beta_decomposition(10, 4, 5, 1.0, dm=0)


class TestSweep:
    def test_grid_and_midpoint(self):
        curve = sweep(2.0, -1.0, 1.0, 3)
        assert curve.count == 3
        betas = [p.beta_c for p in curve.points]
        assert betas == [-1.0, 0.0, 1.0]
        mid = curve.points[1]
        assert abs(mid.u - 1.0) < 1e-15
        assert mid.heat_capacity == 0.0

    def test_points_are_consistent(self):
        # one shared two-level kernel: the sweep's points are the scalar calls' bits
        curve = sweep(1.5, -4.0, 4.0, 41)
        for p in curve.points:
            assert p.u == energy_from_beta(p.beta_c, p.epsilon0)
            assert p.heat_capacity == heat_capacity(p.beta_c, p.epsilon0)
            assert p.heat_capacity >= 0.0
            assert 0.0 < p.u < p.epsilon0

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
