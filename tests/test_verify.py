import numpy as np
import pytest

from magcoh import DomainError, run_suite, thermo, verify
from magcoh.verify import FAMILY_NAMES, _done


def test_family_names_are_stable():
    assert len(FAMILY_NAMES) == 27
    assert len(set(FAMILY_NAMES)) == 27
    for name in ("oracle-equivalence", "block-weight-law", "thermo-inverse-pair", "averaged-identity"):
        assert name in FAMILY_NAMES


def test_default_point_passes_everywhere():
    results = run_suite()
    assert [r.name for r in results] == list(FAMILY_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: residual {r.max_residual:.3e} ({r.detail})"
        # finite-difference oracle families allow up to 1e-6
        assert r.max_residual < 1e-6


def test_other_working_points_pass_too():
    for N, m in ((6, 1), (10, 3)):
        results = run_suite(N=N, m=m, seed=3)
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed


def test_seeded_runs_repeat_exactly():
    a = run_suite(N=8, m=2, seed=11)
    b = run_suite(N=8, m=2, seed=11)
    assert [(r.name, r.max_residual) for r in a] == [(r.name, r.max_residual) for r in b]


def test_working_point_validation():
    with pytest.raises(DomainError):
        run_suite(N=16, m=2)
    with pytest.raises(DomainError):
        run_suite(N=8, m=8)
    with pytest.raises(DomainError):
        run_suite(N=2, m=1)


# The four two-level families as they were evaluated before the array
# kernel took whole grids: one scalar call per point.

def per_point_thermo_inverse_pair():
    worst = 0.0
    for eps in (1.0, 3.5):
        for u in np.linspace(0.01, 0.99, 99) * eps:
            worst = max(worst, abs(thermo.energy_from_beta(thermo.beta_c(u, eps), eps) - u))
    return _done(worst, 1e-12)


def per_point_heat_capacity_limits():
    eps = 2.0
    grid = np.linspace(-40.0, 40.0, 161) / eps
    values = [thermo.heat_capacity(b, eps) for b in grid]
    worst = max(0.0, -min(values))
    worst = max(worst, thermo.heat_capacity(0.0, eps))
    worst = max(worst, thermo.heat_capacity(50.0 / eps, eps), thermo.heat_capacity(-50.0 / eps, eps))
    for b in grid:
        worst = max(worst, abs(thermo.heat_capacity(b, eps) - thermo.heat_capacity(-b, eps)))
    return _done(worst, 1e-12, "non-negative, even, vanishing at both extremes")


def per_point_energy_monotone_in_beta():
    eps = 0.9
    grid = np.linspace(-30.0, 30.0, 301) / eps
    u = [thermo.energy_from_beta(float(b), eps) for b in grid]
    worst = max(0.0, max(b - a for a, b in zip(u, u[1:])))
    return _done(worst, 0.0, "energy density strictly falls with beta")


def per_point_two_level_correspondence():
    eps = 1.7
    worst = 0.0
    h = 1e-5 * eps
    for u in np.linspace(0.2, 0.8, 13) * eps:
        slope = (thermo.coherence_density(u + h, eps) - thermo.coherence_density(u - h, eps)) / (2 * h)
        worst = max(worst, abs(thermo.beta_c(float(u), eps) - slope))
    for beta in (-1.5, -0.4, 0.3, 0.9, 2.2):
        t = 1.0 / beta
        dt = 1e-5 * abs(t)
        du = thermo.energy_from_beta(1.0 / (t + dt), eps) - thermo.energy_from_beta(1.0 / (t - dt), eps)
        worst = max(worst, abs(thermo.heat_capacity(beta, eps) - du / (2 * dt)))
    return _done(worst, 1e-6, "beta and heat capacity match the numeric derivatives")


@pytest.mark.parametrize(
    "family,per_point",
    [
        (verify._fam_thermo_inverse_pair, per_point_thermo_inverse_pair),
        (verify._fam_heat_capacity_limits, per_point_heat_capacity_limits),
        (verify._fam_energy_monotone_in_beta, per_point_energy_monotone_in_beta),
        (verify._fam_two_level_correspondence, per_point_two_level_correspondence),
    ],
)
def test_grid_families_keep_the_per_point_result(family, per_point):
    ok, worst, note = family(8, 2, np.random.default_rng(7))
    want_ok, want_worst, want_note = per_point()
    assert (ok, worst.hex(), note) == (want_ok, want_worst.hex(), want_note)
