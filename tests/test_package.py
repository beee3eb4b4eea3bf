"""The package's public names: each module's ``__all__`` is the one list,
and ``magcoh`` republishes exactly those lists."""

import importlib

import magcoh

PUBLIC = [
    "AmplitudeTable", "BetaDecomposition", "BlockDensityMatrix", "CoherenceReport", "DivergenceError",
    "DomainError", "FamilyResult", "InfeasibilityError", "InternalConsistencyError", "MagcohError",
    "MagnonStateSpec", "MomentumVector", "NullStateError", "SectorLaw", "SubsystemSpec", "ThermoCurve",
    "__version__", "admissible_q", "apply_hamiltonian", "averaged_coherence_single_mode", "beta_c",
    "beta_decomposition", "binary_entropy", "build_state", "c_l1", "c_r", "coherence_density",
    "coherence_report", "dispersion", "energy_from_beta", "enumerate_combinations",
    "finite_size_coherence_density", "heat_capacity", "hypergeometric_pmf", "internal_energy",
    "log_binomial", "max_coherence", "oracle_partial_trace", "rank_combination", "reduce",
    "reduce_single_mode", "run_suite", "schottky_peak", "sector_law", "single_mode_state", "sweep",
]

MODULES = ["errors", "combinat", "magnon_state", "reduced_density", "coherence", "thermo", "verify"]

# importable from their modules, but not republished
MODULE_ONLY = {
    "combinat": ["EXACT_LIMIT", "SiteList", "validate_sitelist", "combination_array"],
    "magnon_state": ["AMPLITUDE_BUDGET", "FULL_VECTOR_BUDGET"],
    "coherence": ["EIGENVALUE_FLOOR"],
    "verify": ["FAMILY_NAMES"],
}


def test_the_public_names_are_pinned():
    assert sorted(magcoh.__all__) == PUBLIC
    assert len(set(magcoh.__all__)) == len(PUBLIC)


def test_the_package_republishes_each_module_list():
    modules = [importlib.import_module(f"magcoh.{name}") for name in MODULES]
    assert magcoh.__all__ == [n for module in modules for n in module.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(magcoh, name) is getattr(module, name)


def test_module_only_names_stay_importable():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"magcoh.{module_name}")
        for name in names:
            assert hasattr(module, name)
            assert name not in module.__all__
            assert not hasattr(magcoh, name)
