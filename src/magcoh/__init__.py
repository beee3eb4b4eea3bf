"""Exact multi-magnon states of the ferromagnetic Heisenberg chain,
their subsystem reductions in magnon-number blocks, basis coherence
measures, and the two-level coherence thermodynamics they generate.
"""

from .errors import (
    MagcohError,
    DomainError,
    InfeasibilityError,
    InternalConsistencyError,
    NullStateError,
    DivergenceError,
)
from .combinat import (
    log_binomial,
    enumerate_combinations,
    rank_combination,
    admissible_q,
    hypergeometric_pmf,
    SectorLaw,
    sector_law,
    binary_entropy,
)
from .magnon_state import (
    MomentumVector,
    MagnonStateSpec,
    AmplitudeTable,
    dispersion,
    build_state,
    single_mode_state,
    apply_hamiltonian,
)
from .reduced_density import (
    SubsystemSpec,
    BlockDensityMatrix,
    reduce,
    reduce_single_mode,
    oracle_partial_trace,
)
from .coherence import (
    CoherenceReport,
    c_l1,
    c_r,
    max_coherence,
    averaged_coherence_single_mode,
    coherence_report,
)
from .thermo import (
    ThermoCurve,
    BetaDecomposition,
    internal_energy,
    coherence_density,
    beta_c,
    energy_from_beta,
    heat_capacity,
    schottky_peak,
    finite_size_coherence_density,
    beta_decomposition,
    sweep,
)
from .verify import FamilyResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "MagcohError",
    "DomainError",
    "InfeasibilityError",
    "InternalConsistencyError",
    "NullStateError",
    "DivergenceError",
    "log_binomial",
    "enumerate_combinations",
    "rank_combination",
    "admissible_q",
    "hypergeometric_pmf",
    "SectorLaw",
    "sector_law",
    "binary_entropy",
    "MomentumVector",
    "MagnonStateSpec",
    "AmplitudeTable",
    "dispersion",
    "build_state",
    "single_mode_state",
    "apply_hamiltonian",
    "SubsystemSpec",
    "BlockDensityMatrix",
    "reduce",
    "reduce_single_mode",
    "oracle_partial_trace",
    "CoherenceReport",
    "c_l1",
    "c_r",
    "max_coherence",
    "averaged_coherence_single_mode",
    "coherence_report",
    "ThermoCurve",
    "BetaDecomposition",
    "internal_energy",
    "coherence_density",
    "beta_c",
    "energy_from_beta",
    "heat_capacity",
    "schottky_peak",
    "finite_size_coherence_density",
    "beta_decomposition",
    "sweep",
    "FamilyResult",
    "run_suite",
    "__version__",
]
