"""One table of every public entry point that takes an integer, a real or
a budget argument, one row per argument slot.

The package reads each integer through ``combinat._as_int``, each real
through ``combinat._as_real``, each budget through
``magnon_state._resolve_budget`` and each coupling J through
``magnon_state._coupling``, the real rule with J > 0.  So in every slot a
value outside its kind is a DomainError, raised without a warning, and
an equal value of another type (4.0, np.int64(4) or np.int32(4) for the
integer 4, np.float64(2.0) or 2 for the real 2.0) gives the plain value's
result bit for bit.  An int of 5,001 digits, past CPython's 4,300-digit
int-to-str limit, either gives a result or is a MagcohError whose message
prints: no slot lets it escape as a bare ValueError, OverflowError or
MemoryError.
"""

import math
import re
import time
import warnings
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from magcoh import (
    AmplitudeTable,
    BlockDensityMatrix,
    DomainError,
    MagcohError,
    MagnonStateSpec,
    MomentumVector,
    SubsystemSpec,
    admissible_q,
    apply_hamiltonian,
    averaged_coherence_single_mode,
    beta_c,
    beta_decomposition,
    binary_entropy,
    build_state,
    coherence_density,
    combinat,
    dispersion,
    energy_from_beta,
    enumerate_combinations,
    finite_size_coherence_density,
    heat_capacity,
    hypergeometric_pmf,
    internal_energy,
    log_binomial,
    max_coherence,
    rank_combination,
    reduce,
    reduce_single_mode,
    run_suite,
    schottky_peak,
    sector_law,
    single_mode_state,
    sweep,
)
from magcoh.combinat import combination_array
from magcoh.verify import FAMILY_NAMES

NAN, INF = math.nan, math.inf
INT, REAL, BUDGET, COUPLING = "integer", "real", "budget", "coupling"

SPEC = MagnonStateSpec(8, 2, MomentumVector(8, (1, 3)))
STATE = build_state(SPEC)
SUB = SubsystemSpec.prefix(8, 3)
RHO = reduce(STATE, SUB)

# values outside each kind; 2.5 is a real, so only integer slots refuse it
BAD = {
    INT: [1 + 0j, np.complex128(4), 2.5, NAN, INF, -INF, "1"],
    REAL: [1 + 0j, np.complex128(1), NAN, INF, -INF, "1"],
}
BAD[BUDGET] = BAD[INT]
BAD[COUPLING] = BAD[REAL] + [0.0, -0.0, -1.0]
# the plain value of a slot in another type
EQUAL = {INT: [float, np.int64, np.int32], REAL: [np.float64, int]}
EQUAL[BUDGET] = EQUAL[INT]
EQUAL[COUPLING] = EQUAL[REAL]


class Slot(NamedTuple):
    name: str
    kind: str
    plain: object
    call: Callable


def _blocks(rho):
    return rho.n, [(q, rho.blocks[q]) for q in rho.q_values]


SLOTS = [
    Slot("log_binomial.n", INT, 6, lambda x: log_binomial(x, 2)),
    Slot("log_binomial.k", INT, 2, lambda x: log_binomial(6, x)),
    Slot("enumerate_combinations.n", INT, 5, lambda x: enumerate_combinations(x, 2)),
    Slot("enumerate_combinations.m", INT, 2, lambda x: enumerate_combinations(5, x)),
    Slot("combination_array.n", INT, 5, lambda x: combination_array(x, 2)),
    Slot("combination_array.m", INT, 2, lambda x: combination_array(5, x)),
    Slot("rank_combination.site", INT, 3, lambda x: rank_combination((1, x), 5)),
    Slot("rank_combination.n", INT, 5, lambda x: rank_combination((1, 3), x)),
    Slot("validate_sitelist.n", INT, 5, lambda x: combinat.validate_sitelist((1, 3), x)),
    Slot("admissible_q.N", INT, 8, lambda x: admissible_q(x, 3, 2)),
    Slot("admissible_q.n", INT, 3, lambda x: admissible_q(8, x, 2)),
    Slot("admissible_q.m", INT, 2, lambda x: admissible_q(8, 3, x)),
    Slot("hypergeometric_pmf.N", INT, 8, lambda x: hypergeometric_pmf(x, 3, 2, 1)),
    Slot("hypergeometric_pmf.n", INT, 3, lambda x: hypergeometric_pmf(8, x, 2, 1)),
    Slot("hypergeometric_pmf.m", INT, 2, lambda x: hypergeometric_pmf(8, 3, x, 1)),
    Slot("hypergeometric_pmf.q", INT, 1, lambda x: hypergeometric_pmf(8, 3, 2, x)),
    Slot("sector_law.N", INT, 8, lambda x: sector_law(x, 3, 2)),
    Slot("sector_law.n", INT, 3, lambda x: sector_law(8, x, 2)),
    Slot("sector_law.m", INT, 2, lambda x: sector_law(8, 3, x)),
    Slot("binary_entropy.x", REAL, 1.0, lambda x: binary_entropy(x)),
    Slot("MomentumVector.N", INT, 8, lambda x: MomentumVector(x, (1, 3)).indices),
    Slot("MomentumVector.index", INT, 3, lambda x: MomentumVector(8, (1, x)).indices),
    Slot("MomentumVector.constant.N", INT, 8, lambda x: MomentumVector.constant(x, 1, 2).indices),
    Slot("MomentumVector.constant.index", INT, 1, lambda x: MomentumVector.constant(8, x, 2).indices),
    Slot("MomentumVector.constant.m", INT, 2, lambda x: MomentumVector.constant(8, 1, x).indices),
    Slot("MagnonStateSpec.N", INT, 8, lambda x: MagnonStateSpec(x, 2, SPEC.k).N),
    Slot("MagnonStateSpec.m", INT, 2, lambda x: MagnonStateSpec(8, x, SPEC.k).m),
    Slot("dispersion.J", COUPLING, 2.0, lambda x: dispersion(x, 1.0)),
    Slot("dispersion.k", REAL, 1.0, lambda x: dispersion(2.0, x)),
    Slot("AmplitudeTable.N", INT, 8, lambda x: AmplitudeTable(x, 2, STATE.amplitudes, 1.0).N),
    Slot("AmplitudeTable.m", INT, 2, lambda x: AmplitudeTable(8, x, STATE.amplitudes, 1.0).m),
    Slot("AmplitudeTable.normalization", REAL, 2.0, lambda x: AmplitudeTable(8, 2, STATE.amplitudes, x).normalization),
    Slot("build_state.budget", BUDGET, 1000, lambda x: build_state(SPEC, budget=x).amplitudes),
    Slot("single_mode_state.n", INT, 6, lambda x: single_mode_state(x, 2, 1.0).amplitudes),
    Slot("single_mode_state.q", INT, 2, lambda x: single_mode_state(6, x, 1.0).amplitudes),
    Slot("single_mode_state.k", REAL, 1.0, lambda x: single_mode_state(6, 2, x).amplitudes),
    Slot("apply_hamiltonian.J", COUPLING, 2.0, lambda x: apply_hamiltonian(STATE, x)),
    Slot("SubsystemSpec.parent_N", INT, 8, lambda x: SubsystemSpec(x, (1, 3)).sites),
    Slot("SubsystemSpec.site", INT, 3, lambda x: SubsystemSpec(8, (1, x)).sites),
    Slot("SubsystemSpec.prefix.parent_N", INT, 8, lambda x: SubsystemSpec.prefix(x, 3).sites),
    Slot("SubsystemSpec.prefix.n", INT, 3, lambda x: SubsystemSpec.prefix(8, x).sites),
    Slot("BlockDensityMatrix.n", INT, 3, lambda x: _blocks(BlockDensityMatrix(x, dict(RHO.blocks)).validate())),
    Slot(
        "BlockDensityMatrix.off_block_residual",
        REAL,
        0.0,
        lambda x: BlockDensityMatrix(3, dict(RHO.blocks), off_block_residual=x).off_block_residual,
    ),
    Slot("reduce.budget", BUDGET, 1000, lambda x: _blocks(reduce(STATE, SUB, budget=x))),
    Slot("reduce_single_mode.N", INT, 8, lambda x: _blocks(reduce_single_mode(x, 3, 2, 1.0))),
    Slot("reduce_single_mode.n", INT, 3, lambda x: _blocks(reduce_single_mode(8, x, 2, 1.0))),
    Slot("reduce_single_mode.m", INT, 2, lambda x: _blocks(reduce_single_mode(8, 3, x, 1.0))),
    Slot("reduce_single_mode.k", REAL, 1.0, lambda x: _blocks(reduce_single_mode(8, 3, 2, x))),
    Slot("reduce_single_mode.budget", BUDGET, 1000, lambda x: _blocks(reduce_single_mode(8, 3, 2, 1.0, budget=x))),
    Slot("max_coherence.d", INT, 4, lambda x: max_coherence(x)),
    Slot("averaged_coherence_single_mode.N", INT, 8, lambda x: averaged_coherence_single_mode(x, 3, 2, 1.0, "l1")),
    Slot("averaged_coherence_single_mode.n", INT, 3, lambda x: averaged_coherence_single_mode(8, x, 2, 1.0, "l1")),
    Slot("averaged_coherence_single_mode.m", INT, 2, lambda x: averaged_coherence_single_mode(8, 3, x, 1.0, "l1")),
    Slot("averaged_coherence_single_mode.k", REAL, 1.0, lambda x: averaged_coherence_single_mode(8, 3, 2, x, "l1")),
    Slot("internal_energy.N", INT, 8, lambda x: internal_energy(x, 4, 2, 2.0)),
    Slot("internal_energy.n", INT, 4, lambda x: internal_energy(8, x, 2, 2.0)),
    Slot("internal_energy.m", INT, 2, lambda x: internal_energy(8, 4, x, 2.0)),
    Slot("internal_energy.epsilon0", REAL, 2.0, lambda x: internal_energy(8, 4, 2, x)),
    Slot("coherence_density.u", REAL, 1.0, lambda x: coherence_density(x, 4.0)),
    Slot("coherence_density.epsilon0", REAL, 4.0, lambda x: coherence_density(1.0, x)),
    Slot("beta_c.u", REAL, 1.0, lambda x: beta_c(x, 4.0)),
    Slot("beta_c.epsilon0", REAL, 4.0, lambda x: beta_c(1.0, x)),
    Slot("energy_from_beta.beta", REAL, 1.0, lambda x: energy_from_beta(x, 2.0)),
    Slot("energy_from_beta.epsilon0", REAL, 2.0, lambda x: energy_from_beta(1.0, x)),
    Slot("heat_capacity.beta", REAL, 1.0, lambda x: heat_capacity(x, 2.0)),
    Slot("heat_capacity.epsilon0", REAL, 2.0, lambda x: heat_capacity(1.0, x)),
    Slot("schottky_peak.epsilon0", REAL, 2.0, lambda x: schottky_peak(x)),
    Slot("finite_size_coherence_density.N", INT, 40, lambda x: finite_size_coherence_density(x, 16, 6)),
    Slot("finite_size_coherence_density.n", INT, 16, lambda x: finite_size_coherence_density(40, x, 6)),
    Slot("finite_size_coherence_density.m", INT, 6, lambda x: finite_size_coherence_density(40, 16, x)),
    Slot("beta_decomposition.N", INT, 60, lambda x: beta_decomposition(x, 20, 6, 1.0)),
    Slot("beta_decomposition.n", INT, 20, lambda x: beta_decomposition(60, x, 6, 1.0)),
    Slot("beta_decomposition.m", INT, 6, lambda x: beta_decomposition(60, 20, x, 1.0)),
    Slot("beta_decomposition.epsilon0", REAL, 1.0, lambda x: beta_decomposition(60, 20, 6, x)),
    Slot("sweep.epsilon0", REAL, 2.0, lambda x: sweep(x, -1.0, 1.0, 5).points),
    Slot("sweep.beta_min", REAL, -1.0, lambda x: sweep(2.0, x, 1.0, 5).points),
    Slot("sweep.beta_max", REAL, 1.0, lambda x: sweep(2.0, -1.0, x, 5).points),
    Slot("sweep.count", INT, 5, lambda x: sweep(2.0, -1.0, 1.0, x).points),
    Slot("run_suite.N", INT, 8, lambda x: run_suite(x, 2, 7)),
    Slot("run_suite.m", INT, 2, lambda x: run_suite(8, x, 7)),
    Slot("run_suite.seed", INT, 7, lambda x: run_suite(8, 2, x)),
]

# the refusals that once escaped as a TypeError, a ComplexWarning or a
# result, and the budgets that once built past every ceiling
ONCE_ACCEPTED = {
    "log_binomial-complex128": lambda: log_binomial(np.complex128(4), 2),
    "rank-n-complex128": lambda: rank_combination((1, 2), np.complex128(5)),
    "validate_sitelist-n-str": lambda: combinat.validate_sitelist((1, 2), "5"),
    "build_state-budget-nan": lambda: build_state(SPEC, budget=NAN),
    "build_state-budget-inf": lambda: build_state(SPEC, budget=INF),
    "build_state-budget-complex": lambda: build_state(SPEC, budget=1 + 0j),
    "build_state-budget-half": lambda: build_state(SPEC, budget=2.5),
    "reduce-budget-half": lambda: reduce(STATE, SUB, budget=2.5),
    "reduce_single_mode-budget-half": lambda: reduce_single_mode(8, 3, 2, 0.3, budget=2.5),
    "run_suite-seed-half": lambda: run_suite(8, 2, 7.5),
    "reduce_single_mode-k-complex": lambda: reduce_single_mode(8, 4, 2, 1 + 0j),
    "heat_capacity-beta-complex": lambda: heat_capacity(1 + 0j, 1.0),
    "energy_from_beta-beta-str": lambda: energy_from_beta("1", 1.0),
    "internal_energy-epsilon0-complex128": lambda: internal_energy(8, 4, 2, np.complex128(1)),
}


# the slots that give a result at +10**5000: the plain value's, since the
# huge value is a chain length or budget the call never reaches, except
# run_suite's seed, which draws another suite
HUGE_RETURNS = {
    "rank_combination.n",
    "validate_sitelist.n",
    "admissible_q.N",
    "MomentumVector.N",
    "MomentumVector.constant.N",
    "build_state.budget",
    "SubsystemSpec.parent_N",
    "SubsystemSpec.prefix.parent_N",
    "reduce.budget",
    "reduce_single_mode.budget",
}
HUGE = 10**5000


def _bits(x):
    """An image of a result that is equal only when every bit is."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_bits(v) for v in x]
    if isinstance(x, (bool, np.bool_, int, str, range)):
        return type(x).__name__, x
    # the result records of sector_law, beta_decomposition and run_suite
    return type(x).__name__, _bits([getattr(x, f) for f in x.__dataclass_fields__])


def _refused_quietly(call):
    """call() raises a DomainError under an 'error' filter, and again
    with every warning recorded, of which there are none."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError):
            call()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "slot, value",
    [(s, v) for s in SLOTS for v in BAD[s.kind]],
    ids=[f"{s.name}-{v!r}" for s in SLOTS for v in BAD[s.kind]],
)
def test_a_value_outside_its_kind_is_a_domain_error(slot, value):
    _refused_quietly(lambda: slot.call(value))


@pytest.mark.parametrize("call", ONCE_ACCEPTED.values(), ids=ONCE_ACCEPTED.keys())
def test_once_accepted_values_are_domain_errors(call):
    _refused_quietly(call)


@pytest.mark.parametrize(
    "slot, convert",
    [(s, c) for s in SLOTS for c in EQUAL[s.kind]],
    ids=[f"{s.name}-{c.__name__}" for s in SLOTS for c in EQUAL[s.kind]],
)
def test_an_equal_value_of_another_type_gives_the_same_bits(slot, convert):
    combinat._rank.cache_clear()
    want = _bits(slot.call(slot.plain))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(slot.call(convert(slot.plain))) == want


@pytest.mark.parametrize(
    "slot, sign",
    [(s, sign) for s in SLOTS for sign in (1, -1)],
    ids=[f"{s.name}-{'+' if sign > 0 else '-'}10**5000" for s in SLOTS for sign in (1, -1)],
)
def test_an_int_past_the_str_limit_is_refused_or_gives_todays_result(slot, sign):
    combinat._rank.cache_clear()
    start = time.perf_counter()
    try:
        got = slot.call(sign * HUGE)
    except MagcohError as err:
        assert str(err)
        returned = False
    else:
        returned = True
    assert time.perf_counter() - start < 1.0
    if slot.name == "run_suite.seed" and sign > 0:
        assert [r.name for r in got] == list(FAMILY_NAMES) and all(r.passed for r in got)
    else:
        assert returned == (slot.name in HUGE_RETURNS and sign > 0)
        if returned:
            assert _bits(got) == _bits(slot.call(slot.plain))


# refusals that once listed, walked or formed what they refuse, or whose
# message held a value whose repr raises past the int-to-str limit
HUGE_FRACTION = Fraction(HUGE, 3)
SIZE_REFUSALS = {
    "prefix-past-the-chain": (
        lambda: SubsystemSpec.prefix(8, 3 * 10**6),
        r"^site indices must lie in \[1, 8\], got 3000000 at entry 1 of 1$",
    ),
    "amplitude-table-past-its-array": (
        lambda: AmplitudeTable(2 * 10**6, 10**6, np.ones(1), 1.0),
        r"^amplitude table for N=2000000, m=1000000 needs shape \(>10\^4300,\), got \(1,\)$",
    ),
    "log_binomial-huge-fraction": (
        lambda: log_binomial(HUGE_FRACTION, 2),
        r"^n must be an integer, got Fraction past the 4300-digit limit$",
    ),
    "admissible_q-huge-fraction": (
        lambda: admissible_q(HUGE_FRACTION, 2, 1),
        r"^N must be an integer, got Fraction past the 4300-digit limit$",
    ),
    "dispersion-huge-fraction": (
        lambda: dispersion(2.0, HUGE_FRACTION),
        r"^wavenumber must be a finite real number, got Fraction past the 4300-digit limit$",
    ),
    "averaged_coherence_single_mode-measure-huge-fraction": (
        lambda: averaged_coherence_single_mode(8, 3, 2, 1.0, HUGE_FRACTION),
        r"^measure must be one of 'r', 'l1', 'ln', got Fraction past the 4300-digit limit$",
    ),
}


@pytest.mark.parametrize("call, message", SIZE_REFUSALS.values(), ids=SIZE_REFUSALS.keys())
def test_a_refusal_neither_builds_nor_prints_what_it_refuses(call, message):
    start = time.perf_counter()
    with pytest.raises(MagcohError) as err:
        call()
    assert time.perf_counter() - start < 1.0
    assert re.match(message, str(err.value)), str(err.value)


# refused site lists of 3,000,000 entries: (the list, the refusing call, its
# message), each naming the first entry or pair that breaks a rule and the length
LONG = 3 * 10**6
LONG_SITE_LISTS = {
    "spec-past-the-chain": (
        lambda: tuple(range(1, LONG + 1)),
        lambda sites: SubsystemSpec(8, sites),
        r"^site indices must lie in \[1, 8\], got 9 at entry 9 of 3000000$",
    ),
    "rank-past-the-chain": (
        lambda: tuple(range(1, LONG + 1)),
        lambda sites: rank_combination(sites, 8),
        r"^site indices must lie in \[1, 8\], got 9 at entry 9 of 3000000$",
    ),
    "spec-decreasing": (
        lambda: tuple(range(LONG, 0, -1)),
        lambda sites: SubsystemSpec(10 * LONG, sites),
        r"^site indices must be strictly increasing, got 3000000 then 2999999 at entry 2 of 3000000$",
    ),
    "rank-non-integer": (
        lambda: (1, 2.5, *range(3, LONG + 1)),
        lambda sites: rank_combination(sites, 8),
        r"^site index must be an integer, got 2\.5$",
    ),
}


@pytest.mark.parametrize("build, call, message", LONG_SITE_LISTS.values(), ids=LONG_SITE_LISTS.keys())
def test_a_refused_site_list_stops_at_its_first_fault(build, call, message):
    sites = build()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            call(sites)
        times.append(time.perf_counter() - start)
    # the best of three, so one scheduler stall cannot fail it
    assert min(times) < 0.01
    assert len(str(err.value)) < 200 and re.match(message, str(err.value)), str(err.value)
