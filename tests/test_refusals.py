"""The closed-form routes refuse an infeasible size before they allocate.

``reduce_single_mode``, the l1 sector average, ``single_mode_state`` and
``build_state`` decide their InfeasibilityError from the sizes alone: no
sector law (``combinat._law`` is patched to fail), a tracemalloc peak
under 1 MiB, and a message that formats whatever the binomial it names.
Each draw is checked against an oracle of exact integers: the first
failing sector is found by walking q upward, as the routes once did, and
a count of more than 4300 digits, past CPython's default int-to-str
limit, prints as ">10^4300".
"""

import math
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from magcoh import (
    InfeasibilityError,
    MagnonStateSpec,
    MomentumVector,
    averaged_coherence_single_mode,
    build_state,
    reduce_single_mode,
    single_mode_state,
)
from magcoh import combinat
from magcoh.cli import main
from magcoh.magnon_state import AMPLITUDE_BUDGET

K = 0.3
INT64_MESSAGE = r"^sector law at N=\d+ needs \(N\+2\)\^2 < 2\^63 for exact int64 ratios$"
# past this many steps C(n, j) >= C(2202, 1101) > 10^660, above every ceiling here
EXACT_STEPS = 1100


def text(c: int) -> str:
    return str(c) if c < 10**4300 else ">10^4300"


def comb_above(n: int, q: int, bound: int) -> bool:
    j = min(q, n - q)
    return j > EXACT_STEPS or math.comb(n, j) > bound


def float_overflows(n: int, q: int) -> bool:
    j = min(q, n - q)
    if j > EXACT_STEPS:
        return True
    try:
        float(math.comb(n, j))
    except OverflowError:
        return True
    return False


def int64_refusal(N: int) -> bool:
    return (N + 2) ** 2 >= 2**63


def widest(N: int, n: int, m: int) -> tuple[int, int]:
    """The first admissible q and the widest admissible sector."""
    lo, hi = max(0, m - (N - n)), min(n, m)
    return lo, min(max(n // 2, lo), hi)


def reduce_case(N, n, m):
    """Due when some admissible sector's block exceeds the budget."""
    if int64_refusal(N):
        return lambda: reduce_single_mode(N, n, m, K), INT64_MESSAGE
    lo, top = widest(N, n, m)
    assume(comb_above(n, top, math.isqrt(AMPLITUDE_BUDGET)))
    if n > 20_000:
        pattern = rf"^sector q=\d+ needs a (\d+|>10\^4300) x \1 block, budget is {AMPLITUDE_BUDGET}$"
        return lambda: reduce_single_mode(N, n, m, K), pattern
    q, d = lo, math.comb(n, lo)
    while d * d <= AMPLITUDE_BUDGET:
        d, q = d * (n - q) // (q + 1), q + 1
    message = f"sector q={q} needs a {text(d)} x {text(d)} block, budget is {AMPLITUDE_BUDGET}"
    return lambda: reduce_single_mode(N, n, m, K), "^" + re.escape(message) + "$"


def l1_case(N, n, m):
    """Due when the widest admissible C(n, q) has no float."""
    if int64_refusal(N):
        return lambda: averaged_coherence_single_mode(N, n, m, K, "l1"), INT64_MESSAGE
    _, top = widest(N, n, m)
    assume(float_overflows(n, top))
    message = f"C({n}, {top}) exceeds the float range (max 1.79769e+308), so the l1 average is not representable"
    return lambda: averaged_coherence_single_mode(N, n, m, K, "l1"), "^" + re.escape(message) + "$"


def table_message(n: int, q: int) -> str:
    j = min(q, n - q)
    if j > EXACT_STEPS and n > 20_000:
        return rf"^state table needs (\d+|>10\^4300) amplitudes, budget is {AMPLITUDE_BUDGET}$"
    message = f"state table needs {text(math.comb(n, j))} amplitudes, budget is {AMPLITUDE_BUDGET}"
    return "^" + re.escape(message) + "$"


def single_mode_state_case(N, n, m):
    """The table of sector q = min(m, n) of an n-site block."""
    q = min(m, n)
    assume(comb_above(n, q, AMPLITUDE_BUDGET))
    return lambda: single_mode_state(n, q, K), table_message(n, q)


def build_state_case(N, n, m):
    """A single-mode state of at most 2,000 flips, its spec built ahead."""
    m = max(1, m % 2_001)
    assume(comb_above(N, m, AMPLITUDE_BUDGET))
    spec = MagnonStateSpec(N, m, MomentumVector.constant(N, 1, m))
    return lambda: build_state(spec), table_message(N, m)


# each route's case and the least decade of N it draws: an l1 refusal
# needs a block of more than 1,000 sites
CASES = {
    "reduce_single_mode": (reduce_case, 1),
    "averaged_coherence_single_mode-l1": (l1_case, 4),
    "single_mode_state": (single_mode_state_case, 1),
    "build_state": (build_state_case, 1),
}


def sizes(decade: int):
    """(N, n, m) with N in one of the decades (10^(e-1), 10^e] for e from
    ``decade`` to 10, past the int64 ceiling of the sector law at about
    3.04e9, and n, m uniform over their ranges."""
    N = st.integers(decade, 10).flatmap(lambda e: st.integers(10 ** (e - 1) + 1, 10**e))
    return N.flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N), st.integers(0, N)))


@pytest.mark.parametrize("route", CASES)
@seed(350)
@settings(deadline=None, database=None)
@given(data=st.data())
def test_every_closed_form_route_refuses_before_it_allocates(route, data):
    case, decade = CASES[route]
    triple = data.draw(sizes(decade))
    call, message = case(*triple)
    with mock.patch.object(combinat, "_law", side_effect=AssertionError("sector law built")):
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibilityError) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, (route, triple, peak)
    assert err.value.exit_code == 3
    assert re.match(message, str(err.value)), (route, triple, str(err.value))


def test_the_first_failing_sector_is_found_in_a_wide_range():
    # C(n, q) rises to n // 2 and falls beyond: the first q past the budget
    # lies on the rising side, or is the range's first q past the middle
    with pytest.raises(InfeasibilityError, match=r"^sector q=3 needs a 20 x 20 block, budget is 300$"):
        reduce_single_mode(12, 6, 6, K, budget=300)
    with pytest.raises(InfeasibilityError, match=r"^sector q=9 needs a 220 x 220 block, budget is 10000$"):
        reduce_single_mode(40, 12, 37, K, budget=10_000)
    assert reduce_single_mode(40, 12, 37, K, budget=220 * 220).q_values == (9, 10, 11, 12)


@seed(351)
@settings(deadline=None, database=None)
@given(n=st.integers(0, 3_000), data=st.data())
def test_the_stopped_product_decides_a_binomial_against_its_bound(n, data):
    q = data.draw(st.integers(0, n))
    c = math.comb(n, q)
    for bound in {1, max(1, c - 1), c, c + 1, c * 2}:
        assert combinat._comb_exceeds(n, q, bound) is (c > bound), (n, q, bound)


def test_a_count_prints_in_full_up_to_the_int_to_str_limit():
    limit = 10**4300
    assert combinat._binomial_past(10, 3, 120) is None
    assert combinat._binomial_past(10, 3, 119) == "120"
    # C(n, 1) = n: 4300 digits print in full, and 10^4300 has 4301
    assert combinat._binomial_past(limit - 1, 1, 1) == str(limit - 1)
    assert combinat._binomial_past(limit, 1, 1) == "10^4300"
    assert combinat._binomial_past(limit + 1, 1, 1) == ">10^4300"
    assert combinat._binomial_past(limit + 1, limit, 1) == ">10^4300"


def test_a_table_of_10_to_the_4300_amplitudes_is_refused_in_bounded_form():
    with pytest.raises(InfeasibilityError, match=rf"^state table needs 10\^4300 amplitudes, budget is {AMPLITUDE_BUDGET}$"):
        single_mode_state(10**4300, 1, K)


def run_infeasible(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error[infeasible]: ")
    return err


def test_state_past_the_int_to_str_limit_exits_3(capsys):
    k = ",".join(["1"] * 10_000)
    err = run_infeasible(capsys, ["state", "--N", "20000", "--m", "10000", "--k", k])
    assert err == f"error[infeasible]: state table needs >10^4300 amplitudes, budget is {AMPLITUDE_BUDGET}\n"


def test_single_mode_reduction_past_the_int_to_str_limit_exits_3(capsys):
    k = ",".join(["1"] * 10_100)
    argv = ["reduce", "--N", "20100", "--m", "10100", "--k", k, "--n", "20000", "--method", "single-mode"]
    err = run_infeasible(capsys, argv)
    assert err == f"error[infeasible]: sector q=10000 needs a >10^4300 x >10^4300 block, budget is {AMPLITUDE_BUDGET}\n"
