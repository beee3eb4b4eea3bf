"""The array formatter gives every float the bytes of ``'%.17g' % x``."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from magcoh._fmt import join_g17

SEP = "|"


def render(values) -> list[str]:
    """Each entry's text from one array call."""
    values = np.asarray(values, dtype=np.float64)
    text = join_g17(values, [SEP], np.zeros(values.size, dtype=np.intp))
    assert text.endswith(SEP) or values.size == 0
    return text.split(SEP)[:-1]


def assert_exact(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    got = render(values)
    expected = ["%.17g" % v for v in values.tolist()]
    wrong = [(v.hex(), g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected)
    assert wrong == []


def finite(bits: np.ndarray) -> np.ndarray:
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def true_ties(rng: np.random.Generator) -> np.ndarray:
    # m / 2**F with m odd has the exact decimal expansion m * 5**F / 10**F,
    # whose last digit is 5; with m * 5**F in [10**17, 10**18) it has 18
    # significant digits, so rounding it to 17 is an exact tie
    out = []
    for f in range(2, 26):
        lo = -(-(10**17) // 5**f)
        hi = min(2**53, 10**18 // 5**f)
        for _ in range(40):
            m = int(rng.integers(lo, hi)) | 1
            if m < hi and m * 5**f >= 10**17:
                assert str(m * 5**f).endswith("5") and len(str(m * 5**f)) == 18
                out.append(math.ldexp(m, -f))
    ties = np.array(out)
    return np.concatenate([ties, -ties, ties * 2.0**-600, ties * 2.0**600])


class TestExactDigits:
    @seed(2201)
    @settings(deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=80))
    def test_any_finite_float(self, values):
        assert_exact(values)

    @seed(2202)
    @settings(deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=80))
    def test_any_finite_bit_pattern(self, bits):
        assert_exact(finite(np.array(bits, dtype=np.uint64)))

    def test_seeded_random_bit_patterns(self):
        rng = np.random.default_rng(2203)
        values = finite(rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False))
        assert values.size > 199_000
        assert_exact(values)

    def test_seeded_normals_over_sixty_decades(self):
        rng = np.random.default_rng(2204)
        assert_exact(rng.standard_normal(50_000) * 10.0 ** rng.uniform(-30, 30, 50_000))

    def test_every_power_of_ten_and_its_neighbours(self):
        assert_exact(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_every_power_of_two(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_exact(np.concatenate([powers, -powers]))

    def test_extremes_and_zeros(self):
        assert_exact([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0])
        assert render([0.0, -0.0]) == ["0", "-0"]

    def test_switch_points_of_the_g_format(self):
        # below 1e-4 and from 1e17 on, %g turns to scientific notation
        assert_exact(with_neighbours([1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e-4, -1e16, -1e17]))

    def test_exact_ties_at_seventeen_digits(self):
        ties = true_ties(np.random.default_rng(2205))
        assert ties.size > 500
        assert_exact(ties)

    def test_integers_below_two_to_the_53(self):
        rng = np.random.default_rng(2206)
        assert_exact(rng.integers(-(2**53), 2**53, 20_000).astype(np.float64))


class TestSeparators:
    def test_each_entry_is_followed_by_its_separator(self):
        values = np.linspace(-3.0, 7.0, 768)
        seps = ["", ", ", "], [", ",1.5\n", "%s%%"]
        codes = np.arange(values.size) % len(seps)
        for end in (5, values.size):
            expected = "".join("%.17g" % v + seps[c] for v, c in zip(values[:end].tolist(), codes[:end].tolist()))
            assert join_g17(values[:end], seps, codes[:end]) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 4097])
    def test_every_length_takes_the_one_path(self, n):
        values = np.arange(n) * -0.1
        assert join_g17(values, [";"], np.zeros(n, dtype=np.intp)) == "".join(
            "%.17g;" % v for v in values.tolist()
        )


class TestCertificate:
    @pytest.mark.parametrize("skew", [-0.45, 0.45])
    def test_an_exponent_one_off_is_caught(self, monkeypatch, skew):
        # a log10 that misses by up to half a decade puts e one too low or
        # too high for about half the entries; the range test must send
        # every one of those to CPython
        rng = np.random.default_rng(2208)
        values = np.concatenate(
            [
                with_neighbours([float(f"1e{k}") for k in range(-280, 280)]),
                rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000),
            ]
        )
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + skew)
        assert_exact(values)
