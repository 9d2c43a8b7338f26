"""Property tests for the error-free transformations and double-double type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sums import DoubleDouble, dd_sum, split, two_prod, two_sum

moderate_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)
# TwoProd's error-free property requires the product (and its error term)
# not to underflow: keep magnitudes well inside [2^-511, 2^511].
nonvanishing = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
).filter(lambda x: x == 0.0 or abs(x) >= 1e-80)
# every float64 class dd_sum can meet: signed zeros, subnormals, ±inf,
# NaN, overflowing partial sums, and magnitudes mixed up to 1e300
any_float64 = st.one_of(
    st.floats(),
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, -1e308]),
)


def loop_dd_sum(values) -> DoubleDouble:
    """The sequential TwoSum loop that dd_sum replays: the bitwise reference."""
    hi = 0.0
    lo = 0.0
    for x in np.asarray(values, dtype=np.float64).ravel():
        s, e = two_sum(hi, float(x))
        hi = s
        lo += e
    return DoubleDouble._renorm(hi, lo)


def words(dd: DoubleDouble) -> tuple[str, str]:
    """hi and lo as hex; every NaN reads "nan"."""
    return dd.hi.hex(), dd.lo.hex()


class TestTwoSum:
    @given(moderate_floats, moderate_floats)
    @settings(max_examples=300, deadline=None)
    def test_error_free(self, a, b):
        s, e = two_sum(a, b)
        assert s == a + b  # s is the rounded sum
        # exactness: a + b == s + e in exact arithmetic.  Verify via fsum,
        # which is exact for two-term decompositions.
        assert math.fsum([a, b, -s, -e]) == 0.0

    def test_catastrophic_cancellation_recovered(self):
        s, e = two_sum(1e16, 1.0)
        assert s == 1e16  # the 1.0 was absorbed...
        assert e == 1.0  # ...but captured exactly in the error term


class TestSplit:
    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150))
    @settings(max_examples=300, deadline=None)
    def test_split_is_exact(self, a):
        hi, lo = split(a)
        assert hi + lo == a
        assert abs(lo) <= abs(hi) or a == 0.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            split(2.0**1000)


class TestTwoProd:
    @given(nonvanishing, nonvanishing)
    @settings(max_examples=300, deadline=None)
    def test_error_free(self, a, b):
        p, e = two_prod(a, b)
        assert p == a * b
        # exact check via integer arithmetic on scaled values is overkill;
        # Fraction gives an exact rational comparison.
        from fractions import Fraction

        assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


class TestDoubleDouble:
    def test_construction_and_float(self):
        x = DoubleDouble.from_float(1.5)
        assert float(x) == 1.5
        assert x.lo == 0.0

    def test_add_recovers_low_bits(self):
        x = DoubleDouble.from_float(1e16) + 1.0
        assert x.hi == 1e16 and x.lo == 1.0
        y = x - 1e16
        assert float(y) == 1.0

    def test_mul(self):
        x = DoubleDouble.from_float(1.0 + 2**-30)
        y = x * x
        # (1 + u)^2 = 1 + 2u + u^2; u^2 = 2^-60 is below float64 resolution
        # at 1.0 but must be present in the double-double
        assert y.hi == float(np.float64((1 + 2**-30) ** 2))
        from fractions import Fraction

        exact = (Fraction(1) + Fraction(1, 2**30)) ** 2
        assert Fraction(y.hi) + Fraction(y.lo) == exact

    def test_comparisons(self):
        a = DoubleDouble.from_float(1.0) + 2**-80
        b = DoubleDouble.from_float(1.0)
        assert b < a
        assert b <= a
        assert a == a
        assert float(a) == 1.0  # invisible at float64...
        assert a != b  # ...but not to the double-double

    def test_neg_and_abs(self):
        x = DoubleDouble.from_float(-2.0) + 2**-70
        assert float(-x) == 2.0
        assert x.abs() >= DoubleDouble.from_float(0.0)

    def test_scalar_interop(self):
        assert float(2.0 + DoubleDouble.from_float(3.0)) == 5.0
        assert float(10.0 - DoubleDouble.from_float(4.0)) == 6.0
        assert float(DoubleDouble.from_float(3.0) * 2) == 6.0

    @given(st.lists(nonvanishing, min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_renormalization_invariant(self, values):
        acc = DoubleDouble.from_float(0.0)
        for v in values:
            acc = acc + v
        # invariant: hi is the float64 rounding of the full value
        assert acc.hi == acc.hi + acc.lo or abs(acc.lo) <= abs(acc.hi) * 2**-52


class TestDdSum:
    def test_exact_on_cancellation(self):
        x = np.array([1e100, 1.0, -1e100])
        assert float(dd_sum(x)) == 1.0

    def test_matches_fsum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=3000) * 10.0 ** rng.integers(-20, 20, size=3000)
        assert float(dd_sum(x)) == math.fsum(x.tolist())

    def test_empty(self):
        assert float(dd_sum(np.array([]))) == 0.0

    @given(st.lists(st.floats(-1e15, 1e15), min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_fsum(self, values):
        # dd_sum accumulates error terms in a single float64, so inputs
        # spanning >106 bits can land one ulp off the correctly-rounded sum
        result = float(dd_sum(np.array(values, dtype=np.float64)))
        exact = math.fsum(values)
        assert result == pytest.approx(exact, rel=4 * np.finfo(np.float64).eps, abs=1e-290)


class TestDdSumIsTheLoop:
    """dd_sum gives the sequential TwoSum loop's hi and lo words bit for bit."""

    @given(st.lists(any_float64, min_size=0, max_size=200))
    @settings(max_examples=400, deadline=None)
    def test_property_bitwise_equal_to_loop(self, values):
        x = np.array(values, dtype=np.float64)
        assert words(dd_sum(x)) == words(loop_dd_sum(x))

    @pytest.mark.parametrize(
        "values",
        [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [math.nan], [math.inf, -math.inf],
         [1e308, 1e308, -1e308], [5e-324, -5e-324, 1e-310],
         np.random.default_rng(11).normal(size=20_000)
         * 10.0 ** np.random.default_rng(12).integers(-300, 300, size=20_000),
         np.arange(12, dtype=np.float32).reshape(3, 4) / 7],
        ids=["empty", "neg-zero", "neg-zeros", "mixed-zeros", "nan", "inf-minus-inf",
             "overflow", "subnormals", "wide-dynamic-range", "float32-2d"],
    )
    def test_cases_bitwise_equal_to_loop(self, values):
        assert words(dd_sum(values)) == words(loop_dd_sum(values))
