"""Unit tests for repro.utils.rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.utils.rationals import (
    exact,
    is_close_fraction,
    pretty_fraction,
    snap_fraction,
    sound_floor_fraction,
    to_fraction,
)


class TestToFraction:
    def test_int(self):
        assert to_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        assert to_fraction(Fraction(2, 7)) == Fraction(2, 7)

    def test_string_ratio(self):
        assert to_fraction("3/4") == Fraction(3, 4)

    def test_float_exact(self):
        assert to_fraction(0.5) == Fraction(1, 2)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(True)

    def test_other_type_rejected(self):
        with pytest.raises(TypeError):
            to_fraction([1, 2])


class TestExact:
    def test_int_stays_int(self):
        assert type(exact(3)) is int and exact(3) == 3

    def test_integral_fraction_becomes_int(self):
        value = exact(Fraction(6, 3))
        assert type(value) is int and value == 2

    def test_proper_fraction_stays_fraction(self):
        assert exact(Fraction(2, 7)) == Fraction(2, 7)
        assert type(exact(Fraction(2, 7))) is Fraction

    def test_string_and_float(self):
        assert exact("3/4") == Fraction(3, 4)
        assert type(exact("8/4")) is int
        assert exact(0.5) == Fraction(1, 2)
        assert type(exact(2.0)) is int

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            exact(True)

    def test_other_type_rejected(self):
        with pytest.raises(TypeError):
            exact([1, 2])


class TestSnapFraction:
    def test_snaps_to_simple_fraction(self):
        assert snap_fraction(0.6666666669) == Fraction(2, 3)

    def test_snaps_near_integer(self):
        assert snap_fraction(1.9999990) == Fraction(2)

    def test_snaps_tiny_noise_to_zero(self):
        assert snap_fraction(1e-7) == 0

    def test_keeps_genuine_value(self):
        value = 0.123456789
        snapped = snap_fraction(value)
        assert abs(float(snapped) - value) <= 1e-5 * abs(value) + 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            snap_fraction(float("nan"))


class TestSoundFloor:
    def test_returns_lower_bound(self):
        value = 8.9999999
        floored = sound_floor_fraction(value)
        assert float(floored) <= value + 1e-5

    def test_exact_value_kept(self):
        assert sound_floor_fraction(3.0) == Fraction(3)


class TestPrettyFraction:
    def test_integer(self):
        assert pretty_fraction(Fraction(5)) == "5"

    def test_exact_decimal(self):
        assert pretty_fraction(Fraction(1, 5)) == "0.2"

    def test_repeating_decimal(self):
        assert pretty_fraction(Fraction(2, 3)) == "0.666667"

    def test_negative(self):
        assert pretty_fraction(Fraction(-9, 2)) == "-4.5"


class TestIsClose:
    def test_close(self):
        assert is_close_fraction(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 9))

    def test_not_close(self):
        assert not is_close_fraction(Fraction(1, 3), Fraction(1, 2))


@given(st.fractions(max_denominator=500))
def test_pretty_fraction_never_crashes(value):
    assert isinstance(pretty_fraction(value), str)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False))
def test_snap_is_faithful(value):
    snapped = snap_fraction(value)
    assert abs(float(snapped) - value) <= 1e-5 * max(1.0, abs(value)) + 1e-9
