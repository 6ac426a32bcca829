from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawpoly.rationals import canon, fmt, is_integral, parse_rational


def test_canon_collapses_integral_fractions():
    assert canon(Fraction(4, 2)) == 2
    assert type(canon(Fraction(4, 2))) is int
    assert canon(Fraction(1, 2)) == Fraction(1, 2)
    assert canon(7) == 7


def test_canon_rejects_floats():
    with pytest.raises(TypeError):
        canon(0.5)


def test_is_integral():
    assert is_integral(3)
    assert is_integral(Fraction(6, 3))
    assert not is_integral(Fraction(1, 3))


def test_fmt():
    assert fmt(5) == "5"
    assert fmt(Fraction(-1, 2)) == "-1/2"
    assert fmt(Fraction(8, 4)) == "2"


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("text, value", [
    ("+3", 3), ("007", 7), ("-0", 0), ("4/2", 2), ("+1/3", Fraction(1, 3)),
    ("-10/04", Fraction(-5, 2)),
])
def test_parse_rational_accepts_ascii_integers_and_fractions(text, value):
    parsed = parse_rational(text)
    assert parsed == value
    assert type(parsed) is type(value)


@pytest.mark.parametrize("text", [
    # int() would read each of these
    "1_0", "1/1_0", "\u0663", "\uff11", "1/-2", "1/+2", " 3", "3\n",
    # and these it never read
    "", "-", "+-1", "/2", "1/", "1//2", "1/2/3", "1.5", "1e3", "0x10", "\u00b3", "0/0",
])
def test_parse_rational_rejects_other_tokens(text):
    with pytest.raises(ValueError):
        parse_rational(text)


rationals = st.fractions(max_denominator=1000)


@given(rationals)
def test_fmt_parse_roundtrip(x):
    assert parse_rational(fmt(canon(x))) == x
