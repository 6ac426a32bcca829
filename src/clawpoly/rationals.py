"""Exact rational scalars.

The whole package computes over Python ints and fractions.Fraction; floats
never appear. Values are canonicalized so that integral rationals are plain
ints (cheaper arithmetic, identical hashing/equality semantics).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Union

Rational = Union[int, Fraction]


class ScaledPoint(NamedTuple):
    """An exact point as integer numerators over one positive common
    denominator: coordinate i is nums[i] / den. den need not be the least
    one, so sums and images of scaled points stay on ints."""

    nums: tuple[int, ...]
    den: int

    def values(self) -> tuple[Rational, ...]:
        """The coordinates as canonical rationals, ints where integral: the
        inverse of scale_to_ints."""
        den = self.den
        return tuple(x // den if x % den == 0 else Fraction(x, den) for x in self.nums)


def canon(x: Rational) -> Rational:
    """Return x with integral Fractions collapsed to int."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    if isinstance(x, int):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


def is_integral(x: Rational) -> bool:
    return isinstance(x, int) or x.denominator == 1


def parse_rational(text: str) -> Rational:
    """Parse '7', '-3' or 'p/q' into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return canon(Fraction(int(num), int(den)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return int(s)


def fmt(x: Rational) -> str:
    """Render a rational the way parse_rational reads it back."""
    x = canon(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def scale_to_ints(values) -> ScaledPoint:
    """Integer numerators over one common denominator: values[i] == nums[i] / den.

    den is the lcm of the denominators (1 when every value is an int), so an
    exact test a.x <= b on the values becomes a.nums <= b*den on ints.
    """
    den = lcm(*{x.denominator for x in values})
    return ScaledPoint(tuple(x.numerator * (den // x.denominator) for x in values), den)
