from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawpoly.coordchange import (
    from_prime_scaled,
    point_rows,
    simplex_image_check,
    to_prime_scaled,
)
from clawpoly.errors import DimensionError
from clawpoly.groups import Z2Z2, element, embed
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.vertices import Labeling, generate_vertices


def _rows_point(rows):
    """The ScaledPoint of a 3 x m point given by its rows."""
    return scale_to_ints([x for row in rows for x in row])


def test_identity_labeling_image():
    # all-identity labeling embeds to the zero matrix, fixed by the transform
    lab = Labeling(Z2Z2, tuple(element(Z2Z2, (0, 0)) for _ in range(3)))
    cols = [embed(Z2Z2, g) for g in lab.elements]
    p = _rows_point([[col[r] for col in cols] for r in range(3)])
    q = to_prime_scaled(p)
    assert point_rows(q) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_forward_frozen_example():
    # columns e1, e2, e3: pairwise sums per column
    p = _rows_point([
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ])
    q = to_prime_scaled(p)
    assert point_rows(q) == (
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    )


def test_inverse_frozen_example():
    q = _rows_point([
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    ])
    p = from_prime_scaled(q)
    assert point_rows(p) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_inverse_halves():
    q = _rows_point([(1,), (0,), (0,)])
    p = from_prime_scaled(q)
    assert p.values() == (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))


def test_vertex_images_are_integral():
    for p in generate_vertices(Z2Z2, 3).points:
        q = to_prime_scaled(scale_to_ints(p))
        assert all(isinstance(x, int) for x in q.values())


def test_simplex_image_check():
    assert simplex_image_check() is True


def test_wrong_row_count():
    four = ScaledPoint((1, 0, 0, 1), 1)
    with pytest.raises(DimensionError):
        to_prime_scaled(four)
    with pytest.raises(DimensionError):
        from_prime_scaled(four)
    with pytest.raises(DimensionError):
        point_rows(four)


rationals = st.fractions(max_denominator=64)


@given(st.lists(st.tuples(rationals, rationals, rationals), min_size=1, max_size=6))
def test_roundtrip_both_ways(cols):
    p = _rows_point([[c[i] for c in cols] for i in range(3)])
    assert from_prime_scaled(to_prime_scaled(p)).values() == p.values()
    assert to_prime_scaled(from_prime_scaled(p)).values() == p.values()
