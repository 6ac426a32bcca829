from fractions import Fraction

import pytest

from clawpoly.errors import DimensionError
from clawpoly.matrices import Matrix, flat_pos
from clawpoly.witness import analyze_point


def test_flat_pos_row_major():
    assert flat_pos(1, 1, 3) == 0
    assert flat_pos(1, 3, 3) == 2
    assert flat_pos(2, 1, 3) == 3
    assert flat_pos(3, 3, 3) == 8


def test_from_rows_and_accessors():
    m = Matrix.from_rows([(1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)])
    assert m.nrows == 3 and m.ncols == 3
    assert m.row(2) == (0, Fraction(1, 2), 0)
    assert m.column(3) == (0, 0, 1)
    assert m.entry(2, 2) == Fraction(1, 2)
    assert m.flatten() == (1, 0, 0, 0, Fraction(1, 2), 0, 0, 0, 1)


def test_from_rows_rejects_ragged():
    with pytest.raises(DimensionError):
        Matrix.from_rows([(1, 0), (1,)])


def test_from_flat_roundtrip():
    flat = (1, 2, 3, 4, 5, 6)
    m = Matrix.from_flat(flat, 2, 3)
    assert m.flatten() == flat
    assert m.row(2) == (4, 5, 6)


def test_index_range_checks():
    m = Matrix.from_flat((1, 2, 3, 4), 2, 2)
    with pytest.raises(DimensionError):
        m.row(0)
    with pytest.raises(DimensionError):
        m.column(3)
    with pytest.raises(DimensionError):
        m.entry(1, 5)


def test_integrality_and_support():
    h = Fraction(1, 2)
    m = Matrix.from_rows([(h, h, 0), (0, 1, h), (0, 0, 0)])
    assert not m.is_integral()
    # the support of a 3 x m point is read off its analysis
    assert analyze_point(m).support == ((1, 1), (1, 2), (2, 3))
    assert Matrix.from_rows([(1, 0)]).is_integral()


def test_canonical_entries():
    m = Matrix.from_rows([(Fraction(4, 2),)])
    assert m.entry(1, 1) == 2
    assert type(m.entry(1, 1)) is int
