"""Immutable rational matrices with a fixed row-major flattening.

A 3 x m matrix is flattened as row 1 columns 1..m, then row 2, then row 3.
Row and column labels follow the mathematical convention and are 1-based;
flat positions are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .rationals import Rational, canon, is_integral


def flat_pos(i: int, j: int, ncols: int) -> int:
    """Flat index of entry (i, j), 1-based row/column labels."""
    return (i - 1) * ncols + (j - 1)


@dataclass(frozen=True)
class Matrix:
    entries: tuple[tuple[Rational, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = tuple(tuple(canon(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        return cls(rows)

    @classmethod
    def from_flat(cls, flat, nrows: int, ncols: int) -> "Matrix":
        flat = list(flat)
        if len(flat) != nrows * ncols:
            raise DimensionError(
                f"flat length {len(flat)} does not fill a {nrows}x{ncols} matrix"
            )
        return cls.from_rows(
            [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)]
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def flatten(self) -> tuple[Rational, ...]:
        return tuple(x for row in self.entries for x in row)

    def row(self, i: int) -> tuple[Rational, ...]:
        """Row i, 1-based."""
        if not 1 <= i <= self.nrows:
            raise DimensionError(f"row {i} out of range 1..{self.nrows}")
        return self.entries[i - 1]

    def column(self, j: int) -> tuple[Rational, ...]:
        """Column j, 1-based."""
        if not 1 <= j <= self.ncols:
            raise DimensionError(f"column {j} out of range 1..{self.ncols}")
        return tuple(row[j - 1] for row in self.entries)

    def entry(self, i: int, j: int) -> Rational:
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise DimensionError(
                f"entry ({i}, {j}) out of range {self.nrows}x{self.ncols}"
            )
        return self.entries[i - 1][j - 1]

    def is_integral(self) -> bool:
        return all(is_integral(x) for row in self.entries for x in row)
