"""Columnwise pairwise-sum change of coordinates on 3 x m matrices.

Forward map, per column: (x1, x2, x3) -> (x1+x2, x1+x3, x2+x3). It is a
bijection of R^(3m); the inverse halves the alternating sums, so integrality
is not preserved but exact rationality is. The forward map carries the
standard-coordinate polytope onto the prime-coordinate one and the unit
simplex of each column onto the 3-dimensional demihypercube.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import DimensionError
from .halfspaces import demihypercube_system
from .matrices import Matrix
from .rationals import ScaledPoint


def _require_3xm(p: Matrix):
    if p.nrows != 3:
        raise DimensionError(f"pairwise-sum transform needs 3 rows, got {p.nrows}")


def prime_flat(flat, m: int) -> list:
    """The forward transform on a row-major 3 x m flattening, of ints or
    rationals: rows (r1+r2, r1+r3, r2+r3), flattened."""
    r1, r2, r3 = flat[:m], flat[m:2 * m], flat[2 * m:]
    return [*map(add, r1, r2), *map(add, r1, r3), *map(add, r2, r3)]


def _backward(flat, m: int) -> list:
    """Twice the inverse: rows (x+y-z, x+z-y, y+z-x), flattened."""
    x, y, z = flat[:m], flat[m:2 * m], flat[2 * m:]
    return (
        [a + b - c for a, b, c in zip(x, y, z)]
        + [a + c - b for a, b, c in zip(x, y, z)]
        + [b + c - a for a, b, c in zip(x, y, z)]
    )


def to_prime_coords(p: Matrix) -> Matrix:
    """Forward transform: rows become (r1+r2, r1+r3, r2+r3)."""
    _require_3xm(p)
    return Matrix.from_flat(prime_flat(p.flatten(), p.ncols), 3, p.ncols)


def from_prime_coords(q: Matrix) -> Matrix:
    """Inverse transform: ((x+y-z)/2, (x+z-y)/2, (y+z-x)/2) per column."""
    _require_3xm(q)
    half = Fraction(1, 2)
    return Matrix.from_flat([v * half for v in _backward(q.flatten(), q.ncols)], 3, q.ncols)


def _scaled_columns(point: ScaledPoint) -> int:
    if len(point.nums) % 3:
        raise DimensionError(
            f"pairwise-sum transform needs 3 rows, got {len(point.nums)} coordinates"
        )
    return len(point.nums) // 3


def to_prime_scaled(point: ScaledPoint) -> ScaledPoint:
    """to_prime_coords on numerators; the denominator is kept."""
    return ScaledPoint(tuple(prime_flat(point.nums, _scaled_columns(point))), point.den)


def from_prime_scaled(point: ScaledPoint) -> ScaledPoint:
    """from_prime_coords on numerators; the halving doubles the denominator."""
    return ScaledPoint(tuple(_backward(point.nums, _scaled_columns(point))), 2 * point.den)


def simplex_image_check() -> bool:
    """Check the columnwise map sends the unit 3-simplex onto the 3-demihypercube.

    The four simplex vertices (0, e1, e2, e3) must map bijectively onto the
    four even-weight 0/1 triples, and those images must all satisfy the
    3-demihypercube system with every other 0/1 triple excluded.
    """
    simplex_vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    images = set()
    for v in simplex_vertices:
        col = Matrix.from_rows([[x] for x in v])
        images.add(to_prime_coords(col).column(1))
    even = {
        triple
        for triple in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        if sum(triple) % 2 == 0
    }
    if images != even:
        return False
    dh = demihypercube_system(3)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                status = dh.membership((a, b, c)).status
                if ((a, b, c) in even) != (status != "outside"):
                    return False
    return True
