"""Columnwise pairwise-sum change of coordinates on 3 x m points.

Forward map, per column: (x1, x2, x3) -> (x1+x2, x1+x3, x2+x3). It is a
bijection of R^(3m); the inverse halves the alternating sums, so integrality
is not preserved but exact rationality is. The forward map carries the
standard-coordinate polytope onto the prime-coordinate one and the unit
simplex of each column onto the 3-dimensional demihypercube.

A point is flattened row-major: row r of a 3 x m point is coordinates
(r-1)*m .. r*m - 1.
"""

from __future__ import annotations

from operator import add, sub

from .errors import DimensionError
from .halfspaces import InequalitySystem, model_system
from .rationals import ScaledPoint


def prime_flat(flat, m: int) -> list:
    """The forward transform on a row-major 3 x m flattening, of ints or
    rationals: rows (r1+r2, r1+r3, r2+r3), flattened."""
    r1, r2, r3 = flat[:m], flat[m:2 * m], flat[2 * m:]
    return [*map(add, r1, r2), *map(add, r1, r3), *map(add, r2, r3)]


def prime_system_in_standard(m: int) -> InequalitySystem:
    """kimura3-prime's system on standard coordinates: y = T x with T the
    forward map, which is symmetric per column, so the row a.y <= b reads
    (T a).x <= b. The rows keep their order and tags."""
    prime = model_system("kimura3-prime", m)
    rows = [(prime_flat(a, m), b) for a, b in prime.rows]
    return InequalitySystem(prime.model, prime.shape, rows, prime.families)


def _backward(flat, m: int) -> list:
    """Twice the inverse: rows (x+y-z, x+z-y, y+z-x), flattened."""
    x, y, z = flat[:m], flat[m:2 * m], flat[2 * m:]
    return [*map(sub, map(add, x, y), z), *map(sub, map(add, x, z), y),
            *map(sub, map(add, y, z), x)]


def _scaled_columns(point: ScaledPoint) -> int:
    if len(point.nums) % 3:
        raise DimensionError(
            f"a 3 x m point needs a multiple of 3 coordinates, got {len(point.nums)}"
        )
    return len(point.nums) // 3


def point_rows(point: ScaledPoint) -> tuple[tuple, ...]:
    """The 3 x m rows of a point's canonical rationals (ScaledPoint.values)."""
    m = _scaled_columns(point)
    values = point.values()
    return tuple(values[r * m:(r + 1) * m] for r in range(3))


def to_prime_scaled(point: ScaledPoint) -> ScaledPoint:
    """Forward transform, rows (r1+r2, r1+r3, r2+r3), on numerators; the
    denominator is kept."""
    return ScaledPoint(tuple(prime_flat(point.nums, _scaled_columns(point))), point.den)


def from_prime_scaled(point: ScaledPoint) -> ScaledPoint:
    """Inverse transform, ((x+y-z)/2, (x+z-y)/2, (y+z-x)/2) per column, on
    numerators; the halving doubles the denominator."""
    return ScaledPoint(tuple(_backward(point.nums, _scaled_columns(point))), 2 * point.den)


def simplex_image_check() -> bool:
    """Check the columnwise map sends the unit 3-simplex onto the 3-demihypercube.

    The four simplex vertices (0, e1, e2, e3) must map bijectively onto the
    four even-weight 0/1 triples, and those images must all satisfy the
    3-demihypercube system with every other 0/1 triple excluded.
    """
    simplex_vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    images = {tuple(prime_flat(v, 1)) for v in simplex_vertices}
    even = {
        triple
        for triple in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        if sum(triple) % 2 == 0
    }
    if images != even:
        return False
    dh = model_system("binary", 3)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                status = dh.status(ScaledPoint((a, b, c), 1))
                if ((a, b, c) in even) != (status != "outside"):
                    return False
    return True
