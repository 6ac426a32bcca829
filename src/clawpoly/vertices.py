"""V-representation of claw-tree model polytopes.

A labeling assigns one group element to each of the m leaves of a claw tree;
it is consistent when the elements sum to the identity. Stacking the 0/1
embedding of each leaf's element as a column yields an (|G|-1) x m matrix,
and the consistent labelings' matrices are exactly the polytope's vertices,
|G|^(m-1) of them.

A vertex is built once, as an int: coordinate (r, j) of the matrix, row r
and leaf j counted from 0, is bit r*m + j, the bit of its row-major flat
index. A leaf labeled with the identity sets no bit, and one labeled with
the e-th non-identity element (canonical order, from 1) sets bit
(e-1)*m + j. These masks are what the 0/1 checks of an inequality system
read; the tuples of a VertexSet are unpacked from them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DimensionError, LeafCountError, ResourceCapError
from .groups import GroupElement, GroupSpec, group_elements
from .rationals import Rational

# Generation refuses above this many vertices unless explicitly overridden.
GENERATION_CAP = 4 ** 11

# the digits "0" / "1" -> the bytes 0 / 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class _Labeling(NamedTuple):
    spec: GroupSpec
    elements: tuple[GroupElement, ...]


class Labeling(_Labeling):
    __slots__ = ()

    def __new__(cls, spec, elements):
        if len(elements) < 3:
            raise LeafCountError(f"claw trees need m >= 3 leaves, got {len(elements)}")
        for g in elements:
            if len(g.residues) != len(spec.orders):
                raise DimensionError("labeling element does not belong to the group")
            if any(not 0 <= r < n for r, n in zip(g.residues, spec.orders)):
                raise DimensionError(f"residues out of range: {g.residues}")
        return super().__new__(cls, spec, elements)

    @property
    def leaves(self) -> int:
        return len(self.elements)


class VertexSet(NamedTuple):
    """Deterministically ordered list of flattened vertices plus its matrix shape."""

    dimension: int
    shape: tuple[int, int]
    points: tuple[tuple[Rational, ...], ...]


def vertex_count(spec: GroupSpec, m: int, allow_large: bool = False) -> int:
    """|G|^(m-1), the number of vertices; refused above GENERATION_CAP
    unless allow_large."""
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    count = spec.size ** (m - 1)
    if count > GENERATION_CAP and not allow_large:
        raise ResourceCapError(
            f"{count} vertices exceeds the generation cap {GENERATION_CAP}; "
            "pass allow_large to override"
        )
    return count


@lru_cache(maxsize=None)
def _tables(spec: GroupSpec, m: int):
    """(leaf bits, sums, last bits) over the elements' canonical indices
    0..|G|-1: leaf_bits[j][e] is the bit that element e sets at leaf j,
    sums[s][e] the index of s + e, and last_bits[s] the bit of the element
    that brings the sum s back to the identity, at the last leaf."""
    elements = group_elements(spec)
    index = {g.residues: e for e, g in enumerate(elements)}
    orders = spec.orders
    sums = tuple(
        tuple(index[tuple((x + y) % n for x, y, n in zip(g.residues, h.residues, orders))]
              for h in elements)
        for g in elements
    )
    leaf_bits = tuple(
        (0,) + tuple(1 << (e * m + j) for e in range(len(elements) - 1)) for j in range(m)
    )
    last_bits = tuple(leaf_bits[m - 1][row.index(0)] for row in sums)
    return leaf_bits, sums, last_bits


def vertex_masks(spec: GroupSpec, m: int, allow_large: bool = False) -> list[int]:
    """Every vertex as a mask, in the order of generate_vertices.

    Leaves 1..m-1 are expanded one level at a time, each prefix followed by
    its extensions in the canonical element order, and each keeps the index
    of its element sum; the last leaf is then forced by that sum.
    """
    vertex_count(spec, m, allow_large)
    leaf_bits, sums, last_bits = _tables(spec, m)
    masks, totals = [0], [0]
    for j in range(m - 1):
        masks = [x | b for x in masks for b in leaf_bits[j]]
        totals = [t for s in totals for t in sums[s]]
    return [x | last_bits[s] for x, s in zip(masks, totals)]


def unpack_points(masks, dimension: int) -> list[tuple[int, ...]]:
    """The flat 0/1 tuple of each mask: coordinate i is bit i."""
    digits = f"0{dimension}b"
    return [tuple(format(x, digits).encode().translate(_DIGIT_BYTES)[::-1]) for x in masks]


def generate_vertices(spec: GroupSpec, m: int, allow_large: bool = False) -> VertexSet:
    """All vertices, ordered lexicographically in the labeling.

    Leaves 1..m-1 run over the canonical element order; the last element is
    forced to make the sum the identity, so exactly |G|^(m-1) matrices come
    out and they are pairwise distinct.
    """
    nrows = spec.size - 1
    points = unpack_points(vertex_masks(spec, m, allow_large), nrows * m)
    return VertexSet(dimension=nrows * m, shape=(nrows, m), points=tuple(points))


def vertex_at(spec: GroupSpec, m: int, index: int) -> tuple[int, ...]:
    """Vertex index of generate_vertices(spec, m), without the others.

    The base-|G| digits of index, most significant first, pick the elements
    of leaves 1..m-1 in the canonical order, and the last leaf is forced.
    """
    leaf_bits, sums, last_bits = _tables(spec, m)
    size = len(sums)
    mask = total = 0
    for j in range(m - 2, -1, -1):
        index, e = divmod(index, size)
        mask |= leaf_bits[j][e]
        total = sums[total][e]
    return unpack_points([mask | last_bits[total]], (size - 1) * m)[0]
