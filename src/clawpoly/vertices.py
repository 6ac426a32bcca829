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
from math import gcd
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
    unless allow_large. With |G| >= 2, an m - 1 past the cap's bit length
    is refused from the exponent, and the count is named, never built."""
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    if m - 1 > GENERATION_CAP.bit_length() and not allow_large:
        count = f"{spec.size}^{m - 1}"
    elif (count := spec.size ** (m - 1)) <= GENERATION_CAP or allow_large:
        return count
    raise ResourceCapError(f"{count} vertices exceeds the generation cap {GENERATION_CAP}")


def row_max(spec: GroupSpec, m: int, a) -> int:
    """The largest a.v over the vertices, none listed: a.v sums a(g_j, j) =
    a[(g_j - 1) m + j] (0 at the identity) over the leaves, so one max-plus
    pass keyed by the element sum so far finds it: Sankoff's small-parsimony
    recursion (1975) on a claw, O(m |G|^2)."""
    sums = _tables(spec, m)[1]
    minus = [[row.index(t) for row in sums] for t in range(len(sums))]  # s + minus[t][s] = t
    best = (0, *a[::m])  # best[s]: the max over the labelings of the leaves so far summing to s
    for j in range(1, m):
        leaf = (0, *a[j::m])
        best = [max(x + leaf[e] for x, e in zip(best, es)) for es in minus]
    return best[0]


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


# The consistent labelings form the group G^(m-1) under leafwise +, and it
# acts on the vertices by translation, v -> v + t: so every row valid on
# the vertices has valid translates, and a facet's translates are facets.

@lru_cache(maxsize=None)
def translation_generators(spec: GroupSpec, m: int) -> tuple[tuple[int, ...], ...]:
    """The (|G|-1)(m-1) consistent labelings, as tuples of m element indices,
    that generate all the others: element h != 0 at leaf j < m-1 and -h at
    the last leaf, every other leaf the identity."""
    sums = _tables(spec, m)[1]
    gens = []
    for j in range(m - 1):
        for h in range(1, len(sums)):
            t = [0] * m
            t[j] = h
            t[m - 1] = sums[h].index(0)
            gens.append(tuple(t))
    return tuple(gens)


def pull_back(spec: GroupSpec, m: int, row, t):
    """The row a'.x <= b' whose value at every vertex v is that of the row
    a.x <= b at v + t, for a translation t (element indices per leaf).

    Coordinate (f, j) of a is a[(f-1)*m + j], and a(0, j) = 0, so a.v is
    the sum over the leaves of a(g_j, j) for v's labeling g. Then
    a'(f, j) = a(f + t_j, j) - a(t_j, j) and b' = b - sum_j a(t_j, j), made
    coprime.
    """
    a, b = row
    sums = _tables(spec, m)[1]
    out = list(a)
    for j, h in enumerate(t):
        if h:
            shift = a[(h - 1) * m + j]
            b -= shift
            for f in range(1, len(sums)):
                e = sums[f][h]
                out[(f - 1) * m + j] = (a[(e - 1) * m + j] if e else 0) - shift
    g = gcd(b, *out)
    if g > 1:
        return tuple(x // g for x in out), b // g
    return tuple(out), b


def split_vertices(spec: GroupSpec, m: int, split: int, weights=None):
    """Every vertex as a head over leaves 1..split and a block over the rest,
    in the order of generate_vertices: (heads, blocks).

    heads lists (mask, s) for each labeling of leaves 1..split, s the index
    of its element sum, and blocks[s] the values of the labelings of leaves
    split+1..m that bring s back to the identity. Each x, s of heads in
    order, joined with each y of blocks[s] in order, gives the vertices in
    order. A block's value sums weights[i] over its set coordinates i;
    without weights it is its mask, weights[i] = 2^i, and x + y is the
    vertex's mask.

    Each part is expanded one leaf at a time, each prefix followed by its
    extensions in the canonical element order, and keeps the index of its
    element sum; the last leaf is then forced by that sum.
    """
    leaf_bits, sums, last_bits = _tables(spec, m)
    leaf_values, last_values = leaf_bits, last_bits
    if weights is not None:
        # a leaf element sets at most one coordinate
        weigh = [0, *weights].__getitem__
        leaf_values = [[weigh(b.bit_length()) for b in row] for row in leaf_bits]
        last_values = [weigh(b.bit_length()) for b in last_bits]

    def expand(table, leaves, start):
        values, totals = [0], [start]
        for j in leaves:
            values = [x + b for x in values for b in table[j]]
            totals = [t for s in totals for t in sums[s]]
        return values, totals

    heads, head_sums = expand(leaf_bits, range(split), 0)
    blocks = {}
    for s in dict.fromkeys(head_sums):
        values, totals = expand(leaf_values, range(split, m - 1), s)
        blocks[s] = [x + last_values[t] for x, t in zip(values, totals)]
    return list(zip(heads, head_sums)), blocks


def vertex_masks(spec: GroupSpec, m: int, allow_large: bool = False) -> list[int]:
    """Every vertex as a mask, in the order of generate_vertices: the one
    block of split_vertices with no head."""
    vertex_count(spec, m, allow_large)
    return split_vertices(spec, m, 0)[1][0]


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


@lru_cache(maxsize=1)
def sorted_vertices(spec: GroupSpec, m: int) -> VertexSet:
    """generate_vertices(spec, m) with its points sorted, kept for the last
    (spec, m) asked: the hull, the vertices and the f-vector of one claw
    polytope given its group all compare with or return these points, so a
    run generates them once."""
    vs = generate_vertices(spec, m)
    return vs._replace(points=tuple(sorted(vs.points)))


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
