"""V-representation of claw-tree model polytopes.

A labeling assigns one group element to each of the m leaves of a claw tree;
it is consistent when the elements sum to the identity. Stacking the 0/1
embedding of each leaf's element as a column yields an (|G|-1) x m matrix,
and the consistent labelings' matrices are exactly the polytope's vertices,
|G|^(m-1) of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import DimensionError, LeafCountError, ResourceCapError
from .groups import GroupElement, GroupSpec, embed, group_elements
from .matrices import Matrix
from .rationals import Rational

# Generation refuses above this many vertices unless explicitly overridden.
GENERATION_CAP = 4 ** 11


@dataclass(frozen=True)
class Labeling:
    spec: GroupSpec
    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.elements) < 3:
            raise LeafCountError(f"claw trees need m >= 3 leaves, got {len(self.elements)}")
        for g in self.elements:
            if len(g.residues) != len(self.spec.orders):
                raise DimensionError("labeling element does not belong to the group")
            if any(not 0 <= r < n for r, n in zip(g.residues, self.spec.orders)):
                raise DimensionError(f"residues out of range: {g.residues}")

    @property
    def leaves(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class VertexSet:
    """Deterministically ordered list of flattened vertices plus its matrix shape."""

    dimension: int
    shape: tuple[int, int]
    points: tuple[tuple[Rational, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def matrices(self):
        rows, cols = self.shape
        return [Matrix.from_flat(p, rows, cols) for p in self.points]


def labeling_to_matrix(labeling: Labeling) -> Matrix:
    """Stack the embedding of each leaf element as a column."""
    cols = [embed(labeling.spec, g) for g in labeling.elements]
    nrows = labeling.spec.size - 1
    return Matrix.from_rows(
        [tuple(col[r] for col in cols) for r in range(nrows)]
    )


def _flat_vertex(cols, nrows: int, m: int) -> tuple[int, ...]:
    # row-major flatten without building a Matrix
    return tuple(cols[j][r] for r in range(nrows) for j in range(m))


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
def _columns(spec: GroupSpec) -> dict:
    """Embedded column of each element, keyed by residues, in the canonical order."""
    return {g.residues: embed(spec, g) for g in group_elements(spec)}


def _last_residues(spec: GroupSpec, prefix) -> tuple[int, ...]:
    """The last leaf carries minus the prefix sum, residue by residue."""
    return tuple(-sum(rs) % n for rs, n in zip(zip(*prefix), spec.orders))


def generate_vertices(spec: GroupSpec, m: int, allow_large: bool = False) -> VertexSet:
    """All vertices, ordered lexicographically in the labeling.

    Leaves 1..m-1 run over the canonical element order; the last element is
    forced to make the sum the identity, so exactly |G|^(m-1) matrices come
    out and they are pairwise distinct.
    """
    vertex_count(spec, m, allow_large)
    columns = _columns(spec)
    nrows = spec.size - 1
    points = []
    for prefix in product(columns, repeat=m - 1):
        cols = [columns[r] for r in prefix] + [columns[_last_residues(spec, prefix)]]
        points.append(_flat_vertex(cols, nrows, m))
    return VertexSet(dimension=nrows * m, shape=(nrows, m), points=tuple(points))


def vertex_at(spec: GroupSpec, m: int, index: int) -> tuple[int, ...]:
    """Vertex index of generate_vertices(spec, m), without the others.

    The base-|G| digits of index, most significant first, pick the elements
    of leaves 1..m-1 in the canonical order, and the last leaf is forced.
    """
    columns = _columns(spec)
    order = tuple(columns)
    size = len(order)
    prefix = []
    for _ in range(m - 1):
        index, d = divmod(index, size)
        prefix.append(order[d])
    prefix.reverse()
    cols = [columns[r] for r in prefix] + [columns[_last_residues(spec, prefix)]]
    return _flat_vertex(cols, size - 1, m)
