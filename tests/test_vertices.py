from itertools import product

import pytest

from clawpoly.errors import DimensionError, LeafCountError, ResourceCapError
from clawpoly.groups import (
    Z2,
    Z2Z2,
    GroupSpec,
    element,
    embed,
    group_elements,
    group_sum,
    neg,
)
from clawpoly.matrices import Matrix
from clawpoly.vertices import (
    Labeling,
    generate_vertices,
    generate_vertices_fullscan,
    is_vertex,
    labeling_to_matrix,
    matrix_to_labeling,
)


def _lab(*residues):
    return Labeling(Z2Z2, tuple(element(Z2Z2, r) for r in residues))


def test_counts():
    assert len(generate_vertices(Z2Z2, 3).points) == 16
    assert len(generate_vertices(Z2Z2, 4).points) == 64
    assert len(generate_vertices(Z2Z2, 5).points) == 256
    assert len(generate_vertices(Z2, 4).points) == 8


def test_dimension_and_shape():
    vs = generate_vertices(Z2Z2, 3)
    assert vs.dimension == 9
    assert vs.shape == (3, 3)
    bs = generate_vertices(Z2, 5)
    assert bs.dimension == 5
    assert bs.shape == (1, 5)


def _group_sum_vertices(spec, m):
    """Reference: force the last leaf with groups.group_sum, one vertex at a time."""
    points = []
    for prefix in product(group_elements(spec), repeat=m - 1):
        cols = [embed(spec, g) for g in prefix + (neg(spec, group_sum(spec, prefix)),)]
        points.append(tuple(col[r] for r in range(spec.size - 1) for col in cols))
    return tuple(points)


@pytest.mark.parametrize("spec", [Z2, Z2Z2])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_generate_matches_group_sum_reference(spec, m):
    points = generate_vertices(spec, m).points
    assert points == _group_sum_vertices(spec, m)
    assert set(points) == set(generate_vertices_fullscan(spec, m).points)


def test_generate_matches_independent_fullscan():
    for spec, m in ((Z2Z2, 3), (Z2Z2, 4), (Z2, 4), (GroupSpec((3,)), 4)):
        assert generate_vertices(spec, m).points == generate_vertices_fullscan(spec, m).points


def test_binary_vertices_are_even_weight():
    for p in generate_vertices(Z2, 4).points:
        assert sum(p) % 2 == 0
        assert all(x in (0, 1) for x in p)


def test_vertices_are_distinct_01_matrices():
    pts = generate_vertices(Z2Z2, 4).points
    assert len(set(pts)) == 64
    for p in pts:
        assert all(x in (0, 1) for x in p)
        # one leaf per column: each column sums to 0 or 1
        for j in range(4):
            assert sum(p[4 * r + j] for r in range(3)) <= 1


def test_labeling_roundtrip():
    lab = _lab((1, 0), (0, 1), (1, 1))
    mat = labeling_to_matrix(lab)
    assert mat.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert matrix_to_labeling(Z2Z2, mat) == lab


def test_labeling_consistency():
    assert _lab((1, 0), (0, 1), (1, 1)).is_consistent()
    assert not _lab((1, 0), (0, 0), (0, 0)).is_consistent()


def test_is_vertex(k3):
    for p in k3.matrices():
        assert is_vertex(Z2Z2, 3, p)
    lone = Matrix.from_flat((1,) + (0,) * 8, 3, 3)
    assert not is_vertex(Z2Z2, 3, lone)
    with pytest.raises(DimensionError):
        is_vertex(Z2Z2, 3, Matrix.from_rows([(0, 0), (0, 0), (0, 0)]))
    with pytest.raises(LeafCountError):
        is_vertex(Z2Z2, 2, Matrix.from_rows([(0, 0)] * 3))


def test_leaf_count_minimum():
    with pytest.raises(LeafCountError):
        generate_vertices(Z2Z2, 2)
    with pytest.raises(LeafCountError):
        Labeling(Z2Z2, (element(Z2Z2, (0, 0)),))


def test_generation_cap(monkeypatch):
    import clawpoly.vertices as vertices_mod

    with pytest.raises(ResourceCapError):
        generate_vertices(Z2Z2, 13)
    monkeypatch.setattr(vertices_mod, "GENERATION_CAP", 4)
    with pytest.raises(ResourceCapError):
        vertices_mod.generate_vertices(Z2, 4)
    assert len(vertices_mod.generate_vertices(Z2, 4, allow_large=True).points) == 8


def test_all_labelings_in_vertex_set_are_consistent():
    spec = Z2Z2
    vs = generate_vertices(spec, 3)
    for mat in vs.matrices():
        lab = matrix_to_labeling(spec, mat)
        assert lab is not None
        assert lab.is_consistent()
