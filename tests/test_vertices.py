from itertools import product

import pytest

from clawpoly.errors import DimensionError, LeafCountError, ResourceCapError
from clawpoly.groups import (
    Z2,
    Z2Z2,
    GroupElement,
    GroupSpec,
    element,
    embed,
    group_elements,
    group_sum,
    identity,
)
from clawpoly.vertices import Labeling, generate_vertices, vertex_at
from clawpoly.witness import violation_witness


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
        last = element(spec, tuple(-r for r in group_sum(spec, prefix).residues))
        cols = [embed(spec, g) for g in prefix + (last,)]
        points.append(tuple(col[r] for r in range(spec.size - 1) for col in cols))
    return tuple(points)


def _fullscan_vertices(spec, m):
    """Independent oracle: scan all |G|^m labelings and keep the consistent ones,
    without forcing the last leaf. Same order and layout as generate_vertices."""
    columns = {g: embed(spec, g) for g in group_elements(spec)}
    return tuple(
        tuple(columns[g][r] for r in range(spec.size - 1) for g in combo)
        for combo in product(group_elements(spec), repeat=m)
        if group_sum(spec, combo) == identity(spec)
    )


@pytest.mark.parametrize("spec", [Z2, Z2Z2])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_generate_matches_group_sum_reference(spec, m):
    points = generate_vertices(spec, m).points
    assert points == _group_sum_vertices(spec, m)
    assert set(points) == set(_fullscan_vertices(spec, m))


def test_generate_matches_independent_fullscan():
    for spec, m in ((Z2Z2, 3), (Z2Z2, 4), (Z2, 4), (GroupSpec((3,)), 4)):
        assert generate_vertices(spec, m).points == _fullscan_vertices(spec, m)


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
    # each leaf's element embeds as one column of the vertex matrix
    lab = _lab((1, 0), (0, 1), (1, 1))
    assert [embed(Z2Z2, g) for g in lab.elements] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert generate_vertices(Z2Z2, 3).points[6] == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_labeling_consistency():
    # a labeling is consistent iff no odd-subset inequality witnesses a violation
    assert violation_witness(_lab((1, 0), (0, 1), (1, 1))) is None
    assert violation_witness(_lab((1, 0), (0, 0), (0, 0))) is not None


def test_leaf_count_minimum():
    with pytest.raises(LeafCountError):
        generate_vertices(Z2Z2, 2)
    with pytest.raises(LeafCountError):
        Labeling(Z2Z2, (element(Z2Z2, (0, 0)),))


@pytest.mark.parametrize("g", [element(Z2, (1,)), GroupElement((0, 4))], ids=repr)
def test_labeling_elements_belong_to_the_group(g):
    # one residue for a two-factor group, then a residue past its order
    with pytest.raises(DimensionError):
        Labeling(Z2Z2, (g,) * 3)


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
    decode = {embed(spec, g): g for g in group_elements(spec)}
    for p in generate_vertices(spec, 3).points:
        elements = [decode[p[j::3]] for j in range(3)]
        assert group_sum(spec, elements) == identity(spec)


@pytest.mark.parametrize("m", range(3, 8))
def test_vertex_at_matches_generated_order(m):
    points = generate_vertices(Z2Z2, m).points
    assert [vertex_at(Z2Z2, m, i) for i in range(len(points))] == list(points)


@pytest.mark.parametrize("spec", [Z2, GroupSpec((3,)), GroupSpec((2, 3))])
def test_vertex_at_other_groups(spec):
    points = generate_vertices(spec, 4).points
    assert [vertex_at(spec, 4, i) for i in range(len(points))] == list(points)


MIXED_GROUPS = [GroupSpec((3, 4)), GroupSpec((2, 2, 2)), GroupSpec((5,))]


@pytest.mark.parametrize("spec", MIXED_GROUPS, ids=lambda spec: spec.name())
@pytest.mark.parametrize("m", [3, 4])
def test_masks_match_oracles_on_mixed_orders(spec, m):
    # the element-index addition table carries across factors of unequal order
    points = generate_vertices(spec, m).points
    assert points == _group_sum_vertices(spec, m)
    assert points == _fullscan_vertices(spec, m)
    assert tuple(vertex_at(spec, m, i) for i in range(len(points))) == points
