import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawpoly.errors import UnsupportedGroupError
from clawpoly.groups import (
    Z2,
    Z2Z2,
    GroupSpec,
    add,
    element,
    embed,
    group_elements,
    group_sum,
    identity,
    nonidentity_elements,
    parse_group,
)

z3z4 = GroupSpec((3, 4))


def test_parse_group():
    assert parse_group("z2") == Z2
    assert parse_group("z2z2") == Z2Z2
    assert parse_group("z2xz2") == Z2Z2
    assert parse_group("z3xz4") == z3z4
    with pytest.raises(UnsupportedGroupError):
        parse_group("d8")
    with pytest.raises(UnsupportedGroupError):
        parse_group("z1")


def test_names():
    assert Z2Z2.name() == "z2z2"
    assert Z2.name() == "z2"
    assert z3z4.name() == "z3xz4"


def test_nonidentity_order_z2z2():
    assert tuple(g.residues for g in nonidentity_elements(Z2Z2)) == (
        (1, 0),
        (0, 1),
        (1, 1),
    )


def test_group_elements_identity_first():
    els = group_elements(z3z4)
    assert els[0] == identity(z3z4)
    assert len(els) == 12
    assert len(set(els)) == 12


def test_element_reduces_mod_orders():
    assert element(Z2Z2, (3, 2)) == element(Z2Z2, (1, 0))


def test_embed_z2z2():
    table = {
        (0, 0): (0, 0, 0),
        (1, 0): (1, 0, 0),
        (0, 1): (0, 1, 0),
        (1, 1): (0, 0, 1),
    }
    for residues, column in table.items():
        assert embed(Z2Z2, element(Z2Z2, residues)) == column


def test_embed_decode_roundtrip():
    # embed is injective, so the inverse table decodes every column
    for spec in (Z2, Z2Z2, z3z4):
        decode = {embed(spec, g): g for g in group_elements(spec)}
        assert len(decode) == spec.size


specs = st.sampled_from([Z2, Z2Z2, z3z4])


@st.composite
def spec_and_elements(draw, count):
    spec = draw(specs)
    els = group_elements(spec)
    picked = [draw(st.sampled_from(els)) for _ in range(count)]
    return spec, picked


@given(spec_and_elements(3))
def test_associativity(case):
    spec, (a, b, c) = case
    assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))


@given(spec_and_elements(2))
def test_commutativity(case):
    spec, (a, b) = case
    assert add(spec, a, b) == add(spec, b, a)


@given(spec_and_elements(1))
def test_identity_and_inverse(case):
    spec, (a,) = case
    e = identity(spec)
    assert add(spec, a, e) == a
    inverse = element(spec, tuple(-r for r in a.residues))
    assert add(spec, a, inverse) == e


@given(spec_and_elements(4))
def test_group_sum_matches_fold(case):
    spec, els = case
    acc = identity(spec)
    for g in els:
        acc = add(spec, acc, g)
    assert group_sum(spec, els) == acc
