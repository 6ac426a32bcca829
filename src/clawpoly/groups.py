"""Finite abelian groups as products of cyclic groups, plus the 0/1 embedding.

A group is a tuple of cyclic orders (n1, ..., nk); elements are residue
tuples. The embedding sends the identity to the zero vector and the r-th
non-identity element (in the canonical order) to the r-th standard basis
vector of R^(|G|-1).

Canonical non-identity order is lexicographic on residue tuples, with one
exception: for Z2 x Z2 the order is (1,0), (0,1), (1,1), which is the fixed
convention every downstream inequality family assumes.
"""

from __future__ import annotations

import re
from functools import reduce, lru_cache
from itertools import product
from typing import NamedTuple

from .errors import DimensionError, UnsupportedGroupError


class _GroupSpec(NamedTuple):
    orders: tuple[int, ...]


class GroupSpec(_GroupSpec):
    __slots__ = ()

    def __new__(cls, orders):
        if not orders:
            raise UnsupportedGroupError("empty factor list")
        if any(not isinstance(n, int) or n < 2 for n in orders):
            raise UnsupportedGroupError(f"cyclic orders must be ints >= 2: {orders}")
        return super().__new__(cls, orders)

    @property
    def size(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    def name(self) -> str:
        if self.orders == (2, 2):
            return "z2z2"
        return "x".join(f"z{n}" for n in self.orders)


class GroupElement(NamedTuple):
    residues: tuple[int, ...]


Z2 = GroupSpec((2,))
Z2Z2 = GroupSpec((2, 2))

_GROUP_RE = re.compile(r"^z(\d+)(?:xz(\d+))*$")


def parse_group(text: str) -> GroupSpec:
    """Parse 'z2', 'z2z2' or 'z3xz4' style group strings."""
    s = text.strip().lower()
    if s == "z2z2":
        return Z2Z2
    if not _GROUP_RE.match(s):
        raise UnsupportedGroupError(f"unrecognized group string: {text!r}")
    return GroupSpec(tuple(int(part[1:]) for part in s.split("x")))


def element(spec: GroupSpec, residues) -> GroupElement:
    """Element with residues reduced mod the cyclic orders."""
    residues = tuple(residues)
    if len(residues) != len(spec.orders):
        raise DimensionError(
            f"residue tuple length {len(residues)} does not match {len(spec.orders)} factors"
        )
    return GroupElement(tuple(r % n for r, n in zip(residues, spec.orders)))


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement((0,) * len(spec.orders))


def _check(spec: GroupSpec, g: GroupElement):
    if len(g.residues) != len(spec.orders):
        raise DimensionError("element does not belong to this group")
    if any(not 0 <= r < n for r, n in zip(g.residues, spec.orders)):
        raise DimensionError(f"residues out of range for {spec.name()}: {g.residues}")


def add(spec: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    _check(spec, a)
    _check(spec, b)
    return GroupElement(
        tuple((x + y) % n for x, y, n in zip(a.residues, b.residues, spec.orders))
    )


def group_sum(spec: GroupSpec, elements) -> GroupElement:
    return reduce(lambda a, b: add(spec, a, b), elements, identity(spec))


@lru_cache(maxsize=None)
def nonidentity_elements(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """Non-identity elements in canonical order (see module docstring)."""
    if spec.orders == (2, 2):
        return (GroupElement((1, 0)), GroupElement((0, 1)), GroupElement((1, 1)))
    residue_tuples = sorted(product(*[range(n) for n in spec.orders]))
    return tuple(GroupElement(t) for t in residue_tuples if any(t))


@lru_cache(maxsize=None)
def group_elements(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """All elements, identity first, then the canonical non-identity order."""
    return (identity(spec),) + nonidentity_elements(spec)


def embed(spec: GroupSpec, g: GroupElement) -> tuple[int, ...]:
    """0/1 column of length |G|-1: zero for the identity, e_r for the r-th non-identity element."""
    _check(spec, g)
    order = nonidentity_elements(spec)
    col = [0] * len(order)
    if any(g.residues):
        col[order.index(g)] = 1
    return tuple(col)
