"""A claw polytope's facets or vertices from the cone at vertex 0 and its
translates.

The consistent labelings of a claw tree form the group G^(m-1) under
leafwise +, which acts on the polytope's vertices by translation
(vertices.translation_generators, vertices.pull_back) and maps facets to
facets. So the double description runs only on the cone at vertex 0 (the
adjacency decomposition of Bremner, Dutour Sikirić & Schürmann, "Polyhedral
representation conversion up to symmetries", 2009), in both directions. For
the hull its rays are the facets through 0, and every other facet is one of
their translates, certified by vertices.row_max without reading a vertex.
For the vertices its rays are the edges from 0, and once the rows are known
to be invariant, every vertex is a translate of 0 (Balinski: a polytope's
graph is connected). Both cones read the atoms, not the vertex list: the
vertices whose non-identity labels sum to 0 while no proper nonempty subset
of them does. Any other nonzero vertex splits at such a subset into u + w,
two nonzero vertices, and [0, u + w], whose midpoint is that of [u, w], is
no edge. So the edges from 0 end at atoms, which generate the tangent cone
at 0. An atom has at most D(G) labels (Olson 1969; D = 2 for Z2, 3 for
Z2 x Z2): C(m, 2) atoms for Z2 and 3 C(m, 2) + 6 C(m, 3) for Z2 x Z2.

A claw polytope (m >= 3) is full-dimensional, so it has no equations: a
linear form that vanishes on every vertex restricts, on any three leaves,
to a(x, i) + a(y, j) + a(-x-y, k) = 0 for all x, y in G, which makes each
a(., leaf) an additive map of the finite group G into the rationals, that
is 0.

engine.hull_from_vertices, engine.vertices_from_inequalities and
engine.f_vector load this module only when they are given a group.
"""

from __future__ import annotations

from .engine import _dd_cone, _insertion_key, _normalize_int_vector, log
from .errors import ConfigurationError
from .vertices import (_tables, pull_back, row_max, sorted_vertices, translation_generators,
                       unpack_points)


def claw_leaves(pts, d, group, what):
    """m, when pts (in R^d) are exactly the sorted points of
    generate_vertices(group, m) with m = d / (|G| - 1) >= 3; else
    ConfigurationError, naming what was asked with the group. The count
    |G|^(m-1) is compared first, so no vertex set is built for too few
    or too many points."""
    m, rem = divmod(d, group.size - 1)
    if (rem or m < 3 or len(pts) != group.size ** (m - 1)
            or tuple(pts) != sorted_vertices(group, m).points):
        raise ConfigurationError(
            f"{what} with group {group.name()}: the points are not the vertices of "
            f"its claw polytope"
        )
    return m


def atoms(group, m):
    """The masks of the atoms of the claw polytope of group with m leaves
    (module docstring), each grown leaf by leaf from a zero-sum-free prefix
    and closed at a later leaf by the one label that brings the sum back to
    0: a proper zero-sum subset, or its complement, would lie in the
    prefix. Each atom is grown once, from its labels before its last."""
    leaf_bits, sums, _ = _tables(group, m)
    found, stack = [], [(0, 0, set(), 0)]
    while stack:  # reach: the sums of the prefix's nonempty subsets, 0 not among them
        mask, total, reach, start = stack.pop()
        for j in range(start, m):
            if reach:
                found.append(mask | leaf_bits[j][sums[total].index(0)])
            for e in range(1, len(sums)):
                wider = reach | {e} | {sums[s][e] for s in reach}
                if 0 not in wider:
                    stack.append((mask | leaf_bits[j][e], sums[total][e], wider, j + 1))
    return found


def orbit_facets(group, m):
    """The sorted facets of the claw polytope of group with m leaves.

    The facets through 0 are the rays of the DD on the rows of the atoms,
    which generate the tangent cone at 0, in _insertion_key order. The
    translations act transitively on the vertices and map facets to
    facets, so every facet is a translate of one through 0: the rays'
    orbit under translation_generators, by pull_back, breadth first. Each
    facet a.x <= b is certified by row_max(a) == b, reading no vertex: a
    larger max cuts off a vertex, a smaller one touches none.

    The cone has no lines, as the polytope is full-dimensional (module
    docstring), so the rays are the facets' normals.
    """
    d = (group.size - 1) * m
    shape = f"[d={d} points={group.size ** (m - 1)}]"
    rows = sorted(unpack_points(atoms(group, m), d), key=_insertion_key)
    _, rays = _dd_cone(rows, d, f"hull cone[d={d} atoms={len(rows)}]")
    facets = [(r, 0) for r, _ in rays]
    seen = set(facets)
    gens = translation_generators(group, m)
    for row in facets:  # grows while it is read: the breadth-first orbit
        for t in gens:
            pulled = pull_back(group, m, row, t)
            if pulled not in seen:
                seen.add(pulled)
                facets.append(pulled)
    log.info(
        "hull orbit%s: %d facets at the origin, %d generators, %d pull-backs, %d facets",
        shape, len(rays), len(gens), len(facets) * len(gens), len(facets),
    )
    facets.sort()
    for a, b in facets:
        if (top := row_max(group, m, a)) != b:
            wrong = "cuts off a vertex" if top > b else "touches no vertex"
            raise ConfigurationError(f"hull orbit{shape}: row {a} <= {b} {wrong}")
    return facets


def orbit_vertices(system, group):
    """The sorted points of generate_vertices(group, m), m = d / (|G| - 1),
    when four exact checks certify that they are the vertices of the
    system's polyhedron {x : a.x <= b}; else None, after a log line naming
    the check that failed.

    1. Every b >= 0, so 0 is a point.
    2. With the rows made coprime, the pull_back of every row by every
       translation generator is a row. A translation is an affine map of
       R^d (it permutes the vertices of each leaf's simplex), so each one
       maps the polyhedron onto itself, and the generated points, the
       translates of 0, are points.
    3. The cone at 0, the double description of the rows with b = 0 in
       _insertion_key order, has no lines: 0 is a vertex, and the cone's
       rays are the directions of its edges.
    4. Each ray r is an atom. Then the edge from 0 along r ends at r,
       which is a point by 2 and a vertex, the image of vertex 0 under a
       symmetry. A ray is primitive, so this is the same as asking that
       the edge end at an atom t r, a nonzero 0/1 point t r being r; and,
       given 1-3, that it end at a generated point (module docstring).

    The translations act transitively on the generated points and, by 2,
    are symmetries, so by 3 and 4 every generated point is a vertex whose
    edges are bounded and end at generated points. The vertices and
    bounded edges of a pointed polyhedron form a connected graph (for a
    polytope, Balinski), so there are no other vertices, and an unbounded
    one would have an unbounded edge at some vertex: the polyhedron is the
    polytope of the generated points.
    """
    rows, d = system.rows, system.dimension
    label = f"vertices orbit[{system.model} d={d}]"
    m, rem = divmod(d, group.size - 1)

    def refuse(reason):
        log.info("%s: %s; generic DD", label, reason)

    if rem or m < 3:
        return refuse(f"d is not {group.size - 1} m with m >= 3")
    if any(b < 0 for _, b in rows):
        return refuse("check 1 failed, a row has b < 0")
    # made coprime, as pull_back makes its rows
    coprime = {(v[:-1], v[-1]) for v in (_normalize_int_vector((*a, b)) for a, b in rows)}
    gens = translation_generators(group, m)
    if any(pull_back(group, m, row, t) not in coprime for row in coprime for t in gens):
        return refuse("check 2 failed, a row's pull-back is not a row")
    at_zero = sorted((a for a, b in coprime if not b), key=_insertion_key)
    lines, rays = _dd_cone(at_zero, d, f"vertices cone[{system.model} d={d}]")
    if lines:
        return refuse(f"check 3 failed, the cone at 0 has {len(lines)} lines")
    if not {r for r, _ in rays}.issubset(unpack_points(atoms(group, m), d)):
        return refuse("check 4 failed, an edge from 0 ends off the generated points")
    pts = sorted_vertices(group, m).points
    log.info(
        "%s: %d rows, %d generators, %d rows at 0, %d edges from 0, %d vertices",
        label, len(rows), len(gens), len(at_zero), len(rays), len(pts),
    )
    return pts
