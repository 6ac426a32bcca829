"""The hull of a claw polytope from the cone at one vertex and its translates.

The consistent labelings of a claw tree form the group G^(m-1) under
leafwise +, which acts on the polytope's vertices by translation
(vertices.translation_generators, vertices.pull_back) and maps facets to
facets. So the double description runs only on the cone at vertex 0, whose
rays are the facets through 0, and every other facet is one of their
translates: the adjacency decomposition of Bremner, Dutour Sikirić &
Schürmann ("Polyhedral representation conversion up to symmetries", 2009).
The cone takes its rows in _insertion_key order, which puts the vertices
with the fewest non-identity leaves first; on K(8) that is about three
times faster than _face_first_order, with the same rays.

A claw polytope (m >= 3) is full-dimensional, so it has no equations: a
linear form that vanishes on every vertex restricts, on any three leaves,
to a(x, i) + a(y, j) + a(-x-y, k) = 0 for all x, y in G, which makes each
a(., leaf) an additive map of the finite group G into the rationals, that
is 0.

engine.hull_from_vertices loads this module only when it is given a group.
"""

from __future__ import annotations

from .engine import _dd_cone, _insertion_key, log
from .errors import ConfigurationError
from .lanes import byte_width, lane_signs, pack_lanes
from .vertices import generate_vertices, pull_back, translation_generators


def orbit_facets(pts, group):
    """(facets, incidence) of the claw polytope whose vertices are exactly
    pts, sorted, from the cone at vertex 0, as PolytopeDD holds them.

    The facets through 0 are the rays of the DD on the rows v - 0 = v, in
    _insertion_key order. The translations act transitively on the vertices
    and map facets to facets, so every facet is a translate of one through
    0: the rays' orbit under translation_generators, by pull_back, breadth
    first. One lane evaluation of a facet over all points gives its incidence
    and certifies it: a point above it is an internal error.

    The cone has no lines, as the polytope is full-dimensional (module
    docstring), so the rays are the facets' normals.
    """
    d = len(pts[0])
    shape = f"[d={d} points={len(pts)}]"
    m, rem = divmod(d, group.size - 1)
    if rem or m < 3 or pts != sorted(generate_vertices(group, m).points):
        raise ConfigurationError(
            f"hull with group {group.name()}: the points are not the vertices of "
            f"its claw polytope"
        )
    rows = sorted((p for p in pts if any(p)), key=_insertion_key)
    _, rays = _dd_cone(rows, d, f"hull cone{shape}")
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
    # lane k of cols[i] holds pts[k][i], so lane k of a row's sum is a . pts[k] - b
    norm = max(sum(map(abs, a)) + abs(b) for a, b in facets)
    width = byte_width(norm)
    cols = [pack_lanes([p[i] for p in pts], width) for i in range(d)]
    ones = pack_lanes([1] * len(pts), width)
    masks = []
    for a, b in facets:
        acc = ((1 << (width - 1)) - b) * ones
        for c, col in zip(a, cols):
            if c:
                acc += c * col
        at_least, above = lane_signs(acc, len(pts), width)
        if above:
            raise ConfigurationError(f"hull orbit{shape}: row {a} <= {b} cuts off a vertex")
        masks.append(at_least)
    return facets, masks
