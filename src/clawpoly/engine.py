"""Exact polyhedral engine: V/H conversion, integral points, f-vectors.

The converter is a double description run over the rationals (integer
vectors after row scaling, so arithmetic never leaves Z). Both directions
reduce to one cone computation:

* vertices: homogenize a*x <= b as (-b, a).(x0, x) <= 0 plus the
  structural row x0 >= 0; rays with x0 > 0 scale to vertices.
* hull: a valid inequality a*x <= b is a point (-b, a) of the cone
  {y : y.(1, v_i) <= 0}; extreme rays are facets, lineality is the
  affine hull.

Lineality is absorbed on the fly (the run starts from R^n as a basis of
lines), and rays carry exact tight-set bitmasks over the input rows.
Adjacency is the combinatorial test (Fukuda & Prodon): a pair is adjacent
iff no third ray is tight on all of their common tight rows. A popcount
prefilter (common tight count >= n - |lines| - 2, forced by the rank of the
pair's minimal face) cuts most pairs first; the test runs bit-parallel on
the transposed incidence, one bitmask of tight ray ids per row, kept up to
date as rays are made and dropped and renumbered once dead ids outnumber
live ones. The hull reads its vertices and incidence off the same tight
sets, with no linear algebra.

The f-vector comes from that incidence alone (Kaibel & Pfetsch): the face
lattice is walked down one level at a time from the facets, a face's
facets being the maximal proper intersections with the polytope's facets,
so each face's dimension is its level.

The 0/1 points of a system come from one depth-first search over the
coordinates on the system's packed checks: every inequality is a lane of
one big int, so a node costs one add and one AND, and a subtree is cut as
soon as some row is violated by every completion.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import (
    DimensionError,
    InfeasibleError,
    ResourceCapError,
    UnboundedError,
)
from .rationals import canon
from .vertices import VertexSet

log = logging.getLogger("clawpoly.engine")

DEFAULT_MAX_DIM = 12
MAX_DIM_ENV = "CLAWPOLY_MAX_DIM"


def _normalize_int_vector(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g > 1:
        vec = tuple(x // g for x in vec)
    return tuple(vec)


def _scale_row_to_int(row):
    """Clear denominators of one rational row, preserving direction."""
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    return tuple(int(x * denom) for x in row)


def _dot(a, b):
    return sum(map(mul, a, b))


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks, nbits):
    """Per bit i < nbits, the bitmask of the positions k whose masks[k] has bit i."""
    cols = [bytearray((len(masks) + 7) >> 3) for _ in range(nbits)]
    for k, mask in enumerate(masks):
        byte, bit = k >> 3, 1 << (k & 7)
        for i in _bits(mask):
            cols[i][byte] |= bit
    return [int.from_bytes(c, "little") for c in cols]


def _dd_cone(rows, n, label):
    """Double description of {x in R^n : row . x <= 0 for each row}.

    Returns (lines, rays): integer basis vectors of the lineality space and
    the extreme rays of the pointed quotient, each ray paired with its
    tight-set bitmask over the input rows. Logs one summary line of counts
    under label.
    """
    lines = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays = []  # (vector, tight mask over rows, id)
    # transposed incidence: bit k of tight_on[i] is set iff the ray with id k
    # is tight on row i; ids are not reused until the next renumbering, and
    # alive has the bits of the current rays
    tight_on = [0] * len(rows)
    alive = 0
    next_id = 0
    peak = candidates = prefiltered = adjacent_pairs = 0
    for t, a in enumerate(rows):
        bit = 1 << t
        pivot = None
        for idx, l in enumerate(lines):
            if _dot(a, l):
                pivot = idx
                break
        if pivot is not None:
            # absorb one line: it leaves the lineality space and becomes the
            # ray pointing into the new halfspace; everything else is
            # projected onto the hyperplane along it
            lstar = lines.pop(pivot)
            s = _dot(a, lstar)
            r0 = lstar if s < 0 else tuple(-x for x in lstar)
            mag = abs(s)
            new_lines = []
            for l in lines:
                vl = _dot(a, l)
                if vl:
                    l = _normalize_int_vector(
                        tuple(s * x - vl * y for x, y in zip(l, lstar))
                    )
                new_lines.append(l)
            lines = new_lines
            new_rays = []
            for r, mask, rid in rays:
                vr = _dot(a, r)
                if vr:
                    r = _normalize_int_vector(
                        tuple(mag * x + vr * y for x, y in zip(r, r0))
                    )
                new_rays.append((r, mask | bit, rid))
            tight_on[t] = alive
            id_bit = 1 << next_id
            for i in range(t):  # tight on every earlier row, not on this one
                tight_on[i] |= id_bit
            alive |= id_bit
            new_rays.append((r0, bit - 1, next_id))
            next_id += 1
            rays = new_rays
            peak = max(peak, len(rays))
            continue
        plus = []  # violating side: a . r > 0
        zero = []
        minus = []
        plus_ids = zero_ids = 0
        for entry in rays:
            v = _dot(a, entry[0])
            if v > 0:
                plus.append((entry, v))
                plus_ids |= 1 << entry[2]
            elif v < 0:
                minus.append((entry, v))
            else:
                zero.append(entry)
                zero_ids |= 1 << entry[2]
        tight_on[t] = zero_ids
        if not plus:
            rays = [(r, mask | bit, rid) for r, mask, rid in zero] + [e for e, _ in minus]
            continue
        candidates += len(plus) * len(minus)
        threshold = n - len(lines) - 2
        minus_masks = [e[1] for e, _ in minus]
        combined = []
        for (rp, mp, ip), vp in plus:
            hits = [
                j for j, mm in enumerate(minus_masks)
                if (mp & mm).bit_count() >= threshold
            ]
            prefiltered += len(hits)
            for j in hits:
                (rm, mm, im), vm = minus[j]
                common = mp & mm
                # adjacent iff no third alive ray is tight on every row of common
                pair = 1 << ip | 1 << im
                survivors = alive
                rest = common
                while rest:
                    low = rest & -rest
                    survivors &= tight_on[low.bit_length() - 1]
                    if survivors == pair:
                        break
                    rest ^= low
                if survivors != pair:
                    continue
                vec = _normalize_int_vector(
                    tuple(vp * x - vm * y for x, y in zip(rm, rp))
                )
                combined.append((vec, common | bit))
        alive ^= plus_ids
        rays = [(r, mask | bit, rid) for r, mask, rid in zero] + [e for e, _ in minus]
        for vec, mask in combined:
            id_bit = 1 << next_id
            for i in _bits(mask):
                tight_on[i] |= id_bit
            alive |= id_bit
            rays.append((vec, mask, next_id))
            next_id += 1
        if next_id > 2 * len(rays):
            # dead ids outnumber live ones: renumber, so that the masks stay
            # about as wide as the ray list (amortized over the rays made)
            rays = [(r, mask, k) for k, (r, mask, _) in enumerate(rays)]
            tight_on = _transpose([mask for _, mask, _ in rays], len(rows))
            next_id = len(rays)
            alive = (1 << next_id) - 1
        adjacent_pairs += len(combined)
        peak = max(peak, len(rays))
        log.info(
            "%s: row %d/%d, %d rays, %d lines",
            label, t + 1, len(rows), len(rays), len(lines),
        )
    log.info(
        "%s: %d rows, %d rays at peak, %d candidate pairs, %d past prefilter, %d adjacent",
        label, len(rows), peak, candidates, prefiltered, adjacent_pairs,
    )
    return lines, [(r, mask) for r, mask, _ in rays]


@dataclass(frozen=True)
class PolytopeDD:
    """Double description of a polytope.

    facets are pairs (a, b) meaning a . x <= b with coprime integer
    entries; equations cut out the affine hull (empty when full-
    dimensional); incidence[f] is a bitmask with vertex bit v set iff
    vertex v is tight on facet f.
    """

    dimension: int
    vertices: tuple
    facets: tuple
    equations: tuple
    incidence: tuple

    def homogenized_rows(self):
        rows = [(-b,) + tuple(a) for a, b in self.facets]
        for a, b in self.equations:
            rows.append((-b,) + tuple(a))
            rows.append((b,) + tuple(-x for x in a))
        return rows


@dataclass(frozen=True)
class FVector:
    counts: tuple
    complete: bool


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    only_a: tuple
    only_b: tuple
    checked_a: int
    checked_b: int


def _dimension_cap(max_dim):
    """max_dim, else CLAWPOLY_MAX_DIM, else 12; a cap below 1 is refused."""
    if max_dim is not None:
        source, cap = "max_dim", max_dim
    else:
        raw = os.environ.get(MAX_DIM_ENV)
        if raw is None:
            return DEFAULT_MAX_DIM
        try:
            source, cap = MAX_DIM_ENV, int(raw)
        except ValueError:
            raise ResourceCapError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ResourceCapError(f"{source} must be at least 1, got {cap}")
    return cap


def _source_rows(source):
    if hasattr(source, "homogenized_rows"):
        return list(source.homogenized_rows())
    raise DimensionError(f"cannot read inequalities from {type(source).__name__}")


def vertices_from_inequalities(source, max_dim=None) -> VertexSet:
    """Exact vertex enumeration of a bounded inequality system.

    source is an InequalitySystem or PolytopeDD. The dimension cap defaults
    to 12 and is overridden by max_dim or the CLAWPOLY_MAX_DIM environment
    variable. The run logs its progress per inserted row and a summary of
    the DD counts at INFO level.
    """
    d = source.dimension
    cap = _dimension_cap(max_dim)
    if d > cap:
        raise ResourceCapError(
            f"dimension {d} exceeds cap {cap}; raise {MAX_DIM_ENV} or max_dim to override"
        )
    rows = [_scale_row_to_int(r) for r in _source_rows(source)]
    # deterministic insertion order: sort by the (b, -a) file representation
    rows.sort(key=lambda r: tuple(-x for x in r))
    structural = tuple([-1] + [0] * d)
    rows.insert(0, structural)
    label = f"vertices[{getattr(source, 'model', '')} d={d}]"
    lines, rays = _dd_cone(rows, d + 1, label)
    points = []
    recession = False
    for r, _ in rays:
        if r[0] > 0:
            points.append(tuple(canon(Fraction(x, r[0])) for x in r[1:]))
        else:
            recession = True
    if not points:
        raise InfeasibleError("inequality system has no solutions")
    if recession or lines:
        raise UnboundedError("polyhedron is unbounded; vertex set is not complete")
    points = sorted(set(points))
    shape = getattr(source, "shape", (d,))
    return VertexSet(dimension=d, shape=shape, points=tuple(points))


def _canonical_equation(a, b):
    vec = _normalize_int_vector(tuple(a) + (b,))
    lead = next((x for x in vec if x), 0)
    if lead < 0:
        vec = tuple(-x for x in vec)
    return vec[:-1], vec[-1]


def hull_from_vertices(points) -> PolytopeDD:
    """Convex hull: irredundant facets, affine-hull equations, incidence.

    Accepts a VertexSet or an iterable of rational point tuples; duplicates
    are removed. Each facet's tight points come from its ray's tight set. A
    point is a vertex of the hull iff no other input point lies on every
    facet it lies on: otherwise its minimal face has a second vertex, and
    that vertex is an input point.
    """
    if hasattr(points, "points"):
        pts = list(points.points)
    else:
        pts = [tuple(canon(x) for x in p) for p in points]
    if not pts:
        raise InfeasibleError("hull of an empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionError("points of mixed dimension")
    pts = sorted(set(pts))
    scaled = [_scale_row_to_int((1,) + p) for p in pts]
    order = sorted(range(len(pts)), key=scaled.__getitem__)  # row -> point
    lines, rays = _dd_cone(
        [scaled[i] for i in order], d + 1, f"hull[d={d} points={len(pts)}]"
    )
    facet_rays = []
    for y, mask in rays:
        a = y[1:]
        if any(a):
            # the full ray (-b, a) is already coprime
            facet_rays.append(((tuple(a), -y[0]), mask))
    facet_rays.sort()
    facets = [f for f, _ in facet_rays]
    equations = sorted(_canonical_equation(l[1:], -l[0]) for l in lines)
    on_facets = [0] * len(pts)  # per point: bitmask of the facets through it
    for row, fmask in enumerate(_transpose([mask for _, mask in facet_rays], len(pts))):
        on_facets[order[row]] = fmask
    vertex_ids = [
        i for i, fi in enumerate(on_facets)
        if not any(fj & fi == fi for j, fj in enumerate(on_facets) if j != i)
    ]
    incidence = _transpose([on_facets[i] for i in vertex_ids], len(facets))
    return PolytopeDD(
        dimension=d,
        vertices=tuple(pts[i] for i in vertex_ids),
        facets=tuple(facets),
        equations=tuple(equations),
        incidence=tuple(incidence),
    )


def _vertex_points(obj):
    if isinstance(obj, PolytopeDD):
        return obj.dimension, set(obj.vertices)
    if hasattr(obj, "points"):
        return obj.dimension, set(obj.points)
    raise DimensionError(f"cannot read vertices from {type(obj).__name__}")


def equal_polytopes(a, b) -> EqualityReport:
    """Exact vertex-set comparison of two polytopes (PolytopeDD or VertexSet)."""
    dim_a, pts_a = _vertex_points(a)
    dim_b, pts_b = _vertex_points(b)
    if dim_a != dim_b:
        raise DimensionError(f"dimension mismatch: {dim_a} != {dim_b}")
    only_a = tuple(sorted(pts_a - pts_b))
    only_b = tuple(sorted(pts_b - pts_a))
    return EqualityReport(
        equal=not only_a and not only_b,
        only_a=only_a,
        only_b=only_b,
        checked_a=len(pts_a),
        checked_b=len(pts_b),
    )


def enumerate_integral_points(system) -> list:
    """All 0/1 points of a model system, in lexicographic order.

    One depth-first search over coordinates 0..d-1, 0 before 1, so points
    come out sorted. The running sum t packs a.x + base for every row in
    the lanes of ``InequalitySystem._pack_binary_checks``; a node at depth k
    is cut iff some lane of ``t - neg_suffix[k]`` (its least value over all
    completions) has its top bit set, which at k = d is the exact test.
    """
    d = system.dimension
    delta = system._lane_delta
    suffix = system._lane_neg_suffix
    top = system._lane_top
    point = [0] * d
    out = []
    nodes = 0

    def descend(k, t):
        nonlocal nodes
        nodes += 1
        if (t - suffix[k]) & top:
            return
        if k == d:
            out.append(tuple(point))
            return
        descend(k + 1, t)
        point[k] = 1
        descend(k + 1, t + delta[k])
        point[k] = 0

    descend(0, system._lane_base)
    log.info(
        "integral points[%s d=%d]: %d checks, %d nodes, %d points",
        system.model, d, len(system._lane_ids), nodes, len(out),
    )
    return out


DEFAULT_MAX_FACES = 200_000


def f_vector(poly: PolytopeDD, max_faces: int = DEFAULT_MAX_FACES) -> FVector:
    """Face counts (f_0, ..., f_{dim-1}) from the vertex-facet incidence.

    The face lattice is walked downward one level at a time, starting from
    the facets at level dim - 1, with dim = dimension - len(equations). The
    faces one level below a face F are its facets: the maximal sets among
    the nonempty F & facet masks that differ from F. So each face's
    dimension is the level it was found on, and no face is ranked. A level
    is counted only while the running total stays within max_faces; past
    that the walk stops with complete=False, and the levels below the last
    counted one read 0. Logs one line per level and a total at INFO level.
    """
    facet_masks = poly.incidence
    counts = [0] * (poly.dimension - len(poly.equations))
    level = set(facet_masks)
    total = 0
    complete = True
    for k in reversed(range(len(counts))):
        if total + len(level) > max_faces:
            complete = False
            break
        counts[k] = len(level)
        total += len(level)
        log.info("f_vector: dim %d, %d faces", k, len(level))
        below = set()
        for face in level:
            subs = {face & fm for fm in facet_masks} - {0, face}
            # a strict superset has more bits, so it is kept before its subsets
            kept = []
            for sub in sorted(subs, key=int.bit_count, reverse=True):
                if all(sub & top != sub for top in kept):
                    kept.append(sub)
            below.update(kept)
            if total + len(below) > max_faces:
                break
        level = below
    log.info("f_vector: %d faces, complete=%s", total, complete)
    return FVector(tuple(counts), complete)
