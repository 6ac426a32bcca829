"""Exact polyhedral engine: V/H conversion, integral points, f-vectors.

The converter is a double description run over the rationals (integer
vectors after row scaling, so arithmetic never leaves Z). Both directions
reduce to one cone computation:

* vertices: the rows a*x <= b of an InequalitySystem, homogenized as
  (-b, a).(x0, x) <= 0 (its homogenized_rows), plus the structural row
  x0 >= 0; rays with x0 > 0 scale to vertices.
* hull: a valid inequality a*x <= b is a point (-b, a) of the cone
  {y : y.(1, v_i) <= 0}; extreme rays are facets, lineality is the
  affine hull.

Each direction inserts its rows in one fixed order. Vertices use
_insertion_key: fewest nonzero entries first, ties lexicographically
largest first, with x0 >= 0 ahead of all. The hull uses _face_first_order,
read off the point set alone: a chain of ever smaller faces, each the
points of the last that minimise one more coordinate, fixes a coordinate
order, and the points are sorted lexicographically in it, so every face of
the chain is a prefix and the DD builds it up one face at a time. The
outputs are sorted, so neither rule changes any output or artifact, only
the time and the per-row progress log; the time it can change by orders
of magnitude (Fukuda & Prodon; Avis, Bremner & Seidel).

Lineality is absorbed on the fly (the run starts from R^n as a basis of
lines), and rays carry exact tight-set bitmasks over the input rows. Rays
are known by ids, renumbered once dead ids outnumber live ones and before
the lanes are widened (so a widening repacks live rays only), and no
per-ray loop runs to classify them against a row: each coordinate is one
int holding that coordinate of every ray in a fixed-width lane per id
(see ``lanes``), so a row's a . r for all rays is about n big-int
multiply-adds, and two reads of the lanes' top bits give the ids on each
side of the hyperplane. One at a time, a row touches only the rays it
makes tight (to mark the row in their masks), the violating rays and their
candidate partners, and, on a row that absorbs a line, the rays it moves.

Adjacency is the combinatorial test (Fukuda & Prodon): a pair is adjacent
iff no third ray is tight on all of their common tight rows. It runs
bit-parallel on the transposed incidence, one bitmask of tight ray ids per
row. Candidate pairs are prefiltered by the rank of the pair's minimal
face (common tight count >= n - |lines| - 2), counted for all partners of
a violating ray at once: its tight rows' incidence bitmasks are summed
into bit-sliced counters. The hull reads its vertices and incidence off
the same tight sets, with no linear algebra.

The f-vector comes from that incidence alone (Kaibel & Pfetsch): the face
lattice is walked down one level at a time from the facets, a face's
facets being the maximal proper intersections with the polytope's facets,
so each face's dimension is its level. Maximality is not tested pair by
pair but by counting: H = F & G is a facet of F iff the number of facets
G giving exactly H equals |omega(H)| - |omega(F)|, where omega(X) is the
set of facets containing X, read off the vertex -> facets transpose once
per distinct face.

The 0/1 points of a system come from one depth-first search over the
coordinates on the system's packed checks: every inequality is a lane of
one big int, so a node costs one add and one AND, and a subtree is cut as
soon as some row is violated by every completion.
"""

from __future__ import annotations

import logging
import os
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import (
    DimensionError,
    InfeasibleError,
    ResourceCapError,
    UnboundedError,
)
from .lanes import bits, lane_tops, pack_lanes
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


def _insertion_key(row):
    """DD insertion order: sparsest rows first, ties lexicographically largest first."""
    return len(row) - row.count(0), tuple(-x for x in row)


def _face_first_order(pts):
    """Hull insertion order: the indices of the distinct points pts, face by face.

    The leading class starts as every point. It shrinks, one coordinate at
    a time, to its points at the least value of the unused coordinate whose
    least value the fewest of them reach (ties: lowest index), until one
    point is left; the unused coordinates follow in index order. Sorting the
    points lexicographically in that coordinate order makes every leading
    class a prefix, and each is a face of the hull of the one before it.
    """
    unused = list(range(len(pts[0])))
    coords = []
    lead = pts
    while len(lead) > 1:
        fewest = None
        for j in unused:
            low = min(p[j] for p in lead)
            at = [p for p in lead if p[j] == low]
            if fewest is None or len(at) < len(fewest):
                fewest, pick = at, j
        lead = fewest
        coords.append(pick)
        unused.remove(pick)
    coords += unused
    return sorted(range(len(pts)), key=lambda i: [pts[i][j] for j in coords])


def _transpose(masks, nbits):
    """Per bit i < nbits, the bitmask of the positions k whose masks[k] has bit i.

    Every mask is below 2^nbits. The masks are read in blocks of about
    2^18 binary digits, so the strings stay small: in one string of a
    block's digits, last mask first, nbits digits each, the block's part of
    bitmask i is every nbits-th character from the digit of bit i on.
    """
    cols = [0] * nbits
    step = max(1, (1 << 18) // max(nbits, 1))
    for start in range(0, len(masks), step):
        block = reversed(masks[start:start + step])
        digits = "".join([format(mask, f"0{nbits}b") for mask in block])
        for i in range(nbits):
            cols[i] |= int(digits[nbits - 1 - i::nbits], 2) << start
    return cols


def _lane_layout(big, norm_bits):
    """Lane width in bits (whole bytes) and shift for coordinates up to big.

    The shift is a power of two >= big, so each stored r[j] + shift lies in
    [0, 2 * shift]. With every row's 1-norm below 2^norm_bits, shift * norm
    < 2^(width - 1), so a . r + 2^(width - 1) lies in (0, 2^width) for every
    row a and ray r. The width steps by whole bytes, so each widening grows
    the shift at least 256-fold.
    """
    width = -(-(big.bit_length() + 1 + norm_bits) // 8) * 8
    return width, 1 << (width - 1 - norm_bits)


def _columns(vecs, n, shift, width):
    """Per coordinate j < n, the int whose lane k holds vecs[k][j] + shift."""
    return [pack_lanes([v[j] + shift for v in vecs], width) for j in range(n)]


def _at_least(k, rows, tight_on, among):
    """The ids in among that are tight on at least k of the rows in the mask rows.

    Bit-sliced counting over those rows: planes[l] holds bit l of every
    id's count, started at 2^b - k so that a count reaches k exactly when
    it carries out of the top plane, and done keeps those carries.
    """
    if k <= 0:
        return among
    if rows.bit_count() < k:
        return 0
    b = (k - 1).bit_length()
    start = (1 << b) - k
    levels = range(b)
    planes = [among if start >> l & 1 else 0 for l in levels]
    done = 0
    for i in bits(rows):
        carry = tight_on[i] & among
        for l in levels:
            if not carry:
                break
            plane = planes[l]
            planes[l] = plane ^ carry
            carry &= plane
        else:
            done |= carry
    return done


def _dd_cone(rows, n, label):
    """Double description of {x in R^n : row . x <= 0 for each row}.

    Returns (lines, rays): integer basis vectors of the lineality space and
    the extreme rays of the pointed quotient, each ray paired with its
    tight-set bitmask over the input rows. Logs one summary line of counts
    and one of the lane layout under label.
    """
    lines = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    # rays by id: vector and tight mask over rows; alive has the bits of the
    # current ids, and ids are not reused until the next renumbering
    vecs = []
    masks = []
    alive = 0
    # transposed incidence: bit k of tight_on[i] is set iff ray k is tight on row i
    tight_on = [0] * len(rows)
    # coordinates as lanes: lane k of cols[j] holds vecs[k][j] + shift
    norm_bits = max(max(sum(map(abs, a)) for a in rows), 1).bit_length()
    width, shift = _lane_layout(1, norm_bits)
    cols = [0] * n
    peak = candidates = prefiltered = adjacent_pairs = rebuilds = renumbers = widens = 0
    for t, a in enumerate(rows):
        bit = 1 << t
        # lane k of acc is a . vecs[k] + 2^(width - 1): its top bit is set
        # iff a . r >= 0, and that of acc - ones iff a . r > 0
        ones = ((1 << (width * len(vecs))) - 1) // ((1 << width) - 1)
        acc = ((1 << (width - 1)) - shift * sum(a)) * ones
        for c, col in zip(a, cols):
            if c:
                acc += c * col
        nonneg = lane_tops(acc, len(vecs), width) & alive
        plus_ids = lane_tops(acc - ones, len(vecs), width) & alive
        zero_ids = nonneg ^ plus_ids
        new = []  # (vector, tight mask) of the rays made on this row
        pivot = next((idx for idx, l in enumerate(lines) if _dot(a, l)), None)
        if pivot is not None:
            # absorb one line: it leaves the lineality space and becomes the
            # ray pointing into the new halfspace; every other line and ray
            # is projected onto the hyperplane along it
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
            dead = alive ^ zero_ids  # each moved ray is made anew
            for k in bits(dead):
                r = vecs[k]
                vr = _dot(a, r)
                new.append((
                    _normalize_int_vector(tuple(mag * x + vr * y for x, y in zip(r, r0))),
                    masks[k] | bit,
                ))
            new.append((r0, bit - 1))  # tight on every earlier row, not on this one
        else:
            dead = plus_ids  # violating side: a . r > 0
            if plus_ids:
                minus_ids = alive ^ nonneg
                candidates += plus_ids.bit_count() * minus_ids.bit_count()
                threshold = n - len(lines) - 2
                for p in bits(plus_ids):
                    rp, mp = vecs[p], masks[p]
                    vp = _dot(a, rp)
                    hits = _at_least(threshold, mp, tight_on, minus_ids)
                    prefiltered += hits.bit_count()
                    for q in bits(hits):
                        common = mp & masks[q]
                        # adjacent iff no third alive ray is tight on every row of common
                        pair = 1 << p | 1 << q
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
                        rm = vecs[q]
                        vm = _dot(a, rm)
                        new.append((
                            _normalize_int_vector(tuple(vp * x - vm * y for x, y in zip(rm, rp))),
                            common | bit,
                        ))
                adjacent_pairs += len(new)
        for k in bits(zero_ids):
            masks[k] |= bit
        tight_on[t] = zero_ids
        alive ^= dead
        if new:
            first = len(vecs)
            for k, (vec, mask) in enumerate(new, first):
                vecs.append(vec)
                masks.append(mask)
                id_bit = 1 << k
                for i in bits(mask):
                    tight_on[i] |= id_bit
            alive |= ((1 << len(new)) - 1) << first
            batch = [vec for vec, _ in new]
            big = max(map(abs, chain.from_iterable(batch)))
            widen = big > shift
            if widen:
                width, shift = _lane_layout(big, norm_bits)
            else:
                for j, col in enumerate(_columns(batch, n, shift, width)):
                    cols[j] |= col << (first * width)
        else:
            widen = False
        # renumber once dead ids outnumber live ones, so that the masks and
        # lanes stay about as wide as the ray set (amortized over the rays
        # made), and before a widening, so that it repacks live rays only
        renumber = len(vecs) > 2 * alive.bit_count()
        if renumber or widen and len(vecs) > alive.bit_count():
            live = list(bits(alive))
            vecs = [vecs[k] for k in live]
            masks = [masks[k] for k in live]
            tight_on = _transpose(masks, len(rows))
            alive = (1 << len(live)) - 1
            renumbers += 1
        if widen or renumber:
            cols = _columns(vecs, n, shift, width)
            rebuilds += 1
            widens += widen
        peak = max(peak, alive.bit_count())
        log.info(
            "%s: row %d/%d, %d rays, %d lines",
            label, t + 1, len(rows), alive.bit_count(), len(lines),
        )
    log.info(
        "%s: %d rows, %d rays at peak, %d candidate pairs, %d past prefilter, %d adjacent",
        label, len(rows), peak, candidates, prefiltered, adjacent_pairs,
    )
    log.info(
        "%s: %d-byte lanes, %d column rebuilds (%d renumber, %d widen)",
        label, width // 8, rebuilds, renumbers, widens,
    )
    return lines, [(vecs[k], masks[k]) for k in bits(alive)]


class PolytopeDD(NamedTuple):
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


class FVector(NamedTuple):
    counts: tuple
    complete: bool


class EqualityReport(NamedTuple):
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


def check_dimension(d, max_dim=None) -> None:
    """Refuse a double description in dimension d above the cap."""
    cap = _dimension_cap(max_dim)
    if d > cap:
        raise ResourceCapError(
            f"dimension {d} exceeds cap {cap}; raise {MAX_DIM_ENV} or max_dim to override"
        )


def vertices_from_inequalities(system, max_dim=None) -> VertexSet:
    """Exact vertex enumeration of a bounded InequalitySystem.

    The dimension cap defaults to 12 and is overridden by max_dim or the
    CLAWPOLY_MAX_DIM environment variable. The run logs its progress per
    inserted row and a summary of the DD counts at INFO level.
    """
    d = system.dimension
    check_dimension(d, max_dim)
    rows = system.homogenized_rows()
    rows.sort(key=_insertion_key)
    structural = tuple([-1] + [0] * d)
    rows.insert(0, structural)
    label = f"vertices[{system.model} d={d}]"
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
    return VertexSet(dimension=d, shape=system.shape, points=tuple(points))


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
    point is a vertex of the hull iff it is the only input point on every
    facet it lies on, one AND of those facets' tight sets: otherwise its
    minimal face has a second vertex, and that vertex is an input point.
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
    order = _face_first_order(pts)  # row -> point
    lines, rays = _dd_cone(
        [_scale_row_to_int((1,) + pts[i]) for i in order], d + 1,
        f"hull[d={d} points={len(pts)}]",
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
    row_masks = [mask for _, mask in facet_rays]  # per facet: the rows tight on it
    on_facets = [0] * len(pts)  # per point: bitmask of the facets through it
    vertex_ids = []
    every_row = (1 << len(pts)) - 1
    for row, fmask in enumerate(_transpose(row_masks, len(pts))):
        on_facets[order[row]] = fmask
        common = every_row  # the rows on every facet through this one
        for f in bits(fmask):
            common &= row_masks[f]
        if common == 1 << row:
            vertex_ids.append(order[row])
    vertex_ids.sort()
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
    the lanes of ``InequalitySystem.binary_checks``; a node at depth k
    is cut iff some lane of ``t - neg_suffix[k]`` (its least value over all
    completions) has its top bit set, which at k = d is the exact test.
    """
    d = system.dimension
    checks = system.binary_checks
    delta, suffix, top = checks.delta, checks.neg_suffix, checks.top
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

    descend(0, checks.base)
    log.info(
        "integral points[%s d=%d]: %d checks, %d nodes, %d points",
        system.model, d, len(checks.ids), nodes, len(out),
    )
    return out


DEFAULT_MAX_FACES = 200_000


def f_vector(poly: PolytopeDD, max_faces: int = DEFAULT_MAX_FACES) -> FVector:
    """Face counts (f_0, ..., f_{dim-1}) from the vertex-facet incidence.

    The face lattice is walked downward one level at a time, starting from
    the facets at level dim - 1, with dim = dimension - len(equations). The
    faces one level below a face F are its facets, found by Kaibel and
    Pfetsch's counting test: with omega(X) the set of facets containing X,
    a nonempty H = F & G other than F is a facet of F iff exactly
    |omega(H)| - |omega(F)| facets G give F & G == H (every facet in
    omega(H) but not in omega(F) gives a face of F containing H, and all of
    them give H itself iff no face of F lies strictly between). |omega| is
    computed once per distinct face of a level from the vertex -> facets
    transpose, so each face's dimension is the level it was found on, and no
    face is ranked. A level is counted only while the running total stays
    within max_faces; past that the walk stops with complete=False, and the
    levels below the last counted one read 0. Logs one line per level and a
    total at INFO level.
    """
    facet_masks = poly.incidence
    counts = [0] * (poly.dimension - len(poly.equations))
    on_facets = _transpose(facet_masks, len(poly.vertices))  # vertex -> facets through it
    every_facet = (1 << len(facet_masks)) - 1

    def omega_count(face):
        common = every_facet
        while face:
            low = face & -face
            common &= on_facets[low.bit_length() - 1]
            face ^= low
        return common.bit_count()

    level = {face: omega_count(face) for face in facet_masks}  # face -> |omega(face)|
    total = 0
    complete = True
    for k in reversed(range(len(counts))):
        if total + len(level) > max_faces:
            complete = False
            break
        counts[k] = len(level)
        total += len(level)
        log.info("f_vector: dim %d, %d faces", k, len(level))
        below = {}
        seen = {}  # |omega| of every candidate met on this level
        for face, omega in level.items():
            hits = {}  # F & G -> the number of facets G giving it
            for fm in facet_masks:
                sub = face & fm
                hits[sub] = hits.get(sub, 0) + 1
            hits.pop(face, None)
            hits.pop(0, None)
            for sub, n in hits.items():
                count = seen.get(sub)
                if count is None:
                    count = seen[sub] = omega_count(sub)
                if n == count - omega:
                    below[sub] = count
            if total + len(below) > max_faces:
                break
        level = below
    log.info("f_vector: %d faces, complete=%s", total, complete)
    return FVector(tuple(counts), complete)
