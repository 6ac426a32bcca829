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
* hull of a claw polytope, given its group: the cone {a : a.v <= 0} over
  the atoms v (the minimal zero-sum labelings) gives the facets through 0;
  their translates are all the facets, each certified leaf by leaf, and
  the points are the vertices (see ``orbit``).
* vertices of a claw polytope, given its group: the cone {x : a.x <= 0}
  of the rows with b = 0 gives the edges from vertex 0. When every b >= 0,
  the rows are invariant under translation and every edge from 0 ends at
  an atom, the generated vertices are the vertices; else the first
  bullet runs (see ``orbit``).

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
multiply-adds, and one byte pass over the lanes (``lanes.lane_signs``)
gives the ids on each side of the hyperplane. One at a time, a row touches
only the rays it makes tight (to mark the row in their masks), the
violating rays and their candidate partners, and, on a row that absorbs a
line, the rays it moves. The rays a row makes enter the incidence together,
one OR per row of the transpose of their masks.

Adjacency is the combinatorial test (Fukuda & Prodon): a pair is adjacent
iff no third ray is tight on all of their common tight rows. It runs
bit-parallel on the transposed incidence, one bitmask of tight ray ids per
row. Candidate pairs are prefiltered by the rank of the pair's minimal
face (common tight count >= n - |lines| - 2), counted one of two ways for
each violating ray (_tight_partners). With fewer than 10 rays on the minus
side per tight row of the violating ray, each partner costs one popcount of
the AND of the two tight masks; with more, all partners are counted at
once, the ray's tight rows' incidence bitmasks summed into bit-sliced
counters. Most pairs past the prefilter are not adjacent,
and the walk that shows it ends on such a third ray, a witness. Each
violating ray keeps the witnesses found against its earlier partners, and
a later partner is settled without a walk when one of them other than the
partner itself is tight on all the pair's common rows: one subset test of
tight masks (a superset query, as in Terzer & Stelling's bit-pattern
trees). The hull reads its vertices off the same tight sets, with no
linear algebra.

The f-vector comes from the vertex-facet incidence alone, which it builds
for the facets it walks (Kaibel & Pfetsch): the face lattice is walked
down one level at a time from the facets, a face's facets being the
maximal proper intersections with the polytope's facets, so each face's
dimension is its level. Maximality is not tested pair by pair but by
counting: H = F & G is a facet of F iff the number of facets G giving
exactly H equals |omega(H)| - |omega(F)|, where omega(X) is the set of
facets containing X, read off the vertex -> facets transpose once
per distinct face. Given the group of a claw polytope, the walk keeps the
facets through vertex 0 and counts only the faces through it, each
standing for |V| / |vert F| faces by vertex transitivity; each level's
count must be an integer, and a complete f-vector must satisfy Euler's
relation.

The 0/1 points of a system come from one depth-first search over the
coordinates on the system's membership lanes at the 0/1 width: every
inequality is a lane of one big int, so a node costs one add and one AND,
and a subtree is cut as soon as some row is violated by every completion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, pairwise
from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import (
    ConfigurationError,
    DimensionError,
    InfeasibleError,
    InfoLog,
    UnboundedError,
    check_dimension,
)
from .lanes import bits, byte_width, lane_signs, pack_lanes
from .rationals import ScaledPoint, canon, scale_to_ints
from .vertices import VertexSet

log = InfoLog("clawpoly.engine")


def _normalize_int_vector(vec):
    g = gcd(*vec)
    if g > 1:
        vec = tuple(x // g for x in vec)
    return tuple(vec)


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
    width = byte_width(big << norm_bits)
    return width, 1 << (width - 1 - norm_bits)


def _columns(vecs, n, shift, width):
    """Per coordinate j < n, the int whose lane k holds vecs[k][j] + shift."""
    return [pack_lanes([v[j] + shift for v in vecs], width) for j in range(n)]


def _at_least(k, rows, tight_on, among):
    """The ids in among that are tight on at least k of the rows in the mask rows.

    Bit-sliced counting over those rows: planes[l] holds bit l of every
    id's count, started at 2^b - k so that a count reaches k exactly when
    it carries out of the top plane, and done keeps those carries; k >= 1.
    """
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


# One popcount per partner costs a few operations on two masks as wide as
# the rows; the bit-sliced counters cost a pass per row of mask_p over ints
# as wide as the ray ids, so they win once the minus side is large against
# |mask_p|. Both timed on every call, CPU s, bit-sliced / per partner / this
# rule / the faster of the two on each call (one 2-CPU host): K(5) hull
# 0.161 / 0.063 / 0.063 / 0.061, K(6) hull 3.75 / 6.21 / 3.18 / 3.11,
# kimura3 m=5 0.052 / 0.199 / 0.052 / 0.052, kimura3 m=6 0.483 / 4.43 /
# 0.483 / 0.483, demicube m=11 0.019 / 0.823 / 0.019 / 0.019.
_PARTNERS_PER_ROW = 10


def _tight_partners(k, mp, minus_ids, minus, masks, tight_on):
    """(hits, how): the ids q in minus_ids with (mp & masks[q]).bit_count() >= k.

    how is 0 when no counting is needed (k <= 0 gives all of minus_ids,
    fewer than k rows in mp gives none), 1 when each partner is counted with
    one popcount, which is chosen while minus_ids has fewer than
    _PARTNERS_PER_ROW ids per row of mp, and 2 for the bit-sliced counters of
    _at_least. minus is the list of (id bit, mask) of minus_ids: pass an
    empty list, and the first popcount call fills it for the later calls on
    the same minus_ids.
    """
    if k <= 0:
        return minus_ids, 0
    rows = mp.bit_count()
    if rows < k:
        return 0, 0
    if minus_ids.bit_count() >= _PARTNERS_PER_ROW * rows:
        return _at_least(k, mp, tight_on, minus_ids), 2
    if not minus:
        minus += [(1 << q, masks[q]) for q in bits(minus_ids)]
    return sum([low_q for low_q, mq in minus if (mp & mq).bit_count() >= k]), 1


def _dd_cone(rows, n, label):
    """Double description of {x in R^n : row . x <= 0 for each row}.

    Returns (lines, rays): integer basis vectors of the lineality space and
    the extreme rays of the pointed quotient, each ray paired with its
    tight-set bitmask over the input rows. Logs one summary line of counts,
    one of the lane layout, one of the adjacency work and one of how the
    violating rays' partners were counted under label.
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
    norm_bits = max([1, *(sum(map(abs, a)) for a in rows)]).bit_length()
    width, shift = _lane_layout(1, norm_bits)
    cols = [0] * n
    peak = candidates = prefiltered = adjacent_pairs = rebuilds = renumbers = widens = 0
    steps = settled = 0
    counted = [0, 0, 0]  # violating rays by how _tight_partners found their partners
    for t, a in enumerate(rows):
        bit = 1 << t
        count = len(vecs)
        # lane k of acc is a . vecs[k] + 2^(width - 1), so its sign is that of a . r
        ones = int.from_bytes(b"\1".ljust(width >> 3, b"\0") * count, "little")
        acc = ((1 << (width - 1)) - shift * sum(a)) * ones
        for c, col in zip(a, cols):
            if c:
                acc += c * col
        nonneg, plus_ids = lane_signs(acc, count, width)
        nonneg &= alive
        plus_ids &= alive
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
                minus = []  # (id bit, mask) of minus_ids, filled on first use
                rest_p = plus_ids
                while rest_p:
                    low_p = rest_p & -rest_p
                    rest_p ^= low_p
                    p = low_p.bit_length() - 1
                    mp = masks[p]
                    hits, how = _tight_partners(threshold, mp, minus_ids, minus, masks, tight_on)
                    counted[how] += 1
                    prefiltered += hits.bit_count()
                    vp = None
                    # (id bit, tight mask) of the third rays that proved earlier
                    # partners of p non-adjacent, most recent last
                    witnesses = []
                    while hits:
                        low_q = hits & -hits
                        hits ^= low_q
                        q = low_q.bit_length() - 1
                        common = mp & masks[q]
                        # adjacent iff no third alive ray is tight on every row of
                        # common; a witness against an earlier partner may be one
                        for low_r, mr in reversed(witnesses):
                            if not common & ~mr and low_r != low_q:
                                settled += 1
                                break
                        else:
                            pair = low_p | low_q
                            survivors = alive
                            rest = common
                            while rest:
                                low = rest & -rest
                                rest ^= low
                                survivors &= tight_on[low.bit_length() - 1]
                                if survivors == pair:
                                    break
                            steps += common.bit_count() - rest.bit_count()
                            if survivors != pair:
                                third = survivors ^ pair
                                low_r = third & -third
                                witnesses.append((low_r, masks[low_r.bit_length() - 1]))
                                continue
                            if vp is None:
                                rp = vecs[p]
                                vp = _dot(a, rp)
                            rm = vecs[q]
                            vm = _dot(a, rm)
                            new.append((
                                _normalize_int_vector(
                                    tuple(vp * x - vm * y for x, y in zip(rm, rp))
                                ),
                                common | bit,
                            ))
                adjacent_pairs += len(new)
        for k in bits(zero_ids):
            masks[k] |= bit
        tight_on[t] = zero_ids
        alive ^= dead
        if new:
            first = len(vecs)
            batch = [vec for vec, _ in new]
            new_masks = [mask for _, mask in new]
            vecs += batch
            masks += new_masks
            # the new ids enter the incidence one row at a time
            for i, col in enumerate(_transpose(new_masks, t + 1)):
                tight_on[i] |= col << first
            alive |= ((1 << len(new)) - 1) << first
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
            # only rows 0..t have marked any ray yet
            tight_on = _transpose(masks, t + 1) + [0] * (len(rows) - t - 1)
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
    log.info(
        "%s: %d pairs walked, %d walk steps, %d settled by a cached witness",
        label, prefiltered - settled, steps, settled,
    )
    log.info(
        "%s: %d violating rays, %d counted per partner, %d by bit-sliced counters",
        label, sum(counted), counted[1], counted[2],
    )
    return lines, [(vecs[k], masks[k]) for k in bits(alive)]


class PolytopeDD(NamedTuple):
    """Double description of a polytope: its V- and H-representation.

    facets are pairs (a, b) meaning a . x <= b with coprime integer
    entries; equations cut out the affine hull (empty when full-dimensional).
    """

    dimension: int
    vertices: tuple
    facets: tuple
    equations: tuple


class FVector(NamedTuple):
    counts: tuple
    complete: bool


class EqualityReport(NamedTuple):
    equal: bool
    only_a: tuple
    only_b: tuple
    checked_a: int
    checked_b: int


def vertices_from_inequalities(system, max_dim=None, group=None) -> VertexSet:
    """Exact vertex enumeration of a bounded InequalitySystem.

    The dimension cap defaults to 12 and is overridden by max_dim or the
    CLAWPOLY_MAX_DIM environment variable. The run logs its progress per
    inserted row and a summary of the DD counts at INFO level.

    With a GroupSpec group, orbit.orbit_vertices first tries to certify that
    the vertices are those of generate_vertices(group, m), from the cone at
    vertex 0 alone; if a check fails, the generic run below follows, so the
    output is the same for every system.
    """
    d = system.dimension
    check_dimension(d, max_dim)
    if group is not None:
        # loaded only here, so that commands taking no such run never load it
        from .orbit import orbit_vertices

        points = orbit_vertices(system, group)
        if points is not None:
            return VertexSet(dimension=d, shape=system.shape, points=tuple(points))
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
            points.append(ScaledPoint(r[1:], r[0]).values())
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


def hull_from_vertices(points, group=None) -> PolytopeDD:
    """Convex hull: vertices, irredundant facets, affine-hull equations.

    Accepts a VertexSet or an iterable of rational point tuples, sorted
    and deduplicated unless they come sorted and distinct. Each facet's
    tight points come from its ray's tight set. A point is a vertex of the
    hull iff it is the only input point on every facet it lies on, one AND
    of those facets' tight sets: otherwise its minimal face has a second
    vertex, and that vertex is an input point.

    With a GroupSpec group, the points must be exactly the vertices of
    generate_vertices(group, m) for some m (else ConfigurationError). Being
    0/1 points, they are all vertices, and orbit.orbit_facets(group, m)
    gives the facets from the cone over the atoms; the output is the same.
    """
    pts = points.points if hasattr(points, "points") else [tuple(map(canon, p)) for p in points]
    if not pts:
        raise InfeasibleError("hull of an empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionError("points of mixed dimension")
    pts = pts if all(p < q for p, q in pairwise(pts)) else sorted(set(pts))
    if group is not None:
        # loaded only here, so that commands taking no such hull never load it
        from .orbit import claw_leaves, orbit_facets

        facets = orbit_facets(group, claw_leaves(pts, d, group, "hull"))
        return PolytopeDD(d, tuple(pts), tuple(facets), ())  # no equations
    order = _face_first_order(pts)
    lines, rays = _dd_cone(
        [scale_to_ints((1,) + pts[i]).nums for i in order], d + 1,
        f"hull[d={d} points={len(pts)}]",
    )
    # the full ray (-b, a) is already coprime
    facet_rays = sorted(((tuple(y[1:]), -y[0]), mask) for y, mask in rays if any(y[1:]))
    row_masks = [mask for _, mask in facet_rays]  # per facet: the rows tight on it
    vertex_ids = []
    every_row = (1 << len(pts)) - 1
    for row, fmask in enumerate(_transpose(row_masks, len(pts))):
        common = every_row  # the rows on every facet through this one
        for f in bits(fmask):
            common &= row_masks[f]
        if common == 1 << row:
            vertex_ids.append(order[row])
    vertices = tuple(pts[i] for i in sorted(vertex_ids))
    equations = tuple(sorted(_canonical_equation(l[1:], -l[0]) for l in lines))
    return PolytopeDD(d, vertices, tuple(f for f, _ in facet_rays), equations)


def equal_polytopes(a: VertexSet, b: VertexSet) -> EqualityReport:
    """Exact comparison of two vertex sets; their dimensions must agree."""
    if a.dimension != b.dimension:
        raise DimensionError(f"dimension mismatch: {a.dimension} != {b.dimension}")
    pts_a, pts_b = set(a.points), set(b.points)
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
    the lanes of ``InequalitySystem.binary_lanes``, the membership lanes
    at the 0/1 width; a node at depth k is cut iff some lane of
    ``t - neg_suffix[k]`` (its least value over all completions) has its
    top bit set, which at k = d is the exact test.
    """
    d = system.dimension
    _, base, top, cols, suffix = system.binary_lanes
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
        descend(k + 1, t + cols[k])
        point[k] = 0

    descend(0, base)
    # the rows some 0/1 point violates: the lanes whose top bit is set at
    # each lane's largest value, base plus the row's positive coefficients
    checks = ((base + sum(cols) + suffix[0]) & top).bit_count()
    log.info(
        "integral points[%s d=%d]: %d checks, %d nodes, %d points",
        system.model, d, checks, nodes, len(out),
    )
    return out


DEFAULT_MAX_FACES = 200_000


def f_vector(poly: PolytopeDD, group=None) -> FVector:
    """Face counts (f_0, ..., f_{dim-1}) from the vertex-facet incidence,
    built here for the facets walked by exact a . v == b over the vertices.

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
    face is ranked.

    With a GroupSpec group, the vertices must be exactly the sorted points
    of generate_vertices(group, m) (else ConfigurationError), and only the
    faces through vertex 0, bit 0 as the zero point sorts first, are walked,
    from the facets through it, those with b == 0. That is exact: every
    facet G with F & G == H, and every facet in omega(H), contains H, so
    contains 0 when H does, and neither count of the test changes. The
    translations act transitively on the vertices and map faces to faces,
    so each face F lies in the orbits of |vert F| faces through 0 per
    vertex, and f_k = |V| times the sum of 1 / |vert F| over the faces F
    through 0 of dimension k; a sum that is not an integer is an internal
    error (ConfigurationError).

    A level is walked only while the running total of faces walked stays
    within DEFAULT_MAX_FACES; past that the walk stops with complete=False,
    and the levels below the last counted one read 0. A complete f-vector
    must satisfy Euler's relation, sum_k (-1)^k f_k = 1 - (-1)^dim, or it is
    an internal error. Logs one line per level with f_k and a total at INFO
    level, and on the group path the faces walked at vertex 0.
    """
    max_faces = DEFAULT_MAX_FACES
    facets = poly.facets
    counts = [0] * (poly.dimension - len(poly.equations))
    if group is not None:
        # loaded only here, so that commands taking no such walk never load it
        from .orbit import claw_leaves

        claw_leaves(poly.vertices, poly.dimension, group, "f-vector")
        facets = [(a, b) for a, b in facets if b == 0]  # a . 0 == b: through vertex 0
    facet_masks = _incidence(poly.vertices, facets)
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
    walked = 0
    complete = True
    for k in reversed(range(len(counts))):
        if walked + len(level) > max_faces:
            complete = False
            break
        walked += len(level)
        counts[k] = len(level) if group is None else _orbit_count(poly, level, k)
        log.info("f_vector: dim %d, %d faces", k, counts[k])
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
            if walked + len(below) > max_faces:
                break
        level = below
    if group is not None:
        log.info(
            "f_vector at vertex 0: %d facets through it, %d faces walked",
            len(facet_masks), walked,
        )
    log.info("f_vector: %d faces, complete=%s", sum(counts), complete)
    alternating = sum(f if k % 2 == 0 else -f for k, f in enumerate(counts))
    if complete and alternating != 1 - (-1) ** len(counts):
        raise ConfigurationError(f"f-vector {counts}: Euler's relation fails")
    return FVector(tuple(counts), complete)


def _incidence(vertices, facets):
    """Per facet (a, b), the mask of the vertices v with a . v == b (exact on rationals)."""
    return [sum(1 << k for k, v in enumerate(vertices) if _dot(a, v) == b) for a, b in facets]


def _orbit_count(poly, level, k):
    """f_k = |V| * sum of 1 / |vert F| over the faces F through vertex 0 in
    level; ConfigurationError unless it is an integer."""
    sizes = Counter(face.bit_count() for face in level)
    share = len(poly.vertices) * sum(Fraction(n, size) for size, n in sizes.items())
    if share.denominator != 1:
        raise ConfigurationError(f"f-vector at vertex 0: dim {k} counts {share} faces")
    return int(share)
