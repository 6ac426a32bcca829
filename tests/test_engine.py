import hashlib
import logging
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

import pytest
from conftest import hull_system, system_from_rows
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clawpoly.coordchange import prime_system_in_standard, to_prime_scaled
from clawpoly.engine import (
    FVector,
    PolytopeDD,
    _dd_cone,
    _face_first_order,
    _incidence,
    _insertion_key,
    _tight_partners,
    _transpose,
    enumerate_integral_points,
    equal_polytopes,
    f_vector,
    hull_from_vertices,
    vertices_from_inequalities,
)
import clawpoly.engine as engine
import clawpoly.orbit as orbit
import clawpoly.vertices as vertices
from clawpoly.errors import (
    ConfigurationError,
    DimensionError,
    InfeasibleError,
    ResourceCapError,
    UnboundedError,
)
from clawpoly.groups import Z2, Z2Z2, GroupSpec, group_elements
from clawpoly.halfspaces import (
    InequalitySystem,
    demihypercube_system,
    kimura3_prime_system,
    kimura3_system,
)
from clawpoly.linalg import affine_rank, kernel_vector, matrix_rank
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.vertices import (
    VertexSet,
    generate_vertices,
    pull_back,
    row_max,
    sorted_vertices,
    unpack_points,
)


def cone_rows_system(d, rows):
    """The system of homogenized rows (-b, a1..ad)."""
    return system_from_rows(d, [(r[1:], -r[0]) for r in rows])


# --- hull on hand-built inputs -------------------------------------------------

def test_hull_unit_simplex():
    poly = hull_from_vertices([(0, 0), (1, 0), (0, 1)])
    assert poly.vertices == ((0, 0), (0, 1), (1, 0))
    assert poly.equations == ()
    assert set(poly.facets) == {
        ((-1, 0), 0),
        ((0, -1), 0),
        ((1, 1), 1),
    }


def test_hull_segment_has_equation():
    poly = hull_from_vertices([(0, 0), (2, 2)])
    assert poly.vertices == ((0, 0), (2, 2))
    # affine hull x = y, sign-canonicalized to lead positive
    assert poly.equations == (((1, -1), 0),)
    assert len(poly.facets) == 2


def test_hull_single_point():
    poly = hull_from_vertices([(3, 4, 5)])
    assert poly.vertices == ((3, 4, 5),)
    assert len(poly.equations) == 3
    assert poly.facets == ()


def test_hull_dedupes_and_drops_interior():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    poly = hull_from_vertices(pts)
    assert poly.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(poly.facets) == 4


def test_hull_mixed_dimension():
    with pytest.raises(DimensionError):
        hull_from_vertices([(0, 0), (1, 0, 0)])


def test_hull_empty():
    with pytest.raises(InfeasibleError):
        hull_from_vertices([])


def test_hull_facets_are_coprime_and_valid():
    poly = hull_from_vertices([(0, 0), (4, 0), (0, 4)])
    from math import gcd

    for a, b in poly.facets:
        g = 0
        for x in (*a, b):
            g = gcd(g, x)
        assert g == 1
        for p in poly.vertices:
            assert sum(c * x for c, x in zip(a, p)) <= b


# --- hull against brute-force oracles -------------------------------------------

def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


def _centroid(pts):
    return tuple(Fraction(sum(c), len(pts)) for c in zip(*pts))


@st.composite
def hull_inputs(draw):
    """Small integer point sets in d <= 4, possibly lower-dimensional, plus
    duplicates and points inside edges, faces and the interior."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=8))
    else:
        # the image of a k-dimensional set under an integer affine map
        k = draw(st.integers(0, d - 1))
        base = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=6))
        embed = draw(st.lists(st.tuples(*[coord] * k), min_size=d, max_size=d))
        shift = draw(st.tuples(*[coord] * d))
        pts = [tuple(s + _dot(row, q) for row, s in zip(embed, shift)) for q in base]
    for size in draw(st.lists(st.integers(1, 4), max_size=4)):
        picks = draw(st.lists(st.sampled_from(pts), min_size=size, max_size=size))
        pts.append(_centroid(picks))
    return d, pts


def _brute_force_facets(pts, d):
    """Hyperplanes through d affinely independent points with every point on one side."""
    facets = set()
    for sub in combinations(pts, d):
        if affine_rank(sub) != d - 1:
            continue
        ker = kernel_vector([tuple(p) + (-1,) for p in sub], d + 1)
        denom = lcm(*(Fraction(x).denominator for x in ker))
        vec = [int(x * denom) for x in ker]
        g = gcd(*vec)
        a, b = tuple(x // g for x in vec[:-1]), vec[-1] // g
        sides = {(_dot(a, p) > b) - (_dot(a, p) < b) for p in pts}
        if sides <= {0, -1}:
            facets.add((a, b))
        elif sides <= {0, 1}:
            facets.add((tuple(-x for x in a), -b))
    return facets


def _rank_rule_vertices(poly, pts):
    eq_normals = [a for a, _ in poly.equations]
    return [
        p for p in pts
        if matrix_rank([a for a, b in poly.facets if _dot(a, p) == b] + eq_normals, poly.dimension)
        == poly.dimension
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hull_inputs())
def test_hull_matches_oracles(data):
    d, raw = data
    poly = hull_from_vertices(raw)
    pts = sorted(set(raw))
    dim = affine_rank(pts)
    assert len(poly.equations) == d - dim
    for a, b in poly.equations:
        assert all(_dot(a, p) == b for p in pts)
    if dim == d:
        assert set(poly.facets) == _brute_force_facets(pts, d)
    for a, b in poly.facets:
        assert all(_dot(a, p) <= b for p in pts)
    assert list(poly.vertices) == _rank_rule_vertices(poly, pts)
    for (a, b), mask in zip(poly.facets, _incidence(poly.vertices, poly.facets)):
        for vi, v in enumerate(poly.vertices):
            assert (mask >> vi & 1) == (_dot(a, v) == b)
        assert mask >> len(poly.vertices) == 0
    assert vertices_from_inequalities(hull_system(poly)).points == poly.vertices


def _summaries(caplog):
    return [r.getMessage() for r in caplog.records if "at peak" in r.getMessage()]


def _walk_lines(caplog):
    return [r.getMessage() for r in caplog.records if "pairs walked" in r.getMessage()]


def _prefilter_lines(caplog):
    return [r.getMessage() for r in caplog.records if "violating rays" in r.getMessage()]


def test_hull_k5_counts_and_incidence(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    poly = hull_from_vertices(generate_vertices(Z2Z2, 5))
    assert len(poly.facets) == 68
    assert len(poly.vertices) == 256
    assert poly.equations == ()
    assert sum(mask.bit_count() for mask in _incidence(poly.vertices, poly.facets)) == 7_680
    # every DD count is pinned, the pairs past the prefilter included
    assert _summaries(caplog) == [
        "hull[d=15 points=256]: 256 rows, 482 rays at peak, 579522 candidate pairs, "
        "43290 past prefilter, 6574 adjacent",
    ]
    assert _walk_lines(caplog) == [
        "hull[d=15 points=256]: 18950 pairs walked, 363485 walk steps, "
        "24340 settled by a cached witness",
    ]
    # most violating rays have few partners here, so most are counted one
    # popcount per partner
    assert _prefilter_lines(caplog) == [
        "hull[d=15 points=256]: 6522 violating rays, 6153 counted per partner, "
        "369 by bit-sliced counters",
    ]


def test_cached_witness_is_never_the_partner():
    """On these points a ray recorded as a witness against one partner of a
    violating ray is a later partner of the same ray, and that pair is
    adjacent. Taken as its own witness, the partner would hide the facet
    7x1 + 8x2 - 4x3 - 12x4 <= -10."""
    pts = [(-2, -2, -2, -1), (-2, 0, -1, 0), (-2, 2, 0, 1), (-1, -1, 0, 2),
           (-1, -1, 2, 2), (0, -1, 2, 1), (2, -2, 2, 0), (2, 0, 0, 2)]
    poly = hull_from_vertices(pts)
    assert ((7, 8, -4, -12), -10) in poly.facets
    assert set(poly.facets) == _brute_force_facets(pts, 4)
    assert list(poly.vertices) == _rank_rule_vertices(poly, pts)


@contextmanager
def _engine_log():
    """The messages clawpoly.engine logs at INFO level inside the block."""
    handler = logging.Handler(logging.INFO)
    messages = []
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("clawpoly.engine")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _logged_hull(pts):
    """hull_from_vertices(pts) and every line it logged."""
    with _engine_log() as lines:
        poly = hull_from_vertices(pts)
    assert any("at peak" in line for line in lines)
    return poly, lines


@pytest.mark.parametrize("seed", range(3))
def test_hull_k4_independent_of_input_order(seed, k4):
    pts = list(k4.points)
    random.Random(seed).shuffle(pts)
    assert _logged_hull(pts) == _logged_hull(k4.points)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hull_inputs(), st.randoms(use_true_random=False))
def test_hull_order_depends_only_on_point_set(data, rng):
    _, raw = data
    pts = sorted(set(raw))
    shuffled = list(pts)
    rng.shuffle(shuffled)
    assert [shuffled[i] for i in _face_first_order(shuffled)] == [
        pts[i] for i in _face_first_order(pts)
    ]
    shuffled = list(raw)
    rng.shuffle(shuffled)
    assert _logged_hull(shuffled) == _logged_hull(raw)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_face_first_order_builds_k_m_leaf_by_leaf(m):
    """The first 4^k points in the hull's order of K(m) are the face where
    leaves 1..m-1-k are the identity (a zero column of the 3 x m point)."""
    pts = list(generate_vertices(Z2Z2, m).points)
    ordered = [pts[i] for i in _face_first_order(pts)]
    for k in range(m):
        face = {
            v for v in pts
            if not any(v[e * m + leaf] for e in range(3) for leaf in range(m - 1 - k))
        }
        assert len(face) == 4 ** k
        assert set(ordered[:4 ** k]) == face


def _transpose_reference(masks, nbits):
    return [sum(1 << k for k, mask in enumerate(masks) if mask >> i & 1) for i in range(nbits)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))
))
@example((0, []))
@example((0, [0, 0]))
@example((1, []))
@example((1, [1, 0, 1]))
@example((9, [0, 0]))
def test_transpose_matches_per_bit_reference(data):
    nbits, masks = data
    assert _transpose(masks, nbits) == _transpose_reference(masks, nbits)


def test_transpose_in_blocks():
    """Masks so wide that _transpose reads them two at a time."""
    rng = random.Random(5)
    nbits = 100_000
    sets = [rng.sample(range(nbits), 30) for _ in range(5)]
    expected = [0] * nbits
    for k, bit_set in enumerate(sets):
        for i in bit_set:
            expected[i] |= 1 << k
    assert _transpose([sum(1 << i for i in bit_set) for bit_set in sets], nbits) == expected


def test_dd_counts_pinned_for_binary_d9(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    vertices_from_inequalities(demihypercube_system(9), max_dim=9)
    assert _summaries(caplog) == [
        "vertices[binary d=9]: 275 rows, 512 rays at peak, 96383 candidate pairs, "
        "511 past prefilter, 511 adjacent",
    ]


@pytest.mark.parametrize("build, line, walk, prefilter", [
    (kimura3_system,
     "vertices[kimura3 d=15]: 69 rows, 1375 rays at peak, 2331163 candidate pairs, "
     "16279 past prefilter, 2993 adjacent",
     "vertices[kimura3 d=15]: 5996 pairs walked, 84279 walk steps, "
     "10283 settled by a cached witness",
     "vertices[kimura3 d=15]: 2753 violating rays, 12 counted per partner, "
     "2741 by bit-sliced counters"),
    (kimura3_prime_system,
     "vertices[kimura3-prime d=15]: 69 rows, 1368 rays at peak, 2292954 candidate pairs, "
     "16399 past prefilter, 2953 adjacent",
     "vertices[kimura3-prime d=15]: 5869 pairs walked, 82425 walk steps, "
     "10530 settled by a cached witness",
     "vertices[kimura3-prime d=15]: 2713 violating rays, 12 counted per partner, "
     "2701 by bit-sliced counters"),
], ids=["kimura3", "kimura3-prime"])
def test_dd_counts_pinned_for_kimura3_m5(build, line, walk, prefilter, caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    vertices_from_inequalities(build(5), max_dim=15)
    assert _summaries(caplog) == [line]
    assert _walk_lines(caplog) == [walk]
    assert _prefilter_lines(caplog) == [prefilter]


@st.composite
def prefilter_inputs(draw):
    """(k, [mask_p, mask_p'], minus_ids, masks): tight masks over up to 12 rows
    for up to 150 rays, a minus side among them, two violating rays' masks of
    up to 6 rows each, and a threshold from -1 to one past the first one's
    row count. So the minus side can hold more or fewer than 10 ids per row
    of either violating ray, and the threshold can be below 1 or above its
    row count. The sizes come from a seeded Random, which spreads them more
    evenly than the draws of st.randoms."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def subset(n, most):
        return sum(1 << i for i in rng.sample(range(n), rng.randint(0, min(n, most))))

    nrows = rng.randint(1, 12)
    masks = [subset(nrows, nrows) for _ in range(rng.randint(0, 150))]
    mps = [subset(nrows, 6) for _ in range(2)]
    k = rng.randint(-1, mps[0].bit_count() + 1)
    return k, mps, subset(len(masks), len(masks)), masks


@settings(max_examples=300, deadline=None)
@given(prefilter_inputs())
@example((3, [0b111, 0b1111], 0, [0b111] * 5))  # an empty minus side
@example((0, [0b1, 0b0], 0b101, [0b1] * 3))  # threshold 0: all of minus
@example((-1, [0b1, 0b0], 0b11, [0b0] * 2))
@example((3, [0b11, 0b111], 0b111, [0b111] * 3))  # fewer rows than the threshold
@example((1, [0b1, 0b11], (1 << 30) - 1, [0b1, 0b10] * 15))  # 30 >= 10 x 1 row: bit-sliced
@example((2, [0b1111, 0b111], (1 << 30) - 2, [0b101, 0b110, 0b11] * 10))  # 29 < 40: per partner
def test_tight_partners_match_popcount_per_pair(data):
    k, mps, minus_ids, masks = data
    tight_on = _transpose(masks, max(masks + mps).bit_length())
    minus = []  # shared by both violating rays, as on one inserted row
    for mp in mps:
        hits, how = _tight_partners(k, mp, minus_ids, minus, masks, tight_on)
        assert hits == sum(
            1 << q for q in range(len(masks))
            if minus_ids >> q & 1 and (mp & masks[q]).bit_count() >= k
        )
        rows = mp.bit_count()
        if k <= 0 or rows < k:
            assert how == 0
        else:
            assert how == (1 if minus_ids.bit_count() < 10 * rows else 2)


def _normalized(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec)


@st.composite
def wide_hull_inputs(draw):
    """hull_inputs moved by x -> (scale * x + shift) / div, with scale, div
    and shift entries of up to 80 bits, so that the lanes need many bytes
    and the homogenizing coordinate can be the largest."""
    d, pts = draw(hull_inputs())
    bits = st.integers(0, 80)
    scale, div = draw(st.tuples(*[bits.flatmap(lambda e: st.integers(1, 1 << e))] * 2))
    shift = draw(st.tuples(*[bits.flatmap(lambda e: st.integers(-(1 << e), 1 << e))] * d))
    return d, pts, scale, div, shift


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_hull_inputs())
def test_hull_exact_under_wide_coordinates(data):
    d, raw, scale, div, shift = data

    def move(p):
        return tuple(Fraction(scale * x + c, div) for x, c in zip(p, shift))

    def moved(a, b):
        # a.x <= b holds iff (div * a).y <= scale * b + a.shift
        return _normalized(tuple(div * x for x in a) + (scale * b + _dot(a, shift),))

    base = hull_from_vertices(raw)
    poly = hull_from_vertices([move(p) for p in raw])
    def tight_sets(p):
        return zip(p.facets, _incidence(p.vertices, p.facets))

    assert {a + (b,): mask for (a, b), mask in tight_sets(poly)} == {
        moved(a, b): mask for (a, b), mask in tight_sets(base)
    }
    assert len(poly.facets) == len(base.facets)
    assert poly.equations == tuple(sorted(
        (eq[:-1], eq[-1]) for eq in (moved(a, b) for a, b in base.equations)
    ))
    # the map is increasing in every coordinate, so vertex order is kept
    assert poly.vertices == tuple(move(v) for v in base.vertices)
    assert vertices_from_inequalities(hull_system(poly)).points == poly.vertices


def test_lane_rebuilds_logged_and_exact(caplog):
    """Coordinates of 1 to 64 bits make the DD widen its lanes several times
    and renumber its rays several times; the hull stays exact."""
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    rng = random.Random(3)
    pts = [
        tuple(rng.randint(0, 1 << rng.choice((1, 8, 16, 32, 64))) for _ in range(4))
        for _ in range(20)
    ]
    poly = hull_from_vertices(pts)
    (line,) = [r.getMessage() for r in caplog.records if "lanes" in r.getMessage()]
    match = re.fullmatch(
        r"hull\[d=4 points=20\]: (\d+)-byte lanes, \d+ column rebuilds "
        r"\((\d+) renumber, (\d+) widen\)",
        line,
    )
    width, renumbers, widens = map(int, match.groups())
    assert width > 8 and renumbers >= 2 and widens >= 2
    assert set(poly.facets) == _brute_force_facets(sorted(set(pts)), 4)
    assert list(poly.vertices) == _rank_rule_vertices(poly, sorted(set(pts)))
    assert vertices_from_inequalities(hull_system(poly)).points == poly.vertices


def test_widening_renumbers_first(caplog):
    """A widening first drops the dead rays, so the one rebuild after it
    repacks live rays only: on the coordinates above, each of the 8
    widenings comes with a renumbering and no row rebuilds twice."""
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    rng = random.Random(3)
    pts = [
        tuple(rng.randint(0, 1 << rng.choice((1, 8, 16, 32, 64))) for _ in range(4))
        for _ in range(20)
    ]
    hull_from_vertices(pts)
    assert [r.getMessage() for r in caplog.records if "lanes" in r.getMessage()] == [
        "hull[d=4 points=20]: 41-byte lanes, 9 column rebuilds (9 renumber, 8 widen)"
    ]


def test_dd_counts_logged_for_hull_and_vertices(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    vertices_from_inequalities(demihypercube_system(3), max_dim=3)
    summaries = [r.getMessage() for r in caplog.records if "at peak" in r.getMessage()]
    assert summaries == [
        "hull[d=2 points=4]: 4 rows, 4 rays at peak, 2 candidate pairs, "
        "2 past prefilter, 2 adjacent",
        "vertices[binary d=3]: 11 rows, 8 rays at peak, 17 candidate pairs, "
        "7 past prefilter, 7 adjacent",
    ]


# --- hull of a claw polytope from the cone at 0 and its translates -------------

Z3, Z4, Z5, Z2XZ3 = GroupSpec((3,)), GroupSpec((4,)), GroupSpec((5,)), GroupSpec((2, 3))

# sha256 of repr(tuple(hull)) and the facet count of the generic hull of
# generate_vertices(group, 4), which takes 0.8 s for z5 and 18 s for z2xz3
# on one 2-CPU host, too long to run on every test pass; the digests of the
# hulls with their incidence appended, repr(tuple(hull) + (incidence,)),
# were 95157788… and 65b5a470… in the same run
GENERIC_HULL_M4 = {
    "z5": (1020, "23cf4771000774c444f7a8651a1a833651a0403333bb2b487c16fe8ef0beaeb9"),
    "z2xz3": (2462, "61f997af737067c49b25d8c55f68eca3012c3d239f3d26218d0d2ebd1817b7c1"),
}


@pytest.mark.parametrize(
    "spec, m",
    [(spec, m) for spec in (Z2, Z3, Z4, Z2Z2, Z5, Z2XZ3) for m in (3, 4)
     if not (m == 4 and spec.name() in GENERIC_HULL_M4)] + [(Z2Z2, 5)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_orbit_hull_equals_generic_hull(spec, m):
    # same vertices, facets and equations
    vs = generate_vertices(spec, m)
    assert hull_from_vertices(vs, group=spec) == hull_from_vertices(vs)


@pytest.mark.parametrize("spec", [Z5, Z2XZ3], ids=GroupSpec.name)
def test_orbit_hull_matches_recorded_generic_hull(spec):
    poly = hull_from_vertices(generate_vertices(spec, 4), group=spec)
    digest = hashlib.sha256(repr(tuple(poly)).encode()).hexdigest()
    assert (len(poly.facets), digest) == GENERIC_HULL_M4[spec.name()]


def test_orbit_hull_logs_its_cone_and_orbit():
    with _engine_log() as lines:
        poly = hull_from_vertices(generate_vertices(Z2Z2, 5), group=Z2Z2)
    assert len(poly.facets) == 68
    assert [line for line in lines if "row " not in line] == [
        "hull cone[d=15 atoms=90]: 90 rows, 99 rays at peak, 12760 candidate pairs, "
        "2429 past prefilter, 336 adjacent",
        "hull cone[d=15 atoms=90]: 1-byte lanes, 6 column rebuilds (6 renumber, 0 widen)",
        "hull cone[d=15 atoms=90]: 897 pairs walked, 14188 walk steps, "
        "1532 settled by a cached witness",
        "hull cone[d=15 atoms=90]: 321 violating rays, 321 counted per partner, "
        "0 by bit-sliced counters",
        "hull orbit[d=15 points=256]: 30 facets at the origin, 12 generators, "
        "816 pull-backs, 68 facets",
    ]


def _not_k3(pts):
    """Point sets close to K(3)'s vertices, each refused as a K(3) of Z2Z2."""
    return {
        "vertex-missing": pts[1:],
        "interior-point": pts + [tuple(Fraction(1, 4) for _ in range(9))],
        "translated": [tuple(x + 1 for x in p) for p in pts],
        "doubled": [tuple(2 * x for x in p) for p in pts],
    }


@pytest.mark.parametrize("case", sorted(_not_k3([(0,) * 9])))
def test_orbit_hull_refuses_other_point_sets(case):
    pts = _not_k3(list(generate_vertices(Z2Z2, 3).points))[case]
    with pytest.raises(ConfigurationError, match="not the vertices of its claw polytope"):
        hull_from_vertices(pts, group=Z2Z2)


@pytest.mark.parametrize(
    "spec, pts",
    [(Z4, generate_vertices(Z2Z2, 3)), (Z3, generate_vertices(Z2Z2, 3)),
     (Z2, generate_vertices(Z2Z2, 3)), (Z2, [(0, 0), (1, 1)])],
    ids=["z4", "z3-dimension", "z2-m9", "z2-m2"],
)
def test_orbit_hull_refuses_another_groups_points(spec, pts):
    with pytest.raises(ConfigurationError, match="not the vertices of its claw polytope"):
        hull_from_vertices(pts, group=spec)


@pytest.mark.parametrize("d", [60, 33], ids=["m20-past-the-cap", "m11-under-the-cap"])
def test_orbit_hull_refuses_a_wrong_count_before_generating(d, monkeypatch):
    # two points in R^60 (R^33) are not the 4^19 (4^10) vertices of K(20)
    # (K(11)): the count refuses them, and no vertex set is built
    def generated(spec, m):
        raise AssertionError(f"sorted_vertices({spec.name()}, {m}) was built")

    monkeypatch.setattr(orbit, "sorted_vertices", generated)
    pts = [(0,) * d, (1,) + (0,) * (d - 1)]
    with pytest.raises(ConfigurationError, match="not the vertices of its claw polytope"):
        hull_from_vertices(pts, group=Z2Z2)


def test_orbit_row_cutting_off_a_vertex_is_flagged(monkeypatch):
    # pull-backs without the right-hand side's shift are not valid rows
    def unshifted(spec, m, row, t):
        return pull_back(spec, m, row, t)[0], row[1]

    monkeypatch.setattr(orbit, "pull_back", unshifted)
    with pytest.raises(ConfigurationError, match="cuts off a vertex"):
        hull_from_vertices(generate_vertices(Z2Z2, 4), group=Z2Z2)


def test_orbit_row_touching_no_vertex_is_flagged(monkeypatch):
    # the first pull-back off the origin comes back with its rhs raised by 1;
    # its own translates follow it, raised too, so the orbit stays finite
    raised = []

    def raise_once(spec, m, row, t):
        a, b = pull_back(spec, m, row, t)
        if b and not raised:
            raised.append((a, b))
            return a, b + 1
        return a, b

    monkeypatch.setattr(orbit, "pull_back", raise_once)
    with pytest.raises(ConfigurationError, match="touches no vertex"):
        hull_from_vertices(generate_vertices(Z2Z2, 4), group=Z2Z2)
    assert len(raised) == 1


def test_orbit_hull_runs_no_lane_pass(monkeypatch):
    # the cone packs and reads its own lanes; nothing else may on the group path
    outside = []

    def guarded(fn):
        def call(*args):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name != "_dd_cone":
                frame = frame.f_back
            if frame is None:
                outside.append(fn.__name__)
            return fn(*args)
        return call

    for module in (engine, orbit):
        for name in ("lane_signs", "pack_lanes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    assert not hasattr(orbit, "lane_signs") and not hasattr(orbit, "pack_lanes")
    poly = hull_from_vertices(generate_vertices(Z2Z2, 5), group=Z2Z2)
    assert len(poly.facets) == 68
    assert outside == []


def test_orbit_hull_keeps_sorted_claw_points_as_they_come():
    # the sorted generated points are not sorted again; any other order, or
    # duplicates, still are
    pts = sorted_vertices(Z2Z2, 4).points
    poly = hull_from_vertices(sorted_vertices(Z2Z2, 4), group=Z2Z2)
    assert poly.vertices is pts
    shuffled = list(pts) + list(pts[:5])
    random.Random(1).shuffle(shuffled)
    assert hull_from_vertices(shuffled, group=Z2Z2) == poly


@pytest.mark.parametrize(
    "spec, m",
    [(Z2Z2, m) for m in (3, 4, 5)] + [(Z3, m) for m in (3, 4)] + [(Z2, m) for m in range(3, 7)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_orbit_hull_is_its_points_and_their_tight_sets(spec, m):
    # brute force: the vertices are the sorted input, each facet's max over
    # them is its rhs, as row_max certifies, and _incidence gives the points on it
    vs = generate_vertices(spec, m)
    poly = hull_from_vertices(vs, group=spec)
    assert poly.vertices == tuple(sorted(vs.points))
    assert poly.equations == ()
    for (a, b), mask in zip(poly.facets, _incidence(poly.vertices, poly.facets)):
        values = [sum(map(mul, a, p)) for p in poly.vertices]
        assert max(values) == b == row_max(spec, m, a)
        assert mask == sum(1 << k for k, v in enumerate(values) if v == b)


# K(m): facets and tight (facet, vertex) pairs, past m=5 too slow for the generic hull
K_INCIDENCE = {5: (68, 7_680), 6: (120, 36_864), 7: (220, 172_032)}


@pytest.mark.parametrize("m", sorted(K_INCIDENCE))
def test_orbit_hull_tight_pairs(m):
    poly = hull_from_vertices(generate_vertices(Z2Z2, m), group=Z2Z2)
    pairs = sum(mask.bit_count() for mask in _incidence(poly.vertices, poly.facets))
    assert (len(poly.facets), pairs) == K_INCIDENCE[m]


def test_orbit_hull_runs_no_vertex_test(monkeypatch):
    # the cone transposes its own masks; nothing else may on the group path
    outside = []

    def counted(masks, nbits):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_dd_cone":
            outside.append(caller)
        return _transpose(masks, nbits)

    monkeypatch.setattr(engine, "_transpose", counted)
    poly = hull_from_vertices(generate_vertices(Z2Z2, 5), group=Z2Z2)
    assert len(poly.facets) == 68
    assert outside == []


class _ConeRows(Exception):
    """Raised by a stand-in _dd_cone with the rows it was given."""


@pytest.mark.parametrize(
    "spec, m",
    [(spec, m) for spec in (Z2, Z3, Z2Z2) for m in range(3, 9)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_orbit_hull_cone_rows_in_insertion_order(spec, m, monkeypatch):
    # the cone's rows are the atoms, sorted by _insertion_key
    def stop(rows, n, label):
        raise _ConeRows(rows)

    monkeypatch.setattr(orbit, "_dd_cone", stop)
    vs = generate_vertices(spec, m)
    with pytest.raises(_ConeRows) as raised:
        hull_from_vertices(vs, group=spec)
    atoms = unpack_points(orbit.atoms(spec, m), vs.dimension)
    assert raised.value.args[0] == sorted(atoms, key=_insertion_key)


# --- the atoms: the minimal zero-sum labelings -------------------------------------

def _brute_atoms(spec, m):
    """The masks of the vertices of generate_vertices(spec, m) whose
    non-identity labels sum to 0 while no proper nonempty subset of them
    does, every subset summed."""
    nonzero = group_elements(spec)[1:]
    found = set()
    for p in generate_vertices(spec, m).points:
        labels = [nonzero[e].residues for e in range(len(nonzero)) for j in range(m)
                  if p[e * m + j]]
        zero_sums = [k for k in range(1, len(labels) + 1) for sub in combinations(labels, k)
                     if all(sum(c) % n == 0 for c, n in zip(zip(*sub), spec.orders))]
        if zero_sums == [len(labels)]:
            found.add(sum(1 << i for i, x in enumerate(p) if x))
    return found


@pytest.mark.parametrize("m", range(3, 15))
def test_atom_counts(m):
    # C(m, 2) pairs for Z2; for Z2 x Z2, a pair of equal labels or three distinct ones
    assert len(orbit.atoms(Z2, m)) == comb(m, 2)
    assert len(orbit.atoms(Z2Z2, m)) == 3 * comb(m, 2) + 6 * comb(m, 3)


@pytest.mark.parametrize(
    "spec, m",
    [(spec, m) for spec in (Z2, Z3, Z4, Z2Z2) for m in range(3, 7)]
    + [(spec, m) for spec in (Z5, Z2XZ3) for m in (3, 4)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_atoms_are_the_minimal_zero_sum_vertices(spec, m):
    found = orbit.atoms(spec, m)
    assert len(found) == len(set(found))
    assert set(found) == _brute_atoms(spec, m)


def _drop_atom(monkeypatch, k):
    """orbit.atoms without its k-th atom."""
    atoms = orbit.atoms

    def dropped(spec, m):
        found = atoms(spec, m)
        return found[:k] + found[k + 1:]

    monkeypatch.setattr(orbit, "atoms", dropped)


@pytest.mark.parametrize(
    "spec, m, k",
    [(Z2Z2, 5, k) for k in range(90)] + [(Z3, 4, k) for k in range(20)]
    + [(Z2, 6, k) for k in range(15)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_a_dropped_atom_cuts_off_a_vertex(spec, m, k, monkeypatch):
    # every atom is an edge from 0: without it, the cone at 0 has a ray
    # that leaves the polytope, and row_max says so
    _drop_atom(monkeypatch, k)
    with pytest.raises(ConfigurationError, match="cuts off a vertex"):
        hull_from_vertices(generate_vertices(spec, m), group=spec)


def _no_vertex_list(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a vertex list was built")

    for module, name in ((orbit, "sorted_vertices"), (vertices, "sorted_vertices"),
                         (vertices, "generate_vertices"), (vertices, "vertex_masks")):
        monkeypatch.setattr(module, name, refused)


@pytest.mark.parametrize(
    "spec, m, system",
    [(Z2Z2, m, kimura3_system) for m in (8, 9, 10)]
    + [(Z2, m, demihypercube_system) for m in range(4, 13)],
    ids=lambda x: getattr(x, "__name__", None) or getattr(x, "name", lambda: str(x))(),
)
def test_orbit_facets_are_the_paper_system_without_a_vertex_list(spec, m, system, monkeypatch):
    _no_vertex_list(monkeypatch)
    assert set(orbit.orbit_facets(spec, m)) == set(system(m).rows)


# --- vertices of a claw polytope from the cone at 0 -----------------------------

def _orbit_lines(lines):
    return [line for line in lines if line.startswith("vertices orbit[")]


def _claw_system(kind, m):
    """(system, group): a claw system whose vertices are the generated ones."""
    if kind == "z3-hull":
        return hull_system(hull_from_vertices(generate_vertices(Z3, m), group=Z3)), Z3
    build, spec = {"kimura3": (kimura3_system, Z2Z2), "prime": (prime_system_in_standard, Z2Z2),
                   "binary": (demihypercube_system, Z2)}[kind]
    return build(m), spec


@pytest.mark.parametrize(
    "kind, m",
    [(kind, m) for kind in ("kimura3", "prime", "binary") for m in range(3, 7)]
    + [("z3-hull", 3), ("z3-hull", 4)],
)
def test_orbit_vertices_equal_generic_vertices(kind, m):
    system, spec = _claw_system(kind, m)
    with _engine_log() as lines:
        vs = vertices_from_inequalities(system, max_dim=18, group=spec)
    (line,) = _orbit_lines(lines)
    assert line.endswith(f" {len(vs.points)} vertices")
    assert vs == vertices_from_inequalities(system, max_dim=18)
    assert vs.points == tuple(sorted(generate_vertices(spec, m).points))


def test_orbit_vertices_logs_the_cone_and_summary():
    with _engine_log() as lines:
        vertices_from_inequalities(kimura3_system(5), max_dim=15, group=Z2Z2)
    assert [line for line in lines if "row " not in line] == [
        "vertices cone[kimura3 d=15]: 30 rows, 140 rays at peak, 8245 candidate pairs, "
        "700 past prefilter, 212 adjacent",
        "vertices cone[kimura3 d=15]: 1-byte lanes, 1 column rebuilds (1 renumber, 0 widen)",
        "vertices cone[kimura3 d=15]: 467 pairs walked, 6037 walk steps, "
        "233 settled by a cached witness",
        "vertices cone[kimura3 d=15]: 137 violating rays, 137 counted per partner, "
        "0 by bit-sliced counters",
        "vertices orbit[kimura3 d=15]: 68 rows, 12 generators, 30 rows at 0, "
        "90 edges from 0, 256 vertices",
    ]


def _not_k4():
    """Systems close to kimura3_system(4), and the check each one fails."""
    rows = list(kimura3_system(4).rows)
    simplex = rows.index(((1, 0, 0, 0) * 3, 1))
    far = (1, 1, 1, 1) + (0,) * 8  # every leaf labeled (1, 0): no neighbour of 0
    zero = (0,) * 12
    moved = "check 2 failed, a row's pull-back is not a row"
    return {
        # non-invariant
        "dropped-row": (rows[:-1], moved),
        "lowered-rhs": (rows[:simplex] + [(rows[simplex][0], 0)] + rows[simplex + 1:], moved),
        "cuts-off-a-far-vertex": (rows + [(far, 3)], moved),
        "valid-extra-row": (rows + [((1,) * 12, 4)], moved),
        # invariant: empty, the whole space, and the product of the column simplices
        "negative-rhs": (rows + [(zero, -1)], "check 1 failed, a row has b < 0"),
        "whole-space": ([(zero, 1)], "check 3 failed, the cone at 0 has 12 lines"),
        "simplices-only": (rows[:16],
                           "check 4 failed, an edge from 0 ends off the generated points"),
    }


def _vertices_or_error(system, **kwargs):
    try:
        return vertices_from_inequalities(system, **kwargs)
    except (InfeasibleError, UnboundedError) as e:
        return type(e)


@pytest.mark.parametrize("case", sorted(_not_k4()))
def test_orbit_vertices_fall_through_to_the_generic_run(case):
    rows, reason = _not_k4()[case]
    system = InequalitySystem("kimura3", (3, 4), rows, [None] * len(rows))
    with _engine_log() as lines:
        got = _vertices_or_error(system, group=Z2Z2)
    assert _orbit_lines(lines) == [f"vertices orbit[kimura3 d=12]: {reason}; generic DD"]
    assert got == _vertices_or_error(system)
    if case != "valid-extra-row":
        assert got != vertices_from_inequalities(kimura3_system(4))


@pytest.mark.parametrize("k", [0, 41])
def test_an_atom_missing_from_check_4_falls_through(k, monkeypatch):
    # every edge from 0 ends at an atom; one missing fails check 4
    _drop_atom(monkeypatch, k)
    system = kimura3_system(4)
    with _engine_log() as lines:
        vs = vertices_from_inequalities(system, group=Z2Z2)
    assert _orbit_lines(lines) == [
        "vertices orbit[kimura3 d=12]: check 4 failed, an edge from 0 ends off the "
        "generated points; generic DD"
    ]
    assert vs == vertices_from_inequalities(system)


def test_orbit_vertices_refuse_a_non_claw_dimension():
    # d = 4 is no multiple of |Z3| - 1 = 2 with m >= 3
    system = demihypercube_system(4)
    with _engine_log() as lines:
        vs = vertices_from_inequalities(system, group=Z3)
    assert _orbit_lines(lines) == [
        "vertices orbit[binary d=4]: d is not 2 m with m >= 3; generic DD"
    ]
    assert vs == vertices_from_inequalities(system)


# --- vertex enumeration ----------------------------------------------------------

@st.composite
def wide_systems(draw):
    """Bounded systems a.x <= b in d <= 3, as (a, b) pairs: a box, plus up to
    three rows whose entries have up to 40 bits."""
    d = draw(st.integers(1, 3))
    e = draw(st.integers(1, 40))
    entry = st.integers(-(1 << e), 1 << e)
    rows = []
    for i in range(d):
        unit = tuple(int(j == i) for j in range(d))
        rows.append((unit, draw(st.integers(1, 1 << e))))
        rows.append((tuple(-x for x in unit), draw(st.integers(1, 1 << e))))
    rows += draw(st.lists(st.tuples(st.tuples(*[entry] * d), entry), max_size=3))
    return d, rows


def _brute_force_vertices(d, rows):
    """Feasible points where d rows of full rank are tight."""
    pts = set()
    for sub in combinations(rows, d):
        if matrix_rank([a for a, _ in sub], d) != d:
            continue
        ker = kernel_vector([a + (-b,) for a, b in sub], d + 1)
        x = tuple(Fraction(k) / ker[-1] for k in ker[:-1])
        if all(_dot(a, x) <= b for a, b in rows):
            pts.add(x)
    return tuple(sorted(pts))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_systems())
# with a shift one bit too large, the ray (5, 7) stays in 8-bit lanes, and the
# row (-29, -1) takes a . r = -152 out of the lane's range
@example((1, [((1,), 5), ((-1,), 29), ((-1,), 14), ((-10,), -14)]))
def test_vertices_match_brute_force_on_wide_systems(data):
    d, rows = data
    expected = _brute_force_vertices(d, rows)
    source = system_from_rows(d, rows)
    if not expected:
        with pytest.raises(InfeasibleError):
            vertices_from_inequalities(source)
        return
    assert vertices_from_inequalities(source).points == expected


def test_square_vertices():
    # 0 <= x,y <= 1 as homogenized rows (-b, a)
    rows = [(0, -1, 0), (0, 0, -1), (-1, 1, 0), (-1, 0, 1)]
    vs = vertices_from_inequalities(cone_rows_system(2, rows))
    assert vs.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_infeasible_system():
    # x <= -1 and -x <= 0
    rows = [(1, 1), (0, -1)]
    with pytest.raises(InfeasibleError):
        vertices_from_inequalities(cone_rows_system(1, rows))


def test_unbounded_system():
    # only x >= 0
    rows = [(0, -1)]
    with pytest.raises(UnboundedError):
        vertices_from_inequalities(cone_rows_system(1, rows))


def test_dimension_cap():
    rows = [(0, -1, 0), (0, 0, -1), (1, 1, 0), (1, 0, 1)]
    with pytest.raises(ResourceCapError):
        vertices_from_inequalities(cone_rows_system(2, rows), max_dim=1)


def test_cap_env_override(monkeypatch):
    rows = [(0, -1), (-1, 1)]
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "0")
    with pytest.raises(ResourceCapError):
        vertices_from_inequalities(cone_rows_system(1, rows))
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "junk")
    with pytest.raises(ResourceCapError):
        vertices_from_inequalities(cone_rows_system(1, rows))
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "1")
    assert vertices_from_inequalities(cone_rows_system(1, rows)).points == ((0,), (1,))


def test_rational_vertex_coordinates():
    # x >= 0, y >= 0, 2x + 3y <= 1
    rows = [(0, -1, 0), (0, 0, -1), (-1, 2, 3)]
    vs = vertices_from_inequalities(cone_rows_system(2, rows))
    assert vs.points == (
        (0, 0),
        (0, Fraction(1, 3)),
        (Fraction(1, 2), 0),
    )


# --- insertion order ---------------------------------------------------------------

def _off(vec, basis):
    """vec minus its orthogonal projection on the span of the pairwise
    orthogonal basis vectors, over the rationals."""
    u = [Fraction(x) for x in vec]
    for w in basis:
        c = _dot(u, w) / _dot(w, w)
        u = [x - c * y for x, y in zip(u, w)]
    return u


def _orthogonal_basis(lines):
    """Pairwise orthogonal rational vectors spanning the lines (Gram-Schmidt)."""
    basis = []
    for l in lines:
        u = _off(l, basis)
        if any(u):
            basis.append(u)
    return basis


def _cone_result(rows, perm):
    """_dd_cone on rows[perm[0]], rows[perm[1]], ...: its lines, and each ray
    projected off their span and scaled to a coprime integer vector, paired
    with its tight mask over the unpermuted rows."""
    lines, rays = _dd_cone([rows[i] for i in perm], len(rows[0]), "order")
    basis = _orthogonal_basis(lines)
    out = set()
    for r, mask in rays:
        u = _off(r, basis)
        denom = lcm(*(x.denominator for x in u))
        out.add((
            _normalized(tuple(int(x * denom) for x in u)),
            sum(1 << row for i, row in enumerate(perm) if mask >> i & 1),
        ))
    return lines, out


def _assert_order_independent(rows, perm):
    """The run on rows in perm order finds the same rays, tight masks and
    lineality span as the run in insertion-key order."""
    keyed = sorted(range(len(rows)), key=lambda i: _insertion_key(rows[i]))
    lines_k, rays_k = _cone_result(rows, keyed)
    lines_p, rays_p = _cone_result(rows, perm)
    assert len(lines_k) == len(lines_p) == len(_orthogonal_basis(lines_k + lines_p))
    assert rays_k == rays_p


def _vertex_cone_rows(d, rows):
    """The cone rows vertices_from_inequalities builds: x0 >= 0, then (-b, a)."""
    return [(-1,) + (0,) * d] + [(-b,) + tuple(a) for a, b in rows]


def _hull_cone_rows(pts):
    """The cone rows hull_from_vertices builds: (1, p) scaled to integers."""
    return sorted({scale_to_ints((1,) + tuple(p)).nums for p in pts})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    wide_systems().map(lambda data: _vertex_cone_rows(*data)),
    hull_inputs().map(lambda data: _hull_cone_rows(data[1])),
), st.data())
def test_dd_cone_independent_of_row_order(rows, data):
    _assert_order_independent(rows, data.draw(st.permutations(range(len(rows)))))


@pytest.mark.parametrize("seed", range(4))
def test_dd_cone_shuffled_model_rows(seed, k3):
    rng = random.Random(seed)
    system = demihypercube_system(5)
    for rows in (_hull_cone_rows(k3.points), _vertex_cone_rows(5, system.rows)):
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        _assert_order_independent(rows, perm)


# --- model polytopes -------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_demihypercube_vertices_even_weight(m):
    vs = vertices_from_inequalities(demihypercube_system(m), max_dim=m)
    expected = sorted(
        tuple((mask >> i) & 1 for i in range(m))
        for mask in range(1 << m)
        if bin(mask).count("1") % 2 == 0
    )
    assert list(vs.points) == expected


def _tangent_cone_at_0(system):
    """_dd_cone in insertion-key order on the rows a.x <= 0 tight at the origin."""
    rows = sorted((a for a, b in system.rows if b == 0), key=_insertion_key)
    return _dd_cone(rows, system.dimension, f"cone[{system.model}]")


def _edge_count(poly):
    """Pairs of vertices whose common facets hold no third vertex."""
    # per vertex: its facets
    on = _transpose(_incidence(poly.vertices, poly.facets), len(poly.vertices))
    return sum(
        1 for u, v in combinations(on, 2)
        if sum(1 for w in on if w & u & v == u & v) == 2
    )


@pytest.mark.parametrize("m, edges", [(3, 15), (4, 42), (5, 90), (6, 165)])
def test_tangent_cone_at_vertex_0(m, edges):
    counts = []
    for build in (kimura3_system, kimura3_prime_system):
        lines, rays = _tangent_cone_at_0(build(m))
        assert lines == []
        counts.append(len(rays))
    assert counts == [edges, edges]


@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_tangent_cone_at_vertex_0_binary(d):
    lines, rays = _tangent_cone_at_0(demihypercube_system(d))
    assert lines == []
    assert len(rays) == d * (d - 1) // 2


def test_tangent_cone_edges_match_hull_degree(hull_k3, hull_k4):
    """K(m) is vertex-transitive, so the edges at 0 number f_1 * 2 / |V|."""
    for m, poly in ((3, hull_k3), (4, hull_k4)):
        _, rays = _tangent_cone_at_0(kimura3_system(m))
        assert len(rays) * len(poly.vertices) == 2 * _edge_count(poly)
    assert _edge_count(hull_k3) == f_vector(hull_k3).counts[1]


def test_standard_system_vertices_match_generated(k3, delta3_vertices):
    rep = equal_polytopes(delta3_vertices, k3)
    assert rep.equal
    assert rep.checked_a == rep.checked_b == 16


def test_prime_system_vertices_are_transform_images(k3, prime3_vertices):
    images = {to_prime_scaled(scale_to_ints(p)).nums for p in k3.points}
    assert set(prime3_vertices.points) == images
    assert all(
        x == int(x) for point in prime3_vertices.points for x in point
    )


def test_hull_recovers_standard_inequalities(k3, hull_k3):
    d3 = kimura3_system(3)
    hull_rows = {(-b,) + tuple(a) for a, b in hull_k3.facets}
    model_rows = {tuple(r) for r in d3.homogenized_rows()}
    assert hull_rows == model_rows
    assert hull_k3.equations == ()
    assert len(hull_k3.vertices) == 16


def test_roundtrip_inequalities_to_hull(delta3_vertices, hull_k3):
    # vertex enumeration then hull gives back the same irredundant system
    poly = hull_from_vertices(delta3_vertices)
    assert poly.facets == hull_k3.facets
    assert poly.vertices == hull_k3.vertices


def test_enumeration_is_deterministic():
    a = vertices_from_inequalities(kimura3_system(3))
    b = vertices_from_inequalities(kimura3_system(3))
    assert a == b


# --- polytope equality -----------------------------------------------------------

def test_equal_polytopes_detects_difference(k3):
    dh = vertices_from_inequalities(demihypercube_system(3), max_dim=3)
    with pytest.raises(DimensionError):
        equal_polytopes(k3, dh)


def test_equal_polytopes_reports_sides():
    a = VertexSet(2, (1, 2), ((0, 0), (1, 0), (0, 1)))
    b = VertexSet(2, (1, 2), ((0, 0), (1, 0), (1, 1)))
    rep = equal_polytopes(a, b)
    assert not rep.equal
    assert rep.only_a == ((0, 1),)
    assert rep.only_b == ((1, 1),)


# --- integral point scans ----------------------------------------------------------

def test_integral_points_match_generated_vertices(k3):
    pts = enumerate_integral_points(kimura3_system(3))
    assert [tuple(p) for p in pts] == sorted(k3.points)


def test_integral_points_k4_match_brute_force():
    sys4 = kimura3_system(4)
    d = sys4.dimension
    points = sorted(tuple((mask >> i) & 1 for i in range(d)) for mask in range(1 << d))
    brute = [p for p in points if sys4.membership(ScaledPoint(p, 1)).status != "outside"]
    assert enumerate_integral_points(sys4) == brute
    assert len(brute) == 64


def test_integral_points_k8_match_generated_vertices():
    pts = enumerate_integral_points(kimura3_system(8))
    assert pts == sorted(generate_vertices(Z2Z2, 8).points)
    assert len(pts) == 4 ** 7


def test_integral_point_search_logged(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    enumerate_integral_points(demihypercube_system(3))
    assert [r.getMessage() for r in caplog.records if "integral points" in r.getMessage()] == [
        "integral points[binary d=3]: 4 checks, 15 nodes, 4 points",
    ]


@st.composite
def small_systems(draw):
    """Random systems in d <= 10 with coefficients in {-1, 0, 1}, rhs in -2..d.

    Negative rhs, empty pos, rows no 0/1 point can violate (rhs >= |pos|) and
    duplicate rows, anywhere in the order, all occur.
    """
    d = draw(st.integers(min_value=1, max_value=10))
    row = st.tuples(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=d, max_size=d),
        st.integers(min_value=-2, max_value=d),
    )
    rows = draw(st.lists(row, max_size=12))
    if rows:
        rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), max_size=3))))
    return system_from_rows(d, rows)


def _first_violated_reference(system, mask):
    """First violated id by one popcount pair per inequality, in id order."""
    for k, (a, b) in enumerate(system.rows):
        pos = sum(1 << i for i, c in enumerate(a) if c == 1)
        neg = sum(1 << i for i, c in enumerate(a) if c == -1)
        if (mask & pos).bit_count() - (mask & neg).bit_count() > b:
            return k
    return None


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_systems())
@example(
    # never violated, negative rhs, empty pos, a duplicate row
    system_from_rows(4, [((1, 1, 0, 0), 2), ((0, -1, 1, -1), 0), ((1, 0, -1, 1), -1),
                ((0, -1, 0, -1), -2), ((1, 0, -1, 1), -1), ((1, 1, 1, 0), 1)])
)
def test_binary_checks_match_brute_force(system):
    d = system.dimension
    masks = range(1 << d)
    assert [system.binary_violation(mask) for mask in masks] == [
        _first_violated_reference(system, mask) for mask in masks
    ]
    points = sorted(tuple((mask >> i) & 1 for i in range(d)) for mask in masks)
    assert enumerate_integral_points(system) == [
        p for p in points if system.membership(ScaledPoint(p, 1)).status != "outside"
    ]


@st.composite
def integer_coefficient_systems(draw):
    """Random systems in d <= 8 with coefficients in -3..3, rhs in -4..8."""
    d = draw(st.integers(min_value=1, max_value=8))
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-4, 8))
    return system_from_rows(d, draw(st.lists(row, max_size=10)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_coefficient_systems())
# 2x <= 1 cuts off x = 1, though the row has no coefficient +1
@example(system_from_rows(1, [((2,), 1)]))
def test_binary_checks_exact_on_integer_coefficients(system):
    d = system.dimension
    points = [tuple((mask >> i) & 1 for i in range(d)) for mask in range(1 << d)]
    first_violated = [
        next((k for k, (a, b) in enumerate(system.rows) if _dot(a, p) > b), None)
        for p in points
    ]
    assert [system.binary_violation(mask) for mask in range(1 << d)] == first_violated
    assert enumerate_integral_points(system) == sorted(
        p for p, k in zip(points, first_violated) if k is None
    )


def test_integral_points_demihypercube():
    pts = enumerate_integral_points(demihypercube_system(4))
    assert len(pts) == 8
    assert all(sum(p) % 2 == 0 for p in pts)


# --- face counting -----------------------------------------------------------------

def test_f_vector_simplex():
    poly = hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    fv = f_vector(poly)
    assert fv == FVector((4, 6, 4), True)


def test_f_vector_demihypercube3():
    poly = hull_from_vertices(vertices_from_inequalities(demihypercube_system(3)))
    assert f_vector(poly).counts == (4, 6, 4)


def test_f_vector_square():
    poly = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert f_vector(poly).counts == (4, 4)


def test_f_vector_cap(monkeypatch):
    poly = hull_from_vertices(vertices_from_inequalities(demihypercube_system(3)))
    monkeypatch.setattr("clawpoly.engine.DEFAULT_MAX_FACES", 3)
    fv = f_vector(poly)
    assert fv.complete is False


def _closure_rank_f_vector(poly):
    """Reference: close the facet vertex-sets under intersection, then rank each face."""
    incidence = _incidence(poly.vertices, poly.facets)
    masks = set(incidence) - {0}
    frontier = list(masks)
    while frontier:
        mask = frontier.pop()
        for fm in incidence:
            m = mask & fm
            if m and m not in masks:
                masks.add(m)
                frontier.append(m)
    dim = affine_rank(poly.vertices)
    counts = [0] * dim
    for mask in masks:
        counts[affine_rank([v for i, v in enumerate(poly.vertices) if mask >> i & 1])] += 1
    return FVector(tuple(counts), True)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hull_inputs())
def test_f_vector_matches_closure_rank_reference(data):
    _, raw = data
    poly = hull_from_vertices(raw)
    fv = f_vector(poly)
    assert fv == _closure_rank_f_vector(poly)
    # Euler's relation for a dim-polytope: sum (-1)^i f_i = 1 - (-1)^dim
    dim = len(fv.counts)
    assert sum((-1) ** i * c for i, c in enumerate(fv.counts)) == 1 - (-1) ** dim


def test_f_vector_low_dimensional_cases():
    assert f_vector(hull_from_vertices([(1, 2, 3)])) == FVector((), True)
    assert f_vector(hull_from_vertices([(0, 0), (2, 2)])) == FVector((2,), True)
    triangle = hull_from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert triangle.equations
    assert f_vector(triangle) == FVector((3, 3), True)


def test_f_vector_cap_below_facet_count(monkeypatch):
    poly = hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # the cap bounds the running total: facets and edges fit under 10, vertices do not
    for cap, fv in ((3, FVector((0, 0, 0), False)), (10, FVector((0, 6, 4), False)),
                    (14, FVector((4, 6, 4), True))):
        monkeypatch.setattr("clawpoly.engine.DEFAULT_MAX_FACES", cap)
        assert f_vector(poly) == fv


def test_f_vector_levels_logged(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    f_vector(hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert [r.getMessage() for r in caplog.records if "f_vector" in r.getMessage()] == [
        "f_vector: dim 2, 4 faces",
        "f_vector: dim 1, 6 faces",
        "f_vector: dim 0, 4 faces",
        "f_vector: 14 faces, complete=True",
    ]


def test_f_vector_euler_relation(hull_k3):
    fv = f_vector(hull_k3)
    assert fv.complete
    # alternating sum over proper faces of a 9-polytope
    assert sum((-1) ** i * c for i, c in enumerate(fv.counts)) == 2


# --- face counting at vertex 0 of a claw polytope ------------------------------

K4_F_VECTOR = (64, 1344, 12192, 53280, 127000, 177984, 153312, 83016, 28304, 5904, 696, 40)


@pytest.mark.parametrize(
    "spec, m",
    [(Z2, m) for m in range(3, 7)] + [(Z2Z2, 3), (Z3, 3)],
    ids=lambda x: getattr(x, "name", lambda: str(x))(),
)
def test_f_vector_at_vertex_0_equals_generic_walk(spec, m):
    poly = hull_from_vertices(generate_vertices(spec, m), group=spec)
    fv = f_vector(poly, group=spec)
    assert fv.complete
    assert fv == f_vector(poly)


def test_f_vector_k4_at_vertex_0():
    poly = hull_from_vertices(generate_vertices(Z2Z2, 4), group=Z2Z2)
    with _engine_log() as lines:
        assert f_vector(poly, group=Z2Z2) == FVector(K4_F_VECTOR, True)
    assert lines[-2:] == [
        "f_vector at vertex 0: 24 facets through it, 71751 faces walked",
        "f_vector: 643136 faces, complete=True",
    ]


def test_f_vector_at_vertex_0_logs_the_generic_levels(hull_k3):
    with _engine_log() as generic:
        f_vector(hull_k3)
    with _engine_log() as at_zero:
        f_vector(hull_k3, group=Z2Z2)
    # one additive line, ahead of the total
    assert at_zero == generic[:-1] + [
        "f_vector at vertex 0: 18 facets through it, 2491 faces walked", generic[-1]]


@pytest.mark.parametrize(
    "spec, poly",
    [(Z2, hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])),
     (Z3, hull_from_vertices(generate_vertices(Z2Z2, 3), group=Z2Z2)),
     (Z2Z2, hull_from_vertices(generate_vertices(Z2Z2, 3).points[1:]))],
    ids=["square-z2", "k3-z3", "k3-vertex-missing"],
)
def test_f_vector_at_vertex_0_refuses_other_polytopes(spec, poly):
    with pytest.raises(ConfigurationError, match="not the vertices of its claw polytope"):
        f_vector(poly, group=spec)


def test_f_vector_at_vertex_0_under_a_lowered_cap(hull_k3, monkeypatch):
    # the cap counts the faces walked at vertex 0: 18 facets fit, the next level does not
    monkeypatch.setattr(engine, "DEFAULT_MAX_FACES", 100)
    partial = FVector((0,) * 8 + (24,), False)
    assert f_vector(hull_k3, group=Z2Z2) == f_vector(hull_k3) == partial


def test_f_vector_fractional_count_at_vertex_0_is_an_internal_error(hull_k3):
    # a facet through 0 left out: the others' orbits do not add up to whole faces
    drop = next(i for i, (a, b) in enumerate(hull_k3.facets) if b == 0)
    poly = hull_k3._replace(facets=hull_k3.facets[:drop] + hull_k3.facets[drop + 1:])
    with pytest.raises(ConfigurationError, match="dim 8 counts 68/3 faces"):
        f_vector(poly, group=Z2Z2)


def test_f_vector_failing_euler_relation_is_an_internal_error():
    square = hull_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    # a diagonal passed off as a fifth edge, tight on (0, 0) and (1, 1)
    poly = square._replace(facets=square.facets + (((1, -1), 0),))
    with pytest.raises(ConfigurationError, match=r"f-vector \[4, 5\]: Euler's relation fails"):
        f_vector(poly)
