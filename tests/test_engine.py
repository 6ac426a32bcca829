import logging
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from conftest import hull_system, system_from_rows
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clawpoly.coordchange import to_prime_scaled
from clawpoly.engine import (
    FVector,
    PolytopeDD,
    enumerate_integral_points,
    equal_polytopes,
    f_vector,
    hull_from_vertices,
    vertices_from_inequalities,
)
from clawpoly.errors import (
    DimensionError,
    InfeasibleError,
    ResourceCapError,
    UnboundedError,
)
from clawpoly.groups import Z2Z2
from clawpoly.halfspaces import demihypercube_system, kimura3_system
from clawpoly.linalg import affine_rank, kernel_vector, matrix_rank
from clawpoly.rationals import scale_to_ints
from clawpoly.vertices import generate_vertices


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
    for (a, b), mask in zip(poly.facets, poly.incidence):
        for vi, v in enumerate(poly.vertices):
            assert (mask >> vi & 1) == (_dot(a, v) == b)
        assert mask >> len(poly.vertices) == 0
    assert vertices_from_inequalities(hull_system(poly)).points == poly.vertices


def _summaries(caplog):
    return [r.getMessage() for r in caplog.records if "at peak" in r.getMessage()]


def test_hull_k5_counts_and_incidence(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    poly = hull_from_vertices(generate_vertices(Z2Z2, 5))
    assert len(poly.facets) == 68
    assert len(poly.vertices) == 256
    assert poly.equations == ()
    assert list(poly.incidence) == [
        sum(1 << vi for vi, v in enumerate(poly.vertices) if _dot(a, v) == b)
        for a, b in poly.facets
    ]
    # every DD count is pinned, the pairs past the prefilter included
    assert _summaries(caplog) == [
        "hull[d=15 points=256]: 256 rows, 1190 rays at peak, 2689847 candidate pairs, "
        "82723 past prefilter, 11206 adjacent",
    ]


def test_dd_counts_pinned_for_binary_d9(caplog):
    caplog.set_level(logging.INFO, logger="clawpoly.engine")
    vertices_from_inequalities(demihypercube_system(9), max_dim=9)
    assert _summaries(caplog) == [
        "vertices[binary d=9]: 275 rows, 503 rays at peak, 198879 candidate pairs, "
        "1010 past prefilter, 1010 adjacent",
    ]


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
    assert {a + (b,): mask for (a, b), mask in zip(poly.facets, poly.incidence)} == {
        moved(a, b): mask for (a, b), mask in zip(base.facets, base.incidence)
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
        "vertices[binary d=3]: 11 rows, 5 rays at peak, 11 candidate pairs, "
        "8 past prefilter, 8 adjacent",
    ]


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
    a = hull_from_vertices([(0, 0), (1, 0), (0, 1)])
    b = hull_from_vertices([(0, 0), (1, 0), (1, 1)])
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
    brute = [p for p in points if sys4.membership(p).status != "outside"]
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
        p for p in points if system.membership(p).status != "outside"
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


def test_f_vector_cap():
    poly = hull_from_vertices(vertices_from_inequalities(demihypercube_system(3)))
    fv = f_vector(poly, max_faces=3)
    assert fv.complete is False


def _closure_rank_f_vector(poly):
    """Reference: close the facet vertex-sets under intersection, then rank each face."""
    masks = set(poly.incidence) - {0}
    frontier = list(masks)
    while frontier:
        mask = frontier.pop()
        for fm in poly.incidence:
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


def test_f_vector_cap_below_facet_count():
    poly = hull_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert f_vector(poly, max_faces=3) == FVector((0, 0, 0), False)
    # the cap bounds the running total: facets and edges fit, vertices do not
    assert f_vector(poly, max_faces=10) == FVector((0, 6, 4), False)
    assert f_vector(poly, max_faces=14) == FVector((4, 6, 4), True)


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
