import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpoly import witness
from clawpoly.errors import (
    ClassificationUndefinedError,
    ConfigurationError,
    IntegralPointError,
    NotAMemberError,
    NotTightError,
)
from clawpoly.coordchange import point_rows
from clawpoly.groups import Z2, Z2Z2, element, embed, group_sum, identity
from clawpoly.halfspaces import (
    ARow,
    ColumnSimplex,
    InequalitySystem,
    kimura3_prime_system,
    kimura3_system,
)
from clawpoly.linalg import kernel_vector
from clawpoly.rationals import scale_to_ints
from clawpoly.sampling import _combine, _prime_vertex, sample_prime_points
from clawpoly.vertices import Labeling, generate_vertices
from clawpoly.witness import (
    _integer_kernel,
    _step_bounds,
    InteriorWitness,
    NotInterior,
    analyze_point,
    check_containment,
    classify_facet,
    incidence_report,
    interior_witness,
    parity_check,
    pseudo_facet_structure,
    s_facet_count_even,
    violation_witness,
)

H = Fraction(1, 2)


def lab(*residues):
    return Labeling(Z2Z2, tuple(element(Z2Z2, r) for r in residues))


def _rows_point(rows):
    """The ScaledPoint of a 3 x m point given by its rows."""
    return scale_to_ints([x for row in rows for x in row])


def _line(values):
    """The LineAnalysis of values, as the first row of a 3 x n point."""
    zeros = (0,) * len(values)
    return analyze_point(_rows_point([values, zeros, zeros])).rows[0]


def _is_integral(p):
    return not any(x % p.den for x in p.nums)


def test_containment_small():
    rep = check_containment(3)
    assert rep.passed
    assert rep.checked == 16
    assert rep.failures == ()


@pytest.mark.parametrize(
    "family", [ColumnSimplex(2), ARow((1, 2), (1,)), ARow((2, 3), (1, 2, 3))], ids=repr
)
def test_containment_failures_match_brute_force(family, monkeypatch):
    m = 4
    built = kimura3_system(m)
    lowered = built.families.index(family)
    rows = [(a, b - 1) if k == lowered else (a, b) for k, (a, b) in enumerate(built.rows)]
    lowered_system = InequalitySystem("kimura3", (3, m), rows, built.families)
    monkeypatch.setattr(witness, "kimura3_system", lambda m: lowered_system)
    expected = []
    for p in generate_vertices(Z2Z2, m).points:
        for k, (a, b) in enumerate(rows):
            if sum(c * x for c, x in zip(a, p)) > b:
                expected.append((p, k))
                break
    rep = check_containment(m)
    assert expected
    assert list(rep.failures) == expected
    assert (rep.checked, rep.passed) == (64, False)


# --- violation witnesses ------------------------------------------------------

def test_witness_first_residue():
    w = violation_witness(lab((1, 0), (0, 0), (0, 0)))
    assert w.subset == (1,)
    assert w.row_pair == (1, 3)
    assert w.inequality_id == 16
    assert (w.lhs, w.rhs) == (1, 0)


def test_witness_full_subset():
    w = violation_witness(lab((1, 1), (1, 1), (1, 1)))
    assert w.subset == (1, 2, 3)
    assert w.row_pair == (1, 3)
    assert (w.lhs, w.rhs) == (3, 2)


def test_witness_second_residue():
    w = violation_witness(lab((0, 1), (0, 0), (0, 0)))
    assert w.subset == (1,)
    assert w.row_pair == (2, 3)
    assert (w.lhs, w.rhs) == (1, 0)


def test_witness_consistent_is_none():
    assert violation_witness(lab((1, 0), (0, 1), (1, 1))) is None


def test_witness_rejects_other_groups():
    from clawpoly.errors import UnsupportedGroupError

    z2lab = Labeling(Z2, (element(Z2, (1,)),) * 3)
    with pytest.raises(UnsupportedGroupError):
        violation_witness(z2lab)


def test_witness_always_violates():
    # every inconsistent labeling of 4 leaves produces lhs exceeding rhs
    for residues in product(((0, 0), (1, 0), (0, 1), (1, 1)), repeat=4):
        labeling = lab(*residues)
        w = violation_witness(labeling)
        if group_sum(Z2Z2, labeling.elements) == identity(Z2Z2):
            assert w is None
        else:
            assert w.lhs > w.rhs
            assert len(w.subset) % 2 == 1


Z2Z2_RESIDUES = ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("m", range(3, 9))
def test_witness_matches_the_built_row(m):
    """The witness's (id, lhs, rhs) read off the built system: every
    inconsistent labeling for m <= 5, a seeded sample above that."""
    if m <= 5:
        labelings = product(Z2Z2_RESIDUES, repeat=m)
    else:
        rng = random.Random(m)
        labelings = [tuple(rng.choice(Z2Z2_RESIDUES) for _ in range(m)) for _ in range(200)]
    sys_ = kimura3_system(m)
    checked = 0
    for residues in labelings:
        labeling = lab(*residues)
        w = violation_witness(labeling)
        if w is None:
            continue
        a, b = sys_.rows[w.inequality_id]
        cols = [embed(Z2Z2, g) for g in labeling.elements]
        flat = [col[r] for r in range(3) for col in cols]
        assert sys_.families[w.inequality_id] == ARow(w.row_pair, w.subset)
        assert (w.lhs, w.rhs) == (sum(c * x for c, x in zip(a, flat)), b)
        checked += 1
    # three in four labelings are inconsistent
    assert checked == 3 * 4 ** (m - 1) if m <= 5 else checked > 100


# --- line-level classification ------------------------------------------------

def test_line_tight_subsets_frozen():
    assert _line((1, 1, 0, 0)).tight == ((1,), (1, 2, 3), (1, 2, 4), (2,))
    assert _line((0, 0, 0)).tight == ((1,), (2,), (3,))
    assert _line((H, H, 0)).tight == ((1,), (2,))
    assert _line((H, H, H)).tight == ()


def test_classify_same_side():
    assert classify_facet(_line((H, H, 1)), (3,)) == "S"
    assert parity_check(_line((H, H, 1)), (3,)) is True


def test_classify_opposite_sides():
    assert classify_facet(_line((H, H, 0)), (1,)) == "O"
    assert parity_check(_line((H, H, 0)), (1,)) is True


def test_classify_needs_two_nonintegral():
    with pytest.raises(ClassificationUndefinedError):
        classify_facet(_line((H, H, H)), (1,))
    with pytest.raises(ClassificationUndefinedError):
        classify_facet(_line((1, 0, 0)), (1,))


def test_classify_needs_tightness():
    # (1/2, 1/2, 1) is tight on (3,) and (1,2,3) but not on (1,)
    with pytest.raises(NotTightError):
        classify_facet(_line((H, H, 1)), (1,))


def test_classify_rejects_even_subsets():
    with pytest.raises(ClassificationUndefinedError):
        classify_facet(_line((H, H, 0)), (1, 2))


# --- incidence reports ---------------------------------------------------------

P1_POINT = _rows_point([(H, H, 0), (H, H, 0), (0, 0, 0)])
ZERO_POINT = _rows_point([(0, 0, 0)] * 3)
OUTSIDE_POINT = _rows_point([(3, 0, 0), (0, 0, 0), (0, 0, 0)])
HALF_POINT = _rows_point([(H, H, H)] * 3)


def test_p1_incidence_frozen():
    rep = incidence_report(analyze_point(P1_POINT))
    assert rep.k == 4
    assert rep.omega == 4
    assert rep.tag == "P1"
    assert rep.support == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert rep.row_nonintegral == (2, 2, 0)
    assert rep.col_nonintegral == (2, 2, 0)
    assert rep.row_tight == (2, 2, 3)
    assert rep.col_tight == (2, 2, 3)


def test_integral_point_incidence():
    rep = incidence_report(analyze_point(ZERO_POINT))
    assert rep.k == 0
    assert rep.omega == 0
    assert rep.tag == "none"


def test_incidence_requires_membership():
    with pytest.raises(NotAMemberError):
        incidence_report(analyze_point(OUTSIDE_POINT))


def test_p1_structure_passes():
    rep = pseudo_facet_structure(analyze_point(P1_POINT))
    assert rep.passed
    rows = {c.row: c for c in rep.rows}
    assert rows[1].nonintegral == 2
    assert rows[3].nonintegral == 0
    assert rows[3].tight_subsets == ((1,), (2,), (3,))


# --- interior witnesses ----------------------------------------------------------

def test_p1_interior_witness_frozen():
    wit = interior_witness(analyze_point(P1_POINT))
    assert isinstance(wit, InteriorWitness)
    assert point_rows(wit.direction) == ((1, 1, 0), (1, 1, 0), (0, 0, 0))
    assert wit.epsilon == Fraction(1, 4)


def test_p1_witness_endpoints_inside():
    sys3 = kimura3_prime_system(3)
    wit = interior_witness(analyze_point(P1_POINT))
    flat = P1_POINT.values()
    vdir = wit.direction.values()
    up = [x + wit.epsilon * v for x, v in zip(flat, vdir)]
    dn = [x - wit.epsilon * v for x, v in zip(flat, vdir)]
    assert sys3.membership(up).status == "boundary"
    assert sys3.membership(dn).status != "outside"
    assert up != dn


def test_kernel_branch_witness():
    # strictly interior point: no tight inequality, k=9 > omega=6
    pt = analyze_point(HALF_POINT)
    rep = incidence_report(pt)
    assert (rep.k, rep.omega, rep.tag) == (9, 6, "other")
    wit = interior_witness(pt)
    assert isinstance(wit, InteriorWitness)
    assert wit.epsilon > 0
    assert wit.direction.den > 0
    assert any(x != 0 for x in wit.direction.nums)
    sys3 = kimura3_prime_system(3)
    for sign in (1, -1):
        moved = [
            x + sign * wit.epsilon * v
            for x, v in zip(HALF_POINT.values(), wit.direction.values())
        ]
        assert sys3.membership(moved).status != "outside"


def test_interior_witness_rejects_integral():
    with pytest.raises(IntegralPointError):
        interior_witness(analyze_point(ZERO_POINT))


def test_interior_witness_rejects_nonmembers():
    with pytest.raises(NotAMemberError):
        interior_witness(analyze_point(OUTSIDE_POINT))


def test_s_facet_count_even_p1():
    assert s_facet_count_even(analyze_point(P1_POINT)) is True


def test_s_facet_count_needs_cycle():
    with pytest.raises(ConfigurationError):
        s_facet_count_even(analyze_point(HALF_POINT))


def test_not_interior_is_distinct_type():
    # the failure carrier is a separate type so callers cannot mistake it
    assert not isinstance(NotInterior("x"), InteriorWitness)


# --- integer-numerator paths against Fraction references -------------------------

def _tight_reference(values):
    values = [Fraction(v) for v in values]
    n = len(values)
    subs = sorted(s for k in range(1, n + 1, 2) for s in combinations(range(1, n + 1), k))
    return tuple(
        sub for sub in subs
        if sum(values[i - 1] for i in sub) - sum(values[i - 1] for i in range(1, n + 1) if i not in sub)
        == len(sub) - 1
    )


def _step_reference(sys_, flat, direction):
    t_plus = t_minus = None
    for a, b in sys_.rows:
        rate = sum(Fraction(c) * Fraction(v) for c, v in zip(a, direction))
        slack = b - sum(Fraction(c) * Fraction(x) for c, x in zip(a, flat))
        if slack == 0:
            if rate != 0:
                return None
            continue
        if rate > 0 and (t_plus is None or slack / rate < t_plus):
            t_plus = slack / rate
        elif rate < 0 and (t_minus is None or slack / -rate < t_minus):
            t_minus = slack / -rate
    return t_plus, t_minus


def _combine_reference(flats, weights):
    """The combination's coordinates as canonical rationals."""
    total = sum(weights)
    flat = [
        sum(Fraction(w) * x for w, x in zip(weights, col)) / total
        for col in zip(*flats)
    ]
    return tuple(int(x) if x.denominator == 1 else x for x in flat)


# values that often sit on pseudo-facets, plus free rationals
_line_values = st.one_of(
    st.sampled_from([0, 1, H, Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
                     Fraction(1, 1), -1, 2, Fraction(-1, 2), Fraction(3, 2)]),
    st.fractions(min_value=-2, max_value=3, max_denominator=40),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_line_values, min_size=3, max_size=7))
def test_line_tight_subsets_matches_fraction_reference(values):
    assert _line(values).tight == _tight_reference(values)


def test_line_tight_subsets_on_sampled_lines():
    for p in sample_prime_points(5, 60, seed=11):
        pt = analyze_point(p)
        rows = point_rows(p)
        cols = list(zip(*rows))
        for line, values in zip(pt.rows + pt.cols, rows + tuple(cols)):
            assert line.tight == _tight_reference(values)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from(["witness", "integer", "rational"]),
    st.data(),
)
def test_step_bounds_match_fraction_reference(m, seed, kind, data):
    sys_ = kimura3_prime_system(m)
    p = sample_prime_points(m, 1, seed)[0]
    flat = p.values()
    if kind == "witness":
        if _is_integral(p):
            return
        wit = interior_witness(analyze_point(p))
        if not isinstance(wit, InteriorWitness):
            return
        scaled, direction = wit.direction, wit.direction.values()
    else:
        coord = (st.integers(min_value=-3, max_value=3) if kind == "integer"
                 else st.fractions(min_value=-2, max_value=2, max_denominator=9))
        direction = data.draw(st.lists(coord, min_size=3 * m, max_size=3 * m))
        if all(v == 0 for v in direction):
            return
        # zero at integral coordinates leaves the tight box rows alone more often
        if data.draw(st.booleans()):
            direction = [v if not x == int(x) else 0 for x, v in zip(flat, direction)]
            if all(v == 0 for v in direction):
                return
        scaled = scale_to_ints(direction)
    # the sample and the witness direction come over unreduced denominators
    assert _step_bounds(sys_, p, scaled) == _step_reference(sys_, flat, direction)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.data())
def test_combine_matches_fraction_reference(m, data):
    verts = [_prime_vertex(m, i) for i in range(4 ** (m - 1))]
    picks = data.draw(st.lists(st.sampled_from(verts), min_size=1, max_size=5))
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=8),
                                 min_size=len(picks), max_size=len(picks)))
    got = _combine(picks, weights).values()
    want = _combine_reference(picks, weights)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@st.composite
def _kernel_systems(draw, entries=st.sampled_from([-1, 0, 1]), sums=False):
    """Row systems of up to 15 columns, as _kernel_direction builds them,
    with rows repeated or negated (and, with sums, added to others), so
    that many are rank-deficient."""
    k = draw(st.integers(min_value=1, max_value=15))
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), max_size=12))
    if rows:
        extra = draw(st.lists(
            st.tuples(st.sampled_from(range(len(rows))), st.sampled_from(range(len(rows))),
                      st.sampled_from([-1, 1])),
            max_size=6,
        ))
        for i, j, c in extra:
            base = rows[i] if sums else [0] * k
            rows.insert(i, [x + c * y for x, y in zip(base, rows[j])])
    return rows, k


def _same_vector(got, want):
    """The integer kernel's vector, over a positive denominator, has the
    Fraction kernel's values and types."""
    if got is None or want is None:
        return got is want
    values = got.values()
    types = [type(x) for x in values]
    return got.den > 0 and values == want and types == [type(x) for x in want]


@settings(max_examples=400, deadline=None)
@given(_kernel_systems())
def test_integer_kernel_matches_fraction_kernel(system):
    rows, k = system
    assert _same_vector(_integer_kernel(rows, k), kernel_vector(rows, k))


@settings(max_examples=150, deadline=None)
@given(_kernel_systems(st.integers(min_value=-7, max_value=7), sums=True))
def test_integer_kernel_matches_fraction_kernel_on_wider_entries(system):
    rows, k = system
    assert _same_vector(_integer_kernel(rows, k), kernel_vector(rows, k))
