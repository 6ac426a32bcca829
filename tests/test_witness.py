import random
from collections import Counter
from fractions import Fraction
from math import comb
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpoly import halfspaces, suites, witness
from clawpoly.errors import ConfigurationError, IntegralPointError, NotAMemberError
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
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.sampling import (
    _combine,
    _prime_vertex,
    sample_prime_points,
    sample_prime_segment_points,
)
from clawpoly.vertices import Labeling, generate_vertices, unpack_points, vertex_masks
from clawpoly.witness import (
    ContainmentReport,
    _integer_kernel,
    _step_bounds,
    InteriorWitness,
    NotInterior,
    analyze_point,
    check_containment,
    interior_witness,
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
    monkeypatch.setitem(halfspaces.MODEL_BUILDERS, "kimura3", lambda m: lowered_system)
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


def _per_vertex_containment(m):
    """check_containment's reference: every vertex of vertex_masks, in
    order, through binary_violation alone."""
    system = halfspaces.model_system("kimura3", m)
    masks = vertex_masks(Z2Z2, m)
    failures = tuple(
        (unpack_points([mask], system.dimension)[0], vid)
        for mask in masks
        if (vid := system.binary_violation(mask)) is not None
    )
    return ContainmentReport(m, len(masks), failures, not failures)


def _tightened(count):
    """A kimura3 builder with the right-hand sides of count rows, drawn at
    random, lowered by 1: a vertex tight on a lowered row fails, at the
    first such row."""
    def build(m):
        built = kimura3_system(m)
        lowered = set(random.Random(m).sample(range(len(built)), count(len(built))))
        rows = [(a, b - (k in lowered)) for k, (a, b) in enumerate(built.rows)]
        return InequalitySystem("kimura3", (3, m), rows, built.families)
    return build


def _scanned_containment(m, monkeypatch):
    """check_containment(m), and the masks it passed to binary_violation."""
    real, checked = InequalitySystem.binary_violation, []
    with monkeypatch.context() as patch:
        patch.setattr(InequalitySystem, "binary_violation",
                      lambda system, mask: checked.append(mask) or real(system, mask))
        return check_containment(m), checked


@pytest.mark.parametrize("m", range(3, 10))
def test_containment_matches_the_per_vertex_scan(m, monkeypatch):
    # m - 1 <= witness.BLOCK_LEAVES (m=3..5): one block holds every free leaf
    rep, checked = _scanned_containment(m, monkeypatch)
    assert rep == _per_vertex_containment(m)
    assert (rep.checked, rep.passed) == (4 ** (m - 1), True)
    # the lanes flag no vertex, so none is evaluated alone
    assert checked == []


# two lowered rows (16 of 16 vertices fail at m=3, 4,527 of 65,536 at m=9), or
# a third of them (every vertex fails, most at several rows)
@pytest.mark.parametrize("count", [lambda n: 2, lambda n: n // 3], ids=["two", "third"])
@pytest.mark.parametrize("m", range(3, 10))
def test_containment_failures_match_the_per_vertex_scan(m, count, monkeypatch):
    monkeypatch.setitem(halfspaces.MODEL_BUILDERS, "kimura3", _tightened(count))
    rep, checked = _scanned_containment(m, monkeypatch)
    expected = _per_vertex_containment(m)
    assert expected.failures
    # the same failing vertices, in the same order, each with the same row
    assert rep == expected
    # the lanes flag exactly the failing vertices
    assert len(checked) == len(rep.failures)


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
    line = _line((H, H, 1))
    assert line.facet_class((3,)) == "S"
    assert line.parity_holds((3,)) is True


def test_classify_opposite_sides():
    line = _line((H, H, 0))
    assert line.facet_class((1,)) == "O"
    assert line.parity_holds((1,)) is True


# --- point analyses ------------------------------------------------------------

P1_POINT = _rows_point([(H, H, 0), (H, H, 0), (0, 0, 0)])
ZERO_POINT = _rows_point([(0, 0, 0)] * 3)
OUTSIDE_POINT = _rows_point([(3, 0, 0), (0, 0, 0), (0, 0, 0)])
HALF_POINT = _rows_point([(H, H, H)] * 3)


def _law_failures(pt):
    """The failures the pseudo-facet laws report at one analysed point."""
    counts, failures = Counter(), []
    suites._pseudo_facet_checks(pt, counts, failures)
    return counts["cycle_configs"], failures


def test_p1_incidence_frozen():
    pt = analyze_point(P1_POINT)
    assert (len(pt.support), pt.omega, pt.tag) == (4, 4, "P1")
    assert pt.support == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert [len(line.nonintegral) for line in pt.rows + pt.cols] == [2, 2, 0, 2, 2, 0]
    assert [len(line.tight) for line in pt.rows + pt.cols] == [2, 2, 3, 2, 2, 3]


def test_integral_point_incidence():
    pt = analyze_point(ZERO_POINT)
    assert (len(pt.support), pt.omega, pt.tag) == (0, 0, "none")


def test_incidence_requires_membership():
    with pytest.raises(NotAMemberError):
        analyze_point(OUTSIDE_POINT).require_member()


def test_p1_structure_passes():
    pt = analyze_point(P1_POINT)
    assert _law_failures(pt) == (1, [])
    assert len(pt.rows[0].nonintegral) == 2
    assert pt.rows[2].nonintegral == ()
    assert pt.rows[2].tight == ((1,), (2,), (3,))


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
    assert sys3.membership(scale_to_ints(up)).status == "boundary"
    assert sys3.membership(scale_to_ints(dn)).status != "outside"
    assert up != dn


def test_kernel_branch_witness():
    # strictly interior point: no tight inequality, k=9 > omega=6
    pt = analyze_point(HALF_POINT)
    assert (len(pt.support), pt.omega, pt.tag) == (9, 6, "other")
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
        assert sys3.membership(scale_to_ints(moved)).status != "outside"


def test_interior_witness_rejects_integral():
    with pytest.raises(IntegralPointError):
        interior_witness(analyze_point(ZERO_POINT))


def test_interior_witness_rejects_nonmembers():
    with pytest.raises(NotAMemberError):
        interior_witness(analyze_point(OUTSIDE_POINT))


def test_s_facet_count_even_p1():
    # the four lines of the P1 cycle are O-lines: no S-line, an even count
    pt = analyze_point(P1_POINT)
    assert [line.line_class() for line in pt.support_lines()] == ["O"] * 4
    assert _law_failures(pt) == (1, [])


def test_s_facet_count_needs_cycle():
    # k = 9 > omega = 6: no cycle, so the S-count law is not asked
    assert _law_failures(analyze_point(HALF_POINT)) == (0, [])


_P1_PATTERN = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
_P2_PATTERN = frozenset({(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)})


def _tag_by_permutation_search(support):
    """The configuration tag by trying every row and column permutation of
    the support's occupied lines against the P1 and P2 patterns."""
    if not support:
        return "none"
    rows = sorted({i for i, _ in support})
    cols = sorted({j for _, j in support})
    base = {(rows.index(i), cols.index(j)) for i, j in support}
    for tag, pattern in (("P1", _P1_PATTERN), ("P2", _P2_PATTERN)):
        if len(base) == len(pattern) and any(
            {(rp[i], cp[j]) for i, j in base} == pattern
            for rp in permutations(range(len(rows)))
            for cp in permutations(range(len(cols)))
        ):
            return tag
    return "other"


@pytest.mark.parametrize("m", [3, 4])
def test_configuration_tag_matches_permutation_search(m):
    cells = [(i, j) for i in range(1, 4) for j in range(1, m + 1)]
    tags = []
    for mask in range(1 << len(cells)):
        support = tuple(c for k, c in enumerate(cells) if mask >> k & 1)
        tags.append(witness._configuration_tag(support))
        assert tags[-1] == _tag_by_permutation_search(support), support
    # P1: a 2 x 2 block; P2: a 3 x 3 block less one of its 6 permutation matrices
    assert tags.count("P1") == comb(3, 2) * comb(m, 2)
    assert tags.count("P2") == 6 * comb(m, 3)


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


@st.composite
def _flat_points(draw):
    """A flat 3 x m point of canonical rationals, m in 3..6: a sampled member,
    or free values that are mostly not members."""
    m = draw(st.integers(min_value=3, max_value=6))
    if draw(st.booleans()):
        sampler = draw(st.sampled_from([sample_prime_points, sample_prime_segment_points]))
        (p,) = sampler(m, 1, draw(st.integers(min_value=0, max_value=10 ** 6)))
        return p.values()
    return tuple(draw(st.lists(_line_values, min_size=3 * m, max_size=3 * m)))


# 200 points check about 1,500 lines, every row and column of each
@settings(max_examples=200, deadline=None)
@given(_flat_points())
def test_line_tight_subsets_matches_fraction_reference(flat):
    m = len(flat) // 3
    pt = analyze_point(scale_to_ints(flat))
    rows = [flat[r * m:(r + 1) * m] for r in range(3)]
    cols = [flat[c::m] for c in range(m)]
    for line, values in zip(pt.rows + pt.cols, rows + cols):
        assert line.tight == _tight_reference(values)


def test_line_tight_subsets_on_sampled_lines():
    for p in sample_prime_points(5, 60, seed=11):
        pt = analyze_point(p)
        rows = point_rows(p)
        cols = list(zip(*rows))
        for line, values in zip(pt.rows + pt.cols, rows + tuple(cols)):
            assert line.tight == _tight_reference(values)


def _scaled(point, factor):
    """The same point with numerators and denominator times factor."""
    return ScaledPoint(tuple(x * factor for x in point.nums), point.den * factor)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from(["witness", "integer", "rational", "one-row"]),
    st.sampled_from([1, 1 << 12, 1 << 70]),
    st.data(),
)
def test_step_bounds_match_fraction_reference(m, seed, kind, factor, data):
    """_step_bounds on the analysis lanes of a point, scaled by factor (which
    widens its lanes and the direction's past 16 and 64 bits), against
    Fractions."""
    sys_ = kimura3_prime_system(m)
    (p,) = sample_prime_points(m, 1, seed)
    flat = p.values()
    p = _scaled(p, factor)
    if kind == "one-row":
        # coordinate t zeroed in every row but row j: the direction along t moves row j
        # alone, so it stops on one side only, or on neither when row j is tight
        t = data.draw(st.integers(min_value=0, max_value=3 * m - 1))
        j = data.draw(st.sampled_from([j for j, (a, _) in enumerate(sys_.rows) if a[t]]))
        rows = [(a if i == j else a[:t] + (0,) + a[t + 1:], b)
                for i, (a, b) in enumerate(sys_.rows)]
        sys_ = InequalitySystem(sys_.model, sys_.shape, rows, sys_.families)
        direction = [0] * (3 * m)
        direction[t] = data.draw(st.sampled_from([-2, -1, H, 1, 3]))
        lanes = sys_.evaluate(p.nums, p.den)
        scaled = _scaled(scale_to_ints(direction), factor)
        if _step_reference(sys_, flat, direction) is None:
            assert _step_bounds(sys_, lanes, p.den, scaled) is None
        else:
            with pytest.raises(ConfigurationError):
                _step_bounds(sys_, lanes, p.den, scaled)
        return
    pt = analyze_point(p)
    if kind == "witness":
        if _is_integral(p):
            return
        wit = interior_witness(pt)
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
    got = _step_bounds(sys_, pt.lanes, p.den, _scaled(scaled, factor))
    assert got == _step_reference(sys_, flat, direction)


def test_step_bounds_at_every_lane_width():
    """The witness steps of sampled points, their lanes widened bit by bit
    from 8 to 136 bits: the typed reads at 8, 16, 32 and 64 bits and the
    byte slicing at every other width all give the Fraction steps."""
    widths = set()
    for m, seed in ((3, 1), (4, 2), (5, 3)):
        sys_ = kimura3_prime_system(m)
        for p in sample_prime_points(m, 8, seed):
            pt = analyze_point(p)
            if _is_integral(p) or not isinstance(wit := interior_witness(pt), InteriorWitness):
                continue
            want = _step_reference(sys_, p.values(), wit.direction.values())
            for k in range(0, 128, 5):
                lanes = analyze_point(_scaled(p, 1 << k)).lanes
                widths.add(lanes[1])
                got = _step_bounds(sys_, lanes, p.den << k, _scaled(wit.direction, 1 << k))
                assert got == want, (m, p, k)
    assert {8, 16, 24, 32, 64, 72} <= widths and max(widths) > 128


@pytest.mark.parametrize("m", range(3, 11))
def test_line_table_matches_the_family_tags(m):
    """Each row of the prime system sits on the line its tag names, ARow((r,),
    A) on row r and BColumn(B, c) on column c, and on that line only: its
    nonzero coefficients are that line's, +1 on the subset and -1 off it."""
    sys_ = kimura3_prime_system(m)
    table = witness._line_table(sys_)
    assert len(table) == len(sys_)
    lines = [range(r * m, (r + 1) * m) for r in range(3)] + [range(c, 3 * m, m) for c in range(m)]
    for (line, subset), tag, (a, _) in zip(table, sys_.families, sys_.rows):
        if isinstance(tag, ARow):
            assert (line, subset) == (tag.rows[0] - 1, tag.subset)
        else:
            assert (line, subset) == (2 + tag.col, tag.subset)
        on_line = [a[i] for i in lines[line]]
        assert sum(map(abs, a)) == len(on_line)
        assert subset == tuple(i for i, x in enumerate(on_line, 1) if x == 1)


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


@st.composite
def _sparse_kernel_systems(draw):
    """Sparse +-1 systems, as the tight relations of a support are: rows of one
    to four nonzero entries, zero columns, zero rows, repeated and negated
    rows, and a rank-deficient block, an even cycle of rows +-(e_a + e_b)
    whose rank is one less than its length."""
    k = draw(st.integers(min_value=1, max_value=15))
    live = sorted(draw(st.sets(st.sampled_from(range(k)), min_size=1)))  # others stay zero
    sign = st.sampled_from([-1, 1])
    rows = []
    for cols in draw(st.lists(st.sets(st.sampled_from(live), min_size=1, max_size=4),
                              max_size=10)):
        rows.append([draw(sign) if c in cols else 0 for c in range(k)])
    if len(live) >= 4 and draw(st.booleans()):
        length = draw(st.sampled_from([4, 6] if len(live) >= 6 else [4]))
        cycle = draw(st.permutations(live))[:length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            s = draw(sign)
            rows.append([s if c in (a, b) else 0 for c in range(k)])
    rows += [[0] * k] * draw(st.integers(min_value=0, max_value=2))
    if rows:
        for i, s in draw(st.lists(st.tuples(st.sampled_from(range(len(rows))), sign),
                                  max_size=4)):
            rows.append([s * x for x in rows[i]])
    return draw(st.permutations(rows)), k


def _same_vector(got, want):
    """The integer kernel's vector, over a positive denominator, has the
    Fraction kernel's values and types."""
    if got is None or want is None:
        return got is want
    values = got.values()
    types = [type(x) for x in values]
    return got.den > 0 and values == want and types == [type(x) for x in want]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_kernel_systems(), _sparse_kernel_systems()))
def test_integer_kernel_matches_fraction_kernel(system):
    rows, k = system
    assert _same_vector(_integer_kernel(rows, k), kernel_vector(rows, k))


@settings(max_examples=150, deadline=None)
@given(_kernel_systems(st.integers(min_value=-7, max_value=7), sums=True))
def test_integer_kernel_matches_fraction_kernel_on_wider_entries(system):
    rows, k = system
    assert _same_vector(_integer_kernel(rows, k), kernel_vector(rows, k))
