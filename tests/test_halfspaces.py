from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpoly.errors import DimensionError, LeafCountError, NotAMemberError, UnsupportedGroupError
from clawpoly.halfspaces import (
    ARow,
    BColumn,
    Box,
    ColumnSimplex,
    ROW_PAIRS,
    InequalitySystem,
    NonNeg,
    arow_id,
    demihypercube_system,
    kimura3_prime_system,
    kimura3_system,
    model_system,
    odd_subset_rank,
    odd_subsets,
    row_count,
)
from clawpoly.coordchange import to_prime_scaled
from clawpoly.groups import Z2Z2
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.vertices import generate_vertices


def test_odd_subsets_lex_order():
    assert odd_subsets(3) == ((1,), (1, 2, 3), (2,), (3,))
    assert len(odd_subsets(5)) == 16
    subs = odd_subsets(4)
    assert subs == tuple(sorted(subs))
    assert all(len(s) % 2 == 1 for s in subs)


def test_odd_subset_rank_is_the_position_in_odd_subsets():
    for n in range(1, 12):
        subs = odd_subsets(n)
        assert [odd_subset_rank(sub, n) for sub in subs] == list(map(subs.index, subs))


@pytest.mark.parametrize("m", range(3, 9))
def test_arow_id_is_the_row_position(m):
    families = kimura3_system(m).families
    ids = [arow_id(m, pair, sub) for pair in ROW_PAIRS for sub in odd_subsets(m)]
    assert ids == list(range(4 * m, len(families)))
    assert [families[i] for i in ids] == [
        ARow(pair, sub) for pair in ROW_PAIRS for sub in odd_subsets(m)
    ]


def test_family_counts():
    assert len(kimura3_system(3)) == 24
    assert len(kimura3_system(4)) == 40
    assert len(kimura3_system(5)) == 68
    assert len(kimura3_prime_system(3)) == 24
    assert len(demihypercube_system(3)) == 10
    assert len(demihypercube_system(5)) == 26


def test_family_layout_kimura3():
    sys_ = kimura3_system(3)
    assert sys_.families[0] == NonNeg(1, 1)
    assert sys_.families[8] == NonNeg(3, 3)
    assert sys_.families[9] == ColumnSimplex(1)
    assert sys_.families[12] == ARow((1, 2), (1,))
    assert sys_.families[13] == ARow((1, 2), (1, 2, 3))
    assert sys_.families[16] == ARow((1, 3), (1,))
    assert sys_.families[23] == ARow((2, 3), (3,))
    assert [t.kind for t in sys_.families] == ["nonneg"] * 9 + ["simplex"] * 3 + ["arow"] * 12


def test_family_layout_prime():
    sys_ = kimura3_prime_system(3)
    assert sys_.families[0] == ARow((1,), (1,))
    assert sys_.families[11] == ARow((3,), (3,))
    assert sys_.families[12] == BColumn((1,), 1)
    assert sys_.families[23] == BColumn((3,), 3)
    assert [t.kind for t in sys_.families] == ["arow"] * 12 + ["bcolumn"] * 12


def test_family_layout_demihypercube():
    sys_ = demihypercube_system(3)
    assert sys_.families[0] == Box(1, False)
    assert sys_.families[3] == Box(1, True)
    assert sys_.families[6] == ARow((1,), (1,))
    assert [t.kind for t in sys_.families] == ["box"] * 6 + ["arow"] * 4


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
def test_family_tags_distinct(model):
    # tags are tuples, equal across types when their fields are
    # (NonNeg(1, 1) == Box(1, True)); within one system no two are equal, so
    # families.index(tag) finds that tag's own row
    for m in (3, 4, 5):
        families = model_system(model, m).families
        assert len(set(families)) == len(families)


def test_arow_normal_form():
    sys_ = kimura3_system(3)
    q = sys_.rows[sys_.families.index(ARow((1, 2), (1, 2, 3)))]
    assert q == ((1, 1, 1, 1, 1, 1, 0, 0, 0), 2)
    q1 = sys_.rows[sys_.families.index(ARow((1, 3), (1,)))]
    assert q1 == ((1, -1, -1, 0, 0, 0, 1, -1, -1), 0)


def test_membership_statuses():
    sys_ = kimura3_system(3)
    quarter = ScaledPoint((1,) * 9, 4)
    assert sys_.membership(quarter).status == "inside"
    assert sys_.membership([Fraction(1, 4)] * 9).status == "inside"
    zero = (0,) * 9
    assert sys_.membership(zero).status == "boundary"
    e1 = (1, 1, 1, 0, 0, 0, 0, 0, 0)
    res = sys_.membership(e1)
    assert res.status == "outside"
    assert res.violated == (13, 17)


def test_tight_sets_frozen():
    dh = demihypercube_system(3)
    ts = dh.tight_set((1, 1, 0))
    assert ts.ids == (2, 3, 4, 6, 7, 8)
    half = dh.tight_set((Fraction(1, 2), Fraction(1, 2), 0))
    assert dict(half.by_kind)["box"] == (2,)
    assert dict(half.by_kind)["arow"] == (6, 8)

    prime = kimura3_prime_system(3)
    ts0 = prime.tight_set((0,) * 9)
    assert len(ts0.ids) == 18
    assert dict(ts0.by_kind)["arow"] == (0, 2, 3, 4, 6, 7, 8, 10, 11)


def test_tight_set_requires_membership():
    with pytest.raises(NotAMemberError):
        demihypercube_system(3).tight_set((2, 0, 0))


def test_flatten_accepts_matrix_and_sequence():
    # a 3 x 3 matrix comes flattened row-major, as any sequence of rationals
    sys_ = kimura3_system(3)
    flat = sys_.flatten([Fraction(2, 2)] + [0] * 8)
    assert flat == (1,) + (0,) * 8
    assert type(flat[0]) is int
    assert sys_.flatten((0,) * 9) == (0,) * 9
    with pytest.raises(DimensionError):
        sys_.flatten([0] * 8)
    with pytest.raises(DimensionError):
        sys_.membership(ScaledPoint((0,) * 8, 1))


def test_model_system_dispatch():
    assert model_system("binary", 4) is demihypercube_system(4)
    assert model_system("kimura3", 3) is kimura3_system(3)
    assert model_system("kimura3-prime", 3) is kimura3_prime_system(3)
    with pytest.raises(UnsupportedGroupError):
        model_system("jukes", 3)


def test_leaf_bounds():
    with pytest.raises(LeafCountError):
        kimura3_system(2)
    with pytest.raises(LeafCountError):
        kimura3_prime_system(1)
    assert len(demihypercube_system(1)) == 3


@given(st.integers(min_value=0, max_value=2 ** 9 - 1))
def test_binary_violation_agrees_with_membership(mask):
    sys_ = kimura3_system(3)
    point = tuple((mask >> i) & 1 for i in range(9))
    violated_id = sys_.binary_violation(mask)
    res = sys_.membership(point)
    if violated_id is None:
        assert res.status != "outside"
    else:
        assert res.status == "outside"
        assert violated_id in res.violated


@given(st.integers(min_value=3, max_value=6))
def test_row_count_formulas(m):
    assert len(kimura3_system(m)) == 3 * m + m + 3 * 2 ** (m - 1)
    assert len(kimura3_prime_system(m)) == 3 * 2 ** (m - 1) + 4 * m
    assert len(demihypercube_system(m)) == 2 * m + 2 ** (m - 1)



def _row_by_row_lanes(system):
    """The packed checks built one row at a time, each lane added into ints
    that grow with every row: the construction the one-pass packer replaced."""
    checks = []  # (id, rhs, positions of +1, positions of -1)
    for k, (a, b) in enumerate(system.rows):
        pos_at = [i for i, c in enumerate(a) if c == 1]
        if len(pos_at) > b:
            checks.append((k, b, pos_at, [i for i, c in enumerate(a) if c == -1]))
    reach = max(
        (max(b + 1 + len(neg_at), len(pos_at) - b) for _, b, pos_at, neg_at in checks), default=0
    )
    width = reach.bit_length() + 1
    half = 1 << (width - 1)
    base = top = 0
    pos = [0] * system.dimension
    neg = [0] * system.dimension
    for j, (_, b, pos_at, neg_at) in enumerate(checks):
        lane = 1 << (width * j)
        base += (half - b - 1) * lane
        top += half * lane
        for i in pos_at:
            pos[i] += lane
        for i in neg_at:
            neg[i] += lane
    suffix = [0] * (system.dimension + 1)
    for k in range(system.dimension - 1, -1, -1):
        suffix[k] = suffix[k + 1] + neg[k]
    return (width, tuple(k for k, *_ in checks), base, top,
            tuple(p - n for p, n in zip(pos, neg)), tuple(suffix))


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_packed_checks_bit_identical_to_row_by_row(model, m):
    system = model_system(model, m)
    assert tuple(system.binary_checks) == _row_by_row_lanes(system)


def test_system_rejects_rows_off_its_shape():
    ((a, b),) = demihypercube_system(1).rows[:1]
    with pytest.raises(DimensionError):
        InequalitySystem("binary", (1, 2), [(a, b)], [Box(1, False)])
    with pytest.raises(DimensionError):
        InequalitySystem("binary", (1, 1), [(a, b)], [])


def test_packed_checks_built_on_first_use():
    built = kimura3_system(4)
    system = InequalitySystem("kimura3", (3, 4), built.rows, built.families)
    assert "binary_checks" not in vars(system)
    assert system.binary_violation(0) is None
    assert tuple(system.binary_checks) == _row_by_row_lanes(system)


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
def test_row_count_matches_built_system(model):
    for m in range(3, 9):
        assert row_count(model, m) == len(model_system(model, m))


# --- exact membership against a Fraction reference ------------------------------

def _membership_reference(sys_, flat):
    """Status, violated ids and tight ids from dense Fraction dot products."""
    violated, tight = [], []
    for k, (a, b) in enumerate(sys_.rows):
        s = Fraction(b) - sum(Fraction(c) * Fraction(x) for c, x in zip(a, flat))
        if s < 0:
            violated.append(k)
        elif s == 0:
            tight.append(k)
    status = "outside" if violated else "boundary" if tight else "inside"
    return status, tuple(violated), tuple(tight)


@lru_cache(maxsize=None)
def _model_vertices(model, m):
    if model == "binary":
        return [tuple((mask >> i) & 1 for i in range(m))
                for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    points = generate_vertices(Z2Z2, m).points
    if model == "kimura3-prime":
        points = [to_prime_scaled(scale_to_ints(v)).nums for v in points]
    return list(points)


_BIG = 2 ** 70

# plain ints, Fraction(k, 1), negatives, values above 1, mixed denominators,
# and numerators and denominators up to 2^70, which widen the membership lanes
_coords = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=-2, max_value=3).map(lambda k: Fraction(k, 1)),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4),
                     Fraction(-1, 4), Fraction(5, 4), Fraction(7, 5)]),
    st.fractions(min_value=-2, max_value=3, max_denominator=40),
    st.builds(Fraction, st.integers(min_value=-_BIG, max_value=_BIG),
              st.integers(min_value=1, max_value=_BIG)),
    st.integers(min_value=-_BIG, max_value=_BIG),
)


@st.composite
def _model_points(draw):
    model = draw(st.sampled_from(["binary", "kimura3", "kimura3-prime"]))
    m = draw(st.integers(min_value=3, max_value=6))
    sys_ = model_system(model, m)
    kind = draw(st.sampled_from(["free", "combination", "nudged"]))
    if kind == "free":
        flat = draw(st.lists(_coords, min_size=sys_.dimension, max_size=sys_.dimension))
    else:
        # convex combinations of vertices land on faces and inside
        verts = _model_vertices(model, m)
        picks = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=5))
        weights = draw(st.lists(st.integers(min_value=1, max_value=8),
                                min_size=len(picks), max_size=len(picks)))
        total = sum(weights)
        flat = [Fraction(sum(w * v[i] for w, v in zip(weights, picks)), total)
                for i in range(sys_.dimension)]
        if kind == "nudged":
            i = draw(st.integers(min_value=0, max_value=sys_.dimension - 1))
            flat[i] += draw(_coords)
    return sys_, flat


@settings(max_examples=300, deadline=None)
@given(_model_points(), st.sampled_from(["flat", "scaled"]),
       st.integers(min_value=1, max_value=_BIG))
def test_membership_matches_fraction_reference(case, form, factor):
    """Every model at m=3..6, given as a sequence or a ScaledPoint whose
    numerators and denominator carry an extra factor up to 2^70; tight rows
    stay tight at any lane width."""
    sys_, flat = case
    if form == "scaled":
        nums, den = scale_to_ints([Fraction(x) for x in flat])
        point = ScaledPoint(tuple(x * factor for x in nums), den * factor)
    else:
        point = flat
    res = sys_.membership(point)
    assert (res.status, res.violated, res.tight) == _membership_reference(sys_, flat)


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_membership_exact_at_the_lane_width_bound(model, m):
    """Points with every coordinate q/den, at every bit length of q up to 80.

    On such a point row j has a.x - b = (s_j*q - rhs_j*den)/den, s_j its
    coefficient sum. A row with all coefficients of one sign and the largest
    |rhs| (the odd rows with A = {1..m} for odd m) meets the bound the lane
    width is chosen from, and q/den = rhs_j/s_j makes the rows of that ratio
    tight at any scale.
    """
    sys_ = model_system(model, m)
    sums = [(sum(a), b) for a, b in sys_.rows]
    ratios = {(rhs, s) for s, rhs in sums if s > 0 and rhs > 0}
    for k in range(81):
        big = 1 << k
        points = [(sign * q, den) for q in (big, 2 * big - 1) for sign in (1, -1)
                  for den in (1, 3, big + 1)]
        points += [(rhs * big, s * big) for rhs, s in ratios]
        for q, den in points:
            res = sys_.membership(ScaledPoint((q,) * sys_.dimension, den))
            slacks = [rhs * den - s * q for s, rhs in sums]
            violated = tuple(i for i, sl in enumerate(slacks) if sl < 0)
            tight = tuple(i for i, sl in enumerate(slacks) if sl == 0)
            assert (res.violated, res.tight) == (violated, tight), (k, q, den)
