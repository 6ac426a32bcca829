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
    InequalitySystem,
    NonNeg,
    demihypercube_system,
    kimura3_prime_system,
    kimura3_system,
    model_system,
    odd_subsets,
    row_count,
)
from clawpoly.coordchange import to_prime_coords
from clawpoly.groups import Z2Z2
from clawpoly.matrices import Matrix
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.vertices import generate_vertices


def test_odd_subsets_lex_order():
    assert odd_subsets(3) == ((1,), (1, 2, 3), (2,), (3,))
    assert len(odd_subsets(5)) == 16
    subs = odd_subsets(4)
    assert subs == tuple(sorted(subs))
    assert all(len(s) % 2 == 1 for s in subs)


def test_family_counts():
    assert len(kimura3_system(3).inequalities) == 24
    assert len(kimura3_system(4).inequalities) == 40
    assert len(kimura3_system(5).inequalities) == 68
    assert len(kimura3_prime_system(3).inequalities) == 24
    assert len(demihypercube_system(3).inequalities) == 10
    assert len(demihypercube_system(5).inequalities) == 26


def test_ids_are_dense_and_ordered():
    for sys_ in (kimura3_system(4), kimura3_prime_system(4), demihypercube_system(4)):
        assert [q.id for q in sys_.inequalities] == list(range(len(sys_.inequalities)))


def test_family_layout_kimura3():
    sys_ = kimura3_system(3)
    assert sys_.inequalities[0].family == NonNeg(1, 1)
    assert sys_.inequalities[8].family == NonNeg(3, 3)
    assert sys_.inequalities[9].family == ColumnSimplex(1)
    assert sys_.inequalities[12].family == ARow((1, 2), (1,))
    assert sys_.inequalities[13].family == ARow((1, 2), (1, 2, 3))
    assert sys_.inequalities[16].family == ARow((1, 3), (1,))
    assert sys_.inequalities[23].family == ARow((2, 3), (3,))


def test_family_layout_prime():
    sys_ = kimura3_prime_system(3)
    assert sys_.inequalities[0].family == ARow((1,), (1,))
    assert sys_.inequalities[11].family == ARow((3,), (3,))
    assert sys_.inequalities[12].family == BColumn((1,), 1)
    assert sys_.inequalities[23].family == BColumn((3,), 3)


def test_family_layout_demihypercube():
    sys_ = demihypercube_system(3)
    assert sys_.inequalities[0].family == Box(1, False)
    assert sys_.inequalities[3].family == Box(1, True)
    assert sys_.inequalities[6].family == ARow((1,), (1,))


def test_arow_normal_form():
    q = kimura3_system(3).by_family(ARow((1, 2), (1, 2, 3)))
    assert q.coeffs == (1, 1, 1, 1, 1, 1, 0, 0, 0)
    assert q.rhs == 2
    q1 = kimura3_system(3).by_family(ARow((1, 3), (1,)))
    assert q1.coeffs == (1, -1, -1, 0, 0, 0, 1, -1, -1)
    assert q1.rhs == 0


def test_membership_statuses():
    sys_ = kimura3_system(3)
    quarter = Matrix.from_flat([Fraction(1, 4)] * 9, 3, 3)
    assert sys_.membership(quarter).status == "inside"
    zero = Matrix.from_flat([0] * 9, 3, 3)
    assert sys_.membership(zero).status == "boundary"
    e1 = Matrix.from_rows([(1, 1, 1), (0, 0, 0), (0, 0, 0)])
    res = sys_.membership(e1)
    assert res.status == "outside"
    assert res.violated == (13, 17)


def test_tight_sets_frozen():
    dh = demihypercube_system(3)
    ts = dh.tight_set((1, 1, 0))
    assert ts.ids == (2, 3, 4, 6, 7, 8)
    half = dh.tight_set((Fraction(1, 2), Fraction(1, 2), 0))
    assert dict(half.by_family)["box"] == (2,)
    assert dict(half.by_family)["arow"] == (6, 8)

    prime = kimura3_prime_system(3)
    ts0 = prime.tight_set(Matrix.from_flat([0] * 9, 3, 3))
    assert len(ts0.ids) == 18
    assert dict(ts0.by_family)["arow"] == (0, 2, 3, 4, 6, 7, 8, 10, 11)


def test_tight_set_requires_membership():
    with pytest.raises(NotAMemberError):
        demihypercube_system(3).tight_set((2, 0, 0))


def test_flatten_accepts_matrix_and_sequence():
    sys_ = kimura3_system(3)
    mat = Matrix.from_flat([0] * 9, 3, 3)
    assert sys_.flatten(mat) == (0,) * 9
    assert sys_.flatten([0] * 9) == (0,) * 9
    with pytest.raises(DimensionError):
        sys_.flatten([0] * 8)


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
    assert len(demihypercube_system(1).inequalities) == 3


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
    assert len(kimura3_system(m).inequalities) == 3 * m + m + 3 * 2 ** (m - 1)
    assert len(kimura3_prime_system(m).inequalities) == 3 * 2 ** (m - 1) + 4 * m
    assert len(demihypercube_system(m).inequalities) == 2 * m + 2 ** (m - 1)



def _row_by_row_lanes(system):
    """The packed checks built one row at a time, each lane added into ints
    that grow with every row: the construction the one-pass packer replaced."""
    checks = [q for q in system.inequalities if len(q.pos) > q.rhs]
    reach = max(
        (max(q.rhs + 1 + len(q.neg), len(q.pos) - q.rhs) for q in checks), default=0
    )
    width = reach.bit_length() + 1
    half = 1 << (width - 1)
    base = top = 0
    pos = [0] * system.dimension
    neg = [0] * system.dimension
    for j, q in enumerate(checks):
        lane = 1 << (width * j)
        base += (half - q.rhs - 1) * lane
        top += half * lane
        for i in q.pos:
            pos[i] += lane
        for i in q.neg:
            neg[i] += lane
    suffix = [0] * (system.dimension + 1)
    for k in range(system.dimension - 1, -1, -1):
        suffix[k] = suffix[k + 1] + neg[k]
    return (width, tuple(q.id for q in checks), base, top,
            tuple(p - n for p, n in zip(pos, neg)), tuple(suffix))


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_packed_checks_bit_identical_to_row_by_row(model, m):
    system = model_system(model, m)
    assert tuple(system.binary_checks) == _row_by_row_lanes(system)


def test_packed_checks_built_on_first_use():
    rows = kimura3_system(4).inequalities
    system = InequalitySystem("kimura3", (3, 4), rows)
    assert "binary_checks" not in vars(system)
    assert system.binary_violation(0) is None
    assert tuple(system.binary_checks) == _row_by_row_lanes(system)


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
def test_row_count_matches_built_system(model):
    for m in range(3, 9):
        assert row_count(model, m) == len(model_system(model, m).inequalities)


# --- exact membership against a Fraction reference ------------------------------

def _membership_reference(sys_, flat):
    """Status, violated ids and tight ids from dense Fraction dot products."""
    violated, tight = [], []
    for ineq in sys_.inequalities:
        s = Fraction(ineq.rhs) - sum(Fraction(c) * Fraction(x) for c, x in zip(ineq.coeffs, flat))
        if s < 0:
            violated.append(ineq.id)
        elif s == 0:
            tight.append(ineq.id)
    status = "outside" if violated else "boundary" if tight else "inside"
    return status, tuple(violated), tuple(tight)


@lru_cache(maxsize=None)
def _model_vertices(model, m):
    if model == "binary":
        return [tuple((mask >> i) & 1 for i in range(m))
                for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    mats = generate_vertices(Z2Z2, m).matrices()
    if model == "kimura3-prime":
        mats = [to_prime_coords(v) for v in mats]
    return [v.flatten() for v in mats]


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
@given(_model_points(), st.sampled_from(["flat", "matrix", "scaled"]),
       st.integers(min_value=1, max_value=_BIG))
def test_membership_matches_fraction_reference(case, form, factor):
    """Every model at m=3..6, given as a sequence, a Matrix or a ScaledPoint
    whose numerators and denominator carry an extra factor up to 2^70; tight
    rows stay tight at any lane width."""
    sys_, flat = case
    if form == "matrix":
        point = Matrix.from_flat(flat, *sys_.shape)
    elif form == "scaled":
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
    sums = [(sum(q.coeffs), q.rhs) for q in sys_.inequalities]
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
