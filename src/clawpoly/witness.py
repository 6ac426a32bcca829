"""Certificates and structural checks for the model polytopes.

Everything here returns exact, machine-checkable evidence:

* violation_witness: for an inconsistent labeling, the explicit odd-subset
  inequality its matrix violates.
* incidence_report / pseudo_facet_structure: how a point of the prime-
  coordinate polytope sits on the odd-subset pseudo-facets, row by row.
* classify_facet / parity_check: the S/O dichotomy for a line with exactly
  two non-integral coordinates and its parity law.
* interior_witness: for a non-integral member point, a direction v and a
  step eps with p +- eps*v both inside, certifying the point is
  segment-interior (lies on an open segment inside the polytope, hence is
  not a vertex).

The checks on a prime-coordinate point all read one PointAnalysis of it:
integer numerators over one common denominator, its membership, its
non-integral support and the tight pseudo-facets of every row and column.
Each check takes the point as a Matrix or as its PointAnalysis, so a
caller running several checks on one point analyses it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .errors import (
    ClassificationUndefinedError,
    ConfigurationError,
    DimensionError,
    IntegralPointError,
    NotAMemberError,
    NotTightError,
    UnsupportedGroupError,
)
from .groups import Z2Z2, group_sum, identity
from .halfspaces import (
    InequalitySystem,
    MembershipResult,
    arow_id,
    kimura3_prime_system,
    kimura3_system,
    odd_subsets,
)
from .matrices import Matrix
from .rationals import Rational, ScaledPoint, canon, scale_to_ints
from .vertices import Labeling, labeling_to_matrix, unpack_points, vertex_masks


@dataclass(frozen=True)
class ViolationWitness:
    subset: tuple[int, ...]
    row_pair: tuple[int, int]
    inequality_id: int
    lhs: Rational
    rhs: Rational


@dataclass(frozen=True)
class ContainmentReport:
    leaves: int
    checked: int
    failures: tuple
    passed: bool


@dataclass(frozen=True)
class IncidenceReport:
    k: int
    omega: int
    support: tuple[tuple[int, int], ...]
    row_nonintegral: tuple[int, int, int]
    col_nonintegral: tuple[int, ...]
    row_tight: tuple[int, int, int]
    col_tight: tuple[int, ...]
    tag: str  # "none" | "P1" | "P2" | "other"


@dataclass(frozen=True)
class RowCheck:
    row: int
    nonintegral: int
    tight_subsets: tuple[tuple[int, ...], ...]
    no_single_nonintegral: bool
    two_facets_cap_nonintegral: bool
    three_facets_force_integral: bool

    @property
    def passed(self) -> bool:
        return (
            self.no_single_nonintegral
            and self.two_facets_cap_nonintegral
            and self.three_facets_force_integral
        )


@dataclass(frozen=True)
class RowStructureReport:
    rows: tuple[RowCheck, RowCheck, RowCheck]
    passed: bool


@dataclass(frozen=True)
class InteriorWitness:
    direction: Matrix
    epsilon: Fraction


@dataclass(frozen=True)
class NotInterior:
    reason: str


# --- containment and violation witnesses ------------------------------------

def check_containment(m: int) -> ContainmentReport:
    """Verify every generated vertex satisfies the standard-coordinate system.

    Each vertex goes to the system's 0/1 check as the mask it is built as;
    only the failing ones are unpacked into tuples.
    """
    masks = vertex_masks(Z2Z2, m)
    sys = kimura3_system(m)
    failures = tuple(
        (unpack_points([mask], sys.dimension)[0], vid)
        for mask in masks
        if (vid := sys.binary_violation(mask)) is not None
    )
    return ContainmentReport(m, len(masks), failures, not failures)


def violation_witness(labeling: Labeling) -> ViolationWitness | None:
    """Explicit violated inequality for an inconsistent Z2 x Z2 labeling.

    The leaves whose element has first residue 1 form a set A of odd size
    whenever the labeling sum has first residue 1; the row pair (1, 3)
    then sums to 1 on every column of A and 0 off it, pushing the A-row
    value to |A| against the bound |A| - 1. When only the second residue
    is nonzero the symmetric construction uses the pair (2, 3).
    Returns None exactly when the labeling is consistent.

    O(m): the row id comes from the family order (``halfspaces.arow_id``)
    and the left-hand side from the labeling's matrix, column by column,
    so no system is built.
    """
    if labeling.spec != Z2Z2:
        raise UnsupportedGroupError("violation witnesses are constructed for z2z2 only")
    residual = group_sum(labeling.spec, labeling.elements)
    if residual == identity(labeling.spec):
        return None
    if residual.residues[0] == 1:
        subset = tuple(
            j + 1 for j, g in enumerate(labeling.elements) if g.residues[0] == 1
        )
        pair = (1, 3)
    else:
        subset = tuple(
            j + 1 for j, g in enumerate(labeling.elements) if g.residues[1] == 1
        )
        pair = (2, 3)
    x = labeling_to_matrix(labeling)
    inside = set(subset)
    # the row is +1 at the columns of A and -1 off A, in both rows of the pair
    lhs = sum(
        (1 if j in inside else -1) * (x.entry(pair[0], j) + x.entry(pair[1], j))
        for j in range(1, labeling.leaves + 1)
    )
    return ViolationWitness(
        subset, pair, arow_id(labeling.leaves, pair, subset), lhs, len(subset) - 1
    )


# --- line-level helpers ------------------------------------------------------

@lru_cache(maxsize=None)
def _odd_masks(n: int):
    """(bitmask, |A| - 1, A) per odd subset A of {1..n}, in odd_subsets order;
    element i is bit i - 1."""
    return tuple((sum(1 << (i - 1) for i in sub), len(sub) - 1, sub) for sub in odd_subsets(n))


def _tight_subsets(nums, den) -> tuple[tuple[int, ...], ...]:
    """Odd subsets A with 2*sum_A v - sum v == (|A| - 1)*den, for v the
    numerators of one line over den.

    The test is homogeneous in (v, den), so any common denominator works.
    Twice every subset sum comes from one doubling pass over the line.
    """
    sums = [0]
    for x in nums:
        twice = 2 * x
        sums += [s + twice for s in sums]
    total = sums[-1] >> 1
    return tuple(sub for mask, k, sub in _odd_masks(len(nums)) if sums[mask] - total == k * den)


class LineAnalysis(NamedTuple):
    """One row or column: numerators over a common denominator, the
    1-based positions of its non-integral coordinates and its tight odd
    subsets."""

    nums: tuple[int, ...]
    den: int
    nonintegral: tuple[int, ...]
    tight: tuple[tuple[int, ...], ...]

    def facet_class(self, subset) -> str:
        """'S' when both non-integral positions sit on the same side of the
        subset, else 'O'; the line holds exactly two."""
        first, second = self.nonintegral
        return "S" if (first in subset) == (second in subset) else "O"

    def line_class(self) -> str | None:
        """Common S/O class of the tight pseudo-facets of a two-non-integral line.

        None when the line is tight on no pseudo-facet; 'mixed' never happens
        for member points (same-line facets share their class) but is
        reported rather than asserted away.
        """
        if not self.tight:
            return None
        classes = {self.facet_class(sub) for sub in self.tight}
        if len(classes) > 1:
            return "mixed"
        return classes.pop()


def _line(nums, den: int) -> LineAnalysis:
    nums = tuple(nums)
    return LineAnalysis(
        nums,
        den,
        tuple(i for i, x in enumerate(nums, 1) if x % den),
        _tight_subsets(nums, den),
    )


def _line_of(values) -> LineAnalysis:
    return _line(*scale_to_ints([canon(v) for v in values]))


def line_tight_subsets(values) -> tuple[tuple[int, ...], ...]:
    """Odd subsets A with sum_A v - sum_notA v == |A| - 1, for one row or column."""
    return _line_of(values).tight


def _validate_line_subset(values, subset):
    n = len(values)
    subset = tuple(sorted(subset))
    if len(subset) % 2 == 0 or not subset:
        raise ClassificationUndefinedError(f"subset {subset} does not have odd cardinality")
    if any(not 1 <= i <= n for i in subset) or len(set(subset)) != len(subset):
        raise DimensionError(f"subset {subset} is not a subset of 1..{n}")
    return subset


def _classified_line(p_row, subset) -> tuple[LineAnalysis, tuple[int, ...]]:
    """The line and its sorted subset, once the subset is an odd tight one and
    the line holds exactly two non-integral coordinates. p_row is a line's
    values or its LineAnalysis."""
    line = p_row if isinstance(p_row, LineAnalysis) else _line_of(p_row)
    subset = _validate_line_subset(line.nums, subset)
    if len(line.nonintegral) != 2:
        raise ClassificationUndefinedError(
            "classification needs exactly two non-integral coordinates, "
            f"found {len(line.nonintegral)}"
        )
    if subset not in line.tight:
        raise NotTightError(f"line is not tight on the subset {subset} pseudo-facet")
    return line, subset


def classify_facet(p_row, subset) -> str:
    """'S' when both non-integral indices sit on the same side of the subset, else 'O'.

    Requires the line to carry exactly two non-integral coordinates and to be
    tight on the subset's pseudo-facet. The line is given by its values or,
    to skip their analysis, by a LineAnalysis.
    """
    line, subset = _classified_line(p_row, subset)
    return line.facet_class(subset)


def parity_check(p_row, subset) -> bool:
    """Parity law: S-facets go with an odd number of ones, O-facets with even.

    The line is given as for classify_facet.
    """
    line, subset = _classified_line(p_row, subset)
    ones = line.nums.count(line.den)
    return (ones % 2 == 1) == (line.facet_class(subset) == "S")


# --- incidence over the prime-coordinate system ------------------------------

_P1_PATTERN = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
_P2_PATTERN = frozenset({(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)})


def _matches_pattern(support, rows_occ, cols_occ, pattern) -> bool:
    nr = len(rows_occ)
    nc = len(cols_occ)
    row_index = {r: i for i, r in enumerate(rows_occ)}
    col_index = {c: i for i, c in enumerate(cols_occ)}
    base = {(row_index[i], col_index[j]) for i, j in support}
    for rperm in permutations(range(nr)):
        for cperm in permutations(range(nc)):
            if {(rperm[i], cperm[j]) for i, j in base} == pattern:
                return True
    return False


def _configuration_tag(support) -> str:
    if not support:
        return "none"
    rows_occ = sorted({i for i, _ in support})
    cols_occ = sorted({j for _, j in support})
    if len(support) == 4 and len(rows_occ) == 2 and len(cols_occ) == 2:
        if _matches_pattern(support, rows_occ, cols_occ, _P1_PATTERN):
            return "P1"
    if len(support) == 6 and len(rows_occ) == 3 and len(cols_occ) == 3:
        if _matches_pattern(support, rows_occ, cols_occ, _P2_PATTERN):
            return "P2"
    return "other"


class PointAnalysis(NamedTuple):
    """What the checks read of one prime-coordinate point: the point as
    numerators over one denominator, its membership, its non-integral
    support (1-based (row, column), row-major), every row and column as a
    LineAnalysis, and the support's configuration tag."""

    system: InequalitySystem
    point: ScaledPoint
    membership: MembershipResult
    support: tuple[tuple[int, int], ...]
    rows: tuple[LineAnalysis, ...]
    cols: tuple[LineAnalysis, ...]
    tag: str

    @property
    def omega(self) -> int:
        """Number of rows plus columns the support touches."""
        return len(self.support_lines())

    def support_lines(self):
        """The rows, then the columns, that carry non-integral coordinates."""
        return [line for line in self.rows + self.cols if line.nonintegral]


def analyze_point(p: Matrix) -> PointAnalysis:
    """The PointAnalysis of a 3 x m matrix in the prime-coordinate system."""
    sys = kimura3_prime_system(p.ncols)
    point = scale_to_ints(sys.flatten(p))
    nums, den = point
    m = p.ncols
    rows = tuple(_line(nums[r * m:(r + 1) * m], den) for r in range(3))
    cols = tuple(_line(nums[c::m], den) for c in range(m))
    support = tuple((r, j) for r, line in enumerate(rows, 1) for j in line.nonintegral)
    return PointAnalysis(
        sys, point, sys.membership(point), support, rows, cols, _configuration_tag(support)
    )


def _member_analysis(p) -> PointAnalysis:
    """The analysis of p, a Matrix or its PointAnalysis; raises off the polytope."""
    pt = p if isinstance(p, PointAnalysis) else analyze_point(p)
    if pt.membership.status == "outside":
        raise NotAMemberError(
            f"point violates inequalities {pt.membership.violated} of model {pt.system.model}"
        )
    return pt


def incidence_report(p: Matrix | PointAnalysis) -> IncidenceReport:
    """Support counts and tight pseudo-facet counts of a prime-coordinate member point.

    p is a 3 x m Matrix or its PointAnalysis; passing the analysis lets a
    caller run several of the checks below on one point and analyse it
    once. The same holds for every check that follows.
    """
    pt = _member_analysis(p)
    return IncidenceReport(
        k=len(pt.support),
        omega=pt.omega,
        support=pt.support,
        row_nonintegral=tuple(len(line.nonintegral) for line in pt.rows),
        col_nonintegral=tuple(len(line.nonintegral) for line in pt.cols),
        row_tight=tuple(len(line.tight) for line in pt.rows),
        col_tight=tuple(len(line.tight) for line in pt.cols),
        tag=pt.tag,
    )


def pseudo_facet_structure(p: Matrix | PointAnalysis) -> RowStructureReport:
    """Row-by-row pseudo-facet sanity of a prime-coordinate member point.

    Per row: a lone non-integral coordinate never occurs; two or more tight
    pseudo-facets cap the non-integral count at two; three or more force the
    row integral and tight on exactly m pseudo-facets.
    """
    pt = _member_analysis(p)
    m = len(pt.cols)
    checks = []
    for r, line in enumerate(pt.rows, 1):
        nonint = len(line.nonintegral)
        tight = line.tight
        checks.append(
            RowCheck(
                row=r,
                nonintegral=nonint,
                tight_subsets=tight,
                no_single_nonintegral=(nonint != 1),
                two_facets_cap_nonintegral=(len(tight) < 2 or nonint <= 2),
                three_facets_force_integral=(
                    len(tight) < 3 or (nonint == 0 and len(tight) == m)
                ),
            )
        )
    checks = tuple(checks)
    return RowStructureReport(checks, all(c.passed for c in checks))


# --- segment-interior witnesses ----------------------------------------------

def _support_cycle(support):
    """Deterministic traversal of a 2-regular support: start at the row-major
    minimum, move along the column first, then alternate row/column moves."""
    by_col: dict[int, list] = {}
    by_row: dict[int, list] = {}
    for pos in support:
        by_row.setdefault(pos[0], []).append(pos)
        by_col.setdefault(pos[1], []).append(pos)
    start = min(support)
    cycle = [start]
    cur = start
    along_col = True
    while len(cycle) < len(support):
        partners = by_col[cur[1]] if along_col else by_row[cur[0]]
        cur = partners[0] if partners[1] == cur else partners[1]
        cycle.append(cur)
        along_col = not along_col
    return cycle


def _edge_line(pt: PointAnalysis, a, b) -> LineAnalysis:
    """The row or column shared by two support positions."""
    if a[1] == b[1]:
        return pt.cols[a[1] - 1]
    return pt.rows[a[0] - 1]


def _step_bounds(sys: InequalitySystem, point: ScaledPoint, direction: ScaledPoint):
    """Exact max steps t+ (along +v) and t- (along -v) staying in the system.

    Slacks and rates are integer numerators over the point's and the
    direction's common denominators; a candidate step is compared by cross
    multiplication and becomes a Fraction once, at the end. Tight
    inequalities must have zero rate along v; returns None on the
    (theoretically excluded) invalid-direction case.
    """
    nums, den = point
    rates, rate_den = direction
    plus = minus = None  # (slack, |rate|) of the smallest step so far
    for value, rate in zip(sys.row_values(nums, den), sys.row_values(rates, 0)):
        if not rate:
            continue
        slack = -value
        if slack == 0:
            return None
        if rate > 0:
            if plus is None or slack * plus[1] < plus[0] * rate:
                plus = (slack, rate)
        elif minus is None or slack * minus[1] < minus[0] * -rate:
            minus = (slack, -rate)
    if plus is None or minus is None:
        # bounded polytopes always stop a nonzero direction on both sides
        raise ConfigurationError("direction escaped a bounded polytope; internal error")
    # t = (slack / den) / (rate / rate_den)
    return tuple(Fraction(sl * rate_den, r * den) for sl, r in (plus, minus))


def _integer_kernel(rows, ncols):
    """One nonzero kernel vector of the integer row system, or None if the
    kernel is {0}: the first free column (lowest index) set to 1, the other
    free columns to 0.

    Fraction-free Gauss-Jordan elimination (Bareiss): each pivot step
    replaces every other row by (pivot*row - row[c]*pivot_row) / previous
    pivot. Every entry stays an integer minor, so the division is exact,
    and every pivot row ends with the last pivot d at its own pivot column
    and 0 at the others: the reduced row echelon form times d. Pivots are
    the first nonzero entry from the top, as in a Fraction elimination,
    and the vector is the same.
    """
    work = [list(row) for row in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        piv = prow[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
        pivots.append(c)
        if len(pivots) == len(work):
            break
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for row, c in zip(work, pivots):
        vec[c] = canon(Fraction(-row[free], prev))
    return tuple(vec)


def _line_equations(line: LineAnalysis, variables, k: int):
    """One equation per tight pseudo-facet of a line carrying non-integral
    coordinates: +1 at those inside the subset and -1 at the others, whose
    variables (support indices, of k) are given in the line's order."""
    if not variables:
        return []
    eqs = []
    for sub in line.tight:
        eq = [0] * k
        for pos, t in zip(line.nonintegral, variables):
            eq[t] = 1 if pos in sub else -1
        eqs.append(eq)
    return eqs


def _kernel_direction(pt: PointAnalysis):
    """Nonzero direction from the tight-relation kernel (the k > omega case).

    One homogeneous equation per tight pseudo-facet of every row and column
    carrying non-integral coordinates, with variables only at the support
    (integral coordinates are pinned to zero). Rank is at most omega, so for
    k > omega a nonzero kernel vector exists.
    """
    var_index = {pos: t for t, pos in enumerate(pt.support)}
    k = len(pt.support)
    eqs = []
    for r, line in enumerate(pt.rows, 1):
        eqs += _line_equations(line, [var_index[(r, j)] for j in line.nonintegral], k)
    for c, line in enumerate(pt.cols, 1):
        eqs += _line_equations(line, [var_index[(i, c)] for i in line.nonintegral], k)
    return _integer_kernel(eqs, k)


def _cycle_direction(pt: PointAnalysis):
    """Sign assignment around the support cycle (the k == omega case).

    Crossing a line whose tight pseudo-facets are S-facets flips the sign
    (the two coordinates sum to a constant); O-facets keep it (they stay
    equal); an untouched line imposes nothing. Returns (values, reason):
    values is None when the closing edge is inconsistent.
    """
    cycle = _support_cycle(pt.support)
    signs = [1]
    for t in range(1, len(cycle)):
        cls = _edge_line(pt, cycle[t - 1], cycle[t]).line_class()
        if cls == "mixed":
            return None, "a cycle line carries both S- and O-facets"
        signs.append(-signs[-1] if cls == "S" else signs[-1])
    closing = _edge_line(pt, cycle[-1], cycle[0]).line_class()
    if closing == "mixed":
        return None, "a cycle line carries both S- and O-facets"
    expected_first = -signs[-1] if closing == "S" else signs[-1]
    if expected_first != signs[0]:
        return None, "sign assignment is inconsistent around the cycle"
    return dict(zip(cycle, signs)), ""


def interior_witness(p: Matrix | PointAnalysis) -> InteriorWitness | NotInterior:
    """Direction and exact step showing a non-integral member point is
    segment-interior in the prime-coordinate polytope.

    The direction vanishes at integral coordinates and has zero rate on every
    tight inequality; eps is half the smaller of the two exact stopping times,
    so p + eps*v and p - eps*v both stay inside.
    """
    pt = _member_analysis(p)
    support = pt.support
    if not support:
        raise IntegralPointError("integral points admit no segment-interior witness")
    if len(support) > pt.omega:
        v_support = _kernel_direction(pt)
        if v_support is None:
            return NotInterior("tight relations leave no kernel direction")
        values = dict(zip(support, v_support))
    else:
        if pt.tag not in ("P1", "P2"):
            return NotInterior(
                f"k == omega with support configuration {pt.tag!r}; no cycle direction"
            )
        values, reason = _cycle_direction(pt)
        if values is None:
            return NotInterior(reason)
    m = len(pt.cols)
    direction = Matrix.from_rows(
        [
            [values.get((i, j), 0) for j in range(1, m + 1)]
            for i in (1, 2, 3)
        ]
    )
    bounds = _step_bounds(pt.system, pt.point, scale_to_ints(direction.flatten()))
    if bounds is None:
        return NotInterior("direction moves off a tight inequality")
    t_plus, t_minus = bounds
    eps = min(t_plus, t_minus) / 2
    return InteriorWitness(direction, eps)


def s_facet_count_even(p: Matrix | PointAnalysis) -> bool:
    """Whether an even number of the support cycle's lines carry S-facets.

    Defined for P1/P2 configurations (each occupied line then holds exactly
    two non-integral coordinates). Evenness is what makes the cycle sign
    assignment close up.
    """
    pt = _member_analysis(p)
    if pt.tag not in ("P1", "P2"):
        raise ConfigurationError(f"support configuration {pt.tag!r} has no facet cycle")
    count = sum(1 for line in pt.support_lines() if line.line_class() == "S")
    return count % 2 == 0
