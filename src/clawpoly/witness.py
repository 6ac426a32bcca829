"""Certificates and the point analysis for the model polytopes.

Everything here returns exact, machine-checkable evidence:

* violation_witness: for an inconsistent labeling, the explicit odd-subset
  inequality its matrix violates.
* analyze_point: how a point of the prime-coordinate polytope sits on the
  odd-subset pseudo-facets, row by row and column by column, as one
  PointAnalysis. The pseudo-facet laws of `verify theorems`
  (suites._pseudo_facet_checks) read its fields directly; a row or column
  is a LineAnalysis, which carries the S/O class of a tight pseudo-facet
  and the parity law.
* interior_witness: for a non-integral member point, a direction v and a
  step eps with p +- eps*v both inside, certifying the point is
  segment-interior (lies on an open segment inside the polytope, hence is
  not a vertex).

A PointAnalysis holds integer numerators over one common denominator, the
point's value lanes and membership from one InequalitySystem.read, its
non-integral support and the tight pseudo-facets of every row and column.
The tight pseudo-facets are read off the membership's tight rows, each an
ARow of one row or a BColumn of one column, placed by a (line, subset)
table built once per system from the family tags, and the support's P1/P2
tag comes from its row and column degrees. The interior witness's step
reads the value lanes, so the point is evaluated once. analyze_point takes
the point as a ScaledPoint, so a caller running several checks on one
point analyses it once. Every system is built through
halfspaces.model_system, under the generation cap.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    ConfigurationError,
    IntegralPointError,
    NotAMemberError,
    UnsupportedGroupError,
)
from .groups import Z2Z2, embed, group_sum, identity
from .halfspaces import (
    InequalitySystem,
    MembershipResult,
    arow_id,
    model_system,
)
from .lanes import bits, lane_signs, lane_values
from .rationals import Rational, ScaledPoint
from .vertices import Labeling, split_vertices, unpack_points, vertex_count


class ViolationWitness(NamedTuple):
    subset: tuple[int, ...]
    row_pair: tuple[int, int]
    inequality_id: int
    lhs: Rational
    rhs: Rational


class ContainmentReport(NamedTuple):
    leaves: int
    checked: int
    failures: tuple
    passed: bool


class InteriorWitness(NamedTuple):
    direction: ScaledPoint
    epsilon: Fraction


class NotInterior(NamedTuple):
    reason: str


# --- containment and violation witnesses ------------------------------------

# free leaves in a block of check_containment: 4^4 labelings per group sum
BLOCK_LEAVES = 4


def check_containment(m: int) -> ContainmentReport:
    """Verify every generated vertex satisfies the standard-coordinate system.

    A meet in the middle (Horowitz and Sahni) over the system's 0/1 lanes
    (``InequalitySystem.binary_lanes``): vertices.split_vertices splits each
    vertex into a head, its leading free leaves, and a block of the last
    BLOCK_LEAVES free leaves and the forced last leaf. The lane sums of
    every block are computed once per group sum, and a head's once, so each
    vertex costs one big-int add of its head's and its block's sums and one
    AND with the top bits. Heads run in vertex order, so failures come out
    in the order of generate_vertices. binary_violation evaluates each
    flagged vertex alone: a vertex is reported only if it confirms the
    failure, with its first violated row as the row id, and only a reported
    vertex is unpacked from its mask.
    """
    count = vertex_count(Z2Z2, m)
    sys = model_system("kimura3", m)
    _, base, top, cols, _ = sys.binary_lanes
    split = max(m - 1 - BLOCK_LEAVES, 0)
    heads, blocks = split_vertices(Z2Z2, m, split)
    lane_blocks = split_vertices(Z2Z2, m, split, cols)[1]
    failures = []
    for x, s in heads:
        head = sum(map(cols.__getitem__, bits(x)), base)
        for y in compress(blocks[s], [(head + c) & top for c in lane_blocks[s]]):
            if (vid := sys.binary_violation(x | y)) is not None:
                failures.append((unpack_points([x | y], sys.dimension)[0], vid))
    return ContainmentReport(m, count, tuple(failures), not failures)


def violation_witness(labeling: Labeling) -> ViolationWitness | None:
    """Explicit violated inequality for an inconsistent Z2 x Z2 labeling.

    The leaves whose element has first residue 1 form a set A of odd size
    whenever the labeling sum has first residue 1; the row pair (1, 3)
    then sums to 1 on every column of A and 0 off it, pushing the A-row
    value to |A| against the bound |A| - 1. When only the second residue
    is nonzero the symmetric construction uses the pair (2, 3).
    Returns None exactly when the labeling is consistent.

    O(m): the row id comes from the family order (``halfspaces.arow_id``)
    and the left-hand side from each leaf's column, the embedding of its
    element, so no system is built.
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
    inside = set(subset)
    # the row is +1 at the columns of A and -1 off A, in both rows of the pair
    lhs = sum(
        (1 if j in inside else -1) * (col[pair[0] - 1] + col[pair[1] - 1])
        for j, col in enumerate((embed(Z2Z2, g) for g in labeling.elements), 1)
    )
    return ViolationWitness(
        subset, pair, arow_id(labeling.leaves, pair, subset), lhs, len(subset) - 1
    )


# --- line-level helpers ------------------------------------------------------

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

    def parity_holds(self, subset) -> bool:
        """Parity law of a two-non-integral line on a tight subset: an
        S-facet goes with an odd number of ones, an O-facet with an even."""
        ones = self.nums.count(self.den)
        return (ones % 2 == 1) == (self.facet_class(subset) == "S")


def _line(nums, den: int, tight) -> LineAnalysis:
    nums = tuple(nums)
    nonintegral = tuple(i for i, x in enumerate(nums, 1) if x % den)
    return LineAnalysis(nums, den, nonintegral, tuple(tight))


# --- the analysis of a prime-coordinate point --------------------------------

def _configuration_tag(support) -> str:
    """'P1' for 4 cells in 2 rows and 2 columns, 'P2' for 6 cells in 3 rows
    and 3 columns with 2 in each (the complement of a permutation matrix):
    both are the supports whose every row and column holds exactly 2 cells."""
    if not support:
        return "none"
    degrees = {*Counter(i for i, _ in support).values(), *Counter(j for _, j in support).values()}
    if degrees == {2} and len(support) in (4, 6):
        return "P1" if len(support) == 4 else "P2"
    return "other"


class PointAnalysis(NamedTuple):
    """What the checks read of one prime-coordinate point: the point as
    numerators over one denominator, its value lanes (acc, W) of
    InequalitySystem.evaluate, its membership, its non-integral support
    (1-based (row, column), row-major), every row and column as a
    LineAnalysis, and the support's configuration tag."""

    system: InequalitySystem
    point: ScaledPoint
    lanes: tuple[int, int]
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

    def require_member(self) -> None:
        """The precondition of every check on the point: raises
        NotAMemberError when it lies off the polytope."""
        if self.membership.status == "outside":
            raise NotAMemberError(
                f"point violates inequalities {self.membership.violated} "
                f"of model {self.system.model}"
            )


@lru_cache(maxsize=None)
def _line_table(sys: InequalitySystem) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(line, subset) per row of a prime-coordinate system, from its family
    tags: ARow((r,), A) is line r - 1 and BColumn(B, c) line 2 + c, so
    lines 0..2 are the rows and 3..m + 2 the columns."""
    return tuple((tag.rows[0] - 1, tag.subset) if tag.kind == "arow" else (2 + tag.col, tag.subset)
                 for tag in sys.families)


def analyze_point(point: ScaledPoint) -> PointAnalysis:
    """The PointAnalysis of a 3 x m point, flattened row-major, in the
    prime-coordinate system, from one read of its lanes."""
    nums, den = point
    m = len(nums) // 3
    sys = model_system("kimura3-prime", m)
    acc, width, at_least, above = sys.read(point)
    membership = MembershipResult.of(at_least, above)
    # the tight rows come in family order: each line's subsets in odd_subsets order
    tight = [[] for _ in range(3 + m)]  # rows 1..3, then columns 1..m
    table = _line_table(sys)
    for i in membership.tight:
        line, subset = table[i]
        tight[line].append(subset)
    rows = tuple(_line(nums[r * m:(r + 1) * m], den, tight[r]) for r in range(3))
    cols = tuple(_line(nums[c::m], den, tight[3 + c]) for c in range(m))
    support = tuple((r, j) for r, line in enumerate(rows, 1) for j in line.nonintegral)
    return PointAnalysis(sys, point, (acc, width), membership, support, rows, cols,
                         _configuration_tag(support))


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


def _least_step(values, half: int, rates, middle: int, rows, sign: int):
    """(slack, |rate|) of the least step slack / |rate| over rows, whose
    rates have the given sign, or None when one of them is tight; (None, 1)
    for no rows. values and rates are decoded lanes (lanes.lane_values): a
    row's slack is half minus its value lane, its rate its rate lane minus
    middle."""
    best_slack, best_rate = None, 1
    for k in rows:
        slack, rate = half - values[k], sign * (rates[k] - middle)
        if slack == 0:
            return None
        if best_slack is None or slack * best_rate < best_slack * rate:
            best_slack, best_rate = slack, rate
    return best_slack, best_rate


def _step_bounds(sys: InequalitySystem, lanes: tuple[int, int], den: int,
                 direction: ScaledPoint):
    """Exact max steps t+ (along +v) and t- (along -v) staying in the system,
    from a point's value lanes (acc, W) of sys.evaluate over denominator den.

    The direction's rates a_j.v of every row come from one evaluation in
    lanes, and one lanes.lane_signs pass over them splits the rows v moves
    into the plus rows (rate > 0) and the minus rows (rate < 0). Both sets
    of lanes are decoded once (lanes.lane_values), and the plus rows and the
    minus rows are each scanned for their least step, as integer numerators
    over the point's and the direction's denominators. A candidate step is
    compared by cross multiplication and becomes a Fraction once, at the
    end. Tight inequalities must have zero rate along v; returns None on the
    (theoretically excluded) invalid-direction case.
    """
    value_lanes, width = lanes
    rate_nums, rate_den = direction
    n = len(sys)
    rate_lanes, rate_width = sys.evaluate(rate_nums, 0)
    at_least, above = lane_signs(rate_lanes, n, rate_width)
    values = lane_values(value_lanes, n, width)
    rates = lane_values(rate_lanes, n, rate_width)
    half, middle = 1 << (width - 1), 1 << (rate_width - 1)
    plus = _least_step(values, half, rates, middle, bits(above), 1)
    minus = _least_step(values, half, rates, middle, bits(((1 << n) - 1) ^ at_least), -1)
    if plus is None or minus is None:
        return None
    if plus[0] is None or minus[0] is None:
        # bounded polytopes always stop a nonzero direction on both sides
        raise ConfigurationError("direction escaped a bounded polytope; internal error")
    # t = (slack / den) / (rate / rate_den)
    return tuple(Fraction(sl * rate_den, r * den) for sl, r in (plus, minus))


def _integer_kernel(rows, ncols) -> ScaledPoint | None:
    """One nonzero kernel vector of the integer row system, or None if the
    kernel is {0}: the first free column (lowest index) set to 1, the other
    free columns to 0.

    Fraction-free Gauss-Jordan elimination on sparse rows: each pivot step
    replaces only the rows with a nonzero f in the pivot column, by
    pivot*row - f*pivot_row divided by its gcd, and leaves every other row
    as it is. Each pivot row thus ends with some d_c at its own pivot column
    c and 0 at the others: its reduced row echelon form row times d_c.
    Pivots are the first nonzero entry from the top, as in a Fraction
    elimination, and the vector is the same, -row[free] / d_c at each pivot
    column c, here as integers over the lcm of the pivots.
    """
    work = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        piv = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                row = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(work):
            break
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    den = lcm(*(row[c] for row, c in zip(work, pivots)))
    vec = [0] * ncols
    vec[free] = den
    for row, c in zip(work, pivots):
        vec[c] = -row[free] * (den // row[c])
    return ScaledPoint(tuple(vec), den)


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
    equal); an untouched line imposes nothing. Returns (signs, reason):
    the sign at each support position, in support order, or None when the
    closing edge is inconsistent.
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
    sign_at = dict(zip(cycle, signs))
    return tuple(sign_at[pos] for pos in pt.support), ""


def interior_witness(pt: PointAnalysis) -> InteriorWitness | NotInterior:
    """Direction and exact step showing a non-integral member point is
    segment-interior in the prime-coordinate polytope.

    The direction vanishes at integral coordinates and has zero rate on every
    tight inequality; eps is half the smaller of the two exact stopping times,
    so p + eps*v and p - eps*v both stay inside. The direction is the kernel
    vector over its denominator, or the cycle's signs over 1.
    """
    pt.require_member()
    support = pt.support
    if not support:
        raise IntegralPointError("integral points admit no segment-interior witness")
    if len(support) > pt.omega:
        kernel = _kernel_direction(pt)
        if kernel is None:
            return NotInterior("tight relations leave no kernel direction")
        values, den = kernel
    else:
        if pt.tag not in ("P1", "P2"):
            return NotInterior(
                f"k equals omega with support configuration {pt.tag!r}; no cycle direction"
            )
        values, reason = _cycle_direction(pt)
        if values is None:
            return NotInterior(reason)
        den = 1
    m = len(pt.cols)
    nums = [0] * (3 * m)
    for (i, j), x in zip(support, values):
        nums[(i - 1) * m + j - 1] = x
    direction = ScaledPoint(tuple(nums), den)
    bounds = _step_bounds(pt.system, pt.lanes, pt.point.den, direction)
    if bounds is None:
        return NotInterior("direction moves off a tight inequality")
    t_plus, t_minus = bounds
    eps = min(t_plus, t_minus) / 2
    return InteriorWitness(direction, eps)
