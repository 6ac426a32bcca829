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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

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
    ARow,
    InequalitySystem,
    kimura3_prime_system,
    kimura3_system,
    odd_subsets,
)
from .linalg import kernel_vector
from .matrices import Matrix
from .rationals import Rational, canon, is_integral, scale_to_ints
from .vertices import Labeling, generate_vertices, labeling_to_matrix


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

# byte 0 / 1 -> the digit "0" / "1"
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def check_containment(m: int) -> ContainmentReport:
    """Verify every generated vertex satisfies the standard-coordinate system."""
    vs = generate_vertices(Z2Z2, m)
    sys = kimura3_system(m)
    failures = []
    for flat in vs.points:
        # coordinate i is bit i: the 0/1 tuple reversed, read as binary digits
        bad = sys.binary_violation(int(bytes(flat[::-1]).translate(_BINARY_DIGITS), 2))
        if bad is not None:
            failures.append((flat, bad))
    return ContainmentReport(m, len(vs.points), tuple(failures), not failures)


def violation_witness(labeling: Labeling) -> ViolationWitness | None:
    """Explicit violated inequality for an inconsistent Z2 x Z2 labeling.

    The leaves whose element has first residue 1 form a set A of odd size
    whenever the labeling sum has first residue 1; the row pair (1, 3)
    then sums to 1 on every column of A and 0 off it, pushing the A-row
    value to |A| against the bound |A| - 1. When only the second residue
    is nonzero the symmetric construction uses the pair (2, 3).
    Returns None exactly when the labeling is consistent.
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
    sys = kimura3_system(labeling.leaves)
    ineq = sys.by_family(ARow(pair, subset))
    flat = labeling_to_matrix(labeling).flatten()
    return ViolationWitness(subset, pair, ineq.id, ineq.value(flat), ineq.rhs)


# --- line-level helpers ------------------------------------------------------

def line_tight_subsets(values) -> tuple[tuple[int, ...], ...]:
    """Odd subsets A with sum_A v - sum_notA v == |A| - 1, for one row or column."""
    nums, den = scale_to_ints([canon(v) for v in values])
    total = sum(nums)
    return tuple(
        sub
        for sub in odd_subsets(len(nums))
        if 2 * sum(nums[i - 1] for i in sub) - total == (len(sub) - 1) * den
    )


def _validate_line_subset(values, subset):
    n = len(values)
    subset = tuple(sorted(subset))
    if len(subset) % 2 == 0 or not subset:
        raise ClassificationUndefinedError(f"subset {subset} does not have odd cardinality")
    if any(not 1 <= i <= n for i in subset) or len(set(subset)) != len(subset):
        raise DimensionError(f"subset {subset} is not a subset of 1..{n}")
    return subset


def classify_facet(p_row, subset) -> str:
    """'S' when both non-integral indices sit on the same side of the subset, else 'O'.

    Requires the line to carry exactly two non-integral coordinates and to be
    tight on the subset's pseudo-facet.
    """
    values = tuple(canon(v) for v in p_row)
    subset = _validate_line_subset(values, subset)
    nonint = [i + 1 for i, v in enumerate(values) if not is_integral(v)]
    if len(nonint) != 2:
        raise ClassificationUndefinedError(
            f"classification needs exactly two non-integral coordinates, found {len(nonint)}"
        )
    if subset not in line_tight_subsets(values):
        raise NotTightError(f"line is not tight on the subset {subset} pseudo-facet")
    first, second = nonint
    if (first in subset) == (second in subset):
        return "S"
    return "O"


def parity_check(p_row, subset) -> bool:
    """Parity law: S-facets go with an odd number of ones, O-facets with even."""
    cls = classify_facet(p_row, subset)
    ones = sum(1 for v in p_row if canon(v) == 1)
    return (ones % 2 == 1) == (cls == "S")


def _line_class(values) -> str | None:
    """Common S/O class of the tight pseudo-facets of a two-non-integral line.

    None when the line is tight on no pseudo-facet; 'mixed' never happens for
    member points (same-line facets share their class) but is reported rather
    than asserted away.
    """
    tight = line_tight_subsets(values)
    if not tight:
        return None
    classes = {classify_facet(values, sub) for sub in tight}
    if len(classes) > 1:
        return "mixed"
    return classes.pop()


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


def _require_member(sys: InequalitySystem, p: Matrix):
    result = sys.membership(p)
    if result.status == "outside":
        raise NotAMemberError(
            f"point violates inequalities {result.violated} of model {sys.model}"
        )
    return result


def incidence_report(p: Matrix) -> IncidenceReport:
    """Support counts and tight pseudo-facet counts of a prime-coordinate member point."""
    sys = kimura3_prime_system(p.ncols)
    _require_member(sys, p)
    support = p.nonintegral_support()
    rows_occ = sorted({i for i, _ in support})
    cols_occ = sorted({j for _, j in support})
    row_nonint = tuple(
        sum(1 for i, _ in support if i == r) for r in (1, 2, 3)
    )
    col_nonint = tuple(
        sum(1 for _, j in support if j == c) for c in range(1, p.ncols + 1)
    )
    row_tight = tuple(len(line_tight_subsets(p.row(r))) for r in (1, 2, 3))
    col_tight = tuple(
        len(line_tight_subsets(p.column(c))) for c in range(1, p.ncols + 1)
    )
    return IncidenceReport(
        k=len(support),
        omega=len(rows_occ) + len(cols_occ),
        support=support,
        row_nonintegral=row_nonint,
        col_nonintegral=col_nonint,
        row_tight=row_tight,
        col_tight=col_tight,
        tag=_configuration_tag(support),
    )


def pseudo_facet_structure(p: Matrix) -> RowStructureReport:
    """Row-by-row pseudo-facet sanity of a prime-coordinate member point.

    Per row: a lone non-integral coordinate never occurs; two or more tight
    pseudo-facets cap the non-integral count at two; three or more force the
    row integral and tight on exactly m pseudo-facets.
    """
    sys = kimura3_prime_system(p.ncols)
    _require_member(sys, p)
    m = p.ncols
    checks = []
    for r in (1, 2, 3):
        values = p.row(r)
        nonint = sum(1 for v in values if not is_integral(v))
        tight = line_tight_subsets(values)
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


def _edge_line(p: Matrix, a, b):
    """Values of the row or column shared by two support positions."""
    if a[1] == b[1]:
        return p.column(a[1])
    return p.row(a[0])


def _step_bounds(sys: InequalitySystem, flat, direction):
    """Exact max steps t+ (along +v) and t- (along -v) staying in the system.

    Slacks and rates are integer numerators over the point's and the
    direction's common denominators; a candidate step is compared by cross
    multiplication and becomes a Fraction once, at the end. Tight
    inequalities must have zero rate along v; returns None on the
    (theoretically excluded) invalid-direction case.
    """
    nums, den = scale_to_ints(flat)
    rates, rate_den = scale_to_ints(direction)
    plus = minus = None  # (slack, |rate|) of the smallest step so far
    for ineq in sys.inequalities:
        rate = ineq.value(rates)
        slack = ineq.rhs * den - ineq.value(nums)
        if slack == 0:
            if rate != 0:
                return None
            continue
        if rate > 0:
            if plus is None or slack * plus[1] < plus[0] * rate:
                plus = (slack, rate)
        elif rate < 0:
            if minus is None or slack * minus[1] < minus[0] * -rate:
                minus = (slack, -rate)
    if plus is None or minus is None:
        # bounded polytopes always stop a nonzero direction on both sides
        raise ConfigurationError("direction escaped a bounded polytope; internal error")
    # t = (slack / den) / (rate / rate_den)
    return tuple(Fraction(sl * rate_den, r * den) for sl, r in (plus, minus))


def _kernel_direction(p: Matrix, support):
    """Nonzero direction from the tight-relation kernel (the k > omega case).

    One homogeneous equation per tight pseudo-facet of every row and column
    carrying non-integral coordinates, with variables only at the support
    (integral coordinates are pinned to zero). Rank is at most omega, so for
    k > omega a nonzero kernel vector exists.
    """
    m = p.ncols
    var_index = {pos: t for t, pos in enumerate(support)}
    k = len(support)
    eqs = []
    for r in sorted({i for i, _ in support}):
        for sub in line_tight_subsets(p.row(r)):
            eq = [0] * k
            for j in range(1, m + 1):
                t = var_index.get((r, j))
                if t is not None:
                    eq[t] = 1 if j in sub else -1
            eqs.append(eq)
    for c in sorted({j for _, j in support}):
        for sub in line_tight_subsets(p.column(c)):
            eq = [0] * k
            for i in (1, 2, 3):
                t = var_index.get((i, c))
                if t is not None:
                    eq[t] = 1 if i in sub else -1
            eqs.append(eq)
    return kernel_vector(eqs, k)


def _cycle_direction(p: Matrix, support):
    """Sign assignment around the support cycle (the k == omega case).

    Crossing a line whose tight pseudo-facets are S-facets flips the sign
    (the two coordinates sum to a constant); O-facets keep it (they stay
    equal); an untouched line imposes nothing. Returns (values, reason):
    values is None when the closing edge is inconsistent.
    """
    cycle = _support_cycle(support)
    signs = [1]
    for t in range(1, len(cycle)):
        cls = _line_class(_edge_line(p, cycle[t - 1], cycle[t]))
        if cls == "mixed":
            return None, "a cycle line carries both S- and O-facets"
        signs.append(-signs[-1] if cls == "S" else signs[-1])
    closing = _line_class(_edge_line(p, cycle[-1], cycle[0]))
    if closing == "mixed":
        return None, "a cycle line carries both S- and O-facets"
    expected_first = -signs[-1] if closing == "S" else signs[-1]
    if expected_first != signs[0]:
        return None, "sign assignment is inconsistent around the cycle"
    return dict(zip(cycle, signs)), ""


def interior_witness(p: Matrix) -> InteriorWitness | NotInterior:
    """Direction and exact step showing a non-integral member point is
    segment-interior in the prime-coordinate polytope.

    The direction vanishes at integral coordinates and has zero rate on every
    tight inequality; eps is half the smaller of the two exact stopping times,
    so p + eps*v and p - eps*v both stay inside.
    """
    sys = kimura3_prime_system(p.ncols)
    _require_member(sys, p)
    if p.is_integral():
        raise IntegralPointError("integral points admit no segment-interior witness")
    support = p.nonintegral_support()
    k = len(support)
    omega = len({i for i, _ in support}) + len({j for _, j in support})
    if k > omega:
        v_support = _kernel_direction(p, support)
        if v_support is None:
            return NotInterior("tight relations leave no kernel direction")
        values = dict(zip(support, v_support))
    else:
        tag = _configuration_tag(support)
        if tag not in ("P1", "P2"):
            return NotInterior(
                f"k == omega with support configuration {tag!r}; no cycle direction"
            )
        values, reason = _cycle_direction(p, support)
        if values is None:
            return NotInterior(reason)
    m = p.ncols
    direction = Matrix.from_rows(
        [
            [values.get((i, j), 0) for j in range(1, m + 1)]
            for i in (1, 2, 3)
        ]
    )
    bounds = _step_bounds(sys, p.flatten(), direction.flatten())
    if bounds is None:
        return NotInterior("direction moves off a tight inequality")
    t_plus, t_minus = bounds
    eps = min(t_plus, t_minus) / 2
    return InteriorWitness(direction, eps)


def s_facet_count_even(p: Matrix) -> bool:
    """Whether an even number of the support cycle's lines carry S-facets.

    Defined for P1/P2 configurations (each occupied line then holds exactly
    two non-integral coordinates). Evenness is what makes the cycle sign
    assignment close up.
    """
    sys = kimura3_prime_system(p.ncols)
    _require_member(sys, p)
    support = p.nonintegral_support()
    tag = _configuration_tag(support)
    if tag not in ("P1", "P2"):
        raise ConfigurationError(f"support configuration {tag!r} has no facet cycle")
    count = 0
    for r in sorted({i for i, _ in support}):
        if _line_class(p.row(r)) == "S":
            count += 1
    for c in sorted({j for _, j in support}):
        if _line_class(p.column(c)) == "S":
            count += 1
    return count % 2 == 0
