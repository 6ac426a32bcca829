"""H-representations of the claw-tree model polytopes.

Three builders, all over exact integer coefficients in {-1, 0, 1}:

* demihypercube_system(m): box bounds 0 <= d_i <= 1 plus, for every odd
  subset A of {1..m}, sum_{i in A} d_i - sum_{j not in A} d_j <= |A| - 1.
* kimura3_system(m): on 3 x m matrices, nonnegativity, column simplex rows
  sum_i x_ij <= 1, and for every row pair (p, q) and odd A the pairwise-sum
  demihypercube row applied to row p + row q.
* kimura3_prime_system(m): the same polytope after the pairwise-sum change of
  coordinates; one demihypercube row family per single row (odd subsets of
  columns) and one per single column (odd subsets of the three rows). Box
  bounds are implied and not materialized.

Every inequality is stored moved to one side, a.x <= b. Identifiers are
densely assigned in a fixed family order, so identical builder calls are
byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (
    DimensionError,
    LeafCountError,
    NotAMemberError,
    UnsupportedGroupError,
)
from .matrices import Matrix, flat_pos
from .rationals import Rational, canon, scale_to_ints


@lru_cache(maxsize=None)
def odd_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Odd-cardinality subsets of {1..n} as sorted tuples, lexicographic order."""
    subs = []
    for k in range(1, n + 1, 2):
        subs.extend(combinations(range(1, n + 1), k))
    return tuple(sorted(subs))


# --- family tags ------------------------------------------------------------
# A tag fully determines its inequality's coefficients and right-hand side.

@dataclass(frozen=True)
class NonNeg:
    row: int
    col: int

    kind = "nonneg"

    def describe(self) -> str:
        return f"family=nonneg row={self.row} col={self.col}"


@dataclass(frozen=True)
class ColumnSimplex:
    col: int

    kind = "simplex"

    def describe(self) -> str:
        return f"family=simplex col={self.col}"


@dataclass(frozen=True)
class Box:
    index: int
    upper: bool

    kind = "box"

    def describe(self) -> str:
        bound = "upper" if self.upper else "lower"
        return f"family=box index={self.index} bound={bound}"


@dataclass(frozen=True)
class ARow:
    rows: tuple[int, ...]
    subset: tuple[int, ...]

    kind = "arow"

    def describe(self) -> str:
        rows = ",".join(map(str, self.rows))
        a = ",".join(map(str, self.subset))
        return f"family=arow rows={rows} A={a}"


@dataclass(frozen=True)
class BColumn:
    subset: tuple[int, ...]
    col: int

    kind = "bcolumn"

    def describe(self) -> str:
        b = ",".join(map(str, self.subset))
        return f"family=bcolumn B={b} col={self.col}"


@dataclass(frozen=True)
class LinearInequality:
    """a.x <= rhs with the coefficient vector stored densely.

    pos/neg hold the indices with coefficient +1 / -1; all builders emit
    coefficients in {-1, 0, 1}, which keeps evaluation to pure additions.
    """

    id: int
    family: object
    coeffs: tuple[int, ...]
    rhs: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def value(self, flat) -> Rational:
        """a.x; on integer numerators it stays on ints."""
        get = flat.__getitem__
        return sum(map(get, self.pos)) - sum(map(get, self.neg))

    def describe(self) -> str:
        return f"id={self.id} {self.family.describe()} rhs={self.rhs}"


def _make_ineq(idx: int, family, dim: int, pos, neg, rhs: int) -> LinearInequality:
    pos = tuple(sorted(pos))
    neg = tuple(sorted(neg))
    coeffs = [0] * dim
    for i in pos:
        coeffs[i] = 1
    for i in neg:
        coeffs[i] = -1
    return LinearInequality(idx, family, tuple(coeffs), rhs, pos, neg)


@dataclass(frozen=True)
class MembershipResult:
    status: str  # "inside" | "boundary" | "outside"
    violated: tuple[int, ...]
    tight: tuple[int, ...]


@dataclass(frozen=True)
class TightSet:
    ids: tuple[int, ...]
    by_family: tuple[tuple[str, tuple[int, ...]], ...]

    def family(self, kind: str) -> tuple[int, ...]:
        for name, ids in self.by_family:
            if name == kind:
                return ids
        return ()


class InequalitySystem:
    """Immutable ordered list of inequalities over a fixed flattened shape."""

    def __init__(self, model: str, shape: tuple[int, int], inequalities):
        self.model = model
        self.shape = shape
        self.dimension = shape[0] * shape[1]
        self.inequalities = tuple(inequalities)
        self._by_family = {ineq.family: ineq for ineq in self.inequalities}
        # masks for the 0/1 fast path; an inequality that no 0/1 point can
        # violate (max of a.x over the cube <= rhs) is skipped there
        self._binary_checks = tuple(
            (sum(1 << i for i in ineq.pos), sum(1 << i for i in ineq.neg), ineq.rhs, ineq.id)
            for ineq in self.inequalities
            if len(ineq.pos) > ineq.rhs
        )

    def __len__(self) -> int:
        return len(self.inequalities)

    def by_family(self, family) -> LinearInequality:
        try:
            return self._by_family[family]
        except KeyError:
            raise KeyError(f"no inequality tagged {family!r} in model {self.model}") from None

    def flatten(self, point) -> tuple[Rational, ...]:
        if isinstance(point, Matrix):
            if (point.nrows, point.ncols) != self.shape:
                raise DimensionError(
                    f"matrix shape {point.nrows}x{point.ncols} does not match "
                    f"system shape {self.shape[0]}x{self.shape[1]}"
                )
            return point.flatten()
        flat = tuple(canon(x) for x in point)
        if len(flat) != self.dimension:
            raise DimensionError(
                f"point dimension {len(flat)} does not match system dimension {self.dimension}"
            )
        return flat

    def membership(self, point) -> MembershipResult:
        """Exact status on integer numerators: the slack rhs - a.x, times D."""
        nums, den = scale_to_ints(self.flatten(point))
        violated = []
        tight = []
        for ineq in self.inequalities:
            s = ineq.rhs * den - ineq.value(nums)
            if s < 0:
                violated.append(ineq.id)
            elif s == 0:
                tight.append(ineq.id)
        if violated:
            status = "outside"
        elif tight:
            status = "boundary"
        else:
            status = "inside"
        return MembershipResult(status, tuple(violated), tuple(tight))

    def tight_set(self, point) -> TightSet:
        """Tight inequality ids grouped by family kind; raises off the polytope."""
        result = self.membership(point)
        if result.status == "outside":
            raise NotAMemberError(
                f"point violates inequalities {result.violated} of model {self.model}"
            )
        groups: dict[str, list[int]] = {}
        for i in result.tight:
            kind = self.inequalities[i].family.kind
            groups.setdefault(kind, []).append(i)
        by_family = tuple((kind, tuple(ids)) for kind, ids in groups.items())
        return TightSet(result.tight, by_family)

    # -- 0/1 fast path --------------------------------------------------

    def binary_violation(self, mask: int) -> int | None:
        """First violated inequality id for the 0/1 point given as a bitmask, else None.

        Exact: evaluates a.x via popcounts over the +1/-1 coefficient masks.
        """
        for pos_mask, neg_mask, rhs, ineq_id in self._binary_checks:
            if (mask & pos_mask).bit_count() - (mask & neg_mask).bit_count() > rhs:
                return ineq_id
        return None

    def homogenized_rows(self):
        """Rows (-b, a1..ad) describing the cone a.x - b*x0 <= 0."""
        return [(-ineq.rhs,) + ineq.coeffs for ineq in self.inequalities]


# --- builders ---------------------------------------------------------------

@lru_cache(maxsize=None)
def demihypercube_system(m: int) -> InequalitySystem:
    """Box bounds plus odd-subset rows on [0,1]^m; 2m + 2^(m-1) inequalities."""
    if m < 1:
        raise LeafCountError(f"m >= 1 required, got {m}")
    ineqs = []
    for i in range(1, m + 1):
        ineqs.append(_make_ineq(len(ineqs), Box(i, upper=False), m, (), (i - 1,), 0))
    for i in range(1, m + 1):
        ineqs.append(_make_ineq(len(ineqs), Box(i, upper=True), m, (i - 1,), (), 1))
    for sub in odd_subsets(m):
        inside = [j - 1 for j in sub]
        outside = [j - 1 for j in range(1, m + 1) if j not in sub]
        ineqs.append(
            _make_ineq(len(ineqs), ARow((1,), sub), m, inside, outside, len(sub) - 1)
        )
    return InequalitySystem("binary", (1, m), ineqs)


@lru_cache(maxsize=None)
def kimura3_system(m: int) -> InequalitySystem:
    """Nonnegativity, column simplex, and pairwise-row odd-subset inequalities.

    3m + m + 3*2^(m-1) rows on 3 x m matrices.
    """
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    dim = 3 * m
    ineqs = []
    for i in range(1, 4):
        for j in range(1, m + 1):
            ineqs.append(
                _make_ineq(len(ineqs), NonNeg(i, j), dim, (), (flat_pos(i, j, m),), 0)
            )
    for j in range(1, m + 1):
        pos = [flat_pos(i, j, m) for i in range(1, 4)]
        ineqs.append(_make_ineq(len(ineqs), ColumnSimplex(j), dim, pos, (), 1))
    subs = odd_subsets(m)
    for pair in ((1, 2), (1, 3), (2, 3)):
        for sub in subs:
            pos = [flat_pos(r, j, m) for r in pair for j in sub]
            neg = [
                flat_pos(r, j, m)
                for r in pair
                for j in range(1, m + 1)
                if j not in sub
            ]
            ineqs.append(
                _make_ineq(len(ineqs), ARow(pair, sub), dim, pos, neg, len(sub) - 1)
            )
    return InequalitySystem("kimura3", (3, m), ineqs)


@lru_cache(maxsize=None)
def kimura3_prime_system(m: int) -> InequalitySystem:
    """Single-row and single-column odd-subset inequalities; 3*2^(m-1) + 4m rows.

    The [0,1] box is implied: for each column, the three B={i} rows pairwise
    sum to 0 <= 2*x_ij, and with the B={1,2,3} row give x_ij <= 1.
    """
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    dim = 3 * m
    ineqs = []
    subs = odd_subsets(m)
    for r in range(1, 4):
        for sub in subs:
            pos = [flat_pos(r, j, m) for j in sub]
            neg = [flat_pos(r, j, m) for j in range(1, m + 1) if j not in sub]
            ineqs.append(
                _make_ineq(len(ineqs), ARow((r,), sub), dim, pos, neg, len(sub) - 1)
            )
    row_subs = odd_subsets(3)
    for j in range(1, m + 1):
        for sub in row_subs:
            pos = [flat_pos(i, j, m) for i in sub]
            neg = [flat_pos(i, j, m) for i in range(1, 4) if i not in sub]
            ineqs.append(
                _make_ineq(len(ineqs), BColumn(sub, j), dim, pos, neg, len(sub) - 1)
            )
    return InequalitySystem("kimura3-prime", (3, m), ineqs)


MODEL_BUILDERS = {
    "binary": demihypercube_system,
    "kimura3": kimura3_system,
    "kimura3-prime": kimura3_prime_system,
}


def model_system(model: str, m: int) -> InequalitySystem:
    try:
        builder = MODEL_BUILDERS[model]
    except KeyError:
        raise UnsupportedGroupError(
            f"unknown model {model!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(m)


def row_projection(p: Matrix, r: int) -> tuple[Rational, ...]:
    """Row r of a 3 x m matrix (1-based), the projection the row inequalities see."""
    if p.nrows != 3:
        raise DimensionError(f"expected a 3-row matrix, got {p.nrows} rows")
    if r not in (1, 2, 3):
        raise DimensionError(f"row index must be 1, 2 or 3, got {r}")
    return p.row(r)
