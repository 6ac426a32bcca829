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
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from . import vertices
from .errors import (
    DimensionError,
    LeafCountError,
    NotAMemberError,
    ResourceCapError,
    UnsupportedGroupError,
)
from .lanes import bits, lane_tops, pack_lanes
from .matrices import Matrix, flat_pos
from .rationals import Rational, ScaledPoint, canon, scale_to_ints


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


class BinaryChecks(NamedTuple):
    """The packed 0/1 checks of an InequalitySystem (see its binary_checks)."""

    width: int
    ids: tuple[int, ...]
    base: int
    top: int
    delta: tuple[int, ...]
    neg_suffix: tuple[int, ...]


class InequalitySystem:
    """Immutable ordered list of inequalities over a fixed flattened shape."""

    def __init__(self, model: str, shape: tuple[int, int], inequalities):
        self.model = model
        self.shape = shape
        self.dimension = shape[0] * shape[1]
        self.inequalities = tuple(inequalities)
        self._by_family = {ineq.family: ineq for ineq in self.inequalities}
        self._ids = tuple(ineq.id for ineq in self.inequalities)
        # membership lanes by width, for the few widths used last: points with
        # ever longer numerators would otherwise keep one packing per width
        self._membership_lanes = lru_cache(maxsize=8)(self._pack_membership_lanes)

    @cached_property
    def binary_checks(self) -> BinaryChecks:
        """The 0/1 checks as W-bit lanes of one int, packed on first use:
        lane j of ``base`` plus ``delta[i]`` for each coordinate i set holds
        a_j.x + 2^(W-1) - rhs_j - 1, whose top bit is set iff a_j.x > rhs_j.
        W - 1 is the bit length of the largest rhs_j + 1 + |neg_j| or
        |pos_j| - rhs_j, so every partial sum stays in [0, 2^W) and no carry
        crosses lanes. ``neg_suffix[k]`` counts each lane's -1 coefficients
        at coordinates k and above. Rows no 0/1 point violates get no lane.
        Each lane int is packed in one pass by ``lanes.pack_lanes``; pos and
        neg each from one column of the coefficient matrix.
        """
        checks = [ineq for ineq in self.inequalities if len(ineq.pos) > ineq.rhs]
        reach = max(
            (max(q.rhs + 1 + len(q.neg), len(q.pos) - q.rhs) for q in checks), default=0
        )
        width = reach.bit_length() + 1
        half = 1 << (width - 1)
        cols = list(zip(*(q.coeffs for q in checks))) or [()] * self.dimension
        # coefficients are in {-1, 0, 1}: lane j of pos[i] / neg[i] is 1 iff a_j[i] is 1 / -1
        pos = [pack_lanes(list(map((1).__eq__, col)), width) for col in cols]
        neg = [pack_lanes(list(map((-1).__eq__, col)), width) for col in cols]
        suffix = [0] * (self.dimension + 1)
        for k in range(self.dimension - 1, -1, -1):
            suffix[k] = suffix[k + 1] + neg[k]
        return BinaryChecks(
            width,
            tuple(q.id for q in checks),
            pack_lanes([half - q.rhs - 1 for q in checks], width),
            pack_lanes([half] * len(checks), width),
            tuple(p - n for p, n in zip(pos, neg)),
            tuple(suffix),
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
        """Exact status of a point, every row at once.

        point is a Matrix, a sequence of rationals or a ScaledPoint. In the
        lanes of ``_evaluate``, a top bit is set iff its row is tight or
        violated, and after subtracting one from every lane iff it is
        violated.
        """
        if isinstance(point, ScaledPoint):
            nums, den = point
            if len(nums) != self.dimension:
                raise DimensionError(
                    f"point dimension {len(nums)} does not match system dimension "
                    f"{self.dimension}"
                )
        else:
            nums, den = scale_to_ints(self.flatten(point))
        acc, width = self._evaluate(nums, den)
        count = len(self.inequalities)
        at_least = lane_tops(acc, count, width)
        above = lane_tops(acc - self._membership_lanes(width)[0], count, width)
        ids = self._ids
        violated = tuple(ids[k] for k in bits(above))
        tight = tuple(ids[k] for k in bits(at_least ^ above))
        if violated:
            status = "outside"
        elif tight:
            status = "boundary"
        else:
            status = "inside"
        return MembershipResult(status, violated, tight)

    def row_values(self, nums, den: int) -> list[int]:
        """a_j.nums - rhs_j*den for every row j, in row order: minus the
        slacks, times den, of the point nums / den. With den = 0 they are
        the rates a_j.nums of the direction nums."""
        acc, width = self._evaluate(nums, den)
        step = width >> 3
        half = 1 << (width - 1)
        raw = acc.to_bytes(len(self.inequalities) * step, "little")
        return [int.from_bytes(raw[k:k + step], "little") - half
                for k in range(0, len(raw), step)]

    def _evaluate(self, nums, den: int) -> tuple[int, int]:
        """(acc, W): lane j of acc, W bits wide, holds 2^(W-1) + a_j.nums - rhs_j*den.

        W - 1 is at least the bit length of the largest |a_j.nums - rhs_j*den|
        the rows' 1-norms and right-hand sides allow at this point, so every
        lane stays in [1, 2^W).
        """
        norm, rhs = self._row_bounds
        reach = norm * max(map(abs, nums), default=0) + rhs * den
        width = -(-(reach.bit_length() + 1) // 8) * 8
        _, offset, rhs_lanes, cols = self._membership_lanes(width)
        acc = offset - den * rhs_lanes
        for x, col in zip(nums, cols):
            if x:
                acc += x * col
        return acc, width

    @cached_property
    def _row_bounds(self) -> tuple[int, int]:
        """The largest 1-norm and the largest |rhs| of the rows."""
        ineqs = self.inequalities
        return (
            max((sum(map(abs, q.coeffs)) for q in ineqs), default=0),
            max((abs(q.rhs) for q in ineqs), default=0),
        )

    def _pack_membership_lanes(self, width: int):
        """Every row as a width-bit lane: the int of ones, the offset
        2^(W-1) in every lane, the right-hand sides, and per coordinate i
        the coefficients a_j[i]. The last two are signed sums of lanes, so
        only the lanes of a finished evaluation lie in [0, 2^W)."""
        ineqs = self.inequalities

        def signed(values):
            return (pack_lanes([max(v, 0) for v in values], width)
                    - pack_lanes([max(-v, 0) for v in values], width))

        ones = pack_lanes([1] * len(ineqs), width)
        cols = [signed(col) for col in zip(*(q.coeffs for q in ineqs))]
        return ones, ones << (width - 1), signed([q.rhs for q in ineqs]), cols

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

        Exact and all rows at once: one big-int add per set bit evaluates a.x
        in every lane, and the lowest lane whose top bit is set is the first
        violated row in id order.
        """
        width, ids, t, top, delta, _ = self.binary_checks
        while mask:
            low = mask & -mask
            t += delta[low.bit_length() - 1]
            mask ^= low
        violated = t & top
        if not violated:
            return None
        return ids[((violated & -violated).bit_length() - 1) // width]

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


def row_count(model: str, m: int) -> int:
    """Rows of the model's system at m leaves, known before it is built."""
    subsets = 2 ** (m - 1)  # odd subsets of {1..m}
    return 2 * m + subsets if model == "binary" else 4 * m + 3 * subsets


def model_system(model: str, m: int) -> InequalitySystem:
    """The model's system at m leaves; refused above the generation cap
    (``vertices.GENERATION_CAP``) on its row count, before it is built."""
    try:
        builder = MODEL_BUILDERS[model]
    except KeyError:
        raise UnsupportedGroupError(
            f"unknown model {model!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None
    rows = row_count(model, m)
    if rows > vertices.GENERATION_CAP:
        raise ResourceCapError(
            f"{rows} inequalities exceeds the generation cap {vertices.GENERATION_CAP}"
        )
    return builder(m)
