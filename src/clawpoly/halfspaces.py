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

Every system is one InequalitySystem, the package's only H-representation
(the engine's vertex enumeration and the H-file writer read it): integer
rows (a, b) meaning a.x <= b, and a tag naming each row's family. A row's
id is its position, and rows come in a fixed family order, so identical
builder calls are byte-for-byte reproducible and an odd-subset row's id
follows from its tag alone (arow_id). Each odd-subset row is one +-1
pattern over the subset's ground set (+1 on A, -1 off it), placed in the
rows or the column it applies to.

Every row is checked as lane k = row k of one big int (``lanes``), from one
packer: membership at a whole-byte width, the 0/1 checks at the 0/1 width.
Membership reads a point in the package's one exact form, a ScaledPoint
(integer numerators over one denominator), and the 0/1 checks a bitmask.
One read of a point gives its lanes and the bitmasks of its tight and
violated rows; status stops there, and membership decodes the rows' ids.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

from . import vertices
from .errors import (
    DimensionError,
    LeafCountError,
    NotAMemberError,
    ResourceCapError,
    UnsupportedGroupError,
)
from .lanes import bits, byte_width, lane_signs, pack_lanes
from .rationals import ScaledPoint


@lru_cache(maxsize=None)
def odd_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Odd-cardinality subsets of {1..n} as sorted tuples, lexicographic order."""
    subs = []
    for k in range(1, n + 1, 2):
        subs.extend(combinations(range(1, n + 1), k))
    return tuple(sorted(subs))


# --- family tags ------------------------------------------------------------
# A tag fully determines its inequality's coefficients and right-hand side.

class NonNeg(NamedTuple):
    row: int
    col: int

    kind = "nonneg"

    def describe(self) -> str:
        return f"family=nonneg row={self.row} col={self.col}"


class ColumnSimplex(NamedTuple):
    col: int

    kind = "simplex"

    def describe(self) -> str:
        return f"family=simplex col={self.col}"


class Box(NamedTuple):
    index: int
    upper: bool

    kind = "box"

    def describe(self) -> str:
        bound = "upper" if self.upper else "lower"
        return f"family=box index={self.index} bound={bound}"


class ARow(NamedTuple):
    rows: tuple[int, ...]
    subset: tuple[int, ...]

    kind = "arow"

    def describe(self) -> str:
        rows = ",".join(map(str, self.rows))
        a = ",".join(map(str, self.subset))
        return f"family=arow rows={rows} A={a}"


class BColumn(NamedTuple):
    subset: tuple[int, ...]
    col: int

    kind = "bcolumn"

    def describe(self) -> str:
        b = ",".join(map(str, self.subset))
        return f"family=bcolumn B={b} col={self.col}"


def _status(at_least: int, above: int) -> str:
    """The status of a point whose tight-or-violated and violated rows are
    the bitmasks at_least and above."""
    return "outside" if above else "boundary" if at_least else "inside"


class MembershipResult(NamedTuple):
    status: str  # "inside" | "boundary" | "outside"
    violated: tuple[int, ...]
    tight: tuple[int, ...]

    @classmethod
    def of(cls, at_least: int, above: int) -> MembershipResult:
        """The result of the bitmasks of InequalitySystem.read."""
        return cls(_status(at_least, above), tuple(bits(above)), tuple(bits(at_least ^ above)))


class TightSet(NamedTuple):
    ids: tuple[int, ...]
    by_kind: tuple[tuple[str, tuple[int, ...]], ...]


class InequalitySystem:
    """The H-representation: rows[i] = (a, b) means a.x <= b, with a an
    integer tuple over the flattened shape and b an integer; row i has id i
    and family tag families[i]. An equation is written as two opposite rows.
    """

    def __init__(self, model: str, shape: tuple[int, int], rows, families):
        self.model = model
        self.shape = shape
        self.dimension = shape[0] * shape[1]
        self.rows = tuple((tuple(a), b) for a, b in rows)
        self.families = tuple(families)
        if any(len(a) != self.dimension for a, _ in self.rows):
            raise DimensionError(f"a row's length is not the system dimension {self.dimension}")
        if len(self.families) != len(self.rows):
            raise DimensionError(f"{len(self.families)} family tags for {len(self.rows)} rows")
        # membership lanes by width, for the few widths used last: points with
        # ever longer numerators would otherwise keep one packing per width
        self._membership_lanes = lru_cache(maxsize=8)(self._pack_membership_lanes)

    @cached_property
    def binary_lanes(self) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
        """(W, base, top, cols, neg_suffix): the 0/1 checks, the membership
        lanes of every row at width W, packed on first use. Lane j of
        ``base`` plus ``cols[i]`` for each coordinate i set holds
        a_j.x + 2^(W-1) - rhs_j - 1, whose top bit, a bit of ``top``, is set
        iff a_j.x > rhs_j. With up_j / down_j the sums of row j's positive
        coefficients and of its negative ones' magnitudes, W - 1 is the bit
        length of the largest rhs_j + 1 + down_j or up_j - rhs_j, so every
        partial sum stays in [0, 2^W) and no carry crosses lanes.
        ``neg_suffix[k]`` holds each lane's down sum over coordinates k and
        above.
        """
        reach = max((max(b + 1 - sum(filter((0).__gt__, a)), sum(filter((0).__lt__, a)) - b)
                     for a, b in self.rows), default=0)
        width = reach.bit_length() + 1
        offset, rhs_lanes, cols, negs = self._pack_membership_lanes(width)
        base = offset - rhs_lanes - (offset >> (width - 1))
        suffix = tuple(accumulate(reversed(negs), initial=0))[::-1]
        return width, base, offset, tuple(cols), suffix

    def __len__(self) -> int:
        return len(self.rows)

    def read(self, point: ScaledPoint) -> tuple[int, int, int, int]:
        """(acc, W, at_least, above): the point's ``evaluate`` lanes and the
        bitmasks of its tight-or-violated rows and of its violated rows.

        A lane of ``evaluate`` holds at least 2^(W-1) iff its row is tight
        or violated, and more than that iff it is violated.
        """
        nums, den = point
        if len(nums) != self.dimension:
            raise DimensionError(
                f"point dimension {len(nums)} does not match system dimension {self.dimension}"
            )
        acc, width = self.evaluate(nums, den)
        return acc, width, *lane_signs(acc, len(self.rows), width)

    def status(self, point: ScaledPoint) -> str:
        """membership(point).status, from the same one read, naming no row."""
        _, _, at_least, above = self.read(point)
        return _status(at_least, above)

    def membership(self, point: ScaledPoint) -> MembershipResult:
        """Exact status of a point, every row at once, with the ids of its
        violated and its tight rows."""
        return MembershipResult.of(*self.read(point)[2:])

    def evaluate(self, nums, den: int) -> tuple[int, int]:
        """(acc, W): lane j of acc, W bits wide, holds 2^(W-1) + a_j.nums - rhs_j*den.

        W - 1 is at least the bit length of the largest |a_j.nums - rhs_j*den|
        the rows' 1-norms and right-hand sides allow at this point, so every
        lane stays in [1, 2^W). W is a whole number of bytes, so
        lanes.lane_signs and lanes.lane_values read the lanes.
        """
        norm, rhs = self._row_bounds
        reach = norm * max(map(abs, nums), default=0) + rhs * den
        width = byte_width(reach)
        offset, rhs_lanes, cols, _ = self._membership_lanes(width)
        acc = offset - den * rhs_lanes
        for x, col in zip(nums, cols):
            if x:
                acc += x * col
        return acc, width

    @cached_property
    def _row_bounds(self) -> tuple[int, int]:
        """The largest 1-norm and the largest |rhs| of the rows."""
        return (
            max((sum(map(abs, a)) for a, _ in self.rows), default=0),
            max((abs(b) for _, b in self.rows), default=0),
        )

    def _pack_membership_lanes(self, width: int):
        """Every row as a width-bit lane: the offset 2^(W-1) in every lane,
        the right-hand sides, per coordinate i the coefficients a_j[i], and
        per coordinate the magnitudes of its negative coefficients. The
        right-hand sides and coefficients are signed sums of lanes, so only
        the lanes of a finished evaluation lie in [0, 2^W)."""
        rows = self.rows

        def split(values):
            return (pack_lanes([v if v > 0 else 0 for v in values], width),
                    pack_lanes([-v if v < 0 else 0 for v in values], width))

        offset = pack_lanes([1 << (width - 1)] * len(rows), width)
        pos, neg = split([b for _, b in rows])
        sides = [split(col) for col in zip(*(a for a, _ in rows))] or [(0, 0)] * self.dimension
        return offset, pos - neg, [p - n for p, n in sides], [n for _, n in sides]

    def tight_set(self, point: ScaledPoint) -> TightSet:
        """Tight inequality ids grouped by family kind; raises off the polytope."""
        result = self.membership(point)
        if result.status == "outside":
            raise NotAMemberError(
                f"point violates inequalities {result.violated} of model {self.model}"
            )
        groups: dict[str, list[int]] = {}
        for i in result.tight:
            kind = self.families[i].kind
            groups.setdefault(kind, []).append(i)
        return TightSet(result.tight, tuple((kind, tuple(ids)) for kind, ids in groups.items()))

    # -- 0/1 fast path --------------------------------------------------

    def binary_violation(self, mask: int) -> int | None:
        """First violated inequality id for the 0/1 point given as a bitmask, else None.

        Exact and all rows at once: one big-int add per set bit evaluates a.x
        in every lane of ``binary_lanes``, and lane k is row k, so the lowest
        lane whose top bit is set is the first violated row.
        """
        width, t, top, cols, _ = self.binary_lanes
        while mask:
            low = mask & -mask
            t += cols[low.bit_length() - 1]
            mask ^= low
        violated = t & top
        if not violated:
            return None
        return ((violated & -violated).bit_length() - 1) // width

    def homogenized_rows(self):
        """Rows (-b, a1..ad) describing the cone a.x - b*x0 <= 0."""
        return [(-b,) + a for a, b in self.rows]


# --- builders ---------------------------------------------------------------

# the row pairs of kimura3_system's odd-subset families, in row order
ROW_PAIRS = ((1, 2), (1, 3), (2, 3))


@lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(pattern, |A| - 1) per odd subset A of {1..n}, in odd_subsets order:
    the pattern is +1 at the positions of A and -1 off it."""
    out = []
    for sub in odd_subsets(n):
        pattern = [-1] * n
        for j in sub:
            pattern[j - 1] = 1
        out.append((tuple(pattern), len(sub) - 1))
    return tuple(out)


def _placed(dim: int, start: int, step: int, pattern) -> tuple[int, ...]:
    """The row of dimension dim that holds pattern at start, start + step, ..."""
    a = [0] * dim
    a[start:start + step * len(pattern):step] = pattern
    return tuple(a)


@lru_cache(maxsize=None)
def demihypercube_system(m: int) -> InequalitySystem:
    """Box bounds plus odd-subset rows on [0,1]^m; 2m + 2^(m-1) inequalities."""
    if m < 1:
        raise LeafCountError(f"m >= 1 required, got {m}")
    rows = [(_placed(m, i, m, (-1,)), 0) for i in range(m)]
    rows += [(_placed(m, i, m, (1,)), 1) for i in range(m)]
    rows += _patterns(m)
    families = [Box(i, upper) for upper in (False, True) for i in range(1, m + 1)]
    families += [ARow((1,), sub) for sub in odd_subsets(m)]
    return InequalitySystem("binary", (1, m), rows, families)


@lru_cache(maxsize=None)
def kimura3_system(m: int) -> InequalitySystem:
    """Nonnegativity, column simplex, and pairwise-row odd-subset inequalities.

    3m + m + 3*2^(m-1) rows on 3 x m matrices.
    """
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    dim = 3 * m
    rows = [(_placed(dim, k, dim, (-1,)), 0) for k in range(dim)]
    rows += [(_placed(dim, j, m, (1, 1, 1)), 1) for j in range(m)]
    families = [NonNeg(i, j) for i in range(1, 4) for j in range(1, m + 1)]
    families += [ColumnSimplex(j) for j in range(1, m + 1)]
    zero = (0,) * m
    subs = odd_subsets(m)
    for pair in ROW_PAIRS:
        rows += [
            (sum((pattern if r in pair else zero for r in (1, 2, 3)), ()), k)
            for pattern, k in _patterns(m)
        ]
        families += [ARow(pair, sub) for sub in subs]
    return InequalitySystem("kimura3", (3, m), rows, families)


@lru_cache(maxsize=None)
def kimura3_prime_system(m: int) -> InequalitySystem:
    """Single-row and single-column odd-subset inequalities; 3*2^(m-1) + 4m rows.

    The [0,1] box is implied: for each column, the three B={i} rows pairwise
    sum to 0 <= 2*x_ij, and with the B={1,2,3} row give x_ij <= 1.
    """
    if m < 3:
        raise LeafCountError(f"m >= 3 required, got {m}")
    dim = 3 * m
    rows = [
        (_placed(dim, r * m, 1, pattern), k)
        for r in range(3)
        for pattern, k in _patterns(m)
    ]
    rows += [(_placed(dim, j, m, pattern), k) for j in range(m) for pattern, k in _patterns(3)]
    families = [ARow((r,), sub) for r in range(1, 4) for sub in odd_subsets(m)]
    families += [BColumn(sub, j) for j in range(1, m + 1) for sub in odd_subsets(3)]
    return InequalitySystem("kimura3-prime", (3, m), rows, families)


MODEL_BUILDERS = {
    "binary": demihypercube_system,
    "kimura3": kimura3_system,
    "kimura3-prime": kimura3_prime_system,
}


def odd_subset_rank(subset, n: int) -> int:
    """Position of the odd subset A = (a_1 < ... < a_k) in odd_subsets(n).

    The subsets before A in lexicographic order are its proper prefixes of
    odd length, (k - 1) / 2 of them, and for each t the subsets that agree
    with A before position t and hold some c with a_(t-1) < c < a_t there
    (a_0 = 0), followed by any subset of {c+1..n} of the parity that keeps
    the size odd: 2^(n-c-1) of them per c. Summed over c and t this is
    2^(n-1) - 2^(n-a_k) - sum_(t<k) 2^(n-1-a_t).
    """
    *head, last = subset
    before = sum(1 << (n - 1 - a) for a in head)
    return (1 << (n - 1)) - (1 << (n - last)) - before + len(head) // 2


def arow_id(m: int, pair: tuple[int, int], subset) -> int:
    """The id of row ARow(pair, subset) of kimura3_system(m), from the
    family order alone: 4m rows of nonnegativity and column simplex, then
    2^(m-1) rows per row pair, in odd_subsets order."""
    return 4 * m + ROW_PAIRS.index(pair) * (1 << (m - 1)) + odd_subset_rank(subset, m)


def row_count(model: str, m: int) -> int:
    """Rows of the model's system at m leaves, known before it is built."""
    subsets = 2 ** (m - 1)  # odd subsets of {1..m}
    return 2 * m + subsets if model == "binary" else 4 * m + 3 * subsets


def model_system(model: str, m: int) -> InequalitySystem:
    """The model's system at m leaves; refused above the generation cap
    (``vertices.GENERATION_CAP``) on its row count, before it is built. The
    2^(m-1) odd subsets alone pass the cap once m - 1 passes its bit length;
    such an m is refused from the exponent, and the count is never built."""
    try:
        builder = MODEL_BUILDERS[model]
    except KeyError:
        raise UnsupportedGroupError(
            f"unknown model {model!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None
    cap = vertices.GENERATION_CAP
    if m - 1 > cap.bit_length():
        rows = f"over 2^{m - 1}"
    elif (rows := row_count(model, m)) <= cap:
        return builder(m)
    raise ResourceCapError(f"{rows} inequalities exceeds the generation cap {cap}")
