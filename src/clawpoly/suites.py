"""Sampled verification suites over the model polytopes.

Each suite draws seeded exact-rational sample points (ScaledPoints), checks
a family of structural laws on every sample, and returns a report whose
counterexample list is empty exactly when the suite passes; a
counterexample shows its point as 3 x m rows of canonical rationals. The
suites back the CLI `verify theorems` task and the acceptance tests.

The pseudo-facet and interior suites run only together, in one pass over
one sample (run_sampled_suites) that analyses each point once and keeps
only the current point's analysis. Each pseudo-facet law is a few lines
of _pseudo_facet_checks that read the point's witness.PointAnalysis
directly, and every system is built through halfspaces.model_system,
under the generation cap. A check that needs only a point's status (the
isomorphism suite's membership and the interior witness's endpoints)
reads it with InequalitySystem.status, which tests the lanes' top bits
and decodes no lane.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import add, eq, mul, sub
from typing import NamedTuple

from .coordchange import (
    from_prime_scaled,
    point_rows,
    simplex_image_check,
    to_prime_scaled,
)
from .errors import InfoLog
from .halfspaces import model_system
from .rationals import ScaledPoint
from .sampling import sample_box_points, sample_prime_points, sample_prime_segment_points
from .witness import InteriorWitness, analyze_point, interior_witness

log = InfoLog("clawpoly.suites")


class IsomorphismSuiteReport(NamedTuple):
    leaves: int
    roundtrip_checked: int
    membership_checked: int
    simplex_image_ok: bool
    failures: tuple
    passed: bool


class PseudoFacetSuiteReport(NamedTuple):
    leaves: int
    samples: int
    k_ge_omega: int
    single_nonintegral_rows: int
    structure: int
    parity: int
    mixed_class: int
    cycle_configs: int
    failures: tuple
    passed: bool


class InteriorSuiteReport(NamedTuple):
    leaves: int
    samples: int
    nonintegral: int
    failures: tuple
    passed: bool


def _mixed_sample(m, count, seed):
    """count points, drawn lazily: two thirds from sample_prime_points, then
    the rest from sample_prime_segment_points."""
    head = 2 * count // 3
    return chain(sample_prime_points(m, head, seed),
                 sample_prime_segment_points(m, count - head, seed + 1))


def _same_point(a: ScaledPoint, b: ScaledPoint) -> bool:
    return all(map(eq, map(mul, a.nums, repeat(b.den)), map(mul, b.nums, repeat(a.den))))


def _log_counts(suite, m, points, memberships, kernel=0, cycle=0, tight=0):
    log.info(
        "%s m=%d: %d points, %d membership evaluations, %d kernel witnesses, "
        "%d cycle witnesses, %d tight subsets",
        suite, m, points, memberships, kernel, cycle, tight,
    )


def run_isomorphism_suite(m: int, samples: int, seed: int = 0) -> IsomorphismSuiteReport:
    """Round-trip and membership invariance of the coordinate change."""
    # the vertex sampler checks the generation cap, so it runs first: an m
    # past the cap is refused before any box point or system is built. Each
    # sampler has its own seed, so the order does not change the samples.
    # It draws prime coordinates, mapped back so that the pool holds members.
    mixed = map(from_prime_scaled, _mixed_sample(m, samples - samples // 2, seed + 3))
    membership_pool = chain(sample_box_points(m, samples // 2, seed + 2), mixed)
    failures = []
    boxes = sample_box_points(m, samples, seed)
    for p in boxes:
        if not _same_point(from_prime_scaled(to_prime_scaled(p)), p):
            failures.append(("roundtrip_forward", point_rows(p)))
        if not _same_point(to_prime_scaled(from_prime_scaled(p)), p):
            failures.append(("roundtrip_backward", point_rows(p)))
    sys_std = model_system("kimura3", m)
    sys_pri = model_system("kimura3-prime", m)
    for p in membership_pool:
        inside_std = sys_std.status(p) != "outside"
        inside_pri = sys_pri.status(to_prime_scaled(p)) != "outside"
        if inside_std != inside_pri:
            failures.append(("membership", point_rows(p)))
    simplex_ok = simplex_image_check()
    if not simplex_ok:
        failures.append(("simplex_image", None))
    _log_counts("isomorphism", m, 2 * samples, 2 * samples)
    return IsomorphismSuiteReport(
        leaves=m,
        roundtrip_checked=samples,
        membership_checked=samples,
        simplex_image_ok=simplex_ok,
        failures=tuple(failures),
        passed=not failures,
    )


def _pseudo_facet_checks(pt, counts, failures) -> None:
    """The pseudo-facet laws at one analysed sample point, read off its
    PointAnalysis: k = len(pt.support) against omega, each row's
    non-integral positions and tight subsets, and the S/O class of the
    lines of a k == omega support."""
    pt.require_member()
    p = pt.point
    k, omega, m = len(pt.support), pt.omega, len(pt.cols)
    counts["tight"] += len(pt.membership.tight)
    if k < omega:
        counts["k_ge_omega"] += 1
        failures.append(("k_lt_omega", point_rows(p)))
    single = any(len(row.nonintegral) == 1 for row in pt.rows)
    if single:
        counts["single_nonintegral_rows"] += 1
        failures.append(("single_nonintegral_row", point_rows(p)))
    # a lone non-integral coordinate breaks the row structure too; two
    # tight pseudo-facets cap a row at two non-integral coordinates, three
    # force it integral and tight on all m
    if single or any(
        (len(row.tight) >= 2 and len(row.nonintegral) > 2)
        or (len(row.tight) >= 3 and (row.nonintegral or len(row.tight) != m))
        for row in pt.rows
    ):
        counts["structure"] += 1
        failures.append(("row_structure", point_rows(p)))
    for r, row in enumerate(pt.rows, 1):
        if len(row.nonintegral) != 2:
            continue
        for sub in row.tight:
            if not row.parity_holds(sub):
                counts["parity"] += 1
                failures.append(("parity", (r, sub, point_rows(p))))
        if row.line_class() == "mixed":
            counts["mixed_class"] += 1
            failures.append(("mixed_class", (r, point_rows(p))))
    if k == omega and k > 0:
        counts["cycle_configs"] += 1
        if pt.tag not in ("P1", "P2"):
            failures.append(("unrecognized_tight_configuration", point_rows(p)))
        elif sum(line.line_class() == "S" for line in pt.support_lines()) % 2:
            failures.append(("odd_s_count", point_rows(p)))


def _interior_checks(pt, counts, failures) -> None:
    """The interior witness of one analysed non-integral sample point and
    the membership of its two endpoints."""
    p = pt.point
    wit = interior_witness(pt)
    counts["memberships"] += 1
    counts["tight"] += len(pt.membership.tight)
    if not isinstance(wit, InteriorWitness):
        failures.append(("not_interior", wit.reason, point_rows(p)))
        return
    counts["kernel" if len(pt.support) > pt.omega else "cycle"] += 1
    v = wit.direction
    if not any(v.nums):
        failures.append(("zero_direction", point_rows(p)))
        return
    m = len(pt.cols)
    support = {(i - 1) * m + j - 1 for i, j in pt.support}
    if any(vx and t not in support for t, vx in enumerate(v.nums)):
        failures.append(("direction_off_support", point_rows(p)))
        return
    if wit.epsilon <= 0:
        failures.append(("nonpositive_epsilon", point_rows(p)))
        return
    nums, den = p
    # p +- eps*v over den * eps.denominator * v.den
    scale = wit.epsilon.denominator * v.den
    step = wit.epsilon.numerator * den
    base, shift = [*map(mul, nums, repeat(scale))], [*map(mul, v.nums, repeat(step))]
    up, down = (ScaledPoint(tuple(map(op, base, shift)), den * scale) for op in (add, sub))
    counts["memberships"] += 2
    if pt.system.status(up) == "outside":
        failures.append(("upper_endpoint_outside", point_rows(p)))
    if pt.system.status(down) == "outside":
        failures.append(("lower_endpoint_outside", point_rows(p)))


def run_sampled_suites(
    m: int, samples: int, seed: int = 0
) -> tuple[PseudoFacetSuiteReport, InteriorSuiteReport]:
    """The pseudo-facet and interior suites on one sample, in one pass that
    analyses each point once and keeps only the current point's analysis.

    Pseudo-facet laws, on every sampled member point: k >= omega; no row
    holds exactly one non-integral coordinate; two tight pseudo-facets cap
    a row at two non-integral coordinates; three force it integral with m
    tight; every tight pseudo-facet of a two-non-integral row obeys the S/O
    parity law and rows never mix the two classes; k == omega
    configurations are the two cycle patterns and carry an even number of
    S-lines.

    Interior checks, on every non-integral sample: the witness direction
    must be nonzero, vanish on integral coordinates, and both endpoints
    p +- eps*v must pass the exact membership check, on numerators over the
    product of the point's, the step's and the direction's denominators.
    """
    pf, pf_failures = Counter(), []
    iw, iw_failures = Counter(), []
    for p in _mixed_sample(m, samples, seed):
        pt = analyze_point(p)
        _pseudo_facet_checks(pt, pf, pf_failures)
        if any(x % p.den for x in p.nums):
            iw["nonintegral"] += 1
            _interior_checks(pt, iw, iw_failures)
    _log_counts("pseudo_facet", m, samples, samples, tight=pf["tight"])
    _log_counts("interior", m, samples, iw["memberships"], iw["kernel"], iw["cycle"],
                iw["tight"])
    counted = PseudoFacetSuiteReport._fields[2:-2]  # k_ge_omega .. cycle_configs
    return (
        PseudoFacetSuiteReport(
            m, samples, *(pf[field] for field in counted), tuple(pf_failures), not pf_failures
        ),
        InteriorSuiteReport(m, samples, iw["nonintegral"], tuple(iw_failures), not iw_failures),
    )
