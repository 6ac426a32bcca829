"""Sampled verification suites over the model polytopes.

Each suite draws seeded exact-rational sample points (ScaledPoints), checks
a family of structural laws on every sample, and returns a report whose
counterexample list is empty exactly when the suite passes; a
counterexample shows its point as 3 x m rows of canonical rationals. The
suites back the CLI `verify theorems` task and the acceptance tests.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from .coordchange import (
    from_prime_scaled,
    point_rows,
    simplex_image_check,
    to_prime_scaled,
)
from .halfspaces import kimura3_prime_system, kimura3_system
from .rationals import ScaledPoint
from .sampling import sample_box_points, sample_prime_points, sample_prime_segment_points
from .witness import (
    InteriorWitness,
    analyze_point,
    classify_facet,
    incidence_report,
    interior_witness,
    parity_check,
    pseudo_facet_structure,
    s_facet_count_even,
)

log = logging.getLogger("clawpoly.suites")


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
    head = 2 * count // 3
    return sample_prime_points(m, head, seed) + sample_prime_segment_points(
        m, count - head, seed + 1
    )


def _same_point(a: ScaledPoint, b: ScaledPoint) -> bool:
    return all(x * b.den == y * a.den for x, y in zip(a.nums, b.nums))


def _log_counts(suite, m, points, memberships, kernel=0, cycle=0, tight=0):
    log.info(
        "%s m=%d: %d points, %d membership evaluations, %d kernel witnesses, "
        "%d cycle witnesses, %d tight subsets",
        suite, m, points, memberships, kernel, cycle, tight,
    )


def _tight_count(pt) -> int:
    return sum(len(line.tight) for line in pt.rows + pt.cols)


def run_isomorphism_suite(m: int, samples: int, seed: int = 0) -> IsomorphismSuiteReport:
    """Round-trip and membership invariance of the coordinate change."""
    failures = []
    boxes = sample_box_points(m, samples, seed)
    for p in boxes:
        if not _same_point(from_prime_scaled(to_prime_scaled(p)), p):
            failures.append(("roundtrip_forward", point_rows(p)))
        if not _same_point(to_prime_scaled(from_prime_scaled(p)), p):
            failures.append(("roundtrip_backward", point_rows(p)))
    # sampled before the systems are built, so that an m past the generation
    # cap is refused before any system is
    membership_pool = sample_box_points(m, samples // 2, seed + 2) + _mixed_sample(
        m, samples - samples // 2, seed + 3
    )
    sys_std = kimura3_system(m)
    sys_pri = kimura3_prime_system(m)
    for p in membership_pool:
        inside_std = sys_std.membership(p).status != "outside"
        inside_pri = sys_pri.membership(to_prime_scaled(p)).status != "outside"
        if inside_std != inside_pri:
            failures.append(("membership", point_rows(p)))
    simplex_ok = simplex_image_check()
    if not simplex_ok:
        failures.append(("simplex_image", None))
    _log_counts("isomorphism", m, len(boxes) + len(membership_pool), 2 * len(membership_pool))
    return IsomorphismSuiteReport(
        leaves=m,
        roundtrip_checked=len(boxes),
        membership_checked=len(membership_pool),
        simplex_image_ok=simplex_ok,
        failures=tuple(failures),
        passed=not failures,
    )


def run_pseudo_facet_suite(m: int, samples: int, seed: int = 0) -> PseudoFacetSuiteReport:
    """Structural laws of tight pseudo-facets on sampled member points.

    Checks, per sample: k >= omega; no row holds exactly one non-integral
    coordinate; two tight pseudo-facets cap a row at two non-integral
    coordinates; three force it integral with m tight; every tight
    pseudo-facet of a two-non-integral row obeys the S/O parity law and
    rows never mix the two classes; k == omega configurations are the two
    cycle patterns and carry an even number of S-lines. All of it reads one
    analysis per point.
    """
    failures = []
    counts = {
        "k_ge_omega": 0,
        "single": 0,
        "structure": 0,
        "parity": 0,
        "mixed": 0,
        "cycle": 0,
    }
    tight = 0
    pts = _mixed_sample(m, samples, seed)
    for p in pts:
        pt = analyze_point(p)
        rep = incidence_report(pt)
        tight += _tight_count(pt)
        if rep.k < rep.omega:
            counts["k_ge_omega"] += 1
            failures.append(("k_lt_omega", point_rows(p)))
        if any(c == 1 for c in rep.row_nonintegral):
            counts["single"] += 1
            failures.append(("single_nonintegral_row", point_rows(p)))
        if not pseudo_facet_structure(pt).passed:
            counts["structure"] += 1
            failures.append(("row_structure", point_rows(p)))
        for r, row in enumerate(pt.rows, 1):
            if len(row.nonintegral) != 2:
                continue
            classes = set()
            for sub in row.tight:
                classes.add(classify_facet(row, sub))
                if not parity_check(row, sub):
                    counts["parity"] += 1
                    failures.append(("parity", (r, sub, point_rows(p))))
            if len(classes) > 1:
                counts["mixed"] += 1
                failures.append(("mixed_class", (r, point_rows(p))))
        if rep.k == rep.omega and rep.k > 0:
            counts["cycle"] += 1
            if rep.tag not in ("P1", "P2"):
                failures.append(("unrecognized_tight_configuration", point_rows(p)))
            elif not s_facet_count_even(pt):
                failures.append(("odd_s_count", point_rows(p)))
    _log_counts("pseudo_facet", m, len(pts), len(pts), tight=tight)
    return PseudoFacetSuiteReport(
        leaves=m,
        samples=len(pts),
        k_ge_omega=counts["k_ge_omega"],
        single_nonintegral_rows=counts["single"],
        structure=counts["structure"],
        parity=counts["parity"],
        mixed_class=counts["mixed"],
        cycle_configs=counts["cycle"],
        failures=tuple(failures),
        passed=not failures,
    )


def run_interior_suite(m: int, samples: int, seed: int = 0) -> InteriorSuiteReport:
    """Segment-interior witnesses for every sampled non-integral member point.

    The witness direction must be nonzero, vanish on integral coordinates,
    and both endpoints p +- eps*v must pass the exact membership check, on
    numerators over the product of the point's, the step's and the
    direction's denominators.
    """
    pts = _mixed_sample(m, samples, seed)
    sys_pri = kimura3_prime_system(m)
    failures = []
    nonintegral = memberships = kernel = cycle = tight = 0
    for p in pts:
        if not any(x % p.den for x in p.nums):
            continue
        nonintegral += 1
        pt = analyze_point(p)
        wit = interior_witness(pt)
        memberships += 1
        tight += _tight_count(pt)
        if not isinstance(wit, InteriorWitness):
            failures.append(("not_interior", wit.reason, point_rows(p)))
            continue
        if len(pt.support) > pt.omega:
            kernel += 1
        else:
            cycle += 1
        v = wit.direction
        if not any(v.nums):
            failures.append(("zero_direction", point_rows(p)))
            continue
        support = {(i - 1) * m + j - 1 for i, j in pt.support}
        if any(vx and t not in support for t, vx in enumerate(v.nums)):
            failures.append(("direction_off_support", point_rows(p)))
            continue
        if wit.epsilon <= 0:
            failures.append(("nonpositive_epsilon", point_rows(p)))
            continue
        nums, den = pt.point
        # p +- eps*v over den * eps.denominator * v.den
        scale = wit.epsilon.denominator * v.den
        step = wit.epsilon.numerator * den
        up, down = (
            ScaledPoint(tuple(x * scale + sign * step * vx for x, vx in zip(nums, v.nums)),
                        den * scale)
            for sign in (1, -1)
        )
        memberships += 2
        if sys_pri.membership(up).status == "outside":
            failures.append(("upper_endpoint_outside", point_rows(p)))
        if sys_pri.membership(down).status == "outside":
            failures.append(("lower_endpoint_outside", point_rows(p)))
    _log_counts("interior", m, len(pts), memberships, kernel, cycle, tight)
    return InteriorSuiteReport(
        leaves=m,
        samples=len(pts),
        nonintegral=nonintegral,
        failures=tuple(failures),
        passed=not failures,
    )
