"""Acceptance gate: one test per release criterion, each a single pass/fail line.

Sampling criteria use fixed seeds so every run draws identical points; the
hull and enumeration criteria rerun the engine from scratch where run-to-run
stability is itself the requirement.
"""

import time
from functools import lru_cache

from conftest import hull_system

from clawpoly.engine import (
    enumerate_integral_points,
    equal_polytopes,
    f_vector,
    hull_from_vertices,
    vertices_from_inequalities,
)
from clawpoly.fileio import format_hfile
from clawpoly.groups import Z2Z2
from clawpoly.halfspaces import demihypercube_system, kimura3_system
from clawpoly.rationals import is_integral
from clawpoly.suites import run_isomorphism_suite, run_sampled_suites
from clawpoly.vertices import generate_vertices
from clawpoly.witness import check_containment

K3_F_VECTOR = (16, 120, 528, 1392, 2176, 1968, 978, 240, 24)


def test_criterion_1_generated_vertices_satisfy_inequalities():
    started = time.perf_counter()
    for m in range(3, 8):
        rep = check_containment(m)
        assert rep.passed, f"m={m}: {len(rep.failures)} violations"
        assert rep.checked == 4 ** (m - 1)
    assert time.perf_counter() - started < 10.0


def test_criterion_2_engine_vertices_equal_generated(
    delta3_vertices, k3, delta4_vertices, k4
):
    rep3 = equal_polytopes(delta3_vertices, k3)
    assert rep3.equal and rep3.checked_a == 16
    rep4 = equal_polytopes(delta4_vertices, k4)
    assert rep4.equal and rep4.checked_a == 64


def test_criterion_3_prime_system_vertices_integral(prime3_vertices, prime4_vertices):
    for vs in (prime3_vertices, prime4_vertices):
        bad = [p for p in vs.points if not all(is_integral(x) for x in p)]
        assert bad == []
    assert len(prime3_vertices.points) == 16
    assert len(prime4_vertices.points) == 64


def test_criterion_4_binary_scan_equals_generated_vertices():
    started = time.perf_counter()
    for m in range(3, 8):
        scanned = enumerate_integral_points(kimura3_system(m))
        expected = sorted(generate_vertices(Z2Z2, m).points)
        assert scanned == expected, f"m={m}"
    assert time.perf_counter() - started < 60.0


def test_criterion_5_demihypercube_vertices_even_weight():
    for m in range(3, 7):
        vs = vertices_from_inequalities(demihypercube_system(m), max_dim=m)
        expected = sorted(
            tuple((mask >> i) & 1 for i in range(m))
            for mask in range(1 << m)
            if bin(mask).count("1") % 2 == 0
        )
        assert list(vs.points) == expected, f"m={m}"
        assert len(vs.points) == 2 ** (m - 1)


def test_criterion_6_coordinate_change_suite():
    split = {3: 4000, 4: 3000, 5: 3000}
    roundtrips = memberships = 0
    for m, n in split.items():
        rep = run_isomorphism_suite(m, n, seed=0)
        assert rep.passed, f"m={m}: {rep.failures[:3]}"
        assert rep.simplex_image_ok
        roundtrips += rep.roundtrip_checked
        memberships += rep.membership_checked
    assert roundtrips == 10_000
    assert memberships == 10_000


@lru_cache(maxsize=None)
def _sampled_suites(m, n):
    """run_sampled_suites(m, n, seed=0), run once for criteria 7 and 8."""
    return run_sampled_suites(m, n, seed=0)


def test_criterion_7_pseudo_facet_laws_hold_on_samples():
    total = 0
    cycles = 0
    for m in (3, 4, 5):
        rep = _sampled_suites(m, 4000)[0]
        assert rep.passed, f"m={m}: {rep.failures[:3]}"
        total += rep.samples
        cycles += rep.cycle_configs
    assert total >= 10_000
    assert cycles > 0, "no tight cycle configuration was ever sampled"


def test_criterion_8_interior_witnesses_for_nonintegral_samples():
    for m, n in ((3, 4000), (4, 3000), (5, 3000)):
        rep = _sampled_suites(m, n)[1]
        assert rep.passed, f"m={m}: {rep.failures[:3]}"
        assert rep.nonintegral > 0


def test_criterion_9_hull_facets_match_inequality_system(hull_k3, k3):
    model_rows = {tuple(r) for r in kimura3_system(3).homogenized_rows()}
    hull_rows = {(-b,) + tuple(a) for a, b in hull_k3.facets}
    assert hull_rows <= model_rows, "hull produced a row outside the system"
    assert len(hull_k3.facets) == 24
    assert hull_rows == model_rows
    # byte-identical report across independent engine runs: K(3) is
    # full-dimensional, so the H-file holds the facets alone
    assert hull_k3.equations == ()
    fresh = hull_from_vertices(generate_vertices(Z2Z2, 3))
    assert format_hfile(hull_system(fresh)) == format_hfile(hull_system(hull_k3))


def test_f_vector_m3_is_deterministic(hull_k3):
    first = f_vector(hull_k3)
    assert first.complete
    assert first.counts == K3_F_VECTOR
    fresh = f_vector(hull_from_vertices(generate_vertices(Z2Z2, 3)))
    assert fresh == first
    assert sum((-1) ** i * c for i, c in enumerate(first.counts)) == 2
