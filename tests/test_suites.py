import hashlib

import pytest

from clawpoly.rationals import fmt
from clawpoly.sampling import sample_box_points
from clawpoly.suites import (
    _mixed_sample,
    run_interior_suite,
    run_isomorphism_suite,
    run_pseudo_facet_suite,
)
from clawpoly.witness import InteriorWitness, analyze_point, interior_witness


def test_isomorphism_suite_small():
    rep = run_isomorphism_suite(3, 60, seed=0)
    assert rep.passed
    assert rep.failures == ()
    assert rep.roundtrip_checked == 60
    assert rep.membership_checked == 60
    assert rep.simplex_image_ok is True


def test_isomorphism_suite_deterministic():
    a = run_isomorphism_suite(3, 40, seed=1)
    b = run_isomorphism_suite(3, 40, seed=1)
    assert a == b


def test_pseudo_facet_suite_small():
    rep = run_pseudo_facet_suite(3, 120, seed=0)
    assert rep.passed
    assert rep.samples == 120
    assert rep.k_ge_omega == 0
    assert rep.single_nonintegral_rows == 0
    assert rep.structure == 0
    assert rep.parity == 0
    assert rep.mixed_class == 0


def test_pseudo_facet_suite_sees_cycles():
    # segment samples hit the tight k == omega configurations regularly
    rep = run_pseudo_facet_suite(3, 400, seed=0)
    assert rep.cycle_configs > 0


def test_interior_suite_small():
    rep = run_interior_suite(3, 120, seed=0)
    assert rep.passed
    assert rep.samples == 120
    assert 0 < rep.nonintegral <= 120


def test_suites_work_at_larger_m():
    assert run_isomorphism_suite(5, 30, seed=2).passed
    assert run_pseudo_facet_suite(5, 30, seed=2).passed
    assert run_interior_suite(5, 30, seed=2).passed


# --- pinned reports, samples and witnesses -------------------------------------------
# Every field of the three reports for m=3..5 and three seeds, a digest of the
# points sampled for them, and a digest of every interior witness of one m=5
# run. The values were computed by the Fraction row-by-row implementation.

PIN_SAMPLES = 90

# (m, seed) -> (cycle_configs, interior nonintegral, sha256 of the sampled points)
SUITE_PINS = {
    (3, 0): (47, 89, "fd0c0e9d4cb77f1f66a9b3473b73d6ae7d31168114aabf1cc2c9c998c796177a"),
    (3, 3): (48, 88, "8da9acc84a71c3324d97007a94ea8a8f4d5450b29210a26c247576185eedc7ad"),
    (3, 7): (44, 89, "440ccabeddbf32550af1be63eaae78e9f419391ad987d6572bed801fa35255d0"),
    (4, 0): (32, 90, "ac6749ba11f1c32f2c9edb8acde83ddeed8a1729f1da17685b057c1c06a50ae5"),
    (4, 3): (32, 88, "fbf59db5bcae115b1c972cd5f5e8090b3ae64e248d77e799f1132ce477ae71ca"),
    (4, 7): (28, 90, "ae7e6b137811deeaadb6e18d211fa75437330919eb39550fb400acbc3fbd7fda"),
    (5, 0): (17, 90, "fc636ee0ad5a8af4b6b8c89409f63e777228949f56f9bbe7fbd867c23e73ff97"),
    (5, 3): (17, 90, "b6be3ef6af60a4dc12f52dcfb071e02920fe1c6b29dfb884f597021bb0762943"),
    (5, 7): (15, 90, "ace924dc5b420a9dcf278756d38c44786378251657e8e8bce83a4a78531d41ee"),
}

# sha256 of the interior witnesses of the m=5, seed 0 sample of 600 points
WITNESS_PIN = (599, "973fffe9fce2dadec0a79bad7aeac1f123e6dbe5eccc75cd22ce53bd3f9285d8")


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("m, seed", sorted(SUITE_PINS))
def test_suite_reports_pinned(m, seed):
    cycles, nonintegral, points_sha = SUITE_PINS[(m, seed)]
    n = PIN_SAMPLES
    reports = (
        run_isomorphism_suite(m, n, seed),
        run_pseudo_facet_suite(m, n, seed),
        run_interior_suite(m, n, seed),
    )
    assert tuple(tuple(r) for r in reports) == (
        (m, n, n, True, (), True),
        (m, n, 0, 0, 0, 0, 0, cycles, (), True),
        (m, n, nonintegral, (), True),
    )
    pts = _mixed_sample(m, n, seed) + sample_box_points(m, n, seed)
    assert _sha256_lines(" ".join(map(fmt, p.values())) for p in pts) == points_sha


def test_interior_witnesses_pinned():
    lines = []
    for p in _mixed_sample(5, 600, 0):
        if not any(x % p.den for x in p.nums):
            continue
        w = interior_witness(analyze_point(p))
        assert isinstance(w, InteriorWitness)
        lines.append(" ".join(map(fmt, w.direction.values())) + " eps=" + fmt(w.epsilon))
    assert (len(lines), _sha256_lines(lines)) == WITNESS_PIN
