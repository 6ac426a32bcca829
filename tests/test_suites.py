import hashlib
import logging
from itertools import chain

import pytest

from clawpoly import suites
from clawpoly.cli import main
from clawpoly.coordchange import from_prime_scaled, to_prime_scaled
from clawpoly.errors import ClawpolyError, NotAMemberError
from clawpoly.halfspaces import InequalitySystem, model_system
from clawpoly.rationals import ScaledPoint, fmt
from clawpoly.sampling import sample_box_points
from clawpoly.suites import _mixed_sample, run_isomorphism_suite, run_sampled_suites
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
    rep = run_sampled_suites(3, 120, seed=0)[0]
    assert rep.passed
    assert rep.samples == 120
    assert rep.k_ge_omega == 0
    assert rep.single_nonintegral_rows == 0
    assert rep.structure == 0
    assert rep.parity == 0
    assert rep.mixed_class == 0


def test_pseudo_facet_suite_sees_cycles():
    # segment samples hit the tight k == omega configurations regularly
    rep = run_sampled_suites(3, 400, seed=0)[0]
    assert rep.cycle_configs > 0


def test_interior_suite_small():
    rep = run_sampled_suites(3, 120, seed=0)[1]
    assert rep.passed
    assert rep.samples == 120
    assert 0 < rep.nonintegral <= 120


def test_suites_work_at_larger_m():
    assert run_isomorphism_suite(5, 30, seed=2).passed
    pf, iw = run_sampled_suites(5, 30, seed=2)
    assert pf.passed and iw.passed


# --- pinned reports, samples, log counts and witnesses ----------------------------
# Every field of the three reports for m=3..5 and three seeds, plus m=5 at the
# benchmark's 600 samples, a digest of the points sampled for them, the -v
# counts of the sampled suites, and a digest of every interior witness of one
# m=5 run. The report values were computed by the Fraction row-by-row
# implementation.

PIN_SAMPLES = 90

# (m, seed, samples) -> (cycle_configs, interior nonintegral, sha256 of the sampled
# points, (pseudo-facet tight subsets, interior membership evaluations, kernel
# witnesses, cycle witnesses, interior tight subsets))
SUITE_PINS = {
    (3, 0, 90): (47, 89, "fd0c0e9d4cb77f1f66a9b3473b73d6ae7d31168114aabf1cc2c9c998c796177a",
                 (961, 267, 42, 47, 943)),
    (3, 3, 90): (48, 88, "8da9acc84a71c3324d97007a94ea8a8f4d5450b29210a26c247576185eedc7ad",
                 (981, 264, 40, 48, 945)),
    (3, 7, 90): (44, 89, "440ccabeddbf32550af1be63eaae78e9f419391ad987d6572bed801fa35255d0",
                 (913, 267, 45, 44, 895)),
    (4, 0, 90): (32, 90, "ac6749ba11f1c32f2c9edb8acde83ddeed8a1729f1da17685b057c1c06a50ae5",
                 (998, 270, 58, 32, 998)),
    (4, 3, 90): (32, 88, "fbf59db5bcae115b1c972cd5f5e8090b3ae64e248d77e799f1132ce477ae71ca",
                 (1036, 264, 56, 32, 988)),
    (4, 7, 90): (28, 90, "ae7e6b137811deeaadb6e18d211fa75437330919eb39550fb400acbc3fbd7fda",
                 (944, 270, 62, 28, 944)),
    (5, 0, 90): (17, 90, "fc636ee0ad5a8af4b6b8c89409f63e777228949f56f9bbe7fbd867c23e73ff97",
                 (1076, 270, 73, 17, 1076)),
    (5, 3, 90): (17, 90, "b6be3ef6af60a4dc12f52dcfb071e02920fe1c6b29dfb884f597021bb0762943",
                 (1050, 270, 73, 17, 1050)),
    (5, 7, 90): (15, 90, "ace924dc5b420a9dcf278756d38c44786378251657e8e8bce83a4a78531d41ee",
                 (1013, 270, 75, 15, 1013)),
    (5, 0, 600): (113, 599, "89b8af7e1e510a2ec67739be0f8784e109673f53fd7447d6313681f2d54d3daa",
                  (6894, 1797, 486, 113, 6864)),
}

# sha256 of the interior witnesses of the m=5, seed 0 sample of 600 points
WITNESS_PIN = (599, "973fffe9fce2dadec0a79bad7aeac1f123e6dbe5eccc75cd22ce53bd3f9285d8")


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pin_id(m, seed, n):
    return f"{m}-{seed}" if n == PIN_SAMPLES else f"{m}-{seed}-{n}"


@pytest.mark.parametrize("m, seed, n", sorted(SUITE_PINS),
                         ids=[_pin_id(*key) for key in sorted(SUITE_PINS)])
def test_suite_reports_pinned(m, seed, n, caplog):
    cycles, nonintegral, points_sha, logged = SUITE_PINS[(m, seed, n)]
    pf_tight, memberships, kernel, cycle, iw_tight = logged
    caplog.set_level(logging.INFO, logger="clawpoly.suites")
    reports = (run_isomorphism_suite(m, n, seed),) + run_sampled_suites(m, n, seed)
    assert tuple(tuple(r) for r in reports) == (
        (m, n, n, True, (), True),
        (m, n, 0, 0, 0, 0, 0, cycles, (), True),
        (m, n, nonintegral, (), True),
    )
    assert [r.getMessage() for r in caplog.records if r.name == "clawpoly.suites"] == [
        f"isomorphism m={m}: {2 * n} points, {2 * n} membership evaluations, "
        "0 kernel witnesses, 0 cycle witnesses, 0 tight subsets",
        f"pseudo_facet m={m}: {n} points, {n} membership evaluations, "
        f"0 kernel witnesses, 0 cycle witnesses, {pf_tight} tight subsets",
        f"interior m={m}: {n} points, {memberships} membership evaluations, "
        f"{kernel} kernel witnesses, {cycle} cycle witnesses, {iw_tight} tight subsets",
    ]
    pts = [*_mixed_sample(m, n, seed), *sample_box_points(m, n, seed)]
    assert _sha256_lines(" ".join(map(fmt, p.values())) for p in pts) == points_sha


def test_verify_theorems_analyses_each_sample_once(monkeypatch, capsys):
    analyzed = []
    analyze = suites.analyze_point
    monkeypatch.setattr(suites, "analyze_point", lambda p: analyzed.append(p) or analyze(p))
    assert main(["verify", "theorems", "--leaves", "4", "--samples", "200"]) == 0
    assert "outcome=pass" in capsys.readouterr().out
    assert len(analyzed) == 200


def test_interior_witnesses_pinned():
    lines = []
    for p in _mixed_sample(5, 600, 0):
        if not any(x % p.den for x in p.nums):
            continue
        w = interior_witness(analyze_point(p))
        assert isinstance(w, InteriorWitness)
        lines.append(" ".join(map(fmt, w.direction.values())) + " eps=" + fmt(w.epsilon))
    assert (len(lines), _sha256_lines(lines)) == WITNESS_PIN


# --- each pseudo-facet law fires -------------------------------------------------
# README's P1 analysis, rows (1/2, 1/2, 0), (1/2, 1/2, 0), (0, 0, 0), with one
# field replaced so that it breaks one law, fed to the suite as its only sample.
# A broken analysis is no real point, so the interior checks, which would
# read it as one, are skipped.

P1 = analyze_point(ScaledPoint((1, 1, 0, 1, 1, 0, 0, 0, 0), 2))
ROW1, ROW3 = P1.rows[0], P1.rows[2]
NO_FAILURE = dict(k_ge_omega=0, single_nonintegral_rows=0, structure=0, parity=0,
                  mixed_class=0, cycle_configs=1)

# law -> (the broken analysis, its failure tags in order, the counters it bumps)
BROKEN_LAWS = {
    # three support cells on four support lines
    "k_lt_omega": (P1._replace(support=P1.support[:3]), ["k_lt_omega"],
                   dict(k_ge_omega=1, cycle_configs=0)),
    # a lone non-integral coordinate also fails the row structure
    "single_nonintegral_row": (
        P1._replace(rows=(ROW1._replace(nonintegral=(1,), tight=()),) + P1.rows[1:]),
        ["single_nonintegral_row", "row_structure"],
        dict(single_nonintegral_rows=1, structure=1)),
    # two tight pseudo-facets on a row of three non-integral coordinates
    # (a fifth support cell keeps k > omega: no cycle to classify)
    "row_structure_two_tight": (
        P1._replace(support=P1.support + ((1, 3),),
                    rows=(ROW1._replace(nonintegral=(1, 2, 3)),) + P1.rows[1:]),
        ["row_structure"], dict(structure=1, cycle_configs=0)),
    # an integral row tight on four pseudo-facets at m=3
    "row_structure_three_tight": (
        P1._replace(rows=P1.rows[:2] + (ROW3._replace(tight=ROW3.tight + ((1, 2, 3),)),)),
        ["row_structure"], dict(structure=1)),
    # a one at the third coordinate under two O-facets
    "parity": (P1._replace(rows=(ROW1._replace(nums=(1, 1, 2)),) + P1.rows[1:]),
               ["parity", "parity"], dict(parity=2)),
    # an S-facet next to an O-facet: one of the two always breaks parity
    "mixed_class": (
        P1._replace(rows=(ROW1._replace(tight=((1,), (1, 2, 3))),) + P1.rows[1:]),
        ["parity", "mixed_class"], dict(parity=1, mixed_class=1)),
    "unrecognized_tight_configuration": (P1._replace(tag="other"),
                                         ["unrecognized_tight_configuration"], {}),
    # row 1 as (1/2, 1/2, 1), on two S-facets: one S-line on the cycle
    "odd_s_count": (
        P1._replace(rows=(ROW1._replace(nums=(1, 1, 2), tight=((3,), (1, 2, 3))),)
                    + P1.rows[1:]),
        ["odd_s_count"], {}),
}


def _pseudo_facet_report(analysis, monkeypatch):
    """The pseudo-facet report of the one-sample suite on this analysis."""
    monkeypatch.setattr(suites, "analyze_point", lambda p: analysis)
    monkeypatch.setattr(suites, "_interior_checks", lambda pt, counts, failures: None)
    return run_sampled_suites(3, 1, 0)[0]


@pytest.mark.parametrize("law", sorted(BROKEN_LAWS))
def test_each_pseudo_facet_law_fires(law, monkeypatch):
    broken, tags, bumped = BROKEN_LAWS[law]
    rep = _pseudo_facet_report(broken, monkeypatch)
    assert [f[0] for f in rep.failures] == tags
    assert rep.passed is False
    counted = {field: getattr(rep, field) for field in NO_FAILURE}
    assert counted == {**NO_FAILURE, **bumped}


def test_unbroken_p1_passes_every_law(monkeypatch):
    rep = _pseudo_facet_report(P1, monkeypatch)
    assert (rep.failures, rep.passed) == ((), True)
    assert {field: getattr(rep, field) for field in NO_FAILURE} == NO_FAILURE


def test_pseudo_facet_suite_refuses_a_sample_outside(monkeypatch):
    outside = analyze_point(ScaledPoint((3, 0, 0, 0, 0, 0, 0, 0, 0), 1))
    with pytest.raises(NotAMemberError):
        _pseudo_facet_report(outside, monkeypatch)


# --- mutations the status reads must catch ------------------------------------

def _widened(factor):
    """interior_witness with its step eps times factor."""
    def widened(pt):
        wit = interior_witness(pt)
        return wit._replace(epsilon=wit.epsilon * factor)
    return widened


def test_a_doubled_step_ends_on_the_boundary(monkeypatch):
    # eps is half the nearer stopping time, so 2*eps reaches that side's
    # facet exactly: the nearer endpoint reads "boundary", and no endpoint
    # is outside
    for p in _mixed_sample(4, 40, 3):
        pt = analyze_point(p)
        if not pt.support:
            continue
        wit = _widened(2)(pt)
        v, eps = wit.direction, wit.epsilon
        scale = eps.denominator * v.den
        ends = {pt.system.status(ScaledPoint(
            tuple(x * scale + sign * eps.numerator * p.den * vx for x, vx in zip(p.nums, v.nums)),
            p.den * scale)) for sign in (1, -1)}
        assert "boundary" in ends and "outside" not in ends
    monkeypatch.setattr(suites, "interior_witness", _widened(2))
    assert run_sampled_suites(4, 40, 3)[1].failures == ()


def test_a_step_past_the_boundary_is_caught(monkeypatch):
    monkeypatch.setattr(suites, "interior_witness", _widened(3))
    _, rep = run_sampled_suites(4, 40, 3)
    tags = [f[0] for f in rep.failures]
    assert rep.passed is False and rep.nonintegral > 0
    assert set(tags) == {"upper_endpoint_outside", "lower_endpoint_outside"}
    # every witness leaves on its nearer side
    assert len({f[1] for f in rep.failures}) == rep.nonintegral


@pytest.mark.parametrize(
    "m, samples, row",
    [pytest.param(3, 200, row, id=str(row)) for row in range(24)]
    + [pytest.param(5, 600, row, id=f"m5-{row}") for row in range(68)],
)
def test_a_lowered_prime_row_fails_the_isomorphism_suite(m, samples, row, monkeypatch):
    # kimura3-prime(m) with one right-hand side lowered by 1 cuts off a
    # point that kimura3(m) holds: the suite's mixed half, seed 0, lies in
    # K(m) (100 of 200 points at m=3, 300 of 600 at m=5), and every row is
    # tight or nearly so at one of them
    def lowered(model, m):
        sys_ = model_system(model, m)
        if model != "kimura3-prime":
            return sys_
        rows = list(sys_.rows)
        a, b = rows[row]
        rows[row] = (a, b - 1)
        return InequalitySystem(sys_.model, sys_.shape, rows, sys_.families)

    monkeypatch.setattr(suites, "model_system", lowered)
    rep = run_isomorphism_suite(m, samples, 0)
    assert rep.passed is False
    assert {f[0] for f in rep.failures} == {"membership"}


def _theorem_path_digest(m, seed, caplog, capsys) -> str:
    """One sha256 over the theorem path's exact results at (m, seed): every
    point of a mixed and a box sample with its status in both systems, its
    analyze_point fields and its interior witness (or the error it raises),
    then the `verify theorems -v --samples 200` record without wall= and
    its log lines."""
    h = hashlib.sha256()
    std, pri = model_system("kimura3", m), model_system("kimura3-prime", m)
    box = map(to_prime_scaled, sample_box_points(m, 20, seed + 5))
    for p in chain(_mixed_sample(m, 40, seed), box):
        pt = analyze_point(p)
        try:
            wit = interior_witness(pt)
        except ClawpolyError as exc:
            wit = type(exc).__name__
        h.update(repr((pri.status(p), std.status(from_prime_scaled(p)), tuple(pt)[1:], wit))
                 .encode())
    caplog.set_level(logging.INFO, logger="clawpoly")
    caplog.clear()
    argv = ["-v", "verify", "theorems", "--leaves", str(m), "--samples", "200",
            "--seed", str(seed), "--out-dir", "cx"]
    h.update(str(main(argv)).encode())
    record = capsys.readouterr().out.strip().split(" ")
    h.update(" ".join(f for f in record if not f.startswith("wall=")).encode())
    h.update("\n".join(f"{r.name}: {r.getMessage()}" for r in caplog.records).encode())
    return h.hexdigest()


THEOREM_PATH_DIGESTS = {
    (3, 0): "deb41f4a60ecfceca1cee6f28078314337a054d3d4e95ecde2adb6eb6c6161be",
    (3, 1): "7f0f6ce244a86d8785ddf3c019d02459f4cfcb26072d760ff1c9d952e46567b2",
    (3, 2): "e4d02df687e17aeb9d62d5115590ae808dd817c23a8d98e13de40d59750a5963",
    (4, 0): "edd9aedb80a72c794d8adc3e40487ee1909653bade9cfffe022eb7fec92002b9",
    (4, 1): "fdca88de4beb03788b28cbd6f7734a8d554c472a45a3d9ddd7e2c5660ba7bc4e",
    (4, 2): "cd55fe87a201264d04c658c9a0da372c8bee9125c8d06cffc803f77f0cb81c30",
    (5, 0): "fd2da25f29593a9841bb59f0314950c7704b9c31b868e856a0c9b1151c244c00",
    (5, 1): "ea8d3f25e2f44a62bbf59959d190c913cca36c468cb080a4ec79f4ee7b90602e",
    (5, 2): "8b33d3d4f6ecfad010d250521cc61a4da2eb437121dda8eb81ea264e328a6089",
    (6, 0): "16643e2eb0cebc0e373a63dcad18c7751dc93e03e841c572f8c24ca2b0212369",
    (6, 1): "0dd5c51afbae09d1dc34b815257df5d75e04bc89fc66e3e93b13666e78e84aca",
    (6, 2): "d13118ab92adba1def28fb4b6cf7e56e550ed0e26f86bca31033841ca51f5280",
    (7, 0): "243e2fc1c695607ae27cdc809d8c738c8da6e8ddf2ea11f6cb72fa9de0631b52",
    (7, 1): "ba6643cec3b45e2669921f05e3e0cfae3cad42286cb895871863cdd22236d492",
    (7, 2): "f2cce1e479bf46f79dde64dcd7bf6196aa88864f0f5c31a9f17595204c863da1",
    (8, 0): "43ca3d0b30f7a1f4e997cfb2f639e5859b546621922995002b017c79ce66f96b",
    (8, 1): "bac043a476ec9c33db91edf00997584d8d8c65c0132d9927e6dfce3cf3fd8ba9",
    (8, 2): "bbe1f0eb52c57a07865f2d5af91e4df30ddf3708a2ac0e81e2540e88c9f1228e",
}


def test_theorem_path_pinned(tmp_path, monkeypatch, caplog, capsys):
    """Statuses, point analyses, interior witnesses and the CLI records and
    log lines of the theorem path, m=3..8 and seeds 0..2, as one digest each."""
    monkeypatch.chdir(tmp_path)
    got = {(m, seed): _theorem_path_digest(m, seed, caplog, capsys)
           for m in range(3, 9) for seed in range(3)}
    assert got == THEOREM_PATH_DIGESTS
