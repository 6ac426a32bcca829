import hashlib
import json
import logging
import time
from fractions import Fraction

import pytest
from conftest import bare_python, parse_record

import clawpoly.cli as cli
import clawpoly.engine as engine
import clawpoly.halfspaces as halfspaces
import clawpoly.suites as suites
import clawpoly.vertices as vertices_mod
import clawpoly.witness as witness
from clawpoly.cli import main
from clawpoly.engine import EqualityReport, f_vector
from clawpoly.fileio import format_vfile, parse_vfile, read_text
from clawpoly.groups import Z2Z2
from clawpoly.rationals import ScaledPoint
from clawpoly.suites import InteriorSuiteReport
from clawpoly.vertices import VertexSet, generate_vertices
from clawpoly.witness import ContainmentReport, NotInterior

H = Fraction(1, 2)


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def last_record(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return parse_record(out[-1])


# --- vrep ----------------------------------------------------------------------

def test_vrep_default(tmp_path, capsys):
    assert main(["vrep", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["command"] == "vrep"
    assert rec["outcome"] == "pass"
    assert rec["count"] == "16"
    assert rec["file"] == "vrep_z2z2_m3.ext"
    vs = parse_vfile(read_text(tmp_path / "vrep_z2z2_m3.ext"))
    assert len(vs.points) == 16
    assert vs.shape == (3, 3)


def test_vrep_byte_identical(tmp_path, capsys):
    main(["vrep", "--leaves", "3"])
    first = (tmp_path / "vrep_z2z2_m3.ext").read_bytes()
    main(["vrep", "--leaves", "3"])
    assert (tmp_path / "vrep_z2z2_m3.ext").read_bytes() == first


def test_vrep_other_group(tmp_path, capsys):
    assert main(["vrep", "--group", "z2", "--leaves", "4", "--out", "b.ext"]) == 0
    vs = parse_vfile(read_text(tmp_path / "b.ext"))
    assert len(vs.points) == 8
    assert vs.dimension == 4


def test_vrep_json(tmp_path, capsys):
    assert main(["vrep", "--leaves", "3", "--format", "json", "--out", "k.json"]) == 0
    data = json.loads(read_text(tmp_path / "k.json"))
    assert data["group"] == "z2z2"
    assert len(data["points"]) == 16


def test_vrep_records(tmp_path, capsys):
    assert main(["vrep", "--leaves", "3", "--format", "records", "--out", "k.records"]) == 0
    lines = read_text(tmp_path / "k.records").splitlines()
    head = parse_record(lines[0])
    assert head["count"] == "16"
    assert len(lines) == 17
    assert parse_record(lines[1])["point"] == "0"


def test_vrep_cap(monkeypatch, capsys):
    monkeypatch.setattr(vertices_mod, "GENERATION_CAP", 4)
    assert main(["vrep", "--group", "z2", "--leaves", "4"]) == 3
    assert main(["vrep", "--group", "z2", "--leaves", "4", "--allow-large"]) == 0


def test_vrep_unknown_group(capsys):
    assert main(["vrep", "--group", "d8", "--leaves", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# --- hrep ----------------------------------------------------------------------

def test_hrep_default(tmp_path, capsys):
    assert main(["hrep", "--model", "kimura3", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["count"] == "24"
    assert rec["file"] == "hrep_kimura3_m3.ine"
    text = read_text(tmp_path / "hrep_kimura3_m3.ine")
    assert "H-representation" in text


def test_hrep_records(tmp_path, capsys):
    assert main(
        ["hrep", "--model", "binary", "--leaves", "3", "--format", "records", "--out", "d.records"]
    ) == 0
    lines = read_text(tmp_path / "d.records").splitlines()
    assert parse_record(lines[0])["count"] == "10"
    assert lines[1].startswith("inequality id=0 family=box")


def test_hrep_json(tmp_path, capsys):
    assert main(
        ["hrep", "--model", "kimura3-prime", "--leaves", "3", "--format", "json", "--out", "p.json"]
    ) == 0
    data = json.loads(read_text(tmp_path / "p.json"))
    assert data["dimension"] == 9
    assert len(data["inequalities"]) == 24
    assert data["inequalities"][0]["id"] == 0


def test_hrep_unknown_model(capsys):
    assert main(["hrep", "--model", "jukes", "--leaves", "3"]) == 2


@pytest.mark.parametrize("model", ["binary", "kimura3", "kimura3-prime"])
def test_hrep_generation_cap(model, monkeypatch, capsys):
    # the row count is known from m: 2^39 or 3 * 2^39 rows are refused unbuilt
    built = []
    monkeypatch.setitem(halfspaces.MODEL_BUILDERS, model, built.append)
    assert main(["hrep", "--model", model, "--leaves", "40"]) == 3
    assert "inequalities exceeds the generation cap 4194304" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("model, count", [("binary", 4122), ("kimura3", 12340),
                                          ("kimura3-prime", 12340)])
def test_hrep_m13_under_cap(model, count, capsys):
    assert main(["hrep", "--model", model, "--leaves", "13"]) == 0
    assert last_record(capsys)["count"] == str(count)


# --- transform -------------------------------------------------------------------

def test_transform_roundtrip(tmp_path, capsys):
    main(["vrep", "--leaves", "3"])
    assert main(["transform", "--in", "vrep_z2z2_m3.ext"]) == 0
    rec = last_record(capsys)
    assert rec["direction"] == "standard-to-prime"
    assert rec["file"] == "vrep_z2z2_m3_prime.ext"
    assert main(["transform", "--in", "vrep_z2z2_m3_prime.ext", "--inverse"]) == 0
    back = parse_vfile(read_text(tmp_path / "vrep_z2z2_m3_prime_standard.ext"))
    orig = parse_vfile(read_text(tmp_path / "vrep_z2z2_m3.ext"))
    assert back.points == orig.points


@pytest.mark.parametrize("infile", ["sub/points", "sub/points.ext"])
def test_transform_default_out_uses_basename(infile, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    main(["vrep", "--leaves", "3", "--out", infile])
    assert main(["transform", "--in", infile]) == 0
    assert last_record(capsys)["file"] == "points_prime.ext"
    assert (tmp_path / "points_prime.ext").is_file()
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == [infile[4:]]


@pytest.mark.parametrize("argv", [["transform", "--in"], ["witness", "interior", "--point"]])
def test_vfile_linearity_is_usage_error(argv, tmp_path, capsys):
    text = format_vfile(VertexSet(dimension=9, shape=(3, 3), points=((H,) * 2 + (0,) * 7,)))
    (tmp_path / "l.ext").write_text(text.replace("begin", "linearity 1 1\nbegin"))
    assert main(argv + ["l.ext"]) == 2
    assert "linearity" in capsys.readouterr().err


def test_transform_missing_file(capsys):
    assert main(["transform", "--in", "nope.ext"]) == 2
    assert "error:" in capsys.readouterr().err


def test_transform_bad_dimension(tmp_path, capsys):
    vs = VertexSet(dimension=4, shape=(4,), points=((0, 0, 0, 0),))
    (tmp_path / "flat.ext").write_text(format_vfile(vs))
    assert main(["transform", "--in", "flat.ext"]) == 2


BAD_SHAPES = {
    # a row-major comment whose rows x cols does not fill the 12 coordinates
    "unfilled": VertexSet(dimension=12, shape=(3, 3), points=((0,) * 12,)),
    # a 2 x 3 layout: the points of both systems are 3 x m
    "two-rows": VertexSet(dimension=6, shape=(2, 3), points=((0,) * 6,)),
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("argv", [["transform", "--in"], ["witness", "interior", "--point"]])
def test_vfile_bad_shape_is_usage_error(argv, shape, tmp_path, capsys):
    (tmp_path / "s.ext").write_text(format_vfile(BAD_SHAPES[shape]))
    assert main(argv + ["s.ext"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# --- verify ----------------------------------------------------------------------

def test_verify_containment(capsys):
    assert main(["verify", "containment", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["outcome"] == "pass"
    assert rec["checked"] == "16"
    assert rec["violations"] == "0"


@pytest.mark.parametrize("m, checked", [(9, 65536), (10, 262144)])
def test_verify_containment_frontier(m, checked, capsys):
    assert main(["verify", "containment", "--leaves", str(m)]) == 0
    assert _record_without_wall(capsys) == (
        f"command=verify task=containment leaves={m} checked={checked} "
        "violations=0 outcome=pass"
    )


def test_verify_containment_failure_writes_counterexample(tmp_path, monkeypatch, capsys):
    fake = ContainmentReport(
        leaves=3, checked=2, failures=(((0,) * 9, 13),), passed=False
    )
    monkeypatch.setattr("clawpoly.witness.check_containment", lambda m: fake)
    assert main(["verify", "containment", "--leaves", "3", "--out-dir", "cx"]) == 1
    rec = last_record(capsys)
    assert rec["outcome"] == "fail"
    path = tmp_path / "cx" / "counterexample_containment_m3.records"
    assert path.exists()
    first = parse_record(read_text(path).splitlines()[0])
    assert first["counterexample"] == "containment"
    assert first["violated"] == "13"


def test_verify_equality(capsys):
    assert main(["verify", "equality", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["engine_vertices"] == "16"
    assert rec["generated_vertices"] == "16"


def test_verify_equality_hits_cap(capsys):
    assert main(["verify", "equality", "--leaves", "5"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["equality", "integrality"])
def test_verify_dimension_cap_before_build(task, monkeypatch, capsys):
    # K(30) lies in R^90; its 3 * 2^29-row systems are never built
    monkeypatch.delenv("CLAWPOLY_MAX_DIM", raising=False)
    built = []
    monkeypatch.setattr(cli, "kimura3_system", built.append)
    monkeypatch.setattr(cli, "model_system", lambda model, m: built.append(model))
    assert main(["verify", task, "--leaves", "30"]) == 3
    assert ("error: dimension 90 exceeds cap 12; raise CLAWPOLY_MAX_DIM or max_dim to override"
            in capsys.readouterr().err)
    assert built == []


def test_verify_equality_cap_override(capsys):
    assert main(["verify", "equality", "--leaves", "5", "--max-dim", "15"]) == 0
    rec = last_record(capsys)
    assert rec["engine_vertices"] == "256"
    assert rec["generated_vertices"] == "256"


@pytest.mark.parametrize("task", ["equality", "integrality"])
def test_verify_cap_below_one(task, capsys):
    assert main(["verify", task, "--leaves", "3", "--max-dim", "0"]) == 3
    err = capsys.readouterr().err
    assert "max_dim must be at least 1, got 0" in err
    assert "exceeds cap" not in err


def test_verify_env_cap_below_one(monkeypatch, capsys):
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "-1")
    assert main(["verify", "equality", "--leaves", "3"]) == 3
    assert "CLAWPOLY_MAX_DIM must be at least 1, got -1" in capsys.readouterr().err


NO_DD_TASKS = [
    ["verify", "containment", "--leaves", "3"],
    ["verify", "theorems", "--leaves", "3", "--samples", "10"],
]


@pytest.mark.parametrize("argv", NO_DD_TASKS)
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_verify_no_dd_task_cap_below_one(argv, cap, capsys):
    assert main(argv + ["--max-dim", cap]) == 3
    assert f"max_dim must be at least 1, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", NO_DD_TASKS)
@pytest.mark.parametrize(
    "raw, message",
    [("abc", "CLAWPOLY_MAX_DIM must be an integer, got 'abc'"),
     ("0", "CLAWPOLY_MAX_DIM must be at least 1, got 0")],
)
def test_verify_no_dd_task_bad_env_cap(argv, raw, message, monkeypatch, capsys):
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", raw)
    assert main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", NO_DD_TASKS)
def test_verify_no_dd_task_ignores_valid_cap(argv, capsys):
    # the cap only bounds DD runs; these tasks run none, so any valid cap passes
    assert main(argv + ["--max-dim", "1"]) == 0
    assert last_record(capsys)["outcome"] == "pass"


def test_verify_integrality(capsys):
    assert main(["verify", "integrality", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["kimura3_vertices"] == "16"
    assert rec["kimura3_prime_vertices"] == "16"
    assert rec["violations"] == "0"


def test_verify_integrality_m5(capsys):
    assert main(["verify", "integrality", "--leaves", "5", "--max-dim", "15"]) == 0
    rec = last_record(capsys)
    assert rec["kimura3_vertices"] == "256"
    assert rec["kimura3_prime_vertices"] == "256"
    assert rec["violations"] == "0"


def test_verify_integrality_m6(capsys):
    assert main(["verify", "integrality", "--leaves", "6", "--max-dim", "18"]) == 0
    rec = last_record(capsys)
    assert rec["kimura3_vertices"] == "1024"
    assert rec["kimura3_prime_vertices"] == "1024"
    assert rec["violations"] == "0"
    assert rec["outcome"] == "pass"


def test_verify_equality_m6(capsys):
    assert main(["verify", "equality", "--leaves", "6", "--max-dim", "18"]) == 0
    rec = last_record(capsys)
    assert rec["engine_vertices"] == "1024"
    assert rec["generated_vertices"] == "1024"
    assert rec["outcome"] == "pass"


def test_verify_theorems(capsys):
    assert main(["verify", "theorems", "--leaves", "3", "--samples", "40"]) == 0
    rec = last_record(capsys)
    assert rec["outcome"] == "pass"
    assert rec["violations"] == "0"
    assert int(rec["roundtrips"]) == 40
    assert int(rec["pseudo_facet_samples"]) == 40


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_theorems_samples_below_one(samples, capsys):
    assert main(["verify", "theorems", "--leaves", "3", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--samples must be at least 1, got {samples}" in captured.err


def test_verify_theorems_m5_record_pinned(capsys):
    assert main(["verify", "theorems", "--leaves", "5", "--samples", "600", "--seed", "3"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = [f for f in line.split(" ") if not f.startswith("wall=")]
    assert " ".join(fields) == (
        "command=verify task=theorems leaves=5 samples=600 roundtrips=600 memberships=600 "
        "pseudo_facet_samples=600 cycle_configs=100 interior_nonintegral=599 violations=0 "
        "outcome=pass"
    )


def _record_without_wall(capsys):
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return " ".join(f for f in line.split(" ") if not f.startswith("wall="))


def test_verify_theorems_frontier_m9(capsys):
    # the samplers unrank the vertices they draw: m=9 has 65,536 of them
    assert main(["verify", "theorems", "--leaves", "9", "--samples", "20"]) == 0
    assert _record_without_wall(capsys) == (
        "command=verify task=theorems leaves=9 samples=20 roundtrips=20 memberships=20 "
        "pseudo_facet_samples=20 cycle_configs=0 interior_nonintegral=20 violations=0 "
        "outcome=pass"
    )


def test_verify_theorems_counterexample_file_pinned(tmp_path, monkeypatch, capsys):
    """The detail text the suites write, one failure forced in each: the
    inverse transform is off by one in the first coordinate, every parity
    check fails and no point gets a witness."""
    inverse = suites.from_prime_scaled

    def shifted(point):
        nums, den = inverse(point)
        return ScaledPoint((nums[0] + den,) + nums[1:], den)

    monkeypatch.setattr(suites, "from_prime_scaled", shifted)
    monkeypatch.setattr(suites, "parity_check", lambda line, subset: False)
    monkeypatch.setattr(suites, "interior_witness", lambda pt: NotInterior("forced"))
    argv = ["verify", "theorems", "--leaves", "3", "--samples", "6", "--seed", "1"]
    assert main(argv + ["--out-dir", "cx"]) == 1
    assert _record_without_wall(capsys) == (
        "command=verify task=theorems leaves=3 samples=6 roundtrips=6 memberships=6 "
        "pseudo_facet_samples=6 cycle_configs=4 interior_nonintegral=6 violations=42 "
        "outcome=fail file=cx/counterexample_theorems_m3.records"
    )
    data = (tmp_path / "cx" / "counterexample_theorems_m3.records").read_bytes()
    suites_failed = {line.split()[1] for line in data.decode().splitlines()}
    assert suites_failed == {"suite=isomorphism", "suite=pseudo_facet", "suite=interior"}
    assert hashlib.sha256(data).hexdigest() == (
        "7f5b7a02f7cb4c18fbde50f876fa01189a1a9ab2cac46c9809891b39388cfc29"
    )


def test_verify_theorems_generation_cap(monkeypatch, capsys):
    built = []
    for name in ("kimura3_system", "kimura3_prime_system"):
        monkeypatch.setattr(suites, name, lambda m, name=name: built.append(name))
    assert main(["verify", "theorems", "--leaves", "13", "--samples", "3"]) == 3
    assert ("16777216 vertices exceeds the generation cap 4194304"
            in capsys.readouterr().err)
    assert built == []


def test_verify_theorems_logs_suite_counts(caplog, capsys):
    argv = ["verify", "theorems", "--leaves", "3", "--samples", "30", "--seed", "2"]
    assert main(argv) == 0
    quiet = _record_without_wall(capsys)
    caplog.set_level(logging.INFO, logger="clawpoly.suites")
    assert main(["-v"] + argv) == 0
    assert _record_without_wall(capsys) == quiet
    assert [r.getMessage() for r in caplog.records if r.name == "clawpoly.suites"] == [
        "isomorphism m=3: 60 points, 60 membership evaluations, 0 kernel witnesses, "
        "0 cycle witnesses, 0 tight subsets",
        "pseudo_facet m=3: 30 points, 30 membership evaluations, 0 kernel witnesses, "
        "0 cycle witnesses, 356 tight subsets",
        # 28 non-integral points, each analysed once and its two endpoints checked;
        # the 19 cycle witnesses are the pseudo-facet suite's 19 cycle configurations
        "interior m=3: 30 points, 84 membership evaluations, 9 kernel witnesses, "
        "19 cycle witnesses, 320 tight subsets",
    ]


# --- witness --------------------------------------------------------------------

def test_witness_violation(capsys):
    assert main(["witness", "violation", "--labeling", "10,00,00"]) == 0
    rec = last_record(capsys)
    assert rec["consistent"] == "false"
    assert rec["subset"] == "1"
    assert rec["row_pair"] == "1,3"
    assert rec["inequality"] == "16"
    assert (rec["lhs"], rec["rhs"]) == ("1", "0")


def test_witness_violation_consistent(capsys):
    assert main(["witness", "violation", "--labeling", "10,01,11"]) == 0
    rec = last_record(capsys)
    assert rec["consistent"] == "true"


def test_witness_violation_to_file(tmp_path, capsys):
    assert main(
        ["witness", "violation", "--labeling", "11,11,11", "--out", "w.records"]
    ) == 0
    rec = parse_record(read_text(tmp_path / "w.records").strip())
    assert rec["subset"] == "1,2,3"
    assert "wall" not in rec


def test_witness_violation_needs_labeling(capsys):
    assert main(["witness", "violation"]) == 2


def test_witness_violation_bad_token(capsys):
    assert main(["witness", "violation", "--labeling", "2,00,00"]) == 2


@pytest.mark.parametrize("labeling", ["1\u00b2,00,00", "1\u0663,00,00"])
def test_witness_violation_non_ascii_digit(labeling, capsys):
    # superscript two (int() raised on it) and Arabic-Indic three (read as 3)
    assert main(["witness", "violation", "--labeling", labeling]) == 2
    assert "is not 2 digits" in capsys.readouterr().err


@pytest.mark.parametrize("group, labeling", [
    ("z2z2", "20,00,00"),  # was read as 00,00,00: consistent=true
    ("z2z2", "30,00,00"),  # was read as 10,00,00
    ("z3xz4", "04,00,00"),
])
def test_witness_violation_digit_at_or_above_order(group, labeling, capsys):
    assert main(["witness", "violation", "--group", group, "--labeling", labeling]) == 2
    captured = capsys.readouterr()
    assert "at or above its factor's order" in captured.err
    assert captured.out == ""


def test_witness_violation_40_leaves_builds_no_system(monkeypatch, capsys):
    # the last row of kimura3_system(40), which has 4*40 + 3*2^39 rows
    monkeypatch.setattr("clawpoly.witness.kimura3_system", None)
    labeling = ",".join(["10"] + ["00"] * 38 + ["11"])
    started = time.perf_counter()
    assert main(["witness", "violation", "--labeling", labeling]) == 0
    assert time.perf_counter() - started < 1
    rec = last_record(capsys)
    assert (rec["subset"], rec["row_pair"]) == ("40", "2,3")
    assert rec["inequality"] == str(4 * 40 + 3 * 2 ** 39 - 1)
    assert (rec["lhs"], rec["rhs"]) == ("1", "0")


def test_witness_interior(tmp_path, capsys):
    vs = VertexSet(
        dimension=9, shape=(3, 3), points=((H, H, 0, H, H, 0, 0, 0, 0),)
    )
    (tmp_path / "p.ext").write_text(format_vfile(vs))
    assert main(["witness", "interior", "--point", "p.ext"]) == 0
    rec = last_record(capsys)
    assert rec["epsilon"] == "1/4"
    assert rec["direction"] == "1,1,0;1,1,0;0,0,0"


def test_witness_interior_integral_point(tmp_path, capsys):
    vs = VertexSet(dimension=9, shape=(3, 3), points=((0,) * 9,))
    (tmp_path / "z.ext").write_text(format_vfile(vs))
    assert main(["witness", "interior", "--point", "z.ext"]) == 2


def test_witness_interior_multiple_points(tmp_path, capsys):
    vs = VertexSet(dimension=9, shape=(3, 3), points=((0,) * 9, (1,) + (0,) * 8))
    (tmp_path / "two.ext").write_text(format_vfile(vs))
    assert main(["witness", "interior", "--point", "two.ext"]) == 2


def test_witness_interior_needs_point(capsys):
    assert main(["witness", "interior"]) == 2


# --- stats ----------------------------------------------------------------------

def test_stats_with_f_vector(capsys):
    assert main(["stats", "--leaves", "3", "--f-vector"]) == 0
    rec = last_record(capsys)
    assert rec["vertices"] == "16"
    assert rec["kimura3_inequalities"] == "24"
    assert rec["kimura3_prime_inequalities"] == "24"
    assert rec["binary_inequalities"] == "10"
    assert rec["facets"] == "24"
    assert rec["f_vector"] == "16,120,528,1392,2176,1968,978,240,24"
    assert rec["outcome"] == "pass"


def test_stats_partial_over_cap(capsys):
    assert main(["stats", "--leaves", "5"]) == 0
    rec = last_record(capsys)
    assert rec["facets"] == "skipped-by-cap"
    assert rec["outcome"] == "partial"


def test_stats_bad_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "abc")
    assert main(["stats", "--leaves", "3"]) == 3
    assert "CLAWPOLY_MAX_DIM" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_stats_cap_below_one(cap, capsys):
    assert main(["stats", "--leaves", "3", "--max-dim", cap]) == 3
    assert f"max_dim must be at least 1, got {cap}" in capsys.readouterr().err


def test_stats_env_cap_below_one(monkeypatch, capsys):
    monkeypatch.setenv("CLAWPOLY_MAX_DIM", "0")
    assert main(["stats", "--leaves", "3"]) == 3
    assert "CLAWPOLY_MAX_DIM must be at least 1, got 0" in capsys.readouterr().err


def test_stats_f_vector_only_m3(capsys):
    assert main(["stats", "--leaves", "4", "--max-dim", "12", "--f-vector"]) == 0
    rec = last_record(capsys)
    assert rec["f_vector"] == "m3-only"
    assert rec["outcome"] == "partial"


def test_stats_vertex_cap_exits_before_any_system(monkeypatch, capsys):
    counted = []
    monkeypatch.setattr(cli, "row_count", lambda model, m: counted.append(model))
    assert main(["stats", "--leaves", "15"]) == 3
    assert "generation cap" in capsys.readouterr().err
    assert counted == []


def test_stats_counts_rows_without_building_systems(monkeypatch, capsys):
    monkeypatch.setattr(cli, "model_system", None)
    monkeypatch.setattr(halfspaces, "MODEL_BUILDERS", {})
    assert main(["stats", "--leaves", "4", "--max-dim", "1"]) == 0
    rec = last_record(capsys)
    assert (rec["kimura3_inequalities"], rec["kimura3_prime_inequalities"],
            rec["binary_inequalities"]) == ("40", "40", "16")


def test_stats_counts_vertices_without_building_them(monkeypatch, capsys):
    """Past the dimension cap no hull is computed, so no vertex is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("stats built the vertex set")

    monkeypatch.setattr(cli, "generate_vertices", refuse)
    assert main(["stats", "--leaves", "11"]) == 0
    assert _record_without_wall(capsys) == (
        "command=stats leaves=11 vertices=1048576 kimura3_inequalities=3116 "
        "kimura3_prime_inequalities=3116 binary_inequalities=1046 facets=skipped-by-cap "
        "outcome=partial"
    )


def test_stats_out_file_has_no_wall(tmp_path, capsys):
    assert main(["stats", "--leaves", "3", "--out", "s.records"]) == 0
    rec = parse_record(read_text(tmp_path / "s.records").strip())
    assert "wall" not in rec
    assert rec["vertices"] == "16"
    again = read_text(tmp_path / "s.records")
    main(["stats", "--leaves", "3", "--out", "s.records"])
    assert read_text(tmp_path / "s.records") == again


# --- entry ----------------------------------------------------------------------

def test_main_requires_subcommand(capsys):
    assert main([]) == 2


def test_main_unknown_flag(capsys):
    assert main(["vrep", "--leaves", "3", "--bogus"]) == 2


def test_stdout_record_has_wall(capsys):
    main(["verify", "containment", "--leaves", "3"])
    rec = last_record(capsys)
    assert rec["wall"].endswith("s")


# --- golden run ------------------------------------------------------------------
# Every command, every --format and every fail path, pinned by its stdout record
# (minus wall=), its exit code and the sha256 of every file it writes.

GOLDEN_INPUTS = {
    "k3.ext": format_vfile(generate_vertices(Z2Z2, 3)),
    "p.ext": format_vfile(
        VertexSet(dimension=9, shape=(3, 3), points=((H, H, 0, H, H, 0, 0, 0, 0),))
    ),
    "z.ext": format_vfile(VertexSet(dimension=9, shape=(3, 3), points=((0,) * 9,))),
    # size lines with the marker column only, and with no column at all
    "cols1.ext": "V-representation\nbegin\n 1 1 rational\n 1\nend\n",
    "cols0.ext": "V-representation\nbegin\n 0 0 rational\nend\n",
}

# each fake replaces the name in the module that defines it: cli imports
# engine, witness and suites inside the handlers that call them
GOLDEN_PATCHES = {
    "containment": (witness, "check_containment", lambda m: ContainmentReport(
        leaves=m, checked=2, failures=(((0,) * 9, 13), ((1,) + (0,) * 8, 4)), passed=False)),
    "equality": (engine, "equal_polytopes", lambda a, b: EqualityReport(
        equal=False, only_a=((0,) * 9,), only_b=((1,) + (0,) * 8, (0, 1) + (0,) * 7),
        checked_a=16, checked_b=16)),
    "integrality": (cli, "is_integral", lambda x: x != 1),
    "theorems": (suites, "run_interior_suite", lambda m, n, seed=0: InteriorSuiteReport(
        leaves=m, samples=n, nonintegral=1, passed=False,
        failures=(("not_interior", "no direction", ((H, 0), (0, 1))),))),
    "interior": (witness, "interior_witness", lambda mat: NotInterior("no kernel direction")),
    "faces": (engine, "f_vector", lambda hull: f_vector(hull, max_faces=100)),
    "cap": (vertices_mod, "GENERATION_CAP", 4),
}

GOLDEN_CASES = {
    "vrep-cdd": (["vrep", "--leaves", "3"], None),
    "vrep-records": (["vrep", "--leaves", "3", "--format", "records"], None),
    "vrep-json": (["vrep", "--leaves", "3", "--format", "json", "--out", "v.json"], None),
    "vrep-z2": (["vrep", "--group", "z2", "--leaves", "4", "--out", "b.ext"], None),
    "vrep-cap": (["vrep", "--group", "z2", "--leaves", "4"], "cap"),
    "hrep-cdd": (["hrep", "--model", "kimura3", "--leaves", "3"], None),
    "hrep-records": (["hrep", "--model", "binary", "--leaves", "4", "--format", "records"], None),
    "hrep-json": (["hrep", "--model", "kimura3-prime", "--leaves", "3", "--format", "json"], None),
    "hrep-usage": (["hrep", "--model", "jukes", "--leaves", "3"], None),
    "transform-cdd": (["transform", "--in", "k3.ext"], None),
    "transform-records": (["transform", "--in", "k3.ext", "--format", "records"], None),
    "transform-json": (["transform", "--in", "k3.ext", "--format", "json", "--out", "t.json"],
                       None),
    "transform-inverse": (["transform", "--in", "k3.ext", "--inverse"], None),
    "transform-size-one-column": (["transform", "--in", "cols1.ext"], None),
    "transform-size-no-columns": (["transform", "--in", "cols0.ext"], None),
    "containment-pass": (["verify", "containment", "--leaves", "4"], None),
    "containment-fail": (["verify", "containment", "--leaves", "3"], "containment"),
    "equality-pass": (["verify", "equality", "--leaves", "3"], None),
    "equality-fail": (["verify", "equality", "--leaves", "3", "--out-dir", "cx"], "equality"),
    "equality-cap": (["verify", "equality", "--leaves", "5"], None),
    "integrality-pass": (["verify", "integrality", "--leaves", "3"], None),
    "integrality-fail": (["verify", "integrality", "--leaves", "3"], "integrality"),
    "theorems-pass": (["verify", "theorems", "--leaves", "3", "--samples", "30", "--seed", "2"],
                      None),
    "theorems-fail": (["verify", "theorems", "--leaves", "3", "--samples", "30"], "theorems"),
    "violation": (["witness", "violation", "--labeling", "10,00,00"], None),
    "violation-consistent": (["witness", "violation", "--labeling", "10,01,11"], None),
    "violation-out": (["witness", "violation", "--labeling", "11,11,11", "--out", "w.records"],
                      None),
    "interior-pass-out": (["witness", "interior", "--point", "p.ext", "--out", "i.records"],
                          None),
    "interior-fail-out": (["witness", "interior", "--point", "p.ext", "--out", "i.records"],
                          "interior"),
    "interior-integral": (["witness", "interior", "--point", "z.ext"], None),
    "stats": (["stats", "--leaves", "3"], None),
    "stats-f-vector-out": (["stats", "--leaves", "3", "--f-vector", "--out", "s.records"], None),
    "stats-partial": (["stats", "--leaves", "3", "--f-vector"], "faces"),
    "stats-m3-only": (["stats", "--leaves", "4", "--f-vector"], None),
    "stats-skipped-by-cap-out": (["stats", "--leaves", "5", "--out", "s.records"], None),
    "stats-cap-below-one": (["stats", "--leaves", "3", "--max-dim", "0"], None),
}


def _golden_run(name, tmp_path, monkeypatch, capsys):
    """(exit code, stdout minus wall=, {written file: sha256}) of one case."""
    for path, text in GOLDEN_INPUTS.items():
        (tmp_path / path).write_text(text)
    argv, patch = GOLDEN_CASES[name]
    if patch:
        monkeypatch.setattr(*GOLDEN_PATCHES[patch])
    code = main(argv)
    out = capsys.readouterr().out
    record = "\n".join(
        " ".join(f for f in line.split(" ") if not f.startswith("wall="))
        for line in out.splitlines()
    )
    written = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name not in GOLDEN_INPUTS
    }
    return code, record, written


GOLDEN = {
    "containment-fail": (
        1,
        "command=verify task=containment leaves=3 checked=2 violations=2 outcome=fail "
        "file=./counterexample_containment_m3.records",
        {
            "counterexample_containment_m3.records":
                "8d3daf5e2e398aa0336e29edfd6756ead9a367d820b7088eeed89324ad1a2819",
        },
    ),
    "containment-pass": (
        0,
        "command=verify task=containment leaves=4 checked=64 violations=0 outcome=pass",
        {},
    ),
    "equality-cap": (3, "", {}),
    "equality-fail": (
        1,
        "command=verify task=equality leaves=3 engine_vertices=16 generated_vertices=16 "
        "outcome=fail file=cx/counterexample_equality_m3.records",
        {
            "cx/counterexample_equality_m3.records":
                "fcf2e074d42b309b9e21326a76ba2249a918a9d4c5108f075e63c433a5f432c0",
        },
    ),
    "equality-pass": (
        0,
        "command=verify task=equality leaves=3 engine_vertices=16 generated_vertices=16 "
        "outcome=pass",
        {},
    ),
    "hrep-cdd": (
        0,
        "command=hrep model=kimura3 leaves=3 count=24 outcome=pass "
        "file=hrep_kimura3_m3.ine",
        {
            "hrep_kimura3_m3.ine":
                "9b01fc54ba324a337637cb62d1a5665071a46db27b0aa38d8f0b9eb94229580d",
        },
    ),
    "hrep-json": (
        0,
        "command=hrep model=kimura3-prime leaves=3 count=24 outcome=pass "
        "file=hrep_kimura3-prime_m3.json",
        {
            "hrep_kimura3-prime_m3.json":
                "bcb9656a8f8a83157708b4f27dee5ea34b1de273f01473e274e9f5fc07e3a465",
        },
    ),
    "hrep-records": (
        0,
        "command=hrep model=binary leaves=4 count=16 outcome=pass "
        "file=hrep_binary_m4.records",
        {
            "hrep_binary_m4.records":
                "e0bab644e02de6b819ce93ad1b87b13a0c9eba4aeb535e43895ca0415d5e56f4",
        },
    ),
    "hrep-usage": (2, "", {}),
    "integrality-fail": (
        1,
        "command=verify task=integrality leaves=3 kimura3_vertices=16 "
        "kimura3_prime_vertices=16 violations=30 outcome=fail "
        "file=./counterexample_integrality_m3.records",
        {
            "counterexample_integrality_m3.records":
                "313656c1419f3d26cc50c27aaf3ee8549da46349add41eb5310034d7e5d8a717",
        },
    ),
    "integrality-pass": (
        0,
        "command=verify task=integrality leaves=3 kimura3_vertices=16 "
        "kimura3_prime_vertices=16 violations=0 outcome=pass",
        {},
    ),
    "interior-fail-out": (
        1,
        "command=witness kind=segment-interior reason=no-kernel-direction outcome=fail "
        "file=i.records",
        {
            "i.records":
                "95046494a8686c5139bb092596da94ec8eab0fa51d201c23a2446472cc12141b",
        },
    ),
    "interior-integral": (2, "", {}),
    "interior-pass-out": (
        0,
        "command=witness kind=segment-interior epsilon=1/4 direction=1,1,0;1,1,0;0,0,0 "
        "outcome=pass file=i.records",
        {
            "i.records":
                "e67fc6867c492c579ef2208358256c8ec606ea6f62bbe372118f42f09520eb80",
        },
    ),
    "stats": (
        0,
        "command=stats leaves=3 vertices=16 kimura3_inequalities=24 "
        "kimura3_prime_inequalities=24 binary_inequalities=10 facets=24 outcome=pass",
        {},
    ),
    "stats-cap-below-one": (3, "", {}),
    "stats-f-vector-out": (
        0,
        "command=stats leaves=3 vertices=16 kimura3_inequalities=24 "
        "kimura3_prime_inequalities=24 binary_inequalities=10 facets=24 "
        "f_vector=16,120,528,1392,2176,1968,978,240,24 outcome=pass file=s.records",
        {
            "s.records":
                "f6a19a55d57b0cacaadb4ff209270d35f01cf5aef1a89b32240d0d505d0f9be3",
        },
    ),
    "stats-m3-only": (
        0,
        "command=stats leaves=4 vertices=64 kimura3_inequalities=40 "
        "kimura3_prime_inequalities=40 binary_inequalities=16 facets=40 f_vector=m3-only "
        "outcome=partial",
        {},
    ),
    "stats-partial": (
        0,
        "command=stats leaves=3 vertices=16 kimura3_inequalities=24 "
        "kimura3_prime_inequalities=24 binary_inequalities=10 facets=24 "
        "f_vector=0,0,0,0,0,0,0,0,24 outcome=partial",
        {},
    ),
    "stats-skipped-by-cap-out": (
        0,
        "command=stats leaves=5 vertices=256 kimura3_inequalities=68 "
        "kimura3_prime_inequalities=68 binary_inequalities=26 facets=skipped-by-cap "
        "outcome=partial file=s.records",
        {
            "s.records":
                "774d38bcf7a6a3a4ac3ee72a76f3e2ca1474972bda7f352722453a569218d807",
        },
    ),
    "theorems-fail": (
        1,
        "command=verify task=theorems leaves=3 samples=30 roundtrips=30 memberships=30 "
        "pseudo_facet_samples=30 cycle_configs=15 interior_nonintegral=1 violations=1 "
        "outcome=fail file=./counterexample_theorems_m3.records",
        {
            "counterexample_theorems_m3.records":
                "bfa8c40495da74ed85d36ec7a841775fabd5e5501f27361a5f46d1ee34f9e7c1",
        },
    ),
    "theorems-pass": (
        0,
        "command=verify task=theorems leaves=3 samples=30 roundtrips=30 memberships=30 "
        "pseudo_facet_samples=30 cycle_configs=19 interior_nonintegral=28 violations=0 "
        "outcome=pass",
        {},
    ),
    "transform-cdd": (
        0,
        "command=transform direction=standard-to-prime count=16 outcome=pass "
        "file=k3_prime.ext",
        {
            "k3_prime.ext":
                "f745f2bf16c3ec3b3234b0f46fe5b50ef3942ae20a36c48e364a617f7a899c94",
        },
    ),
    "transform-inverse": (
        0,
        "command=transform direction=prime-to-standard count=16 outcome=pass "
        "file=k3_standard.ext",
        {
            "k3_standard.ext":
                "cbca7518b38787a585d1ac5eb2534c3473318b47a1efc9098ab074c9dccb0012",
        },
    ),
    "transform-size-no-columns": (2, "", {}),
    "transform-size-one-column": (2, "", {}),
    "transform-json": (
        0,
        "command=transform direction=standard-to-prime count=16 outcome=pass file=t.json",
        {
            "t.json":
                "ff4b291e0c7891339331f023457cee5cc67d66f905e4feea08d2cc8bda7a66ab",
        },
    ),
    "transform-records": (
        0,
        "command=transform direction=standard-to-prime count=16 outcome=pass "
        "file=k3_prime.records",
        {
            "k3_prime.records":
                "6691e85ca9f8c9df6f214e829069c251800775d2328d8b29b1c18a31f20b45b4",
        },
    ),
    "violation": (
        0,
        "command=witness kind=violation consistent=false subset=1 row_pair=1,3 "
        "inequality=16 lhs=1 rhs=0 outcome=pass",
        {},
    ),
    "violation-consistent": (
        0,
        "command=witness kind=violation consistent=true outcome=pass",
        {},
    ),
    "violation-out": (
        0,
        "command=witness kind=violation consistent=false subset=1,2,3 row_pair=1,3 "
        "inequality=17 lhs=3 rhs=2 outcome=pass file=w.records",
        {
            "w.records":
                "606366e4927cee26bc4fed66e1150794efde7a9fd47aa72a516c1a9515291469",
        },
    ),
    "vrep-cap": (3, "", {}),
    "vrep-cdd": (
        0,
        "command=vrep group=z2z2 leaves=3 count=16 outcome=pass file=vrep_z2z2_m3.ext",
        {
            "vrep_z2z2_m3.ext":
                "a1d7ac464affe82c0efa226b06bb556cbd828a2ad603d43b02a93423cbd077b3",
        },
    ),
    "vrep-json": (
        0,
        "command=vrep group=z2z2 leaves=3 count=16 outcome=pass file=v.json",
        {
            "v.json":
                "e4fd000ce5d94b11f9969513c9dfeaf6c768ad1f293958f4a5918f6966ba6e53",
        },
    ),
    "vrep-records": (
        0,
        "command=vrep group=z2z2 leaves=3 count=16 outcome=pass file=vrep_z2z2_m3.records",
        {
            "vrep_z2z2_m3.records":
                "f6145cf48efb999ddbaf9a14c0b50bbcf2ee108862ff97df12ed9b430cf45f70",
        },
    ),
    "vrep-z2": (
        0,
        "command=vrep group=z2 leaves=4 count=8 outcome=pass file=b.ext",
        {
            "b.ext":
                "912e9b87d237585dde009707870e088ea1432d40cc302ccd1ac3c841f4e12962",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_golden(name, tmp_path, monkeypatch, capsys):
    assert _golden_run(name, tmp_path, monkeypatch, capsys) == GOLDEN[name]


# --- hrep pins ---------------------------------------------------------------------
# The sha256 of every hrep artifact for m = 3..8, per model, in the order
# cdd-ine, records, json.

HREP_PINS = {
    ("binary", 3): (
        "7b30af06c1917ea1306a238d93be6b770a91bcc394baef6d24240e3b18c770bb",
        "066798840424211436777a2bc5a16ddcaf7e826542ccf8b114f80f29136f57cc",
        "5c6b12a9edcdb3f2d51278b5f4c05e5e55034526f9739f57e58481a0a8d22df7",
    ),
    ("binary", 4): (
        "28584905f97c02a056f37dd8526d5bc12fc78480213c0d9e4e92f6760fbece19",
        "e0bab644e02de6b819ce93ad1b87b13a0c9eba4aeb535e43895ca0415d5e56f4",
        "361b5c12d94c8c0df372101670d6d1fab05100390a2b859d0fcce3872a5f6c94",
    ),
    ("binary", 5): (
        "d9a28205aee2b173bbc554749de2a9a0b73634088c99dc6aed47d53ecde60d1c",
        "de4df5aa2bd42d492acbd64f21cdd70bef7a806eb046c560ce242e55f838856a",
        "cde4714f76a69d97f93722cbafc747b527e3685a07d50311438f3c3a2364b0ba",
    ),
    ("binary", 6): (
        "2dc366a98727a8d383f6c528b25a4265c89f3afece3762ffb7105f433e3f46ea",
        "11d0c1d4ed0ade9f8f573bf840f91219a476527e003e7892fac91e01122c8c60",
        "4598d025ac8a50c60018a9767012dbcba981008350059ce54c4273da383f85cc",
    ),
    ("binary", 7): (
        "71e87d217b8323954ede3a05a7b66078991274c763c8a15c3fb60f3ad6ed6ffe",
        "39fd5e896e0f77c4098afb6acc9e894aee7084f189600cdd03b1bc394e34027c",
        "da371aabe5310971a43cf1b643f5768727017f7f40f3f30115ebb57ba32f8b5d",
    ),
    ("binary", 8): (
        "5fccd59796f6e45f8e96da33e53afbf80e89387933427976c0c634e488e8b9c7",
        "00a5abb97e1c95aeabce1a7ad2845c08bc98f1973244d0412fe18c50cda4bd44",
        "9ecf67787bfc0e05d4d8479bdd294e54d546db926c91c90de4a1c36995894676",
    ),
    ("kimura3", 3): (
        "9b01fc54ba324a337637cb62d1a5665071a46db27b0aa38d8f0b9eb94229580d",
        "bb79ebe9451c0d308065975a0c64e45d920e30f212ca8cf291ad2782f9afa5a0",
        "3d3cbd83cc26970e4bc8f2e41e7f8877adb25c548ba550503a69da8e3c49c2c1",
    ),
    ("kimura3", 4): (
        "5f7269636ab360875da3aa45d2ae3b4664c2fb1c9d63a06bededfd309492a9ca",
        "ff6a9cfa38718fe356ed7732184a6a04a10d3241d659b3c946a519cb1dbb6b6c",
        "32b2cdb9195edc5f10fc81af332dfafc1738aaec82a033b401272abd4421f56d",
    ),
    ("kimura3", 5): (
        "6f366f734f0eac4d0e8b79b65c8212e29fcd109ffbfbd739062417ebc1e4f624",
        "31721d321015b4ef75031870c29789e3c96dd23d70d0b70e097247e3b423c427",
        "20f2cd5867404e9ae98a8775bf4502b8eec5c90f7a3a9b7ce4a3900c7d9c05bc",
    ),
    ("kimura3", 6): (
        "27a4801a27b70e474719194fe5f1fbf188c8cebe2d3548d326a9451a8e78f077",
        "77310509f81b8994ec926d9de477f1861247a9fd26f75b62e744ca1227c90c47",
        "2c157134336272e0bf71d73f8734d6dc1cebc15bf77cc6bbc2f7ee290a0d839d",
    ),
    ("kimura3", 7): (
        "841521110e8d04c7694a779c6ed17e1339498845c06e913f3728be8f2359bb4a",
        "4791c781f0bb0cf6cf587f0a1250a6945cf80b2396fcc05f4d4c4eb2f34f6737",
        "73169d4257b376462bb89bad9fbd47871078b6cdb74fc7934a77ec8282a25776",
    ),
    ("kimura3", 8): (
        "632c0517cb43f27d91b822614db28f695bd161393ea2337f88d889ccf45a27f5",
        "bd34c66e1108a1d9fdb7b5bb1796242067eb54feb0e1cfddd090dc1ef954390d",
        "9170d51bbb1c9fb2e357d24e1dffa5c3f2235951f9aecfeae7d578511d1d1a90",
    ),
    ("kimura3-prime", 3): (
        "a1cc5349452dbee4ab9370f340ec274f24170786ed0b40264c2825aa1ee15875",
        "fc766d6e21fe54131c1ef235167c123f05d21ce6349cb683fb2b7c92d9db2d04",
        "bcb9656a8f8a83157708b4f27dee5ea34b1de273f01473e274e9f5fc07e3a465",
    ),
    ("kimura3-prime", 4): (
        "ca2fdda5fee0938ea4221470b0bcc1328cb4f069efff19a0840e4080e005f84a",
        "a6d4a6feb80541426d26827cd0ea8be70b2241f12ba6952d6785f094b5e75503",
        "b8ee051d1859250df970b9b8843a5da7936953dda7d7d2b02bc5e0ea8e6dff53",
    ),
    ("kimura3-prime", 5): (
        "c7c38d8c0fdc9bb1757ede054b9562321b5bbd5a60524a88a193d55cc5388221",
        "f77e51202aa6759fe441a158db72e689afd535b7f0ff84b337c1476807deb093",
        "734d7728083b12a1722aa2fc6a4212e2b5eee7b4ba14ff91ab556aacb5149bcf",
    ),
    ("kimura3-prime", 6): (
        "6155ce929895c1453054916f00b1a7df3a1db25caa17ab66502031485091857f",
        "e3b1b2a8fe57b803835bebe5a480b77fbed1bea1daf9d5fcd3186160c642d52d",
        "4519ba35d7238ab80b148489c7c7fb4640ce41c699c1eb5f5f1246d83cd62e3d",
    ),
    ("kimura3-prime", 7): (
        "cb92698d25fa5c444add734bcfe9084b2c9cbf0eed33460f4812146a1239dffb",
        "1e878ef8e101d212845493fc5cf6d5cb0e9bac76cac3728341b90357e78d64e9",
        "55c2d40267463fc20e10eb8952aea59b89359607d528aa663bba265f94e7d142",
    ),
    ("kimura3-prime", 8): (
        "fdb08092226552fd9016e13853606b1972944092be636193383e15c215ef68de",
        "ba5b37c27dbddeef4e511f4ff9bdd93a5846a1b64e742434ef576f230b55550d",
        "4c7ab096f7c0e32d14f018d02f1ca71761d60938689540c50091021cfb252682",
    ),
}


@pytest.mark.parametrize("model, m", sorted(HREP_PINS))
def test_hrep_pinned(model, m, tmp_path, capsys):
    digests = []
    for fmt in ("cdd-ine", "records", "json"):
        out = f"h.{fmt}"
        assert main(["hrep", "--model", model, "--leaves", str(m), "--format", fmt,
                     "--out", out]) == 0
        digests.append(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest())
    assert tuple(digests) == HREP_PINS[model, m]


# --- start-up ---------------------------------------------------------------------

def test_cli_import_skips_dataclasses_and_inspect():
    # every command is a fresh process, and the records are NamedTuples, so
    # importing the CLI loads neither module
    code = "import sys, clawpoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert bare_python(code).strip() == "[]"


_THEOREM_ONLY = ("clawpoly.witness", "clawpoly.suites", "clawpoly.sampling",
                 "clawpoly.coordchange")

# modules a command must not load: each handler imports what only it calls
NOT_LOADED = {
    "hrep": (["hrep", "--model", "kimura3", "--leaves", "3"],
             _THEOREM_ONLY + ("clawpoly.engine", "logging", "json")),
    "stats": (["stats", "--leaves", "3"], _THEOREM_ONLY),
    "verify-integrality": (["verify", "integrality", "--leaves", "3"], _THEOREM_ONLY),
}


@pytest.mark.parametrize("name", sorted(NOT_LOADED))
def test_command_loads_only_the_modules_it_runs(name, tmp_path):
    argv, unwanted = NOT_LOADED[name]
    code = ("import sys, clawpoly.cli\n"
            "code = clawpoly.cli.main(sys.argv[1:])\n"
            f"print(code, sorted(set({unwanted!r}) & set(sys.modules)))")
    assert bare_python(code, *argv, cwd=tmp_path).splitlines()[-1] == "0 []"
