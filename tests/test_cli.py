import json
from fractions import Fraction

import pytest

import clawpoly.cli as cli
import clawpoly.vertices as vertices_mod
from clawpoly.cli import main
from clawpoly.fileio import format_vfile, parse_record, parse_vfile, read_text
from clawpoly.vertices import VertexSet
from clawpoly.witness import ContainmentReport

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


def test_transform_missing_file(capsys):
    assert main(["transform", "--in", "nope.ext"]) == 2
    assert "error:" in capsys.readouterr().err


def test_transform_bad_dimension(tmp_path, capsys):
    vs = VertexSet(dimension=4, shape=(4,), points=((0, 0, 0, 0),))
    (tmp_path / "flat.ext").write_text(format_vfile(vs))
    assert main(["transform", "--in", "flat.ext"]) == 2


# --- verify ----------------------------------------------------------------------

def test_verify_containment(capsys):
    assert main(["verify", "containment", "--leaves", "3"]) == 0
    rec = last_record(capsys)
    assert rec["outcome"] == "pass"
    assert rec["checked"] == "16"
    assert rec["violations"] == "0"


def test_verify_containment_m9(capsys):
    assert main(["verify", "containment", "--leaves", "9"]) == 0
    rec = last_record(capsys)
    assert rec["outcome"] == "pass"
    assert rec["checked"] == "65536"
    assert rec["violations"] == "0"


def test_verify_containment_failure_writes_counterexample(tmp_path, monkeypatch, capsys):
    fake = ContainmentReport(
        leaves=3, checked=2, failures=(((0,) * 9, 13),), passed=False
    )
    monkeypatch.setattr(cli, "check_containment", lambda m: fake)
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


def test_verify_theorems(capsys):
    assert main(["verify", "theorems", "--leaves", "3", "--samples", "40"]) == 0
    rec = last_record(capsys)
    assert rec["outcome"] == "pass"
    assert rec["violations"] == "0"
    assert int(rec["roundtrips"]) == 40
    assert int(rec["pseudo_facet_samples"]) == 40


def test_verify_theorems_m5_record_pinned(capsys):
    assert main(["verify", "theorems", "--leaves", "5", "--samples", "600", "--seed", "3"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = [f for f in line.split(" ") if not f.startswith("wall=")]
    assert " ".join(fields) == (
        "command=verify task=theorems leaves=5 samples=600 roundtrips=600 memberships=600 "
        "pseudo_facet_samples=600 cycle_configs=100 interior_nonintegral=599 violations=0 "
        "outcome=pass"
    )


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
