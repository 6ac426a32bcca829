import json
from fractions import Fraction

import pytest
from conftest import hull_system, parse_record

from clawpoly.engine import hull_from_vertices
from clawpoly.errors import FileFormatError
from clawpoly.fileio import (
    format_hfile,
    format_vfile,
    parse_vfile,
    read_text,
    record_line,
    to_json,
    write_text,
)
from clawpoly.halfspaces import demihypercube_system, kimura3_system
from clawpoly.vertices import VertexSet


# --- V-files -------------------------------------------------------------------

def test_vfile_layout(k3):
    text = format_vfile(k3)
    lines = text.splitlines()
    assert lines[0] == "* order=row-major rows=3 cols=3"
    assert lines[1] == "V-representation"
    assert lines[2] == "begin"
    assert lines[3] == " 16 10 rational"
    assert lines[-1] == "end"
    assert all(line.split()[0] == "1" for line in lines[4:-1])
    assert text.endswith("\n")


def test_vfile_roundtrip(k3):
    back = parse_vfile(format_vfile(k3))
    assert back == k3


def test_vfile_roundtrip_rational_entries():
    vs = VertexSet(dimension=2, shape=(2,), points=((Fraction(1, 3), 0), (1, 2)))
    back = parse_vfile(format_vfile(vs))
    assert back == vs
    assert "1/3" in format_vfile(vs)


def test_vfile_rejects_rays():
    bad = "V-representation\nbegin\n 1 3 rational\n 0 1 0\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


def test_vfile_missing_header():
    with pytest.raises(FileFormatError):
        parse_vfile("begin\n 0 3 rational\nend\n")


def test_vfile_no_begin():
    with pytest.raises(FileFormatError):
        parse_vfile("V-representation\n 1 3 rational\n")


def test_vfile_no_end():
    with pytest.raises(FileFormatError):
        parse_vfile("V-representation\nbegin\n 1 3 rational\n 1 0 0\n")


def test_vfile_wrong_field_count():
    bad = "V-representation\nbegin\n 1 3 rational\n 1 0\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


def test_vfile_row_count_mismatch():
    bad = "V-representation\nbegin\n 2 3 rational\n 1 0 0\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


def test_vfile_bad_number():
    bad = "V-representation\nbegin\n 1 3 rational\n 1 0.5 0\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


@pytest.mark.parametrize("entry", ["1_0", "\u0661", "1/-2"])
def test_vfile_rejects_lenient_numbers(entry):
    bad = f"V-representation\nbegin\n 1 3 rational\n 1 {entry} 0\nend\n"
    with pytest.raises(FileFormatError, match="not an integer or p/q"):
        parse_vfile(bad)


@pytest.mark.parametrize("size", ["1_0 3", "1 \u0663", "+1 3"])
def test_vfile_size_line_reads_ascii_digits_only(size):
    with pytest.raises(FileFormatError, match="bad size line"):
        parse_vfile(f"V-representation\nbegin\n {size} rational\n 1 0 0\nend\n")


def test_vfile_bad_size_line():
    bad = "V-representation\nbegin\n 1 3 floats\n 1 0 0\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


@pytest.mark.parametrize("body", [" 1 1 rational\n 1\n", " 0 0 rational\n"])
def test_vfile_size_line_needs_a_coordinate_column(body):
    # one column is the marker alone (dimension 0), none would be dimension -1
    with pytest.raises(FileFormatError, match="bad size line"):
        parse_vfile(f"V-representation\nbegin\n{body}end\n")


@pytest.mark.parametrize("line", ["linearity 1 1", "linearity x"])
def test_vfile_rejects_linearity(line):
    # a V-file linearity line declares a generator to be a line, not a vertex
    text = f"V-representation\n{line}\nbegin\n 1 3 rational\n 1 0 1\nend\n"
    with pytest.raises(FileFormatError, match="linearity"):
        parse_vfile(text)


def test_vfile_rejects_stray_line():
    bad = "V-representation\nsurprise\nbegin\n 0 3 rational\nend\n"
    with pytest.raises(FileFormatError):
        parse_vfile(bad)


@pytest.mark.parametrize("rows, cols", [(3, 3), (2, 4), (1, 5)])
def test_vfile_layout_must_fill_the_dimension(rows, cols):
    text = format_vfile(VertexSet(dimension=6, shape=(1, 6), points=((0,) * 6,)))
    text = text.replace("rows=1 cols=6", f"rows={rows} cols={cols}")
    with pytest.raises(FileFormatError, match=f"a {rows}x{cols} layout does not fill"):
        parse_vfile(text)


def test_vfile_layout_of_one_row_is_kept():
    text = format_vfile(VertexSet(dimension=6, shape=(2, 3), points=((0,) * 6,)))
    assert parse_vfile(text).shape == (2, 3)
    assert parse_vfile(text.replace("rows=2 cols=3", "rows=1 cols=6")).shape == (1, 6)


def test_parse_ignores_comments_and_blanks():
    text = "* a comment\n\nV-representation\nbegin\n 1 2 rational\n 1 -1\n\nend\n"
    assert parse_vfile(text) == VertexSet(dimension=1, shape=(1,), points=((-1,),))


# --- H-files -------------------------------------------------------------------

def test_hfile_layout():
    text = format_hfile(kimura3_system(3))
    lines = text.splitlines()
    assert lines[0] == "* order=row-major rows=3 cols=3"
    assert lines[1] == "H-representation"
    assert lines[2] == "begin"
    assert lines[3] == " 24 10 rational"
    # first row is -x11 <= 0, written as b then -a
    assert lines[4] == " 0 1 0 0 0 0 0 0 0 0"
    assert lines[-1] == "end"


def test_hfile_rows_encode_negated_coefficients():
    dh = demihypercube_system(3)
    rows = format_hfile(dh).splitlines()[3:-1]
    assert rows[0] == " 10 4 rational"
    pairs = set(dh.rows)
    written = set()
    for row in rows[1:]:
        b, *nega = (int(x) for x in row.split())
        written.add((tuple(-x for x in nega), b))
    assert written == pairs


def test_hfile_writes_an_equation_as_two_rows():
    # the segment's hull: its two end facets, then x1 - x2 = 0 as two opposite rows
    text = format_hfile(hull_system(hull_from_vertices([(0, 0), (2, 2)])))
    assert text.splitlines() == [
        "* order=row-major rows=1 cols=2",
        "H-representation",
        "begin",
        " 4 3 rational",
        " 0 1 0",
        " 2 -1 0",
        " 0 -1 1",
        " 0 1 -1",
        "end",
    ]


# --- records -------------------------------------------------------------------

def test_record_line_rendering():
    line = record_line(
        [("model", "kimura3"), ("ok", True), ("eps", Fraction(1, 4)), ("ids", (3, 5))]
    )
    assert line == "model=kimura3 ok=true eps=1/4 ids=3,5"


def test_record_line_matrix_value():
    # a matrix value is its rows: commas within a row, semicolons between rows
    p = ((1, 0), (0, 1), (0, Fraction(1, 2)))
    assert record_line([("point", p)]) == "point=1,0;0,1;0,1/2"


def test_record_roundtrip():
    line = record_line([("a", 1), ("b", "x"), ("flag", False)])
    assert parse_record(line) == {"a": "1", "b": "x", "flag": "false"}


def test_record_rejects_spaces():
    with pytest.raises(FileFormatError):
        record_line([("bad", "has space")])


def test_parse_record_rejects_bare_field():
    with pytest.raises(FileFormatError):
        parse_record("key=1 naked")


# --- json and text io -------------------------------------------------------------

def test_json_fractions_and_matrices():
    p = ((Fraction(1, 2), 1),)
    data = json.loads(to_json({"eps": Fraction(1, 2), "point": p}))
    assert data["eps"] == "1/2"
    assert data["point"] == [["1/2", 1]]


def test_json_rejects_unknown():
    with pytest.raises(TypeError):
        to_json({"x": object()})


def test_write_read_text(tmp_path):
    path = tmp_path / "out.ext"
    write_text(path, "V-representation\n")
    assert read_text(path) == "V-representation\n"
