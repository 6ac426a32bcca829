"""Exact-rational polyhedral file formats and report records.

V-files (.ext) and H-files (.ine) follow the cdd text layout so standard
polyhedral tools can audit the output:

    * order=row-major rows=3 cols=4
    V-representation
    begin
     16 13 rational
     1 0 0 1 ...
    end

Every number is an integer or p/q; vertex rows carry the leading 1 marker
(rays and a V-file "linearity" line are rejected: these polytopes are
bounded). H-files are written for an InequalitySystem, one line
"b -a1 ... -ad" per row a . x <= b; a system holds an equation as two
opposite rows, so an H-file has no "linearity" line. The record format
used by reports is one record per line of space-separated key=value pairs
whose values never contain spaces (sequences are comma- and
semicolon-joined).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FileFormatError
from .rationals import canon, fmt, parse_rational
from .vertices import VertexSet

_SHAPE_RE = re.compile(r"^\*\s*order=row-major\s+rows=(\d+)\s+cols=(\d+)\s*$")


def _shape_comment(shape) -> str | None:
    if len(shape) == 2:
        return f"* order=row-major rows={shape[0]} cols={shape[1]}"
    if len(shape) == 1:
        return f"* order=row-major rows=1 cols={shape[0]}"
    return None


def format_vfile(vs: VertexSet) -> str:
    lines = []
    comment = _shape_comment(vs.shape)
    if comment:
        lines.append(comment)
    lines.append("V-representation")
    lines.append("begin")
    lines.append(f" {len(vs.points)} {vs.dimension + 1} rational")
    for p in vs.points:
        lines.append(" 1 " + " ".join(fmt(x) for x in p))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_vfile(text: str) -> VertexSet:
    """Vertices of a cdd V-file; rays and a linearity line are rejected."""
    shape = None
    lines = text.splitlines()
    i = 0
    found_header = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("*"):
            m = _SHAPE_RE.match(line)
            if m:
                shape = (int(m.group(1)), int(m.group(2)))
            continue
        if line == "V-representation":
            found_header = True
            continue
        if line.startswith("linearity"):
            raise FileFormatError(f"lines through the generators are unsupported: {line!r}")
        if line == "begin":
            break
        raise FileFormatError(f"unexpected line before begin: {line!r}")
    else:
        raise FileFormatError("no begin line found")
    if not found_header:
        raise FileFormatError("missing V-representation header")
    if i >= len(lines):
        raise FileFormatError("truncated file: no size line")
    size_parts = lines[i].split()
    i += 1
    if len(size_parts) != 3 or size_parts[2] not in ("rational", "integer"):
        raise FileFormatError(f"bad size line: {lines[i-1]!r}")
    try:
        nrows = int(size_parts[0])
        ncols = int(size_parts[1])
    except ValueError:
        raise FileFormatError(f"bad size line: {lines[i-1]!r}")
    # a vertex row is the leading 1 plus at least one coordinate
    if ncols < 2:
        raise FileFormatError(f"bad size line: {lines[i-1]!r}")
    points = []
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "end":
            break
        if not line:
            continue
        fields = line.split()
        if len(fields) != ncols:
            raise FileFormatError(
                f"row has {len(fields)} fields, expected {ncols}: {line!r}"
            )
        try:
            values = [parse_rational(f) for f in fields]
        except ValueError as e:
            raise FileFormatError(str(e))
        if values[0] != 1:
            raise FileFormatError(
                f"generator row is not a vertex (leading {fmt(values[0])}); rays unsupported"
            )
        points.append(tuple(values[1:]))
    else:
        raise FileFormatError("truncated file: no end line")
    if len(points) != nrows:
        raise FileFormatError(f"size line promised {nrows} rows, found {len(points)}")
    if shape and shape[0] * shape[1] != ncols - 1:
        raise FileFormatError(
            f"a {shape[0]}x{shape[1]} layout does not fill dimension {ncols - 1}"
        )
    if not shape or shape[0] == 1:
        shape = (ncols - 1,)
    return VertexSet(dimension=ncols - 1, shape=shape, points=tuple(points))


def format_hfile(system) -> str:
    """H-file of an InequalitySystem, its rows in id order."""
    lines = [
        _shape_comment(system.shape),
        "H-representation",
        "begin",
        f" {len(system.rows)} {system.dimension + 1} rational",
    ]
    for a, b in system.rows:
        lines.append(" " + " ".join(fmt(x) for x in (b, *(-c for c in a))))
    lines.append("end")
    return "\n".join(lines) + "\n"


# --- record format -----------------------------------------------------------

def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return fmt(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            return ";".join(",".join(fmt(canon(x)) for x in row) for row in v)
        return ",".join(fmt(canon(x)) for x in v)
    return str(v)


def record_line(pairs) -> str:
    """One report record: space-joined key=value pairs, values space-free."""
    out = []
    for key, value in pairs:
        rendered = _render_value(value)
        if " " in rendered or "=" in rendered:
            raise FileFormatError(f"record value for {key} contains a space or '='")
        out.append(f"{key}={rendered}")
    return " ".join(out)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return fmt(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def to_json(obj) -> str:
    import json

    return json.dumps(obj, default=_json_default, indent=2) + "\n"


def write_text(path, content: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(content)


def read_text(path) -> str:
    with open(path, "r") as fh:
        return fh.read()
