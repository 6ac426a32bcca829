"""Shared fixtures and helpers. The double description runs are
session-scoped so the heavier m=4 conversions happen once."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from clawpoly.engine import hull_from_vertices, vertices_from_inequalities
from clawpoly.errors import FileFormatError
from clawpoly.groups import Z2Z2
from clawpoly.halfspaces import InequalitySystem, kimura3_prime_system, kimura3_system
from clawpoly.vertices import generate_vertices


@dataclass(frozen=True)
class Row:
    """Family tag of a row of a hand-built system."""

    index: int

    kind = "row"

    def describe(self) -> str:
        return f"family=row index={self.index}"


def system_from_rows(d, rows, equations=()):
    """The InequalitySystem in R^d of the (a, b) rows, then each equation
    a.x = b as the two opposite rows a.x <= b and -a.x <= -b."""
    rows = list(rows)
    for a, b in equations:
        rows += [(a, b), (tuple(-x for x in a), -b)]
    return InequalitySystem("rows", (1, d), rows, map(Row, range(len(rows))))


def hull_system(poly):
    """A hull's facets and equations as an InequalitySystem."""
    return system_from_rows(poly.dimension, poly.facets, poly.equations)


def parse_record(line: str) -> dict:
    """Inverse of fileio.record_line: {key: value} with every value a string."""
    out = {}
    for field in line.split():
        if "=" not in field:
            raise FileFormatError(f"bad record field: {field!r}")
        key, _, value = field.partition("=")
        out[key] = value
    return out


def bare_python(code, *argv, cwd=None) -> str:
    """stdout of `python -S -c code argv...` on this tree's package; -S keeps
    site-packages .pth hooks from importing modules first."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def k3():
    return generate_vertices(Z2Z2, 3)


@pytest.fixture(scope="session")
def k4():
    return generate_vertices(Z2Z2, 4)


@pytest.fixture(scope="session")
def delta3_vertices():
    return vertices_from_inequalities(kimura3_system(3))


@pytest.fixture(scope="session")
def delta4_vertices():
    return vertices_from_inequalities(kimura3_system(4))


@pytest.fixture(scope="session")
def prime3_vertices():
    return vertices_from_inequalities(kimura3_prime_system(3))


@pytest.fixture(scope="session")
def prime4_vertices():
    return vertices_from_inequalities(kimura3_prime_system(4))


@pytest.fixture(scope="session")
def hull_k3(k3):
    return hull_from_vertices(k3)


@pytest.fixture(scope="session")
def hull_k4(k4):
    return hull_from_vertices(k4)
