"""Shared fixtures. The double description runs are session-scoped so the
heavier m=4 conversions happen once."""

import pytest

from clawpoly.engine import hull_from_vertices, vertices_from_inequalities
from clawpoly.errors import FileFormatError
from clawpoly.groups import Z2Z2
from clawpoly.halfspaces import kimura3_prime_system, kimura3_system
from clawpoly.vertices import generate_vertices


def parse_record(line: str) -> dict:
    """Inverse of fileio.record_line: {key: value} with every value a string."""
    out = {}
    for field in line.split():
        if "=" not in field:
            raise FileFormatError(f"bad record field: {field!r}")
        key, _, value = field.partition("=")
        out[key] = value
    return out


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
