from fractions import Fraction

import pytest

import clawpoly.vertices as vertices_mod
from clawpoly.coordchange import to_prime_scaled
from clawpoly.errors import ResourceCapError
from clawpoly.groups import Z2Z2
from clawpoly.halfspaces import kimura3_prime_system
from clawpoly.rationals import ScaledPoint, scale_to_ints
from clawpoly.sampling import (
    _prime_vertex,
    sample_box_points,
    sample_prime_points,
    sample_prime_segment_points,
)


def test_same_seed_same_points():
    a = sample_prime_points(3, 20, seed=5)
    b = sample_prime_points(3, 20, seed=5)
    assert a == b
    c = sample_prime_points(3, 20, seed=6)
    assert a != c


def test_segment_sampler_deterministic():
    a = sample_prime_segment_points(4, 15, seed=1)
    b = sample_prime_segment_points(4, 15, seed=1)
    assert a == b


def test_box_sampler_deterministic():
    a = sample_box_points(3, 30, seed=2)
    assert a == sample_box_points(3, 30, seed=2)


def test_prime_samples_are_members():
    sys3 = kimura3_prime_system(3)
    for p in sample_prime_points(3, 50, seed=0):
        assert sys3.membership(p).status != "outside"
    for p in sample_prime_segment_points(3, 50, seed=0):
        assert sys3.membership(p).status != "outside"


def test_sample_shapes():
    for p in sample_prime_points(4, 5, seed=0):
        assert isinstance(p, ScaledPoint)
        assert len(p.nums) == 3 * 4


def test_box_points_range_and_denominator():
    lo, hi = Fraction(-1, 4), Fraction(5, 4)
    for p in sample_box_points(3, 40, seed=9):
        assert p.den == 8
        for x in p.values():
            assert lo <= x <= hi
            assert 8 % Fraction(x).denominator == 0


def test_box_sampler_straddles_unit_box():
    pts = sample_box_points(3, 200, seed=3)
    assert any(x < 0 for p in pts for x in p.values())
    assert any(x > 1 for p in pts for x in p.values())
    sys3 = kimura3_prime_system(3)
    statuses = {sys3.membership(p).status for p in pts}
    assert "outside" in statuses


@pytest.mark.parametrize("m", [3, 4, 5])
def test_prime_vertex_is_the_generated_image(m):
    vertices = vertices_mod.generate_vertices(Z2Z2, m)
    images = [to_prime_scaled(scale_to_ints(v)).nums for v in vertices.points]
    assert [_prime_vertex(m, i) for i in range(len(images))] == images


def test_samplers_refuse_above_generation_cap(monkeypatch):
    monkeypatch.setattr(vertices_mod, "GENERATION_CAP", 4)
    for sampler in (sample_prime_points, sample_prime_segment_points):
        with pytest.raises(ResourceCapError, match="16 vertices exceeds the generation cap 4"):
            sampler(3, 1)
