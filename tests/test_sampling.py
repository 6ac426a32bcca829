import random
import tracemalloc
from fractions import Fraction
from itertools import islice

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
    a = list(sample_prime_points(3, 20, seed=5))
    b = list(sample_prime_points(3, 20, seed=5))
    assert a == b
    c = list(sample_prime_points(3, 20, seed=6))
    assert a != c


def test_segment_sampler_deterministic():
    a = list(sample_prime_segment_points(4, 15, seed=1))
    b = list(sample_prime_segment_points(4, 15, seed=1))
    assert a == b


def test_box_sampler_deterministic():
    a = list(sample_box_points(3, 30, seed=2))
    assert a == list(sample_box_points(3, 30, seed=2))


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


def test_samples_are_drawn_lazily():
    # at most a block of 64 points is held: 5,000 points of about 0.2 KB
    # each pass through under 50 KB, and each pass draws the same points
    sample = sample_box_points(3, 5_000, seed=4)
    assert len(sample) == 5_000
    first = list(islice(sample, 50))
    # a first pass fills the interpreter's free lists (about 0.2 MB of tuples)
    assert sum(1 for _ in islice(sample, 2_500)) == 2_500
    tracemalloc.start()
    try:
        drawn = sum(1 for _ in sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == 5_000
    assert peak < 50_000
    assert list(islice(sample, 50)) == first == list(sample_box_points(3, 50, seed=4))


# --- the streams, pinned against randint ---------------------------------------
# Each reference draws as the samplers did with random.randint, so a sampler
# that consumes its stream differently changes every later point.

def _randint_prime(m, count, seed):
    rng, n = random.Random(seed), 4 ** (m - 1)
    for _ in range(count):
        r = rng.randint(2, 5)
        picks = [_prime_vertex(m, rng.randrange(n)) for _ in range(r)]
        weights = [rng.randint(1, 8) for _ in range(r)]
        yield ScaledPoint(tuple(sum(w * v[i] for w, v in zip(weights, picks))
                                for i in range(3 * m)), sum(weights))


def _randint_segment(m, count, seed):
    rng, n = random.Random(seed), 4 ** (m - 1)
    for _ in range(count):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        w = rng.randint(1, 7)
        yield ScaledPoint(tuple(w * x + (8 - w) * y
                                for x, y in zip(_prime_vertex(m, a), _prime_vertex(m, b))), 8)


def _randint_box(m, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield ScaledPoint(tuple(rng.randint(-2, 10) for _ in range(3 * m)), 8)


@pytest.mark.parametrize("sampler, reference", [
    (sample_prime_points, _randint_prime),
    (sample_prime_segment_points, _randint_segment),
    (sample_box_points, _randint_box),
], ids=["prime", "segment", "box"])
@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_sampler_streams_match_randint(sampler, reference, m, seed):
    # 150 points span three blocks of 64
    assert list(sampler(m, 150, seed)) == list(reference(m, 150, seed))
