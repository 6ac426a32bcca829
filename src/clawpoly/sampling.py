"""Seeded exact-rational samplers.

All randomness flows through a caller-supplied seed so reruns are
byte-identical. Every sample is a ScaledPoint, a flattened 3 x m point as
integer numerators over one denominator: a convex combination keeps its
integer weights' total as the denominator, so no Fraction is built.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from operator import mul

from .coordchange import prime_flat
from .groups import Z2Z2
from .rationals import ScaledPoint
from .vertices import vertex_at, vertex_count


def _prime_vertex(m: int, index: int) -> tuple[int, ...]:
    """Vertex index of generate_vertices(Z2Z2, m) in prime coordinates, flattened."""
    return tuple(prime_flat(vertex_at(Z2Z2, m, index), m))


def _vertex_source(m: int):
    """(vertex count, index -> prime vertex); each vertex is unranked once per source."""
    return vertex_count(Z2Z2, m), lru_cache(maxsize=None)(partial(_prime_vertex, m))


def _combine(flats, weights) -> ScaledPoint:
    """Convex combination sum(w*flat) / sum(w), over the weights' total."""
    return ScaledPoint(tuple(sum(map(mul, weights, col)) for col in zip(*flats)), sum(weights))


def sample_prime_points(m: int, count: int, seed: int = 0) -> list[ScaledPoint]:
    """Random convex combinations of 2..5 prime-coordinate vertices.

    Vertices are drawn by index and unranked one at a time, so the vertex
    set is never generated.
    """
    rng = random.Random(seed)
    nverts, vertex = _vertex_source(m)
    out = []
    for _ in range(count):
        r = rng.randint(2, 5)
        picks = [vertex(rng.randrange(nverts)) for _ in range(r)]
        weights = [rng.randint(1, 8) for _ in range(r)]
        out.append(_combine(picks, weights))
    return out


def sample_prime_segment_points(m: int, count: int, seed: int = 0) -> list[ScaledPoint]:
    """Random points on segments between two distinct prime-coordinate vertices.

    These maximize integrality, exercising the low-k corner of the
    pseudo-facet statistics.
    """
    rng = random.Random(seed)
    nverts, vertex = _vertex_source(m)
    out = []
    for _ in range(count):
        a = rng.randrange(nverts)
        b = rng.randrange(nverts)
        while b == a:
            b = rng.randrange(nverts)
        w = rng.randint(1, 7)
        out.append(_combine([vertex(a), vertex(b)], [w, 8 - w]))
    return out


def sample_box_points(m: int, count: int, seed: int = 0) -> list[ScaledPoint]:
    """Random rational points in [-1/4, 5/4]^(3m), denominators dividing 8.

    Straddles the unit box so membership checks see both sides.
    """
    rng = random.Random(seed)
    return [ScaledPoint(tuple(rng.randint(-2, 10) for _ in range(3 * m)), 8)
            for _ in range(count)]
