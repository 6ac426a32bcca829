"""Seeded exact-rational samplers.

All randomness flows through a caller-supplied seed so reruns are
byte-identical. A sample is drawn lazily (Sample), a block of points at
a time, so its memory does not grow with its size. Every point is a
ScaledPoint, a flattened 3 x m point as integer numerators over one
denominator: a convex combination keeps its integer weights' total as the
denominator, so no Fraction is built.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from operator import mul

from .coordchange import prime_flat
from .groups import Z2Z2
from .rationals import ScaledPoint
from .vertices import vertex_at, vertex_count


# vertices kept unranked per sample: every vertex up to m = 7, so memory
# stays flat at any m and sample size
_VERTEX_CACHE = 4 ** 6
# points drawn at once: one point per step of a generator ran the theorem
# suites about 3% slower than a list of the whole sample; 64 at a time did not
_BLOCK = 64


def _prime_vertex(m: int, index: int) -> tuple[int, ...]:
    """Vertex index of generate_vertices(Z2Z2, m) in prime coordinates, flattened."""
    return tuple(prime_flat(vertex_at(Z2Z2, m, index), m))


def _vertex_source(m: int):
    """(vertex count, index -> prime vertex); the vertex count is checked
    against the generation cap here, before any point is drawn."""
    return vertex_count(Z2Z2, m), lru_cache(maxsize=_VERTEX_CACHE)(partial(_prime_vertex, m))


def _combine(flats, weights) -> ScaledPoint:
    """Convex combination sum(w*flat) / sum(w), over the weights' total."""
    return ScaledPoint(tuple(sum(map(mul, weights, col)) for col in zip(*flats)), sum(weights))


class Sample:
    """A seeded sample of count points, drawn lazily.

    len() is count. Each pass over it seeds a fresh random.Random(seed) and
    draws the points with draw(rng), _BLOCK at a time, so every pass yields
    the same points and no more than a block of them is held.
    """

    __slots__ = ("_draw", "_count", "_seed")

    def __init__(self, draw, count: int, seed: int):
        self._draw, self._count, self._seed = draw, count, seed

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        rng = random.Random(self._seed)
        draw, count = self._draw, self._count
        for start in range(0, count, _BLOCK):
            yield from [draw(rng) for _ in range(min(_BLOCK, count - start))]


def sample_prime_points(m: int, count: int, seed: int = 0) -> Sample:
    """Random convex combinations of 2..5 prime-coordinate vertices.

    Vertices are drawn by index and unranked one at a time, so the vertex
    set is never generated.
    """
    nverts, vertex = _vertex_source(m)

    def draw(rng):
        r = rng.randrange(4) + 2
        picks = [vertex(rng.randrange(nverts)) for _ in range(r)]
        weights = [rng.randrange(8) + 1 for _ in range(r)]
        return _combine(picks, weights)

    return Sample(draw, count, seed)


def sample_prime_segment_points(m: int, count: int, seed: int = 0) -> Sample:
    """Random points on segments between two distinct prime-coordinate vertices.

    These maximize integrality, exercising the low-k corner of the
    pseudo-facet statistics.
    """
    nverts, vertex = _vertex_source(m)

    def draw(rng):
        a = rng.randrange(nverts)
        b = rng.randrange(nverts)
        while b == a:
            b = rng.randrange(nverts)
        w = rng.randrange(7) + 1
        return _combine([vertex(a), vertex(b)], [w, 8 - w])

    return Sample(draw, count, seed)


def sample_box_points(m: int, count: int, seed: int = 0) -> Sample:
    """Random rational points in [-1/4, 5/4]^(3m), denominators dividing 8.

    Straddles the unit box so membership checks see both sides.
    """
    d = 3 * m
    return Sample(lambda rng: ScaledPoint(tuple(rng.randrange(13) - 2 for _ in range(d)), 8),
                  count, seed)
