"""Seeded exact-rational samplers.

All randomness flows through a caller-supplied seed so reruns are
byte-identical. Weights are small random integers normalized to sum 1,
keeping denominators tame and arithmetic exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coordchange import to_prime_coords
from .groups import Z2Z2
from .matrices import Matrix
from .vertices import generate_vertices


def _prime_vertex_matrices(m: int) -> list[Matrix]:
    return [to_prime_coords(v) for v in generate_vertices(Z2Z2, m).matrices()]


def _combine(mats, weights) -> Matrix:
    """Convex combination sum(w*mat) / sum(w); one Fraction per coordinate."""
    total = sum(weights)
    flat = [
        Fraction(sum(w * x for w, x in zip(weights, col)), total)
        for col in zip(*(mat.flatten() for mat in mats))
    ]
    m = mats[0].ncols
    return Matrix.from_rows([flat[r * m : (r + 1) * m] for r in range(3)])


def sample_prime_points(m: int, count: int, seed: int = 0) -> list[Matrix]:
    """Random convex combinations of 2..5 prime-coordinate vertices."""
    rng = random.Random(seed)
    verts = _prime_vertex_matrices(m)
    out = []
    for _ in range(count):
        r = rng.randint(2, 5)
        picks = [verts[rng.randrange(len(verts))] for _ in range(r)]
        weights = [rng.randint(1, 8) for _ in range(r)]
        out.append(_combine(picks, weights))
    return out


def sample_prime_segment_points(m: int, count: int, seed: int = 0) -> list[Matrix]:
    """Random points on segments between two distinct prime-coordinate vertices.

    These maximize integrality, exercising the low-k corner of the
    pseudo-facet statistics.
    """
    rng = random.Random(seed)
    verts = _prime_vertex_matrices(m)
    out = []
    for _ in range(count):
        a = rng.randrange(len(verts))
        b = rng.randrange(len(verts))
        while b == a:
            b = rng.randrange(len(verts))
        w = rng.randint(1, 7)
        out.append(_combine([verts[a], verts[b]], [w, 8 - w]))
    return out


def sample_box_points(m: int, count: int, seed: int = 0) -> list[Matrix]:
    """Random rational points in [-1/4, 5/4]^(3m), denominators dividing 8.

    Straddles the unit box so membership checks see both sides.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        flat = [Fraction(rng.randint(-2, 10), 8) for _ in range(3 * m)]
        out.append(Matrix.from_rows([flat[r * m : (r + 1) * m] for r in range(3)]))
    return out
