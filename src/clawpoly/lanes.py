"""Fixed-width lanes of one big int.

Lane k of an int x with width-bit lanes is the value (x >> k*width) mod
2^width. One big-int add or multiply then acts on every lane at once, and
stays exact as long as no lane leaves [0, 2^width): no carry or borrow
crosses a lane boundary. Both the 0/1 checks of an inequality system and
the double description's ray coordinates are kept this way.
"""

from __future__ import annotations

# byte value -> b"1" iff its top bit is set
_TOP_BIT = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)


def pack_lanes(values, width: int) -> int:
    """The int whose width-bit lane k holds values[k], each in [0, 2^width).

    Built in one pass from the joined binary digits of the lanes, so the
    cost is linear in the number of lanes.
    """
    digits = {v: format(v, f"0{width}b") for v in set(values)}
    return int("".join(map(digits.__getitem__, reversed(values))) or "0", 2)


def lane_tops(x: int, count: int, width: int) -> int:
    """Bitmask of the lanes k < count of x whose top bit is set.

    width is a multiple of 8, and x has no set bit above lane count - 1.
    """
    step = width >> 3
    tops = x.to_bytes(count * step, "little")[step - 1::step].translate(_TOP_BIT)
    return int(tops[::-1] or b"0", 2)


def bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
