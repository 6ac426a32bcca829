"""Fixed-width lanes of one big int.

Lane k of an int x with width-bit lanes is the value (x >> k*width) mod
2^width. One big-int add or multiply then acts on every lane at once, and
stays exact as long as no lane leaves [0, 2^width): no carry or borrow
crosses a lane boundary. An inequality system's membership and 0/1
checks and the double description's ray coordinates are kept this way.
A test on every lane at once needs no decoding: an AND with a mask of each
lane's top bit is one big-int operation (InequalitySystem.status).

Whole-byte lanes are read and written as bytes: lane_signs classifies every
lane against 2^(width - 1) from one to_bytes of x, lane_values decodes
every lane from one such read, and pack_lanes builds them with one
int.from_bytes. Only the 0/1 checks use other widths.
"""

from __future__ import annotations

from struct import unpack

# byte value -> b"1" iff its top bit is set, iff it is exactly 0x80, iff it is nonzero
_TOP_BIT = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)
_HALF = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" + b"0" * 127)
_NONZERO = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


def _mask(flags: bytes) -> int:
    """The bitmask whose bit k is set iff flags[k] is b"1"."""
    return int(flags[::-1] or b"0", 2)


def byte_width(reach: int) -> int:
    """The least whole-byte width W with 2^(W - 1) + v in [1, 2^W) for all |v| <= reach."""
    return -(-(reach.bit_length() + 1) // 8) * 8


def pack_lanes(values, width: int) -> int:
    """The int whose width-bit lane k holds values[k], each in [0, 2^width).

    Whole-byte widths are packed from the lanes' little-endian bytes, other
    widths from the joined binary digits of the lanes; either way the cost
    is linear in the number of lanes.
    """
    if width == 8:
        return int.from_bytes(bytes(values), "little")
    if width % 8 == 0:
        step = width >> 3
        return int.from_bytes(b"".join([v.to_bytes(step, "little") for v in values]), "little")
    digits = {v: format(v, f"0{width}b") for v in set(values)}
    return int("".join(map(digits.__getitem__, reversed(values))) or "0", 2)


def lane_signs(x: int, count: int, width: int) -> tuple[int, int]:
    """(at_least, above): bitmasks of the lanes k < count of x that hold at
    least 2^(width - 1), and more than it.

    width is a multiple of 8, and x has no set bit above lane count - 1. A
    lane holds at least 2^(width - 1) iff its top byte is 0x80 or more, and
    exactly that iff its top byte is 0x80 and every lower byte is zero.
    """
    step = width >> 3
    raw = x.to_bytes(count * step, "little")
    tops = raw[step - 1::step]
    at_least = _mask(tops.translate(_TOP_BIT))
    half = _mask(tops.translate(_HALF))
    if half and step > 1:
        low = 0  # byte k: the OR of lane k's lower bytes
        for j in range(step - 1):
            low |= int.from_bytes(raw[j::step], "little")
        half &= ~_mask(low.to_bytes(count, "little").translate(_NONZERO))
    return at_least, at_least ^ half


# whole-byte lane width -> the struct format of one little-endian lane
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def lane_values(x: int, count: int, width: int):
    """The values of lanes 0..count-1 of x, indexable by lane; width is a
    multiple of 8, and x has no set bit above lane count - 1.

    x is read as little-endian bytes once. At 8, 16, 32 and 64 bits they
    are decoded by one struct format of little-endian items, whatever the
    host's byte order; other widths are sliced lane by lane.
    """
    step = width >> 3
    raw = x.to_bytes(count * step, "little")
    code = _FORMATS.get(width)
    if code is None:
        return [int.from_bytes(raw[k:k + step], "little") for k in range(0, len(raw), step)]
    return unpack(f"<{count}{code}", raw)


def bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
