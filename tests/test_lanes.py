"""lanes: the byte-level lane reads and packing against per-lane references."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clawpoly.lanes import byte_width, lane_signs, lane_values, pack_lanes


@st.composite
def signed_lanes(draw):
    """(lanes, width): whole-byte lanes crowded around 2^(width - 1), the
    value lane_signs compares with, and at the ends of the lane."""
    width = draw(st.sampled_from(range(8, 65, 8)))
    half = 1 << (width - 1)
    edges = [0, half - 1, half, half + 1, (1 << width) - 1]
    # top byte 0x80 and one nonzero lower byte: above half, not tight on it
    near_half = st.integers(0, width // 8 - 2).map(lambda j: half + (1 << 8 * j))
    value = st.one_of(
        st.sampled_from(edges),
        near_half if width > 8 else st.nothing(),
        st.integers(0, (1 << width) - 1),
    )
    return draw(st.lists(value, max_size=40)), width


@given(signed_lanes())
@example(([1 << 15 | 1 << 8], 16))
def test_lane_signs_matches_per_lane_reference(case):
    lanes, width = case
    half = 1 << (width - 1)
    x = sum(v << k * width for k, v in enumerate(lanes))
    at_least = sum(1 << k for k, v in enumerate(lanes) if v >= half)
    above = sum(1 << k for k, v in enumerate(lanes) if v > half)
    assert lane_signs(x, len(lanes), width) == (at_least, above)


@st.composite
def packed_lanes(draw):
    width = draw(st.integers(1, 64))
    values = st.one_of(st.sampled_from([0, (1 << width) - 1]), st.integers(0, (1 << width) - 1))
    return draw(st.lists(values, max_size=40)), width


@given(packed_lanes())
@example(([], 8))
@example(([], 5))
def test_pack_lanes_matches_shifted_sum(case):
    values, width = case
    assert pack_lanes(values, width) == sum(v << k * width for k, v in enumerate(values))


@st.composite
def whole_byte_lanes(draw):
    """(lanes, width) at every whole-byte width to 136 bits: the struct
    reads at 8, 16, 32 and 64 bits and the byte slicing at the others."""
    width = draw(st.sampled_from(range(8, 137, 8)))
    value = st.one_of(st.sampled_from([0, 1, 1 << (width - 1), (1 << width) - 1]),
                      st.integers(0, (1 << width) - 1))
    return draw(st.lists(value, max_size=40)), width


@given(whole_byte_lanes())
@example(([], 16))
@example(([], 24))
@example(([1, 0, 0], 64))
def test_lane_values_matches_per_lane_reference(case):
    lanes, width = case
    x = sum(v << k * width for k, v in enumerate(lanes))
    got = lane_values(x, len(lanes), width)
    assert list(got) == lanes
    assert [got[k] for k in reversed(range(len(lanes)))] == lanes[::-1]


@pytest.mark.parametrize(
    "reach, width", [(0, 8), (127, 8), (128, 16), ((1 << 15) - 1, 16), (1 << 15, 24)],
)
def test_byte_width_keeps_every_lane_in_range(reach, width):
    # the least whole-byte width with 2^(width - 1) - reach >= 1 and
    # 2^(width - 1) + reach < 2^width
    assert byte_width(reach) == width
    half = 1 << (width - 1)
    assert 1 <= half - reach and half + reach < 1 << width
    assert width == 8 or reach >= 1 << (width - 9)
