"""Tests for the Hilbert curve used by the Hilbert packer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.hilbert import hilbert_index, hilbert_key_for, hilbert_keys


def test_order1_visits_four_cells():
    # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
    assert hilbert_index(1, 0, 0) == 0
    assert hilbert_index(1, 0, 1) == 1
    assert hilbert_index(1, 1, 1) == 2
    assert hilbert_index(1, 1, 0) == 3


def test_bijection_order3():
    order = 3
    side = 1 << order
    seen = {hilbert_index(order, x, y) for x in range(side) for y in range(side)}
    assert seen == set(range(side * side))


def test_curve_is_continuous_order4():
    """Consecutive Hilbert indices map to 4-adjacent grid cells."""
    order = 4
    side = 1 << order
    by_d = {}
    for x in range(side):
        for y in range(side):
            by_d[hilbert_index(order, x, y)] = (x, y)
    for d in range(side * side - 1):
        (x1, y1), (x2, y2) = by_d[d], by_d[d + 1]
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_out_of_range_raises():
    with pytest.raises(ValueError):
        hilbert_index(2, 4, 0)
    with pytest.raises(ValueError):
        hilbert_index(2, 0, -1)


def test_key_for_clamps_boundary():
    # fx == 1.0 must clamp into the last cell instead of overflowing.
    assert hilbert_key_for(4, 1.0, 1.0) == hilbert_index(4, 15, 15)
    assert hilbert_key_for(4, 0.0, 0.0) == hilbert_index(4, 0, 0)


def test_key_for_negative_clamps():
    assert hilbert_key_for(4, -0.5, -0.5) == hilbert_index(4, 0, 0)


_UNIT = st.floats(min_value=-0.5, max_value=1.5, allow_nan=False)
#: Cell boundaries and the clamps' edges, where truncation decides.
_EDGES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, -1e-300, 0.5,
     0.5 - 2.0**-54, 3.0 / 65536.0, 65535.0 / 65536.0, 1e300, -1e300]
)


@settings(max_examples=200, deadline=None)
@given(
    order=st.sampled_from([1, 2, 4, 16]),
    coords=st.lists(st.tuples(_UNIT | _EDGES, _UNIT | _EDGES),
                    min_size=1, max_size=40),
)
def test_array_keys_match_scalar_keys(order, coords):
    """The one-pass array keys equal the scalar function's, boundaries,
    clamps and out-of-range inputs included."""
    fx = np.array([c[0] for c in coords])
    fy = np.array([c[1] for c in coords])
    got = hilbert_keys(order, fx, fy)
    assert got.dtype == np.int64
    assert got.tolist() == [hilbert_key_for(order, a, b) for a, b in coords]


def test_array_keys_cover_every_cell():
    order = 3
    side = 1 << order
    cells = [(x, y) for x in range(side) for y in range(side)]
    fx = np.array([(x + 0.5) / side for x, _ in cells])
    fy = np.array([(y + 0.5) / side for _, y in cells])
    assert hilbert_keys(order, fx, fy).tolist() == [
        hilbert_index(order, x, y) for x, y in cells
    ]
