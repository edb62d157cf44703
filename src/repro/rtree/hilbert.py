"""Hilbert space-filling curve, used by the Hilbert-sort R-tree packer."""

from __future__ import annotations

import numpy as np


def hilbert_index(order: int, x: int, y: int) -> int:
    """Distance along the Hilbert curve of a ``2^order x 2^order`` grid.

    ``x`` and ``y`` must lie in ``[0, 2^order)``.  Implements the classic
    bit-twiddling xy->d conversion (Hamilton's / Wikipedia's formulation).
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"coordinates ({x}, {y}) outside {side}x{side} grid")
    rx = ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_key_for(order: int, fx: float, fy: float) -> int:
    """Hilbert index of a point with coordinates normalised to [0, 1].

    Values at the upper boundary are clamped into the grid.
    """
    side = 1 << order
    x = min(int(fx * side), side - 1)
    y = min(int(fy * side), side - 1)
    return hilbert_index(order, max(x, 0), max(y, 0))


def hilbert_keys(order: int, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """:func:`hilbert_key_for` of every row, in one pass over int64 arrays.

    The same steps on whole arrays: each cell coordinate truncated toward
    zero and clamped into ``[0, 2^order)`` (clamping the float first gives
    the same integer and keeps the cast in range), then
    :func:`hilbert_index`'s bit loop with its rotations as ``where``
    selects.  Int64 ``&`` has Python's two's-complement semantics on the
    negative values a rotation can leave, so every key is the scalar one.
    """
    side = 1 << order
    x = np.clip(fx * side, 0, side - 1).astype(np.int64)
    y = np.clip(fy * side, 0, side - 1).astype(np.int64)
    d = np.zeros(x.shape, dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = ~ry & rx
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return d
