"""Summation kernels for the oracle layer.

Each kernel takes one block of a partition, its nodes xs and its profile
values, and writes the summands of one elementary closed-form piece per cell
into out, a slice of the buffer that holds every cell of the partition.  The
oracle then sums that buffer with one numpy.sum, which accumulates pairwise:
the telescoping exactness of the discrete taxicab sums survives
million-point partitions, and the total does not depend on the block size.
"""

from __future__ import annotations

import numpy as np


def polyline_sum(xs: np.ndarray, fx: np.ndarray, out: np.ndarray) -> None:
    """out[0] = dx and out[1] = |df| per cell."""
    np.subtract(xs[1:], xs[:-1], out=out[0])
    np.subtract(fx[1:], fx[:-1], out=out[1])
    np.abs(out[1], out=out[1])


def frustum_sum(xs: np.ndarray, fx: np.ndarray, out: np.ndarray) -> None:
    """out = 4 (f0 + f1)(dx + |df|) sqrt(dx^2 + df^2/2) / sqrt(dx^2 + df^2) per cell."""
    dx = xs[1:] - xs[:-1]
    df = fx[1:] - fx[:-1]
    slant = np.sqrt(dx * dx + 0.5 * df * df)
    chord = np.sqrt(dx * dx + df * df)
    np.multiply(4.0 * (fx[:-1] + fx[1:]) * (dx + np.abs(df)), slant, out=out)
    np.divide(out, chord, out=out)


def disk_sum(xs: np.ndarray, fm: np.ndarray, out: np.ndarray) -> None:
    """out = 2 f(mid)^2 dx per cell, from the midpoint values fm."""
    np.multiply(2.0 * fm * fm, xs[1:] - xs[:-1], out=out)
