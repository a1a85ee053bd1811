"""Summation kernels for the oracle layer.

Each kernel sums one elementary closed-form piece per partition cell.
numpy.sum accumulates pairwise, so the telescoping exactness of the discrete
taxicab sums survives million-point partitions.
"""

from __future__ import annotations

import numpy as np


def polyline_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    dx = np.diff(xs)
    df = np.diff(fx)
    return float(np.sum(dx) + np.sum(np.abs(df)))


def frustum_sum(xs: np.ndarray, fx: np.ndarray) -> float:
    dx = np.diff(xs)
    df = np.diff(fx)
    slant = np.sqrt(dx * dx + 0.5 * df * df)
    chord = np.sqrt(dx * dx + df * df)
    terms = 4.0 * (fx[:-1] + fx[1:]) * (dx + np.abs(df)) * slant / chord
    return float(np.sum(terms))


def disk_sum(xs: np.ndarray, fm: np.ndarray) -> float:
    dx = np.diff(xs)
    return float(np.sum(2.0 * fm * fm * dx))
