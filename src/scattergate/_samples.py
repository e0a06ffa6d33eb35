"""Sample tables: the checks every tabulated grid passes, and its spline."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline


def checked_grid(grid, min_size: int = 4) -> np.ndarray:
    """The grid as a finite, strictly ascending 1-D array of >= min_size points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_size:
        raise ValueError(f"need a 1-D grid of at least {min_size} samples")
    if not np.all(np.isfinite(grid)):
        raise ValueError("samples must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("sample grid must be strictly ascending")
    return grid


def checked_samples(grid, values, dtype=float, min_size: int = 4):
    """(grid, values) as arrays: a checked grid and finite values matching it."""
    grid = checked_grid(grid, min_size)
    values = np.asarray(values, dtype=dtype)
    if values.shape != grid.shape:
        raise ValueError("need matching 1-D arrays of grid points and values")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must be finite")
    return grid, values


class SampleTable:
    """Checked samples and their cubic spline, read as zero outside the grid."""

    def __init__(self, grid, values, dtype=float):
        self.grid, self.values = checked_samples(grid, values, dtype)
        self._spline = CubicSpline(self.grid, self.values)

    def __call__(self, x):
        xx = np.asarray(x, dtype=float)
        inside = (xx >= self.grid[0]) & (xx <= self.grid[-1])
        out = np.where(inside, self._spline(xx), 0.0)
        return out if out.ndim else out.item()
