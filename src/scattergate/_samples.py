"""Sample tables: the array rule, the checks every tabulated grid passes, and its spline."""

from __future__ import annotations

from numbers import Complex, Real

import numpy as np
from scipy.interpolate import CubicSpline


def numbers(values, dtype=float, name=None) -> np.ndarray:
    """values as an array of dtype; a ValueError starting with name refuses
    booleans, strings, uneven nesting and complex entries for float.  Lists
    are read entry by entry, as numpy reads [0, True] as integers."""
    kinds, types = ("iuf", Real) if dtype is float else ("iufc", Complex)
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in kinds
    a = values if numeric else np.asarray(values, dtype=object)
    bad = [] if numeric else [v for v in a.flat if isinstance(v, bool) or not isinstance(v, types)]
    if not bad:
        try:
            return a.astype(dtype, copy=False)
        except OverflowError:  # a Python int beyond the float range
            bad = [max(a.flat, key=abs)]
    kind = "real" if dtype is float else "complex"
    raise ValueError(f"{name + ': ' if name else ''}{bad[0]!r:.40} is not a finite {kind} number")


def checked_grid(grid, min_size: int = 4, name: str = "grid") -> np.ndarray:
    """The grid as a finite, strictly ascending 1-D array of >= min_size points."""
    grid = numbers(grid, float, name)
    if grid.ndim != 1 or grid.size < min_size:
        raise ValueError(f"need a 1-D grid of at least {min_size} samples")
    if not np.all(np.isfinite(grid)):
        raise ValueError("samples must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("sample grid must be strictly ascending")
    return grid


def sample_fields(doc, grid, values, dtype=float, min_size: int = 4):
    """Check the sample fields grid and values of a frozen dataclass; store them back."""
    g = checked_grid(getattr(doc, grid), min_size, grid)
    v = numbers(getattr(doc, values), dtype, values)
    if v.shape != g.shape:
        raise ValueError("need matching 1-D arrays of grid points and values")
    if not np.all(np.isfinite(v)):
        raise ValueError("samples must be finite")
    object.__setattr__(doc, grid, g)
    object.__setattr__(doc, values, v)
    return g, v


class SampleTable:
    """The cubic spline of checked samples, read as zero outside the grid."""

    def __init__(self, grid, values):
        self.grid, self.values = grid, values
        self._spline = CubicSpline(grid, values)

    def __call__(self, x):
        xx = np.asarray(x, dtype=float)
        inside = (xx >= self.grid[0]) & (xx <= self.grid[-1])
        out = np.where(inside, self._spline(xx), 0.0)
        return out if out.ndim else out.item()
