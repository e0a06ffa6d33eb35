"""Sample tables: the array rule, grid checks, the spline and the base of tabulated profiles."""

from __future__ import annotations

import dataclasses
from math import factorial
from numbers import Complex, Real

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline

# |value| below this is zero: it bounds every support window
FLOOR = 1e-10


def numbers(values, dtype=float, name=None) -> np.ndarray:
    """values as an array of dtype; a ValueError starting with name refuses
    NaN, ±inf, booleans, strings, uneven nesting and complex entries for
    float.  Lists are read entry by entry, as numpy reads [0, True] as ints."""
    kinds, types = ("iuf", Real) if dtype is float else ("iufc", Complex)
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in kinds
    a = values if numeric else np.asarray(values, dtype=object)
    bad = [] if numeric else [v for v in a.flat if isinstance(v, bool) or not isinstance(v, types)]
    if not bad:
        try:
            out = a.astype(dtype, copy=False)
            bad = out[~np.isfinite(out)].tolist()
        except OverflowError:  # a Python int beyond the float range
            bad = [max(a.flat, key=abs)]
        if not bad:
            return out
    kind = "real" if dtype is float else "complex"
    raise ValueError(f"{name + ': ' if name else ''}{bad[0]!r:.40} is not a finite {kind} number")


def checked_grid(grid, name: str, min_size: int = 4) -> np.ndarray:
    """The grid as a finite, strictly ascending 1-D array of >= min_size points."""
    grid = numbers(grid, float, name)
    if grid.ndim != 1 or grid.size < min_size:
        raise ValueError(f"need a 1-D grid of at least {min_size} samples")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("sample grid must be strictly ascending")
    return grid


def sample_fields(doc, grid, values, dtype=float, min_size: int = 4):
    """Check the sample fields grid and values of a frozen dataclass; store them back."""
    g = checked_grid(getattr(doc, grid), grid, min_size)
    v = numbers(getattr(doc, values), dtype, values)
    if v.shape != g.shape:
        raise ValueError("need matching 1-D arrays of grid points and values")
    object.__setattr__(doc, grid, g)
    object.__setattr__(doc, values, v)
    return g, v


class SampleTable:
    """The not-a-knot interpolating spline of checked samples, of degree
    min(5, n - 1), read as zero outside the grid.

    Its error falls like h^6 (de Boor, A Practical Guide to Splines), at the
    price of more ringing next to a jump than a cubic's.  It is held as PPoly
    pieces in powers of x - x_i, one per sample interval, each exact at its
    own sample.  The knots, where a propagator starts, are the ends of every
    piece whose bound sum_m |c_m| h^m on |p| reaches FLOOR, so the ringing
    past a jump, which outlasts its nonzero samples by about 25 samples on
    each side, is never crossed by one first-round interval.
    """

    def __init__(self, grid, values):
        self.grid, self.values = grid, values
        k = min(5, grid.size - 1)
        # no interior knot at the k // 2 samples next to each end
        t = np.r_[(grid[0],) * (k + 1), grid[3:-3], (grid[-1],) * (k + 1)]
        spline = make_interp_spline(grid, values, k, t)
        c = [spline(grid[:-1], nu=m) / factorial(m) for m in range(k, -1, -1)]
        self._spline = PPoly(np.array(c), grid, extrapolate=False)
        h, bound = np.diff(grid), 0.0
        for c_m in self._spline.c:  # sum_m |c_m| h^m by Horner's rule
            bound = bound * h + np.abs(c_m)
        hot = bound >= FLOOR
        self.knots = grid[np.r_[hot, False] | np.r_[False, hot]]

    def __call__(self, x):
        xx = np.asarray(x, dtype=float)
        inside = (xx >= self.grid[0]) & (xx <= self.grid[-1])
        out = np.where(inside, self._spline(xx), 0.0)
        return out if out.ndim else out.item()


class SampledProfile:
    """Base of the sample-table profiles (a potential, a pulse envelope): the
    SampleTable of the first two fields, grid and values of the subclass's
    dtype, gives the window (the grid's ends, as the table is zero beyond),
    the values at any points and the knots where a propagation starts."""

    dtype = float

    def _check(self):
        grid, values = (f.name for f in dataclasses.fields(self)[:2])
        table = SampleTable(*sample_fields(self, grid, values, self.dtype))
        object.__setattr__(self, "_table", table)

    @property
    def window(self) -> tuple[float, float]:
        return (float(self._table.grid[0]), float(self._table.grid[-1]))

    @property
    def knots(self) -> np.ndarray:
        return self._table.knots

    def __call__(self, x):
        return self._table(x)
