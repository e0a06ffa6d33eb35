"""The one adaptive ODE driver behind every propagator in the package.

``integrate`` steps scipy's DOP853 directly, ending on exactly the state
``solve_ivp(..., method="DOP853").y[:, -1]`` returns, and refuses what would
make scipy's step loop spin forever: a non-finite tolerance or span, or a
non-finite derivative at the start (the first step size is then NaN).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DOP853

from .errors import NumericalError


def integrate(rhs, span, y0, rtol, atol, what, max_step=np.inf):
    """y(t1) for y' = rhs(t, y) over span = (t0, t1), in the shape of y0.

    rhs sees and returns the state flattened.  Raises ValueError for a bad
    tolerance or span, NumericalError naming ``what`` if the solver fails.
    """
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    t0, t1 = map(float, span)
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"{what} integration span ({t0}, {t1}) is not finite")
    y0 = np.asarray(y0)
    solver = DOP853(rhs, t0, y0.ravel(), t1, rtol=rtol, atol=atol, max_step=max_step)
    if not np.all(np.isfinite(solver.f)):
        raise NumericalError(f"{what} integration failed: derivative not finite at t = {t0}")
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise NumericalError(f"{what} integration failed: {message}")
    return solver.y.reshape(y0.shape)
