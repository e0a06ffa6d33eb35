"""The one adaptive ODE driver behind every propagator in the package.

``integrate`` steps scipy's DOP853 directly, ending on exactly the state
``solve_ivp(..., method="DOP853").y[:, -1]`` returns, and refuses what would
make scipy's step loop spin forever: a non-finite tolerance or span, or a
non-finite derivative at the start (the first step size is then NaN).
Its one departure from scipy is an error norm that survives underflow.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DOP853

from .errors import NumericalError


class _DOP853(DOP853):
    """DOP853 whose error norm stays finite when its squares underflow.

    scipy forms |h| e5^2 / sqrt((e5^2 + e3^2 / 100) n).  For derivatives near
    1e-160 (a pulse of amplitude 1e-159, say) e5^2 underflows to 0 while e3^2
    is subnormal, the quotient is 0/0, every step is rejected and the solve
    fails.  The same quantity written with hypot is used then; wherever
    scipy's norm is a number it is returned untouched.
    """

    def _estimate_error_norm(self, K, h, scale):
        with np.errstate(invalid="ignore"):
            norm = super()._estimate_error_norm(K, h, scale)
        if norm == norm:
            return norm
        e5 = np.linalg.norm(K.T @ self.E5 / scale)
        e3 = np.linalg.norm(K.T @ self.E3 / scale)
        return abs(h) * e5 * (e5 / np.hypot(e5, 0.1 * e3)) / np.sqrt(len(scale))


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
    solver = _DOP853(rhs, t0, y0.ravel(), t1, rtol=rtol, atol=atol, max_step=max_step)
    if not np.all(np.isfinite(solver.f)):
        raise NumericalError(f"{what} integration failed: derivative not finite at t = {t0}")
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise NumericalError(f"{what} integration failed: {message}")
    return solver.y.reshape(y0.shape)
