"""The ODE driver: parity with solve_ivp, and no hang on bad input.

``solve_ivp(..., method="DOP853")`` is kept here as the reference: the
driver must end on exactly its final state.  The hang cases run under a
SIGALRM budget, so a regression fails instead of stalling the suite.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scattergate._ode import integrate
from scattergate.direct1d import PotentialSpec, find_bound_states, solve_scattering
from scattergate.errors import NumericalError
from scattergate.twolevel import (
    LorentzianPulseSum,
    PulseEnvelope,
    PulseSpec,
    RectangularPulse,
    propagate,
    scattering_matrix,
)


def linear_rhs(rng, n, dtype):
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))

    def rhs(t, y):
        return (np.cos(t) * a) @ y

    return rhs


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("span", [(0.0, 3.0), (2.0, -1.5)])
@pytest.mark.parametrize("max_step", [np.inf, 0.05])
def test_bit_for_bit_with_solve_ivp(n, dtype, span, max_step):
    rng = np.random.default_rng(n + 10 * (dtype is complex))
    rhs = linear_rhs(rng, n, dtype)
    y0 = rng.standard_normal(n).astype(dtype)
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=1e-10, atol=1e-12,
                    max_step=max_step).y[:, -1]
    got = integrate(rhs, span, y0, 1e-10, 1e-12, "test", max_step=max_step)
    np.testing.assert_array_equal(got, ref)


def test_state_keeps_the_shape_of_y0():
    def rhs(t, y):
        return (-1j * np.array([[0.0, 1.0], [1.0, 0.0]]) @ y.reshape(2, 2)).ravel()

    u = integrate(rhs, (0.0, 0.5), np.eye(2, dtype=complex), 1e-10, 1e-12, "test")
    assert u.shape == (2, 2)
    np.testing.assert_allclose(u, [[np.cos(0.5), -1j * np.sin(0.5)],
                                   [-1j * np.sin(0.5), np.cos(0.5)]], atol=1e-10)


@pytest.mark.parametrize("pulse", [
    PulseSpec(RectangularPulse(x=1.2741396422353426e-159j, half_width=1.0)),
    PulseSpec(LorentzianPulseSum(terms=((2.0, 7.710184765299076e-160),))),
])
def test_underflowing_error_norm_does_not_fail_the_solve(pulse):
    # derivatives near 1e-160 drive scipy's squared error norms to 0/0
    s = scattering_matrix(pulse)
    np.testing.assert_allclose(s, np.eye(2), atol=1e-150)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-10])
@pytest.mark.parametrize("which", ["rtol", "atol"])
def test_rejects_bad_tolerances(which, bad):
    tols = {"rtol": 1e-10, "atol": 1e-12, which: bad}
    with pytest.raises(ValueError, match=which):
        integrate(lambda t, y: -y, (0.0, 1.0), np.ones(2), tols["rtol"], tols["atol"], "test")


@pytest.mark.parametrize("span", [(0.0, np.inf), (np.nan, 1.0)])
def test_rejects_non_finite_span(span):
    with pytest.raises(ValueError, match="span"):
        integrate(lambda t, y: -y, span, np.ones(2), 1e-10, 1e-12, "test")


def test_nan_start_derivative_raises(budget):
    with pytest.raises(NumericalError, match="test integration failed"):
        integrate(lambda t, y: np.full(2, np.nan), (0.0, 1.0), np.ones(2), 1e-10, 1e-12, "test")


def test_nan_inside_the_span_raises(budget):
    def rhs(t, y):
        return -y if t < 0.5 else np.full(2, np.nan)

    with pytest.raises(NumericalError, match="test integration failed"):
        integrate(rhs, (0.0, 1.0), np.ones(2), 1e-10, 1e-12, "test")


class NanPotential(PotentialSpec):
    @property
    def window(self):
        return (-1.0, 1.0)

    def __call__(self, x):
        out = np.full(np.shape(x), np.nan)
        return out if out.ndim else float(out)


class NanEnvelope(PulseEnvelope):
    @property
    def window(self):
        return (-1.0, 1.0)

    def __call__(self, t):
        out = np.full(np.shape(t), np.nan, dtype=complex)
        return out if out.ndim else complex(out)


@pytest.mark.parametrize("solve", [
    lambda: solve_scattering(NanPotential(), 1.0),
    lambda: find_bound_states(NanPotential(), 1.0),
    lambda: scattering_matrix(PulseSpec(NanEnvelope())),
    lambda: propagate(PulseSpec(NanEnvelope()), 0.5, -2.0, 2.0),
], ids=["solve_scattering", "find_bound_states", "scattering_matrix", "propagate"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_model_raises_instead_of_hanging(solve, budget):
    with pytest.raises(NumericalError, match="integration failed"):
        solve()
