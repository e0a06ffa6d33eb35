"""The Magnus transfer matrix: exact constant steps, both directions, and
bounded work on bad or rough generators."""

import warnings

import numpy as np
import pytest

from scattergate import _magnus
from scattergate._magnus import transfer_matrix
from scattergate.direct1d import LorentzianSum, _tilted
from scattergate.errors import NumericalError


def constant(w):
    return lambda x: np.full(np.shape(x), w)


@pytest.mark.parametrize("w", [4.0, -2.25, 0.0])
@pytest.mark.parametrize("shift", [0.0, -0.7])
def test_constant_generator_is_exact(w, shift):
    # (y, y'/scale) with y'' + w y = 0, times e^{shift L}
    L, scale = 3.0, 1.5
    m = transfer_matrix(constant(w), 0.0, L, 1e-10, "test", scale=scale, shift=shift)
    om = np.sqrt(complex(w))
    c = np.cos(om * L).real
    s = (L * np.sinc(om * L / np.pi)).real  # sin(om L)/om, L at om = 0
    want = np.exp(shift * L) * np.array([[c, s * scale], [-w * s / scale, c]])
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


def test_leftward_inverts_rightward():
    def g(x):
        return 1.7 + 3.0 / np.cosh(x - 0.3) ** 2

    right = transfer_matrix(g, -6.0, 5.0, 1e-10, "test", scale=1.3)
    left = transfer_matrix(g, 5.0, -6.0, 1e-10, "test", scale=1.3)
    np.testing.assert_allclose(left @ right, np.eye(2), atol=1e-10)
    assert abs(np.linalg.det(right) - 1.0) < 1e-12


@pytest.mark.parametrize("at", [-1.0, 0.37])
def test_non_finite_generator_raises_at_once(at, budget):
    def g(x):
        return np.where(x < at, 1.0, np.nan)

    with pytest.raises(NumericalError, match="test integration failed: generator not finite"):
        transfer_matrix(g, -1.0, 1.0, 1e-10, "test")


def test_refinement_budget_bounds_the_intervals(monkeypatch, budget):
    # a rough generator that would need thousands of intervals
    monkeypatch.setattr(_magnus, "_MAX_INTERVALS", 200)
    with pytest.raises(NumericalError, match="more than 200 Magnus intervals"):
        transfer_matrix(lambda x: 1e4 * np.sin(40.0 * x) ** 2, 0.0, 10.0, 1e-10, "test")


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-10])
def test_rejects_bad_rtol(bad):
    with pytest.raises(ValueError, match="rtol"):
        transfer_matrix(constant(1.0), 0.0, 1.0, bad, "test")


@pytest.mark.parametrize("eta", [0.03, 1.0, 3.0])
def test_coarse_tilted_steps_do_not_overflow(eta):
    # the +-14142 window of a weak Lorentzian starts with steps of ~900
    pot = LorentzianSum(pairs=((1.0, 0.01),))
    x0, x1 = pot.window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, chi = _tilted(pot, eta, x0, x1)
        v, u = _tilted(pot, -eta, x1, x0)
    assert np.all(np.isfinite([w, chi, v, u]))
