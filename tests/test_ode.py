"""The ODE propagator under every solver: bad input is refused or raised,
never hung on.

Both public solvers, ``direct1d.solve_scattering`` and
``twolevel.scattering_matrix``, integrate through one adaptive Magnus
transfer matrix (``_magnus.transfer_matrix``).  These tests pin its input
checks and its work budget as seen from those solvers.  The hang cases
run under a SIGALRM budget, so a regression fails instead of stalling the
suite.
"""

import numpy as np
import pytest

from scattergate import _magnus
from scattergate._magnus import transfer_matrix
from scattergate.direct1d import PotentialSpec, solve_scattering
from scattergate.errors import NumericalError
from scattergate.twolevel import (
    PulseEnvelope,
    PulseSpec,
    RectangularPulse,
    TabulatedPulse,
    scattering_matrix,
)


def oscillator(w2):
    # (y, y') with y'' + w2 y = 0
    return lambda x: (0.0, 1.0, -w2, 0.0)


class PartlyNanPotential(PotentialSpec):
    """A square well on (-1, 1) that is NaN from x = nan_from on."""

    def __init__(self, nan_from):
        self.nan_from = nan_from

    @property
    def window(self):
        return (-1.0, 1.0)

    def __call__(self, x):
        out = np.where(np.asarray(x) < self.nan_from, -1.0, np.nan)
        return out if out.ndim else float(out)


class PartlyNanEnvelope(PulseEnvelope):
    """A flat pulse on (-1, 1) that is NaN from t = nan_from on."""

    def __init__(self, nan_from):
        self.nan_from = nan_from

    @property
    def window(self):
        return (-1.0, 1.0)

    def __call__(self, t):
        out = np.where(np.asarray(t) < self.nan_from, 0.5 + 0.0j, np.nan)
        return out if out.ndim else complex(out)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-10])
@pytest.mark.parametrize("which", ["rtol"])
def test_rejects_bad_tolerances(which, bad):
    # every solver hands its tolerance on unchecked; the propagator refuses it
    t = np.linspace(-1.0, 1.0, 5)
    solves = [
        lambda: solve_scattering(PartlyNanPotential(np.inf), 1.0, **{which: bad}),
        lambda: scattering_matrix(PulseSpec(RectangularPulse(x=0.3, half_width=1.0)),
                                  **{which: bad}),
        lambda: scattering_matrix(PulseSpec(TabulatedPulse(t=t, E=np.full(5, 0.3 + 0j))),
                                  **{which: bad}),
    ]
    for solve in solves:
        with pytest.raises(ValueError, match=which):
            solve()


@pytest.mark.parametrize("span", [(0.0, np.inf), (np.nan, 1.0)])
def test_rejects_non_finite_span(span):
    for x_from, x_to in (span, span[::-1]):
        with pytest.raises(ValueError, match=r"test integration span .* is not finite"):
            transfer_matrix(oscillator(1.0), x_from, x_to, 1e-10, "test")


def test_nan_start_derivative_raises(budget):
    # NaN from the left edge, where both solvers start
    with pytest.raises(NumericalError, match=r"scattering \(k = 1.0\) integration failed"):
        solve_scattering(PartlyNanPotential(-np.inf), 1.0)
    with pytest.raises(NumericalError, match="S-matrix integration failed"):
        scattering_matrix(PulseSpec(PartlyNanEnvelope(-np.inf)))


def test_nan_inside_the_span_raises(budget):
    # finite over the first half of the window, so the first steps succeed
    with pytest.raises(NumericalError, match=r"scattering \(k = 1.0\) integration failed"):
        solve_scattering(PartlyNanPotential(0.5), 1.0)
    with pytest.raises(NumericalError, match="S-matrix integration failed"):
        scattering_matrix(PulseSpec(PartlyNanEnvelope(0.5)))


def test_step_budget_ends_a_long_solve(monkeypatch, budget):
    # a fast, chirped oscillator over many periods needs far more than 50
    # intervals; a short span of the plain oscillator still fits in 50
    monkeypatch.setattr(_magnus, "_MAX_INTERVALS", 50)

    def chirped(x):
        return 0.0, 1.0, -1e4 * (1.0 + 0.5 * np.sin(x)), 0.0

    with pytest.raises(NumericalError, match="test integration failed: more than 50 Magnus"):
        transfer_matrix(chirped, 0.0, 100.0, 1e-10, "test")
    y = transfer_matrix(oscillator(1e4), 0.0, 0.01, 1e-10, "test") @ [1.0, 0.0]
    np.testing.assert_allclose(y, [np.cos(1.0), -100.0 * np.sin(1.0)], rtol=1e-8)
