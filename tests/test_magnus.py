"""The Magnus transfer matrix: exact constant steps for any 2x2 generator,
both directions, Liouville's determinant, poles grazing a monodromy loop,
and bounded work on bad or rough generators."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from scattergate import _magnus
from scattergate._magnus import transfer_matrix
from scattergate.direct1d import LorentzianSum, _tilted
from scattergate.errors import NumericalError
from scattergate.fuchsian import CircleLoop, FuchsianSystem, monodromy

# the one-pole residue of the benchmark's monodromy request
ONE_POLE = np.array([[0.21 + 0.1j, 0.3], [-0.12j, -0.05]])


def constant(a):
    return lambda x: tuple(np.asarray(a).ravel())


def schrodinger(g, scale):
    # (y, y'/scale) with y'' + g y = 0
    return lambda x: (0.0, scale, -g(x) / scale, 0.0)


@pytest.mark.parametrize("w", [4.0, -2.25, 0.0])
@pytest.mark.parametrize("shift", [0.0, -0.7])
def test_constant_generator_is_exact(w, shift):
    # (y, y'/scale) with y'' + w y = 0, times e^{shift L}
    L, scale = 3.0, 1.5
    m = transfer_matrix(constant([[shift, scale], [-w / scale, shift]]), 0.0, L, 1e-10, "test")
    om = np.sqrt(complex(w))
    c = np.cos(om * L).real
    s = (L * np.sinc(om * L / np.pi)).real  # sin(om L)/om, L at om = 0
    want = np.exp(shift * L) * np.array([[c, s * scale], [-w * s / scale, c]])
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a", [
    np.array([[0.3, -1.1], [0.8, -0.3]]),
    np.array([[0.2 + 0.4j, 0.9 - 0.3j], [-0.6j, -0.2 - 0.4j]]),
    np.array([[0.25 - 0.3j, 0.7], [-0.5 + 0.2j, -0.4 + 0.6j]]),
], ids=["real", "complex", "non-traceless"])
def test_constant_generator_matches_expm(a):
    L = 2.0
    m = transfer_matrix(constant(a), 0.0, L, 1e-10, "test")
    assert np.iscomplexobj(m) == np.iscomplexobj(a)
    np.testing.assert_allclose(m, expm(L * a), rtol=0, atol=1e-13)


def test_leftward_inverts_rightward():
    def g(x):
        return 1.7 + 3.0 / np.cosh(x - 0.3) ** 2

    right = transfer_matrix(schrodinger(g, 1.3), -6.0, 5.0, 1e-10, "test")
    left = transfer_matrix(schrodinger(g, 1.3), 5.0, -6.0, 1e-10, "test")
    np.testing.assert_allclose(left @ right, np.eye(2), atol=1e-10)
    assert abs(np.linalg.det(right) - 1.0) < 1e-12


def complex_flow(x):
    # every entry varies, none is real, and the trace is not zero
    bump = 1.0 / np.cosh(x - 0.3)
    return (0.4j * bump + 0.1, 1.0 + 0.5j * np.sin(x), -(2.0 + 3.0j * bump ** 2), -0.2 * bump)


def test_leftward_inverts_rightward_complex():
    right = transfer_matrix(complex_flow, -6.0, 5.0, 1e-10, "test")
    left = transfer_matrix(complex_flow, 5.0, -6.0, 1e-10, "test")
    assert np.iscomplexobj(right)
    np.testing.assert_allclose(left @ right, np.eye(2), atol=1e-10)


def test_determinant_is_exp_of_integrated_trace():
    # Liouville: det M = exp(int tr A); here int (0.1 + (0.4i - 0.2) sech(x - 0.3))
    m = transfer_matrix(complex_flow, -6.0, 5.0, 1e-10, "test")
    sech_area = np.arctan(np.sinh(4.7)) - np.arctan(np.sinh(-6.3))
    want = np.exp(0.1 * 11.0 + (0.4j - 0.2) * sech_area)
    assert abs(np.linalg.det(m) / want - 1.0) < 1e-10


@pytest.mark.parametrize("gen", [complex_flow, schrodinger(lambda x: 2.0 + np.sin(3.0 * x), 1.3)],
                         ids=["complex", "schrodinger"])
def test_one_step_has_fifth_order_local_error(gen):
    # the commutator term lifts the step from second to fourth order: halving
    # h must cut the one-step error about 32-fold, not 8-fold
    errs = []
    for h in (0.2, 0.1):
        one = _magnus._steps(gen, 0.3, h, np.zeros(1), np.ones(1), "test")[0]
        errs.append(np.abs(one - transfer_matrix(gen, 0.3, 0.3 + h, 1e-13, "test")).max())
    assert errs[0] / errs[1] > 20.0


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("gap", [1e-4, 1e-5])
def test_monodromy_of_a_pole_grazing_the_circle(gap, inside):
    # the generator peaks like 1/gap where the loop passes the pole
    pole = 0.7 - gap if inside else 0.7 + gap
    system = FuchsianSystem(poles=(pole,), residues=(ONE_POLE,))
    m = monodromy(system, CircleLoop(center=0.0, radius=0.7))
    want = expm(2j * np.pi * ONE_POLE) if inside else np.eye(2)
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("at", [-1.0, 0.37])
def test_non_finite_generator_raises_at_once(at, budget):
    def g(x):
        return np.where(x < at, 1.0, np.nan)

    with pytest.raises(NumericalError, match="test integration failed: generator not finite"):
        transfer_matrix(schrodinger(g, 1.0), -1.0, 1.0, 1e-10, "test")


def test_refinement_budget_bounds_the_intervals(monkeypatch, budget):
    # a rough generator that would need thousands of intervals
    monkeypatch.setattr(_magnus, "_MAX_INTERVALS", 200)
    with pytest.raises(NumericalError, match="more than 200 Magnus intervals"):
        transfer_matrix(schrodinger(lambda x: 1e4 * np.sin(40.0 * x) ** 2, 1.0),
                        0.0, 10.0, 1e-10, "test")


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-10])
def test_rejects_bad_rtol(bad):
    with pytest.raises(ValueError, match="rtol"):
        transfer_matrix(constant(np.eye(2)), 0.0, 1.0, bad, "test")


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
