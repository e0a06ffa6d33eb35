"""Property tests: solver outputs keep their group invariants over random
parameters (flux conservation, SU(2), Liouville's determinant formula)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scattergate.direct1d import LorentzianSum, SechSquared, SquareWell, solve_scattering
from scattergate.fuchsian import CircleLoop, FuchsianSystem, monodromy
from scattergate.twolevel import (
    LorentzianPulse,
    LorentzianPulseSum,
    PulseSpec,
    RectangularPulse,
    scattering_matrix,
)

FEW = settings(max_examples=25, deadline=None)

momenta = st.floats(0.2, 5.0)


@FEW
@given(q0=st.floats(-4.0, 4.0), x0=st.floats(-2.0, 2.0), length=st.floats(0.1, 3.0), k=momenta)
def test_square_well_conserves_flux(q0, x0, length, k):
    c = solve_scattering(SquareWell(q0=q0, x0=x0, length=length), k)
    assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= 1e-8


@FEW
@given(eta=st.floats(0.3, 2.0), center=st.floats(-2.0, 2.0), k=momenta)
def test_sech_squared_is_reflectionless(eta, center, k):
    c = solve_scattering(SechSquared(eta=eta, center=center), k)
    assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= 1e-8
    assert abs(c.reflection) <= 1e-6


def assert_su2(s):
    assert np.linalg.norm(s.conj().T @ s - np.eye(2)) <= 1e-8
    assert abs(np.linalg.det(s) - 1.0) <= 1e-8


@FEW
@given(
    terms=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-0.3, 0.3)), min_size=1, max_size=2),
    detuning=st.floats(-1.0, 1.0),
)
def test_lorentzian_sum_smatrix_is_su2(terms, detuning):
    pulse = PulseSpec(LorentzianPulseSum(terms=tuple(terms)), detuning=detuning)
    assert_su2(scattering_matrix(pulse))


@FEW
@given(
    re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0), half_width=st.floats(0.1, 3.0),
    detuning=st.floats(-1.0, 1.0),
)
def test_rectangular_smatrix_is_su2(re, im, half_width, detuning):
    pulse = PulseSpec(RectangularPulse(x=complex(re, im), half_width=half_width), detuning=detuning)
    assert_su2(scattering_matrix(pulse))


@FEW
@given(
    entries=st.lists(st.floats(-0.5, 0.5), min_size=16, max_size=16),
    inside=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    outside=st.tuples(st.floats(1.5, 3.0), st.floats(-1.0, 1.0)),
)
def test_monodromy_determinant_obeys_liouville(entries, inside, outside):
    # det M = exp(2 pi i tr A) for the one pole the unit circle encloses
    e = np.array(entries)
    a_in = (e[0:4] + 1j * e[4:8]).reshape(2, 2)
    a_out = (e[8:12] + 1j * e[12:16]).reshape(2, 2)
    system = FuchsianSystem(poles=(complex(*inside), complex(*outside)), residues=(a_in, a_out))
    m = monodromy(system, CircleLoop(center=0.0, radius=1.0))
    expect = np.exp(2j * np.pi * np.trace(a_in))
    assert abs(np.linalg.det(m) - expect) <= 1e-8 * abs(expect)


@FEW
@given(
    a=st.floats(0.3, 3.0), b=st.floats(-0.3, 0.3),
    detuning=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_lorentzian_pulse_is_the_one_term_sum(a, b, detuning):
    one, sum_ = LorentzianPulse(a, b), LorentzianPulseSum(((a, b),))
    assert one.window == sum_.window
    t = np.linspace(*one.window, 101)
    assert np.asarray(one(t)).tobytes() == np.asarray(sum_(t)).tobytes()
    assert np.asarray(one(0.3)).tobytes() == np.asarray(sum_(0.3)).tobytes()
    s_one = scattering_matrix(PulseSpec(one, detuning=detuning))
    s_sum = scattering_matrix(PulseSpec(sum_, detuning=detuning))
    assert s_one.tobytes() == s_sum.tobytes()


@FEW
@given(pairs=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(-3.0, 3.0)), max_size=3))
def test_lorentzian_potential_and_pulse_share_one_profile(pairs):
    pot, pulse = LorentzianSum(tuple(pairs)), LorentzianPulseSum(tuple(pairs))
    assert pot.window == pulse.window
    t = np.linspace(-20.0, 20.0, 401)
    for x in (t, 0.3):
        q, e = pot(x), pulse(x)
        assert np.array_equal(np.real(e), q) and not np.any(np.imag(e))
