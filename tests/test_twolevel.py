"""Driven two-level system: propagator, S-matrix, dipole-coupled pair.

Oracles: free evolution and constant drives have closed-form propagators;
resonant real envelopes obey the pulse-area formula S = exp(-i area sigma1);
the envelope 2i sech(2t) is the reflectionless unit-eigenvalue pulse with
a(zeta) = (zeta - i)/(zeta + i); the triple-exponential F matrix has the
exact derivative F'(0) = 2i (H(0,0) - H(x,y)).
"""

import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from scattergate import direct1d, twolevel
from scattergate._magnus import transfer_matrix
from scattergate.algebra import SIGMA1, entanglement_verdict, operator_schmidt
from scattergate.codec import from_json
from scattergate.direct1d import PotentialSpec, find_bound_states, solve_scattering
from scattergate.errors import NumericalError
from scattergate.twolevel import (
    DipoleParams,
    LorentzianPulse,
    LorentzianPulseSum,
    PulseEnvelope,
    PulseSpec,
    RectangularPulse,
    TabulatedPulse,
    dipole_hamiltonian,
    f_matrix,
    rect_pulse_smatrix,
    scattering_matrix,
    scattering_scan,
)


def area_gate(theta):
    return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA1


def soliton_pulse(width=5.5, dt=0.05):
    t = np.arange(-width, width + 1e-9, dt)
    return PulseSpec(envelope=TabulatedPulse(t=t, E=2j / np.cosh(2.0 * t)))


class TestEnvelopes:
    def test_lorentzian_shape_and_area(self):
        env = LorentzianPulse(a=1.5, b=0.2)
        assert env(0.0) == pytest.approx(2.0 * 0.2 / 1.5)
        t = np.linspace(*env.window, 400001)
        area = np.trapezoid(env(t).real, t)
        assert area == pytest.approx(2.0 * np.pi * 0.2, rel=1e-4)
        assert abs(env(env.window[1])) <= 1.01e-10

    def test_rectangular_and_tabulated_support(self):
        rect = RectangularPulse(x=0.3 - 0.1j, half_width=2.0)
        assert rect(1.9) == 0.3 - 0.1j
        assert rect(2.1) == 0.0
        t = np.linspace(-1.0, 1.0, 21)
        tab = TabulatedPulse(t=t, E=np.exp(1j * t))
        assert tab(0.35) == pytest.approx(np.exp(0.35j), abs=1e-4)
        assert tab(1.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="^a: -1.0 is not positive$"):
            LorentzianPulse(a=-1.0, b=0.2)
        with pytest.raises(ValueError, match="positive"):
            RectangularPulse(x=1.0, half_width=0.0)
        with pytest.raises(ValueError, match="ascending"):
            TabulatedPulse(t=np.array([0.0, 2.0, 1.0, 3.0]), E=np.zeros(4))
        with pytest.raises(ValueError, match="positive"):
            LorentzianPulseSum(terms=((1.0, 0.1), (-2.0, 0.2)))

    def test_envelope_json_round_trips(self):
        envs = [
            LorentzianPulse(a=1.0, b=0.25),
            LorentzianPulseSum(terms=((1.0, 0.1), (2.0, 0.15))),
            RectangularPulse(x=0.5 + 0.25j, half_width=1.5),
            TabulatedPulse(t=np.linspace(0, 1, 5), E=np.arange(5.0) * (1 + 2j)),
        ]
        for env in envs:
            back = from_json(PulseEnvelope, env.to_json())
            assert type(back) is type(env)
            tt = np.linspace(-0.5, 1.5, 7)
            np.testing.assert_allclose(back(tt), env(tt), atol=1e-12)


class TestPulseSpec:
    def test_auto_window_and_coupling(self):
        # the S-matrix spans the envelope's own window; no field widens it
        assert [f.name for f in dataclasses.fields(PulseSpec)] == ["envelope", "detuning"]
        spec = PulseSpec(envelope=LorentzianPulse(a=1.0, b=0.25), detuning=0.8)
        t = 1.3
        expect = spec.envelope(t) * np.exp(-1j * 0.8 * t)
        assert spec.coupling(t) == pytest.approx(expect, abs=1e-15)

    def test_pulse_json_round_trip(self):
        spec = PulseSpec(envelope=LorentzianPulse(a=2.0, b=0.1), detuning=-0.3)
        back = from_json(PulseSpec, spec.to_json())
        assert back.detuning == spec.detuning
        assert back.envelope.a == 2.0

    def test_accepts_recovered_pulse_document(self):
        doc = {
            "t": [0.0, 0.5, 1.0, 1.5],
            "re_E": [0.0, 0.1, 0.1, 0.0],
            "im_E": [0.0, 0.0, 0.1, 0.0],
        }
        spec = from_json(PulseSpec, doc)
        assert isinstance(spec.envelope, TabulatedPulse)
        assert spec.detuning == 0.0
        assert from_json(PulseSpec, {"variant": "lorentzian", "a": 1.0, "b": 0.0}).detuning == 0.0
        with pytest.raises(ValueError, match="pulse"):
            from_json(PulseSpec, {"bogus": 1})


class TestScatteringMatrix:
    def test_zero_envelope_identity(self):
        spec = PulseSpec(envelope=LorentzianPulse(a=1.0, b=0.0))
        np.testing.assert_allclose(scattering_matrix(spec), np.eye(2), atol=1e-12)

    def test_resonant_lorentzian_quarter(self):
        # area 2 pi 0.25 -> S = -i sigma1
        spec = PulseSpec(envelope=LorentzianPulse(a=1.0, b=0.25))
        s = scattering_matrix(spec)
        np.testing.assert_allclose(s, np.array([[0, -1j], [-1j, 0]]), atol=1e-6)
        assert np.linalg.norm(s.conj().T @ s - np.eye(2)) < 1e-9

    def test_area_formula_generic(self):
        spec = PulseSpec(envelope=LorentzianPulse(a=0.7, b=0.11))
        s = scattering_matrix(spec)
        np.testing.assert_allclose(s, area_gate(2.0 * np.pi * 0.11), atol=1e-7)

    def test_equal_area_invariance(self):
        specs = [
            PulseSpec(envelope=LorentzianPulse(a=1.0, b=0.25)),
            PulseSpec(envelope=LorentzianPulse(a=2.5, b=0.25)),
            PulseSpec(envelope=RectangularPulse(x=np.pi / 8.0, half_width=2.0)),
        ]
        mats = [scattering_matrix(sp) for sp in specs]
        for s in mats[1:]:
            np.testing.assert_allclose(s, mats[0], atol=1e-6)

    def test_resonant_sum_product(self):
        spec = PulseSpec(envelope=LorentzianPulseSum(terms=((1.0, 0.1), (2.0, 0.15))))
        s = scattering_matrix(spec)
        np.testing.assert_allclose(s, area_gate(2.0 * np.pi * 0.25), atol=1e-6)
        parts = [
            scattering_matrix(PulseSpec(envelope=LorentzianPulse(a=a, b=b)))
            for a, b in spec.envelope.terms
        ]
        np.testing.assert_allclose(parts[0] @ parts[1], s, atol=1e-6)

    def test_off_resonance_tail_consistency(self, monkeypatch):
        # the Magnus tail correction must shrink with the cutoff
        spec = PulseSpec(envelope=LorentzianPulse(a=1.0, b=0.2), detuning=3.0)

        def at_cut(cut):
            monkeypatch.setattr(direct1d, "_TAIL_CUT", cut)
            return scattering_matrix(spec)

        s5, s6, s7 = at_cut(1e-5), at_cut(1e-6), at_cut(1e-7)
        d56 = np.max(np.abs(s5 - s6))
        d67 = np.max(np.abs(s6 - s7))
        assert d56 < 2e-5
        assert d67 < 0.4 * d56 + 1e-8

    @pytest.mark.parametrize("delta", [5e-324, -5e-324, 1e-310, 1e-300])
    def test_tiny_detuning_is_resonant(self, delta):
        # at 5e-324 delta a and delta T are subnormal and E1 keeps almost no
        # digits; the true moment moves by pi a b |delta|, far below 1e-300
        resonant = scattering_matrix(PulseSpec(LorentzianPulse(1.0, 0.25)))
        s = scattering_matrix(PulseSpec(LorentzianPulse(1.0, 0.25), detuning=delta))
        assert np.max(np.abs(s - resonant)) <= 1e-15

    @pytest.mark.parametrize("delta", [1e200, -1e200])
    def test_tail_moments_at_huge_detuning(self, delta):
        # e^{delta a} overflows: the scaled e^z E1(z) takes its large-|z| series
        t_core, right, left = direct1d._lorentzian_tails(((1.0, 0.25),), delta)
        assert np.isfinite(t_core) and t_core > 0
        assert np.isfinite(right) and np.isfinite(left)
        assert abs(right) < 1e-200 and abs(left) < 1e-200

    @pytest.mark.parametrize("delta", [1e-5, -1e-4, 1e-3, -1e-2, 0.1])
    def test_lorentzian_tails_against_quadrature(self, delta, monkeypatch, budget):
        # reference: the same core on |t| <= 8000 between tail moments that
        # quad integrates with Fourier weights (left = conj(right), E is real)
        a, b, cut = 1.0, 0.25, 8000.0
        pulse = PulseSpec(envelope=LorentzianPulse(a=a, b=b), detuning=delta)
        s = scattering_matrix(pulse)
        env = lambda t: 2.0 * a * b / (t * t + a * a)
        cos = quad(env, cut, np.inf, weight="cos", wvar=abs(delta))[0]
        sin = quad(env, cut, np.inf, weight="sin", wvar=abs(delta))[0]
        right = complex(cos, -np.sign(delta) * sin)
        monkeypatch.setattr(twolevel, "_lorentzian_tails",
                            lambda terms, d: (cut, right, np.conj(right)))
        np.testing.assert_allclose(s, scattering_matrix(pulse), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("delta", [1e-3, 0.5])
    def test_left_tail_is_the_conjugate_of_the_right(self, delta):
        # |z| is 3 at delta = 1e-3, below the switch of s(z) = e^z E1(z) to its
        # series, and 1500 at delta = 0.5, above it
        _, right, left = direct1d._lorentzian_tails(((1.0, 0.25), (2.0, -0.1)), delta)
        assert left == np.conj(right) and abs(right) > 0

    @pytest.mark.parametrize("delta", [1e-3, 0.5, -2.0, 3.0])
    def test_tail_moments_against_quad(self, delta):
        terms = ((1.0, 0.25), (2.0, -0.1))
        cut, right, _ = direct1d._lorentzian_tails(terms, delta)

        def env(t):
            return sum(2.0 * a * b / (t * t + a * a) for a, b in terms)

        cos, sin = (quad(env, cut, np.inf, weight=w, wvar=abs(delta), epsabs=1e-17,
                         epsrel=1e-13, limlst=100)[0] for w in ("cos", "sin"))
        assert abs(right - complex(cos, -np.sign(delta) * sin)) <= 1e-15

    @pytest.mark.parametrize("modulus", [1.0, 30.0, 599.0, 601.0, 5e3, 1e6])
    @pytest.mark.parametrize("angle", [-1.65, -1.5, 1.5, 1.65])
    def test_scaled_e1_against_mpmath(self, modulus, angle):
        # both signs of Re z and of Im z, on both sides of the switch at |z| = 600
        z = modulus * np.exp(1j * angle)
        with mpmath.workdps(40):
            want = complex(mpmath.exp(z) * mpmath.expint(1, z))
        assert abs(direct1d._scaled_e1(z) - want) <= 2e-14 * abs(want)

    @pytest.mark.parametrize("b, delta", [(1e-20, 1.0), (1e-12, 0.5), (1e-9, 0.5)])
    def test_weak_pulse_is_right_in_relative_terms(self, b, delta, budget):
        # first order: S[1, 0] = -2 pi i b e^{-|delta| a}
        s = scattering_matrix(PulseSpec(LorentzianPulse(a=1.0, b=b), detuning=delta))
        want = -2j * np.pi * b * np.exp(-abs(delta))
        assert abs(s[1, 0] - want) <= 1e-6 * abs(want)

    def test_wide_pulse_answers(self, monkeypatch, budget):
        # a^2 / b = 1e14: e^{delta a} = e^1000 would overflow an unscaled moment
        pulse = PulseSpec(envelope=LorentzianPulse(a=1e6, b=1e-2), detuning=1e-3)
        s = scattering_matrix(pulse)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), rtol=0, atol=1e-12)
        assert abs(np.linalg.det(s) - 1.0) <= 1e-12
        # the same S from a core of 200 widths
        monkeypatch.setattr(direct1d, "_TAIL_CUT", 2e4 / 2e8**2)
        assert direct1d._lorentzian_tails(pulse.envelope.terms, 1e-3)[0] == pytest.approx(2e8)
        np.testing.assert_allclose(s, scattering_matrix(pulse), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_leftward_half_is_the_conjugate(self, seed):
        rng = np.random.default_rng(seed)
        terms = tuple(zip(rng.uniform(0.1, 3.0, 3), rng.uniform(-0.5, 0.5, 3)))
        delta = rng.uniform(-3.0, 3.0)
        env = LorentzianPulseSum(terms)
        cut = direct1d._lorentzian_tails(terms, delta)[0]

        def gen(t):
            e = env(t)
            return 0.5j * delta, -1j * e, -1j * np.conj(e), -0.5j * delta

        y = transfer_matrix(gen, 0.0, cut, 1e-11, "right half")
        left = transfer_matrix(gen, 0.0, -cut, 1e-11, "left half")
        assert np.max(np.abs(left - np.conj(y))) <= 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("a, b, delta", [(1.0, 0.25, -1.0), (2.0, 0.5, -2.0)])
    def test_joined_halves_stay_unitary(self, a, b, delta):
        # the propagated half's det Y - 1 (2.7e-14 for the first case) would
        # pass into S through the adjugate join; Y over sqrt(det Y) keeps it out
        s = scattering_matrix(PulseSpec(LorentzianPulse(a, b), detuning=delta))
        assert np.linalg.norm(s.conj().T @ s - np.eye(2)) <= 3e-14
        assert abs(np.linalg.det(s) - 1.0) <= 2e-15

    def test_one_half_per_solve(self, monkeypatch):
        calls = []

        def spy(gen, x_from, x_to, *args):
            calls.append((x_from, x_to))
            return transfer_matrix(gen, x_from, x_to, *args)

        monkeypatch.setattr(twolevel, "transfer_matrix", spy)
        terms = ((1.0, 0.25), (0.3, -0.1))
        scattering_matrix(PulseSpec(LorentzianPulseSum(terms), detuning=0.7))
        assert calls == [(0.0, direct1d._lorentzian_tails(terms, 0.7)[0])]

    def test_soliton_pulse_is_reflectionless(self):
        s = scattering_matrix(soliton_pulse())
        np.testing.assert_allclose(s, -np.eye(2), atol=5e-4)

    def test_soliton_transmission_scan(self):
        # a(zeta) = (zeta - i)/(zeta + i); the scan probes zeta = -detuning/2
        zetas = np.linspace(-3.0, 3.0, 13)
        mats = scattering_scan(soliton_pulse(), -2.0 * zetas)
        a = mats[:, 0, 0]
        expect = (zetas - 1j) / (zetas + 1j)
        np.testing.assert_allclose(a, expect, atol=2e-4)
        assert np.max(np.abs(mats[:, 1, 0])) < 2e-4
        fit = minimize_scalar(
            lambda eta: np.sum(
                np.abs(a - (zetas - 1j * eta) / (zetas + 1j * eta)) ** 2
            ),
            bounds=(0.3, 3.0),
            method="bounded",
        )
        assert abs(fit.x - 1.0) < 1e-3


# (S[0, 0], S[1, 0]) of Lorentzian pulses, keyed by (terms, detuning), from
# scipy's DOP853 on the interaction picture, an integrator independent of the
# Magnus step, at rtol 1e-13 and atol 1e-13 on |t| <= T, with no step cap,
# between the same tail factors.  Up to 45 s a point, so pinned.
DOP853_REFERENCE = {
    (((1e-12, 0.25),), 0.7): (7.495302451499021e-13 + 1.967316252595295e-11j,
                              -1.3062522172506429e-24 - 0.999999999999983j),
    (((1e-12, -1.3),), 0.7): (-0.30901699436996066 + 9.245547815887204e-11j,
                              -7.528228008269682e-19 + 0.9510565162967066j),
    (((1e-9, 0.25),), 0.7): (1.0992567616889051e-09 + 1.4837111016464145e-08j,
                             -7.477369755916089e-22 - 0.9999999999999833j),
    (((1e-9, -1.3),), 0.7): (-0.30901698893751517 + 6.854243373918326e-08j,
                             -1.4983568514558075e-17 + 0.9510565180618125j),
    (((1e-6, 0.25),), 0.7): (1.0995571486602048e-06 + 1.0001681913886504e-05j,
                             -4.950393419708612e-19 - 0.9999999999493617j),
    (((1e-6, -1.3),), 0.7): (-0.30901155651070766 + 4.462884975188024e-05j,
                             -5.059324039615559e-16 + 0.9510582820999816j),
    (((1.0, 0.25),), 0.7): (0.7001833312240126 + 0.4033532497288197j,
                            1.3387701358095055e-14 - 0.5891090379626058j),
    (((1.0, -1.3),), 0.7): (0.4941138163132856 - 0.8581894680306373j,
                            -4.04391092972567e-15 + 0.1391487459143665j),
    (((1e3, 0.25),), 0.7): (0.9999998426403522 + 0.0005609983788622927j,
                            -9.505607443651035e-15 - 1.7964014916543047e-15j),
    (((1e3, -1.3),), 0.7): (0.999884948561732 + 0.01516870592064655j,
                            -1.5260443219753943e-15 - 2.0396460296490885e-14j),
    (((1e-3, 0.2), (10.0, -0.3)), 0.7): (0.32350545728486096 - 0.13932343595740954j,
                                         2.2797428054266275e-14 - 0.9359130297735251j),
    # the forward benchmark's pulse
    (((1.0, 0.25),), 0.0): (-1.638854256698728e-13 + 0j, -0.9999999999999823j),
    (((1.0, 0.25),), 1.0): (0.8210543515575539 + 0.3550537228184119j,
                            1.9927877862294715e-14 - 0.4469973218053785j),
    (((1.0, 0.25),), -1.0): (0.8210543515575539 - 0.3550537228184119j,
                             -1.9927877862294715e-14 - 0.4469973218053785j),
    (((1.0, 0.25),), 2.0): (0.9626990052274506 + 0.2091017118482437j,
                            3.523033897887472e-16 - 0.17171808127327676j),
    (((1.0, 0.25),), -2.0): (0.9626990052274506 - 0.2091017118482437j,
                             -3.523033897887472e-16 - 0.17171808127327676j),
    (((1.0, 0.25),), 6.0): (0.9978077983132269 + 0.06609552693560462j,
                            -1.3193280003808335e-15 - 0.003313449012252824j),
    (((1.0, 0.25),), 40.0): (0.9999517882117576 + 0.009819432368259802j,
                             -1.0765693491146077e-15 - 3.8707010350105914e-15j),
}


class TestTabulatedPulse:
    """Tables step on the rotating-frame Magnus propagator from their knots."""

    def test_sech_table_is_quintic_accurate(self):
        # the cubic spline of these 961 samples was off by 3.0e-7
        t = np.linspace(-14.0, 14.0, 961)
        table = TabulatedPulse(t=t, E=2.0 / np.cosh(2.0 * t))
        tq = np.linspace(-14.0, 14.0, 100001)
        assert np.max(np.abs(table(tq) - 2.0 / np.cosh(2.0 * tq))) <= 1e-9

    def test_tabulated_soliton_scan_is_reflectionless(self):
        # a(zeta) = (zeta - i)/(zeta + i), b = 0; the cubic spline read |b| = 2.7e-8
        t = np.linspace(-14.0, 14.0, 961)
        zetas = np.linspace(-1.0, 1.0, 9)
        mats = scattering_scan(PulseSpec(TabulatedPulse(t=t, E=2.0 / np.cosh(2.0 * t))),
                               -2.0 * zetas)
        assert np.max(np.abs(mats[:, 1, 0])) <= 1e-10
        np.testing.assert_allclose(mats[:, 0, 0], (zetas - 1j) / (zetas + 1j), rtol=0, atol=1e-9)

    def test_pulse_in_a_wide_table_is_not_stepped_over(self, budget):
        # a step from the zero tail once crossed the whole pulse: S = I here
        def spec(half_width, n):
            t = np.linspace(-half_width, half_width, n)
            e = np.exp(-2.0 * np.abs(t - 0.37))
            return PulseSpec(TabulatedPulse(t=t, E=e / (1.0 + e * e)), detuning=0.3)

        wide, near = scattering_matrix(spec(1000.0, 20001)), scattering_matrix(spec(10.0, 2001))
        assert abs(near[1, 0]) == pytest.approx(0.687923, abs=1e-6)
        np.testing.assert_allclose(wide, near, rtol=0, atol=1e-8)

    def test_narrow_bump_rings_into_no_first_interval(self, budget):
        # E = 1 on three samples; with knots at the nonzero samples alone
        # the spline's ringing was stepped over: a = 0.952051 + 0.005012i
        def a(half_width, n):
            t = np.linspace(-half_width, half_width, n)
            bump = TabulatedPulse(t=t, E=np.where(np.abs(t - 0.4) < 0.15, 1.0 + 0j, 0.0))
            return scattering_matrix(PulseSpec(bump, detuning=1.0))[0, 0]  # zeta = -0.5

        near = a(10.0, 201)
        assert abs(near - (0.955633166597797 + 0.004218545006101j)) <= 1e-12
        assert abs(a(1000.0, 20001) - near) <= 1e-10

    @pytest.mark.parametrize("envelope", [
        RectangularPulse(x=1.2741396422353426e-159j, half_width=1.0),
        LorentzianPulseSum(terms=((2.0, 7.710184765299076e-160),)),
        TabulatedPulse(t=np.linspace(-1.0, 1.0, 5), E=np.full(5, 1e-159j)),
    ], ids=["rectangular", "lorentzian_sum", "tabulated"])
    def test_underflowing_coupling_gives_identity(self, envelope):
        # h^2 |E|^2 underflows in the Magnus step at this size
        np.testing.assert_allclose(scattering_matrix(PulseSpec(envelope)), np.eye(2), atol=1e-150)


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
], ids=["solve_scattering", "find_bound_states", "scattering_matrix"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_model_raises_instead_of_hanging(solve, budget):
    with pytest.raises(NumericalError, match="integration failed"):
        solve()


def ab_error(terms, delta):
    s = scattering_matrix(PulseSpec(LorentzianPulseSum(terms), detuning=delta))
    if delta == 0.0 and (terms, delta) not in DOP853_REFERENCE:
        # real envelope on resonance: the pulse-area formula
        want = area_gate(2.0 * np.pi * sum(b for _, b in terms))[:, 0]
    else:
        want = DOP853_REFERENCE[terms, delta]
    return np.max(np.abs(s[:, 0] - want))


class TestRotatingFrame:
    """The Magnus step in the rotating frame, against DOP853 and closed forms."""

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("b", [0.25, -1.3])
    @pytest.mark.parametrize("a", [1e-12, 1e-9, 1e-6, 1.0, 1e3])
    def test_narrow_and_wide_lorentzians(self, a, b, delta, budget):
        # worst 3.5e-12; at a = 1e-12 a span through the peak at t = 0 errs by
        # 2.6e-8, and two spans that end there by 5e-9
        assert ab_error(((a, b),), delta) <= 1e-10

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_lorentzians_of_two_widths(self, delta, budget):
        assert ab_error(((1e-3, 0.2), (10.0, -0.3)), delta) <= 1e-10

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, 2.0, -2.0, 6.0, 40.0])
    def test_benchmark_pulse_against_dop853(self, delta, budget):
        # DOP853 at its default rtol 1e-11 is itself off by up to 4.7e-13 here
        assert ab_error(((1.0, 0.25),), delta) <= 1e-10

    @pytest.mark.parametrize("delta", [0.0, 0.7, -3.0, 25.0])
    def test_rectangular_pulse_is_exact(self, delta):
        # S = D(T)^{-1} e^{-2iT K} D(-T), K = [[-delta/2, x], [conj x, delta/2]];
        # the step is exact where E is constant
        x, t = 0.3 - 0.1j, 2.0
        s = scattering_matrix(PulseSpec(RectangularPulse(x=x, half_width=t), detuning=delta))
        d = np.diag(np.exp([-0.5j * delta * t, 0.5j * delta * t]))
        k = np.array([[-delta / 2.0, x], [np.conj(x), delta / 2.0]])
        np.testing.assert_allclose(s, d @ expm(-2j * t * k) @ d, rtol=0, atol=1e-13)


def generic_params(**kw):
    base = dict(
        d_A=0.8 + 0.3j,
        d_B=1.1 - 0.2j,
        W_plus_A=1.0,
        W_minus_A=-0.3,
        W_plus_B=0.7,
        W_minus_B=-0.5,
        x=0.2 + 0.1j,
        y=0.6,
        T=1.0,
    )
    base.update(kw)
    return DipoleParams(**base)


class TestDipolePair:
    def test_bare_levels_diagonal(self):
        p = generic_params()
        h = dipole_hamiltonian(p, 0.0, 0.0)
        np.testing.assert_allclose(h, np.diag([1.7, 0.5, 0.4, -0.8]), atol=1e-14)

    def test_entries_against_tensor_form(self):
        p = generic_params()
        h = dipole_hamiltonian(p, p.x, p.y)
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        assert h[0, 3] == pytest.approx(p.y * p.d_A * p.d_B, abs=1e-14)
        assert h[0, 1] == pytest.approx(p.x * p.d_B, abs=1e-14)
        assert h[0, 2] == pytest.approx(p.x * p.d_A, abs=1e-14)
        assert h[1, 2] == pytest.approx(p.y * p.d_A * np.conj(p.d_B), abs=1e-14)

    def test_uncoupled_evolution_is_product(self):
        p = generic_params(y=0.0)
        h = dipole_hamiltonian(p, p.x, 0.0)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * 1.3 * w)) @ v.conj().T
        s = operator_schmidt(u).coefficients
        assert s[1] <= 1e-9

    def test_f_matrix_trivial_and_unitary(self):
        p = generic_params(x=0.0, y=0.0)
        np.testing.assert_allclose(f_matrix(p), np.eye(4), atol=1e-12)
        f = f_matrix(generic_params())
        np.testing.assert_allclose(f.conj().T @ f, np.eye(4), atol=1e-12)

    def test_derivative_at_zero_duration(self):
        # second-order forward stencil; T > 0 is a type invariant so the
        # central form is not available
        p = generic_params()
        h = 1e-4
        f1 = f_matrix(dataclasses.replace(p, T=h))
        f2 = f_matrix(dataclasses.replace(p, T=2.0 * h))
        fd = (4.0 * f1 - f2 - 3.0 * np.eye(4)) / (2.0 * h)
        expect = 2j * (dipole_hamiltonian(p, 0.0, 0.0) - dipole_hamiltonian(p, p.x, p.y))
        assert np.max(np.abs(fd - expect)) < 1e-5

    def test_rect_drive_matches_f_matrix(self):
        p = generic_params()
        np.testing.assert_allclose(rect_pulse_smatrix(p), f_matrix(p), atol=1e-8)

    def test_entanglement_verdicts(self):
        assert entanglement_verdict(f_matrix(generic_params())) == "entangling"
        assert entanglement_verdict(f_matrix(generic_params(y=0.0))) == "product"

    def test_entanglement_is_stable_under_small_drive_changes(self):
        p = generic_params()
        s2 = operator_schmidt(f_matrix(p)).coefficients[1]
        rng = np.random.default_rng(3)
        for _ in range(4):
            dx, dy = rng.uniform(-1e-3, 1e-3, size=2)
            q = dataclasses.replace(p, x=p.x + dx, y=p.y + dy)
            s2p = operator_schmidt(f_matrix(q)).coefficients[1]
            assert abs(s2p - s2) <= 1e-2
            assert s2p > 1e-3

    def test_overflowing_phase_is_refused_without_warnings(self):
        # T w = 2e308 is past the float range: the exponential would be NaN
        p = generic_params(d_A=1.0, d_B=0.5, W_plus_A=1e308, W_minus_A=-1e308,
                           W_plus_B=0.5, W_minus_B=-0.5, x=0.25, y=0.5, T=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="phases T w of the pair Hamiltonian overflow"):
                f_matrix(p)

    @pytest.mark.parametrize("T", [1e16, 1e300])
    def test_phase_past_one_over_eps_is_refused(self, T):
        # T max|w| = 1.96 T: past 1/eps rounding alone moves a phase by a
        # radian, so a verdict would be noise; 1e15 still answers
        f_matrix(generic_params(T=1e15))
        with pytest.raises(NumericalError, match="past 1/eps"):
            f_matrix(generic_params(T=T))

    def test_params_validation_and_json(self):
        with pytest.raises(ValueError, match="positive"):
            generic_params(T=0.0)
        p = generic_params()
        back = from_json(DipoleParams, p.to_json())
        assert back == p
