"""Driven two-level system: propagator, S-matrix, dipole-coupled pair.

Oracles: free evolution and constant drives have closed-form propagators;
resonant real envelopes obey the pulse-area formula S = exp(-i area sigma1);
the envelope 2i sech(2t) is the reflectionless unit-eigenvalue pulse with
a(zeta) = (zeta - i)/(zeta + i); the triple-exponential F matrix has the
exact derivative F'(0) = 2i (H(0,0) - H(x,y)).
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from scattergate import twolevel
from scattergate.algebra import SIGMA1, entanglement_verdict, operator_schmidt
from scattergate.codec import from_json
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
        with pytest.raises(ValueError, match="a > 0"):
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
            monkeypatch.setattr(twolevel, "_TAIL_CUT", cut)
            return scattering_matrix(spec)

        s5, s6, s7 = at_cut(1e-5), at_cut(1e-6), at_cut(1e-7)
        d56 = np.max(np.abs(s5 - s6))
        d67 = np.max(np.abs(s6 - s7))
        assert d56 < 2e-5
        assert d67 < 0.4 * d56 + 1e-8

    @pytest.mark.parametrize("delta", [1e200, -1e200])
    def test_tail_moments_at_huge_detuning(self, delta):
        # delta^2 overflows: the 1/delta^2 term vanishes instead of raising
        t_core, right, left = twolevel._lorentzian_tails(((1.0, 0.25),), delta)
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
                            lambda terms, d, rtol=None: (cut, right, np.conj(right)))
        np.testing.assert_allclose(s, scattering_matrix(pulse), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("delta", [1e-3, 0.5])
    def test_left_tail_is_the_conjugate_of_the_right(self, delta):
        # delta = 1e-3 takes the exact moments, delta = 0.5 the asymptotic
        _, right, left = twolevel._lorentzian_tails(((1.0, 0.25), (2.0, -0.1)), delta)
        assert left == np.conj(right) and abs(right) > 0

    def test_overflowing_tail_moment_raises(self, budget):
        # a^2 / b = 1e14: e^{delta a} = e^1000 overflows before any core solve
        pulse = PulseSpec(envelope=LorentzianPulse(a=1e6, b=1e-2), detuning=1e-3)
        with pytest.raises(NumericalError, match="tail moment .* overflows"):
            scattering_matrix(pulse)

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

    def test_params_validation_and_json(self):
        with pytest.raises(ValueError, match="positive"):
            generic_params(T=0.0)
        p = generic_params()
        back = from_json(DipoleParams, p.to_json())
        assert back == p
