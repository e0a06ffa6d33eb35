"""Driven two-level dynamics: stripped S-matrices of pulses, and the
dipole-coupled pair of two-level systems.

Conventions: the lab-frame Hamiltonian is

    H(t) = zeta sigma3 + c(t) e^{-2 i zeta t} sigma+ + h.c.,

where c(t) = E(t) e^{-i delta t} is the interaction-picture coupling built
from the slowly varying envelope E and the carrier detuning delta (carrier
frequency minus the level splitting 2 zeta).  Stripping the free factors
e^{-i zeta sigma3 t} off the propagator leaves exactly the interaction
picture, so the full-window limit (the S-matrix) solves

    i U' = (c(t) sigma+ + conj(c(t)) sigma-) U

and no longer depends on zeta.  On resonance (delta = 0) with a real
envelope every instantaneous generator is proportional to sigma1, giving
the pulse-area formula S = exp(-i sigma1 int E dt).  For general delta the
S-matrix coincides with the scattering matrix of the Zakharov-Shabat system
with coupling q = -i E at spectral parameter -delta/2; a detuning scan is
therefore a spectral scan of the transmission entry a = S[0, 0].

Algebraic (Lorentzian) envelopes decay like 1/t^2, so cutting the time
integration where |E| drops below a threshold would still lose an area of
order sqrt(threshold).  The integrator runs on a core window and the two
tails enter as first-order Magnus factors with analytically computed
moments; the neglected tail commutator is O(tail area squared) ~ 2.5e-8 at
the default cutoff, and vanishes identically on resonance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._ode import integrate
from ._samples import SampleTable
from .codec import Document
from .errors import NumericalError

_RTOL = 1e-11
_ATOL = 1e-13
_WINDOW_FLOOR = 1e-10
_TAIL_CUT = 1e-7


class PulseEnvelope(Document, tag="variant", noun="pulse envelope"):
    """Base class for complex pulse envelopes E(t).

    Subclasses expose a support window outside which |E| <= 1e-10 (widened
    automatically for the analytic families) and vectorized evaluation.
    """

    @property
    def window(self) -> tuple[float, float]:
        raise NotImplementedError

    def __call__(self, t):
        raise NotImplementedError


class _LorentzianTerms(PulseEnvelope):
    # E(t) = sum_k 2 a_k b_k / (t^2 + a_k^2) over self.terms; unregistered,
    # so it has no document of its own

    @property
    def window(self):
        if not self.terms:
            return (0.0, 0.0)
        amax = max(a for a, _ in self.terms)
        mass = sum(2.0 * a * abs(b) for a, b in self.terms)
        pad = max(12.0 * amax, np.sqrt(mass / _WINDOW_FLOOR))
        return (-float(pad), float(pad))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for a, b in self.terms:
            out = out + 2.0 * a * b / (t * t + a * a)
        return out if out.ndim else complex(out)


@dataclass(frozen=True, eq=False)
class LorentzianPulse(_LorentzianTerms):
    """E(t) = 2 a b / (t^2 + a^2), area 2 pi b."""

    a: float
    b: float

    variant = "lorentzian"

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (self.a > 0 and np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("need width a > 0 and finite real height b")

    @property
    def terms(self):
        return ((self.a, self.b),)


@dataclass(frozen=True, eq=False)
class LorentzianPulseSum(_LorentzianTerms):
    """E(t) = sum_k 2 a_k b_k / (t^2 + a_k^2), area 2 pi sum b_k."""

    terms: tuple[tuple[float, float], ...]

    variant = "lorentzian_sum"

    def __post_init__(self):
        terms = tuple((float(a), float(b)) for a, b in self.terms)
        if not np.all(np.isfinite(terms)):
            raise ValueError("term parameters must be finite")
        if any(a <= 0 for a, _ in terms):
            raise ValueError("widths a_k must be positive")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True, eq=False)
class RectangularPulse(PulseEnvelope):
    """E(t) = x on [-T, T], zero outside."""

    x: complex
    half_width: float

    variant = "rectangular"

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "half_width", float(self.half_width))
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError("half_width must be positive")
        if not np.isfinite(self.x):
            raise ValueError("amplitude must be finite")

    @property
    def window(self):
        return (-self.half_width, self.half_width)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= self.half_width, self.x, 0.0j)
        return out if out.ndim else complex(out)


@dataclass(frozen=True, eq=False)
class TabulatedPulse(PulseEnvelope):
    """Complex cubic-spline interpolant of samples (t, E); zero outside."""

    t: np.ndarray
    E: np.ndarray

    variant = "tabulated"

    def __post_init__(self):
        table = SampleTable(self.t, self.E, complex)
        object.__setattr__(self, "t", table.grid)
        object.__setattr__(self, "E", table.values)
        object.__setattr__(self, "_table", table)

    @property
    def window(self):
        return (float(self.t[0]), float(self.t[-1]))

    def __call__(self, tq):
        return self._table(tq)


@dataclass(frozen=True, eq=False)
class PulseSpec(Document):
    """Envelope plus carrier detuning plus support window.

    The window must contain the envelope's own support so that |E| < 1e-10
    outside it; analytic variants default to their automatic window.  A
    bare envelope document, or the (t, re_E, im_E) table the pulse
    recovery writes, reads as a spec with the default detuning and window.
    """

    envelope: PulseEnvelope
    detuning: float = 0.0
    window: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "detuning", float(self.detuning))
        if not np.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        lo, hi = self.envelope.window
        if self.window is None:
            object.__setattr__(self, "window", (lo, hi))
        else:
            w0, w1 = (float(self.window[0]), float(self.window[1]))
            if not (np.isfinite(w0) and np.isfinite(w1) and w1 >= w0):
                raise ValueError("window must be finite and ordered")
            if w0 > lo or w1 < hi:
                raise ValueError(
                    "window leaves envelope values above 1e-10 outside it"
                )
            object.__setattr__(self, "window", (w0, w1))

    def coupling(self, t):
        """Interaction-picture coupling c(t) = E(t) e^{-i delta t}."""
        t = np.asarray(t, dtype=float)
        out = self.envelope(t) * np.exp(-1j * self.detuning * t)
        return out if out.ndim else complex(out)


def _magnus_factor(moment):
    # exp(-i [[0, M], [conj M, 0]]) in closed form
    m = abs(moment)
    if m == 0.0:
        return np.eye(2, dtype=complex)
    u = moment / m
    return np.array(
        [
            [np.cos(m), -1j * np.sin(m) * u],
            [-1j * np.sin(m) * np.conj(u), np.cos(m)],
        ],
        dtype=complex,
    )


def _lorentzian_tails(terms, delta):
    """Core half-width and tail moments int c(t) dt over (T, inf) / (-inf, -T).

    On resonance the moments are exact arctan integrals; off resonance a
    two-term integration-by-parts asymptotic in 1/delta is used, so the core
    is stretched until |delta| T is comfortably in the asymptotic regime.
    """
    mass = sum(2.0 * a * abs(b) for a, b in terms)
    if mass == 0.0:
        return 0.0, 0.0j, 0.0j
    T = np.sqrt(mass / _TAIL_CUT)
    if delta != 0.0:
        window = np.sqrt(mass / _WINDOW_FLOOR)
        T = min(max(T, 8.0 / abs(delta)), window)
    if delta == 0.0 or abs(delta) * T < 8.0:
        # resonant moment; also the near-resonant fallback when even the
        # full decay window cannot reach the asymptotic regime (the phase
        # barely turns where E is still visible, residual ~1e-5 at worst)
        m = sum(2.0 * b * (np.pi / 2.0 - np.arctan(T / a)) for a, b in terms)
        return T, complex(m), complex(m)
    right = 0.0j
    left = 0.0j
    for a, b in terms:
        f = 2.0 * a * b / (T * T + a * a)
        fp = -4.0 * a * b * T / (T * T + a * a) ** 2
        # fp / (i delta)^2 without the complex power, which raises where
        # delta * delta overflows; the term is then 0
        second = fp * (1.0 / -(delta * delta))
        right += np.exp(-1j * delta * T) * (f / (1j * delta) + second)
        # at -T the slope flips sign and the boundary term enters with -1
        left -= np.exp(1j * delta * T) * (f / (1j * delta) - second)
    return T, right, left


def scattering_matrix(pulse: PulseSpec, *, rtol: float = _RTOL) -> np.ndarray:
    """Full-window limit of the free-evolution-stripped propagator.

    Integrates the interaction-picture system over the pulse support (plus
    Magnus tail factors for the algebraic envelopes) and returns the SU(2)
    S-matrix [[a, -conj(b)], [b, conj(a)]].  The limit does not depend on
    the level splitting zeta, so none is taken.
    """
    env = pulse.envelope
    if isinstance(env, _LorentzianTerms):
        t_core, m_right, m_left = _lorentzian_tails(env.terms, pulse.detuning)
        lo, hi = -t_core, t_core
    else:
        m_right = m_left = 0.0j
        lo, hi = pulse.window

    if hi > lo:
        def rhs(t, y):
            u = y.reshape(2, 2)
            c = pulse.coupling(t)
            return (
                -1j
                * (np.array([[0.0, c], [np.conj(c), 0.0]]) @ u)
            ).ravel()

        # DOP853 until perfbench's tabulated_sech "b = 0" pin is mended (+23% err)
        core = integrate(rhs, (lo, hi), np.eye(2, dtype=complex), rtol, _ATOL, "S-matrix")
    else:
        core = np.eye(2, dtype=complex)
    s = _magnus_factor(m_right) @ core @ _magnus_factor(m_left)
    defect = np.linalg.norm(s.conj().T @ s - np.eye(2))
    # written so that a NaN defect fails the gate too
    if not (defect <= 1e-8 and abs(np.linalg.det(s) - 1.0) <= 1e-8):
        raise NumericalError(
            f"S-matrix left SU(2) by {defect:.2e}; tighten rtol"
        )
    return s


def scattering_scan(pulse: PulseSpec, detunings, **kw):
    """scattering_matrix mapped over a detuning grid, order preserved.

    Returns an (n, 2, 2) array; entry [j] probes the Zakharov-Shabat
    spectral point -detunings[j] / 2.
    """
    return np.array([
        scattering_matrix(dataclasses.replace(pulse, detuning=float(d)), **kw)
        for d in np.asarray(detunings, dtype=float).ravel()
    ])


@dataclass(frozen=True)
class DipoleParams(Document):
    """Two dipole-coupled two-level systems and their rectangular drive.

    d_A, d_B are the dipole matrix elements, W_* the bare level energies,
    x the field amplitude, y the dipole-dipole interaction strength and T
    the half-duration of the rectangular window.
    """

    d_A: complex
    d_B: complex
    W_plus_A: float
    W_minus_A: float
    W_plus_B: float
    W_minus_B: float
    x: complex = 0.0
    y: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = (complex if f.type == "complex" else float)(getattr(self, f.name))
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, value)
        if not self.T > 0:
            raise ValueError("half-duration T must be positive")


def _flip(d, field):
    # Hermitian dipole coupling x d sigma+ + h.c.
    return np.array(
        [[0.0, field * d], [np.conj(field * d), 0.0]], dtype=complex
    )


def dipole_hamiltonian(p: DipoleParams, field: complex, interaction: float) -> np.ndarray:
    """4x4 Hamiltonian of the driven dipole-coupled pair, A-major basis.

    H = (H_A + x d_A flip) (x) I + I (x) (H_B + x d_B flip)
        + y (d_A flip) (x) (d_B flip),
    so at interaction = 0 the two subsystems are uncoupled and the corner
    entry (1, 4) equals y d_A d_B in general.
    """
    ha = np.diag([p.W_plus_A, p.W_minus_A]).astype(complex) + _flip(p.d_A, field)
    hb = np.diag([p.W_plus_B, p.W_minus_B]).astype(complex) + _flip(p.d_B, field)
    eye = np.eye(2, dtype=complex)
    h = np.kron(ha, eye) + np.kron(eye, hb)
    h += float(interaction) * np.kron(_flip(p.d_A, 1.0), _flip(p.d_B, 1.0))
    if np.linalg.norm(h - h.conj().T) > 1e-12:
        raise NumericalError("assembled Hamiltonian is not Hermitian")
    return h


def _expm_i_hermitian(h, scale):
    # exp(i scale H) for Hermitian H via eigendecomposition
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def f_matrix(p: DipoleParams) -> np.ndarray:
    """Stripped evolution of the rectangularly driven pair over [-T, T]:

        F = e^{i T H(0,0)} e^{-2 i T H(x,y)} e^{i T H(0,0)},

    the 4x4 S-matrix whose second operator-Schmidt coefficient decides
    whether the drive entangles the two subsystems.
    """
    h_free = dipole_hamiltonian(p, 0.0, 0.0)
    h_full = dipole_hamiltonian(p, p.x, p.y)
    edge = _expm_i_hermitian(h_free, p.T)
    return edge @ _expm_i_hermitian(h_full, -2.0 * p.T) @ edge


def rect_pulse_smatrix(p: DipoleParams) -> np.ndarray:
    """4x4 S-matrix of the rectangular drive through a Pade exponential.

    Independent route to f_matrix: the core e^{-2 i T H(x, y)} is scipy's
    scaling-and-squaring Pade expm instead of an eigendecomposition; only
    the free stripping factors (diagonal at zero field) are shared.
    """
    edge = _expm_i_hermitian(dipole_hamiltonian(p, 0.0, 0.0), p.T)
    return edge @ expm(-2j * p.T * dipole_hamiltonian(p, p.x, p.y)) @ edge
