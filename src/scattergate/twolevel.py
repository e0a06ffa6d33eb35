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

The propagation runs in the rotating frame y = D(t) u, D(t) = diag(e^{i
delta t/2}, e^{-i delta t/2}), where y' = -i [[-delta/2, E], [conj E,
delta/2]] y keeps the detuning a constant of the generator: the ``_magnus``
step, exact where E is constant, need not resolve the carrier period by
period.  The core is D(hi)^{-1} Y D(lo).

The propagation always spans the envelope's own window, outside which
|E| <= 1e-10; no setting widens it.  On a ``TabulatedPulse`` the first
round of steps starts at the table's knots, so a pulse in a wide zero tail
is not stepped over.

Algebraic (Lorentzian) envelopes take the tail rule of ``direct1d``: the
core runs on |t| <= T, where |E| > 1e-7, and each tail is the exponential
of its first-order Magnus term -i [[0, M], [conj M, 0]], M the exact moment
int c(t) dt, the left one the conjugate of the right.  Only the half from
the common peak t = 0 to T is propagated, so nodes next to a narrow peak
keep full relative precision (a span that ends at or crosses it rounds them
to T eps: 5e-9 in S for a = 1e-12); the envelope is real and even, so the
other half is its conjugate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._magnus import transfer_matrix
from ._samples import SampledProfile
from .codec import Document, Positive, checked
from .direct1d import _expm_traceless, _lorentzian, _lorentzian_tails, _lorentzian_window
from .errors import NumericalError

_RTOL = 1e-11


class PulseEnvelope(Document, tag="variant", noun="pulse envelope"):
    """Base class for complex pulse envelopes E(t).

    Subclasses expose a support window outside which |E| <= 1e-10 (widened
    automatically for the analytic families; the Lorentzian ones take the
    window rule of ``direct1d.LorentzianSum``) and vectorized evaluation.
    """

    knots = None  # only a table knows where its first round of steps starts

    @property
    def window(self) -> tuple[float, float]:
        raise NotImplementedError

    def __call__(self, t):
        raise NotImplementedError


class _LorentzianTerms(PulseEnvelope):
    # E(t) = sum_k 2 a_k b_k / (t^2 + a_k^2) over self.terms, with the
    # profile and window of direct1d.LorentzianSum; unregistered, so it has
    # no document of its own

    @property
    def window(self):
        return _lorentzian_window(self.terms)

    def __call__(self, t):
        return _lorentzian(self.terms, t, complex)


@dataclass(frozen=True, eq=False)
class LorentzianPulse(_LorentzianTerms):
    """E(t) = 2 a b / (t^2 + a^2), area 2 pi b."""

    a: Positive
    b: float

    variant = "lorentzian"

    @property
    def terms(self):
        return ((self.a, self.b),)


@dataclass(frozen=True, eq=False)
class LorentzianPulseSum(_LorentzianTerms):
    """E(t) = sum_k 2 a_k b_k / (t^2 + a_k^2), area 2 pi sum b_k."""

    terms: tuple[tuple[Positive, float], ...]

    variant = "lorentzian_sum"


@dataclass(frozen=True, eq=False)
class RectangularPulse(PulseEnvelope):
    """E(t) = x on [-T, T], zero outside."""

    x: complex
    half_width: Positive

    variant = "rectangular"

    @property
    def window(self):
        return (-self.half_width, self.half_width)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) <= self.half_width, self.x, 0.0j)
        return out if out.ndim else complex(out)


@dataclass(frozen=True, eq=False)
class TabulatedPulse(SampledProfile, PulseEnvelope):
    """Complex quintic-spline interpolant of samples (t, E); zero outside."""

    t: np.ndarray
    E: np.ndarray

    variant = "tabulated"
    dtype = complex


@dataclass(frozen=True, eq=False)
class PulseSpec(Document):
    """Envelope plus carrier detuning.

    The S-matrix integrates over the envelope's own window, outside which
    |E| <= 1e-10.  A bare envelope document, or the (t, re_E, im_E) table
    the pulse recovery writes, reads as a spec with zero detuning; a
    ``"window"`` key, which older documents carry, is ignored.
    """

    envelope: PulseEnvelope
    detuning: float = 0.0

    def coupling(self, t):
        """Interaction-picture coupling c(t) = E(t) e^{-i delta t}."""
        t = np.asarray(t, dtype=float)
        out = self.envelope(t) * np.exp(-1j * self.detuning * t)
        return out if out.ndim else complex(out)


def _frame(phase):
    # D = diag(e^{i phase / 2}, e^{-i phase / 2}) of the rotating frame
    return np.diag(np.exp([0.5j * phase, -0.5j * phase]))


def scattering_matrix(pulse: PulseSpec, *, rtol: float = _RTOL) -> np.ndarray:
    """Full-window limit of the free-evolution-stripped propagator.

    Propagates the rotating-frame system over the pulse support with the
    Magnus step, between Magnus tail factors for the algebraic envelopes,
    and returns the SU(2) S-matrix [[a, -conj(b)], [b, conj(a)]].  The
    limit does not depend on the level splitting zeta, so none is taken.
    An empty sum (T = 0) is the identity, the Magnus step of a zero span.
    """
    env = pulse.envelope
    delta = pulse.detuning
    if isinstance(env, _LorentzianTerms):
        t_core, m_right, m_left = _lorentzian_tails(env.terms, delta)
        # every term peaks at t = 0, where the propagated half starts (module notes)
        lo, start, hi = -t_core, 0.0, t_core
    else:
        m_right = m_left = 0.0j
        lo, hi = env.window
        start = lo

    def gen(t):
        e = env(t)
        return 0.5j * delta, -1j * e, -1j * np.conj(e), -0.5j * delta

    y = transfer_matrix(gen, start, hi, rtol, "S-matrix", env.knots)
    if start > lo:
        # the real, even envelope makes the half from 0 to lo = -hi the
        # conjugate of this one (module notes); Y over sqrt(det Y) has
        # det 1 to rounding, as the traceless generator keeps it, so the
        # adjugate of conj(Y) is its inverse
        y = y / np.sqrt(y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0])
        (y00, y01), (y10, y11) = np.conj(y)
        y = y @ np.array([[y11, -y01], [-y10, y00]])
    core = _frame(-delta * hi) @ y @ _frame(delta * lo)
    left, right = (_expm_traceless(-1j * np.array([[0.0, m], [np.conj(m), 0.0]]))
                   for m in (m_left, m_right))
    s = right @ core @ left
    defect = np.linalg.norm(s.conj().T @ s - np.eye(2))
    # written so that a NaN defect fails the gate too
    if not (defect <= 1e-8 and abs(np.linalg.det(s) - 1.0) <= 1e-8):
        raise NumericalError(
            f"S-matrix left SU(2) by {defect:.2e}; tighten rtol"
        )
    return s


def scattering_scan(pulse: PulseSpec, detunings, *, rtol: float = _RTOL):
    """scattering_matrix mapped over a detuning grid, order preserved.

    Returns an (n, 2, 2) array; entry [j] probes the Zakharov-Shabat
    spectral point -detunings[j] / 2.
    """
    return np.array([
        scattering_matrix(dataclasses.replace(pulse, detuning=float(d)), rtol=rtol)
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
    T: Positive = 1.0


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
    field = checked("field", complex, field)
    interaction = checked("interaction", float, interaction)
    ha = np.diag([p.W_plus_A, p.W_minus_A]).astype(complex) + _flip(p.d_A, field)
    hb = np.diag([p.W_plus_B, p.W_minus_B]).astype(complex) + _flip(p.d_B, field)
    eye = np.eye(2, dtype=complex)
    h = np.kron(ha, eye) + np.kron(eye, hb)
    h += interaction * np.kron(_flip(p.d_A, 1.0), _flip(p.d_B, 1.0))
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
