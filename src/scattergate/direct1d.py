"""Direct scattering for the stationary 1-D Schrodinger problem.

Conventions: units hbar = 2m = 1 and the wave equation

    psi'' + (k^2 + Q(x)) psi = 0,

so positive Q is an attractive well and bound states sit at k = i eta with
eta > 0.  The amplitude pair (a, b) is read off at the right edge of the
support window from phi = a e^{-ikx} + b e^{+ikx}, where phi is the solution
launched as e^{-ikx} at the left edge; |a|^2 - |b|^2 = 1 for real Q, and the
transmission / reflection amplitudes are T = 1/a, R = b/a.

Every solve propagates (phi, phi') across the window with the adaptive
Magnus transfer matrix of ``_magnus``: its steps are exact where Q is
constant, so zero-potential stretches and square wells cost one step each.
Bound states use the same propagator at k = i eta in the frame
e^{-eta x}(phi, phi'), which stays bounded along the decaying solution.
On a table the propagator starts from the knots, and a Lorentzian sum runs
outward from its peak at x = 0, so a narrow well is not stepped over; the
even profile makes the leftward span the mirror image of the rightward one.

Lorentzian profiles (these potentials and the pulses of ``twolevel``) decay
like 1/x^2, so a cut where |Q| is small still drops an area of order the
root of the cut.  Their solves propagate only the core |x| <= T, the reach
of ``_lorentzian_window`` at _TAIL_CUT (at least 12 widths), and take each
tail as the exponential of its first-order Magnus term.  Its moments
int f(x) e^{-i delta x} dx are exact: arctan integrals where |delta| T is
subnormal or 0, else, with 2ab / (x^2 + a^2) = -ib (1/(x - ia) - 1/(x + ia))
and s(z) = e^z E1(z) (Abramowitz & Stegun 5.1), e^{-i delta T} sum -ib
[s(delta a + i delta T) - s(-delta a + i delta T)] on the right and its
conjugate on the left, finite at every width, strength and detuning.  A
potential's tails act on the amplitudes of psi = alpha e^{-ikx} + beta e^{ikx},
(alpha, beta)' = (iQ/2k) [[-1, -e^{2ikx}], [e^{-2ikx}, 1]] (alpha, beta): the
right tail is exp((i/2k) [[-m0, -m+], [conj m+, m0]]), m0 and m+ the moments
at delta = 0 and -2k, and the left one takes conj m+ for m+.  The window
keeps its 1e-10 decay contract for bound states, sampling and documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq
from scipy.special import exp1

from ._magnus import transfer_matrix
from ._samples import FLOOR, Profile, SampledProfile, checked_grid
from .algebra import tau
from .codec import Document, Positive, checked
from .errors import NumericalError

_RTOL = 1e-10
# |profile| at the edge of a Lorentzian core; the tails beyond are exact
_TAIL_CUT = 1e-7


class PotentialSpec(Profile, Document, tag="variant", noun="potential", derived=("window",)):
    """Base class for real potentials decaying at both infinities, with the
    contract of ``_samples.Profile`` and float values: |Q| <= 1e-10 outside
    the window, which the analytic families widen automatically."""


@dataclass(frozen=True, eq=False)
class Zero(PotentialSpec):
    """Free particle, Q identically zero."""

    variant = "zero"

    @property
    def window(self):
        return (0.0, 0.0)

    def __call__(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        return out if out.ndim else 0.0


@dataclass(frozen=True, eq=False)
class SquareWell(PotentialSpec):
    """Constant Q = q0 on [x0, x0 + length], zero elsewhere."""

    q0: float
    x0: float
    length: Positive

    variant = "square_well"

    @property
    def window(self):
        return (self.x0, self.x0 + self.length)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.x0) & (x <= self.x0 + self.length), self.q0, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class SechSquared(PotentialSpec):
    """Reflectionless well Q = 2 eta^2 sech^2(eta (x - center)).

    Hosts exactly one bound state, at eta, and has transmission
    T(k) = (k + i eta)/(k - i eta) with R identically zero.
    """

    eta: Positive
    center: float = 0.0

    variant = "sech_squared"

    @property
    def window(self):
        pad = 40.0 / self.eta
        return (self.center - pad, self.center + pad)

    def __call__(self, x):
        # sech via decaying exponentials only; no overflow at any x
        u = np.abs(self.eta * (np.asarray(x, dtype=float) - self.center))
        e = np.exp(-u)
        sech = 2.0 * e / (1.0 + e * e)
        out = 2.0 * self.eta**2 * sech * sech
        return out if out.ndim else float(out)


def _lorentzian_window(pairs, cut=FLOOR):
    # symmetric window outside which the 1/x^2 tails of _Lorentzian stay below
    # cut, reaching at least 12 of the widest a_j to each side (NaN stays NaN)
    if not pairs:
        return (0.0, 0.0)
    amax = max(a for a, _ in pairs)
    mass = sum(2.0 * a * abs(b) for a, b in pairs)
    pad = float(np.maximum(12.0 * amax, np.sqrt(mass / cut)))
    return (-pad, pad)


def _scaled_e1(z):
    # s(z) = e^z E1(z): neither factor leaves the float range for |z| <= 600;
    # beyond, eight terms of A&S 5.1.51, s ~ sum_n (-1)^n n! / z^(n+1), err by
    # about 8!/|z|^8 < 3e-18 near the imaginary axis, where T >= 12 a puts z
    if abs(z) <= 600.0:
        return complex(np.exp(z) * exp1(z))
    w, acc = 1.0 / z, 1.0
    for n in range(7, 0, -1):
        acc = 1.0 - n * w * acc
    return w * acc


def _lorentzian_tails(pairs, delta):
    """Core half-width T and the tail moments of _Lorentzian times
    e^{-i delta x} over (T, inf) and (-inf, -T), as in the module notes; the
    profile is real and even, so the left moment is the right one's conjugate."""
    T = _lorentzian_window(pairs, _TAIL_CUT)[1]
    if abs(delta) * T < np.finfo(float).tiny:
        right = complex(sum(2.0 * b * (np.pi / 2.0 - np.arctan(T / a)) for a, b in pairs))
    else:
        right = complex(np.exp(-1j * delta * T) * sum(
            -1j * b * (_scaled_e1(complex(delta * a, delta * T))
                       - _scaled_e1(complex(-delta * a, delta * T)))
            for a, b in pairs))
    return T, right, right.conjugate()


def _expm_traceless(n):
    # e^N = cosh(w) I + (sinh(w)/w) N for a traceless 2x2 N, as N^2 = w^2 I;
    # where it overflows, the callers' checks refuse the non-finite factor
    with np.errstate(all="ignore"):
        w = np.sqrt(n[0, 0] * n[0, 0] + n[0, 1] * n[1, 0] + 0j)
        return np.cosh(w) * np.eye(2) + (np.sinh(w) / w if w else 1.0) * n


class _Lorentzian(Profile):
    # sum_j 2 a_j b_j / (x^2 + a_j^2) over the (a_j, b_j) of self.terms in dtype,
    # written as 2 (b/a) / (1 + (x/a)^2) so that no width underflows x^2 + a^2

    @property
    def window(self):
        return _lorentzian_window(self.terms)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=self.dtype)
        for a, b in self.terms:
            u = x / a
            out = out + 2.0 * (b / a) / (1.0 + u * u)
        return out if out.ndim else self.dtype(out)


@dataclass(frozen=True, eq=False)
class LorentzianSum(_Lorentzian, PotentialSpec):
    """Q(x) = sum_j 2 a_j b_j / (x^2 + a_j^2).

    The 1/x^2 tails force a very wide support window to honour the
    |Q| <= 1e-10 decay contract.  A solve propagates only the core |x| <= T
    where |Q| > 1e-7, from the peak at x = 0 to the right (Q is even, so the
    leftward span is P M P, P = diag(1, -1), for that span M), and takes
    each tail beyond as the exponential of its exact moments (module notes).
    """

    pairs: tuple[tuple[Positive, float], ...]

    variant = "lorentzian_sum"

    @property
    def terms(self):
        return self.pairs


@dataclass(frozen=True, eq=False)
class Tabulated(SampledProfile, PotentialSpec):
    """Quintic-spline interpolant of samples (x, q); zero outside the grid hull."""

    x: np.ndarray
    q: np.ndarray

    variant = "tabulated"


def momentum_grid(kmin: float, kmax: float, n: int) -> np.ndarray:
    """Ascending positive momentum grid with n points."""
    kmin, n = checked("kmin", Positive, kmin), checked("n", int, checked("n", Positive, n))
    if n == 1:
        return np.array([kmin])
    if not kmin < kmax < np.inf:
        raise ValueError("need a finite kmax > kmin")
    return np.linspace(kmin, float(kmax), n)


@dataclass(frozen=True)
class ScatterCoeffs:
    """Amplitude pair (a, b) at momentum k; T = 1/a, R = b/a."""

    k: float
    a: complex
    b: complex

    def __post_init__(self):
        try:
            defect = (1.0 + abs(self.b) ** 2) / abs(self.a) ** 2 - 1.0
        except (OverflowError, ZeroDivisionError):  # |a| or |b| > 1e154, or |a| < 1e-162
            defect = np.inf
        if not np.isfinite(defect) or abs(defect) > 1e-8:
            raise NumericalError(
                f"|T|^2 + |R|^2 - 1 = {defect:.3e} at k = {self.k} exceeds 1e-8"
            )

    @property
    def transmission(self) -> complex:
        return 1.0 / self.a

    @property
    def reflection(self) -> complex:
        return self.b / self.a

    @property
    def smatrix(self) -> np.ndarray:
        return tau(self.a, self.b, atol=1e-8 * (1.0 + abs(self.b) ** 2))


def _tail_factors(pairs, k):
    # core half-width T and the left and right tail factors of a Lorentzian
    # sum in the amplitude frame (module notes); the left one carries conj m+
    T, plus, minus = _lorentzian_tails(pairs, -2.0 * k)
    m0 = _lorentzian_tails(pairs, 0.0)[1].real
    left, right = (_expm_traceless((0.5j / k) * np.array([[-m0, -m], [np.conj(m), m0]]))
                   for m in (minus, plus))
    return T, left, right


def solve_scattering(q: PotentialSpec, k: float, rtol: float = _RTOL) -> ScatterCoeffs:
    """Solve the direct problem at momentum k > 0.

    Launches phi = e^{-ikx} at the left window edge, propagates (phi, phi'/k)
    with the adaptive sixth-order Magnus transfer matrix (relative
    tolerance rtol over the window), and reads (a, b) at the right edge.  A
    Lorentzian sum propagates its core between exact tail factors instead.
    """
    k, rtol = checked("k", Positive, k), checked("rtol", Positive, rtol)
    if not np.isfinite(0.5 / k):
        raise ValueError(f"momentum {k} is too small: 1/(2k) overflows")
    x0, x1 = q.window
    if not x1 > x0:
        return ScatterCoeffs(k=k, a=1.0 + 0.0j, b=0.0j)

    def gen(x):
        return 0.0, k, -(k * k + q(x)) / k, 0.0

    lorentzian, what = isinstance(q, _Lorentzian), f"scattering (k = {k})"
    if lorentzian:
        x1, left, right = _tail_factors(q.terms, k)
        x0 = -x1
        # first-round knots a_min 2^m to the core edge: no step from the peak is wider
        amin = min(a for a, _ in q.terms)
        knots = amin * 2.0 ** np.arange(np.log2(x1) - np.log2(amin))
        m = transfer_matrix(gen, 0.0, x1, rtol, what, knots)
        # Q is even, so the span from x0 = -x1 to 0 is P m^-1 P, P = diag(1, -1):
        # the adjugate inverts, where LU loses a tiny |T|, as det m = 1 but for a
        # rounding drift that the flux |a|^2 - |b|^2 = det^2 shows; that is divided
        # out where det's own rounding, eps (|m00 m11| + |m01 m10|), is below rtol
        (m00, m01), (m10, m11) = m
        spread = abs(m00 * m11) + abs(m01 * m10)
        det = m00 * m11 - m01 * m10 if spread * np.finfo(float).eps <= rtol else 1.0
        m = m @ np.array([[m11, m01], [m10, m00]]) / det
    else:
        m = transfer_matrix(gen, x0, x1, rtol, what, q.knots)
    # (phi, phi'/k) starts as e^{-ikx0} (1, -i); phi +- i phi'/k picks out 2a, 2b
    y0 = m[0, 0] - 1j * m[0, 1]
    y1 = m[1, 0] - 1j * m[1, 1]
    a = 0.5 * np.exp(1j * k * (x1 - x0)) * (y0 + 1j * y1)
    b = 0.5 * np.exp(-1j * k * (x1 + x0)) * (y0 - 1j * y1)
    if lorentzian:  # the core's amplitude map is [[a, conj b], [b, conj a]]
        a, b = right @ np.array([[a, np.conj(b)], [b, np.conj(a)]]) @ left[:, 0]
    return ScatterCoeffs(k=k, a=complex(a), b=complex(b))


def solve_grid(q: PotentialSpec, ks, *, rtol: float = _RTOL):
    """solve_scattering mapped over a momentum grid, order preserved."""
    return [solve_scattering(q, float(k), rtol) for k in np.asarray(ks, dtype=float).ravel()]


@dataclass(frozen=True)
class BoundState(Document):
    """Discrete eigenvalue k = i eta with the left/right Jost ratio as norming."""

    eta: Positive
    norming: float


def _tilted(q, eta, x_from, x_to):
    # left solution in the frame (w, chi) = e^{-eta x}(phi, phi'), launched
    # as (1, eta): bounded for all x; at -eta, propagated leftward from the
    # right edge, this is the right solution in the frame e^{+eta x}(psi, psi').
    # The propagated variables are (w, chi/|eta|), and -eta I tilts the frame
    scale = abs(eta)
    m = transfer_matrix(lambda x: (-eta, scale, -(q(x) - eta * eta) / scale, -eta),
                        x_from, x_to, _RTOL, f"bound-state (eta = {scale})", q.knots)
    s = np.sign(eta)
    return m[0, 0] + s * m[0, 1], scale * (m[1, 0] + s * m[1, 1])


def _norming_ratio(q, eta):
    """b_j = phi(x, i eta)/psi(x, i eta), checked for x-independence.

    Evaluated as (phi psi + phi' psi')/(psi^2 + psi'^2) so nodes of the
    eigenfunction (where the plain ratio is 0/0) stay well conditioned.
    """
    x0, x1 = q.window
    knots = () if q.knots is None else q.knots  # none on a table below FLOOR
    xm = knots[np.argmax(q(knots))] if len(knots) else 0.5 * (x0 + x1)
    # stay within a decay length of the well: farther out the ratio is
    # dominated by the residual growing component left over from the
    # finite-precision eta root
    off = min(1.5, (x1 - x0) / 10.0, 0.5 / eta)
    vals = []
    for xs in (xm - off, xm, xm + off):
        w, chi = _tilted(q, eta, x0, xs)
        v, u = _tilted(q, -eta, x1, xs)
        vals.append(np.exp(2.0 * eta * xs) * (w * v + chi * u) / (v * v + u * u))
    vals = np.asarray(vals)
    mean = vals.mean()
    spread = np.max(np.abs(vals - mean)) / max(abs(mean), 1e-300)
    if spread > 1e-6:
        raise NumericalError(
            f"norming ratio varies with x (spread {spread:.2e}) at eta = {eta}"
        )
    return float(vals[1])


def find_bound_states(q: PotentialSpec, eta_max: float):
    """Locate all bound states with eta in (0, eta_max].

    The matching determinant m(eta) (the coefficient of the growing
    exponential of the left solution at the right edge, ~ 2 eta a(i eta))
    is scanned for sign changes on max(40, 40 eta_max) points, preceded by
    halvings of the first down to eta ~ 1/(window length), and each bracket
    is refined by brentq.  Each m(eta) is one Magnus propagation of
    the left solution across the window in the decaying frame
    e^{-eta x}(phi, phi'); the norming constant of each root compares it
    with the right solution, propagated leftward, at three points less
    than a decay length 1/eta apart around the middle of the window (a
    table's largest knot value).
    """
    eta_max = checked("eta_max", Positive, eta_max)
    x0, x1 = q.window
    if not x1 > x0:
        return []
    n_scan = max(40, int(round(40 * eta_max)))

    def matching(eta):
        w, chi = _tilted(q, eta, x0, x1)
        return eta * w + chi

    etas = np.linspace(eta_max / n_scan, eta_max, n_scan)
    # a shallow state can bind below the first point: halve down to
    # eta (x1 - x0) ~ 1, where its decay length reaches the window's
    low = max(0, int(np.ceil(np.log2(etas[0] * (x1 - x0)))))
    etas = np.concatenate([etas[0] / 2.0 ** np.arange(low, 0, -1), etas])
    vals = np.array([matching(e) for e in etas])
    roots = []
    for i in range(etas.size - 1):
        if vals[i] == 0.0:
            roots.append(etas[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(matching, etas[i], etas[i + 1], xtol=1e-12))
    if vals[-1] == 0.0:
        roots.append(etas[-1])
    return [BoundState(eta=r, norming=_norming_ratio(q, r)) for r in roots]


def fields_from_potentials(u: PotentialSpec, v: PotentialSpec, x):
    """Gauge pair (A, Q) with A' = (U - V)/2 and Q = A^2 + (U + V)/2.

    A is the running integral from the left grid end (A(x[0]) = 0).  The
    identities Q + A' - A^2 = U and Q - A' - A^2 = V invert the map exactly.
    Returns the sampled arrays (A, Q) on the supplied grid, which must cover
    both support windows.
    """
    x = checked_grid(x, "x", min_size=2)
    lo = min(u.window[0], v.window[0])
    hi = max(u.window[1], v.window[1])
    if x[0] > lo or x[-1] < hi:
        raise ValueError(
            f"grid [{x[0]}, {x[-1]}] does not cover the support windows out to [{lo}, {hi}]"
        )
    uu = np.asarray(u(x), dtype=float)
    vv = np.asarray(v(x), dtype=float)
    a = cumulative_trapezoid(0.5 * (uu - vv), x, initial=0.0)
    return a, a * a + 0.5 * (uu + vv)


def em_spin_smatrix(u: PotentialSpec, v: PotentialSpec, k: float) -> np.ndarray:
    """Block scattering gate diag(S_U, S_V) of the spin particle.

    The spin-up channel scatters on U and the spin-down channel on V; the
    off-diagonal blocks vanish identically.
    """
    s_u = solve_scattering(u, k).smatrix
    s_v = solve_scattering(v, k).smatrix
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = s_u
    out[2:, 2:] = s_v
    return out
