"""Inverse scattering: potentials and pulse envelopes from scattering data.

Both recovery paths run through the same layer-stripping integral equation.
For a real decaying potential the input is reflection data on the momentum
axis plus bound states, the kernel is

    C(z) = sum_j g_j exp(-eta_j z) + (1/2 pi) int R(k) exp(i k z) dk,

and solving

    K(x, y) + C(x + y) + int_x^inf K(x, s) C(s + y) ds = 0,   y >= x,

gives the potential as Q(x) = 2 dK(x, x)/dx.  The weights g_j here, and
m_j of the pulse kernel below, are norming constants over the slope of the
transmission amplitude at its zeros; that slope comes from the dispersion
relation in the dispersion module, the same relation that gives T.

For the two-level (coupled-mode) problem the data are a complex reflection
ratio r on the frequency axis plus the upper-half-plane zeros of the
transmission amplitude with their norming constants.  The kernel is complex
and the integral equation couples two rows, but the recipe is the same and
the pulse envelope is read off the diagonal of the solution.

At each node the equation is discretized by Simpson's rule (Nystroem) and
solved by conjugate gradients on its symmetrized, positive definite form;
the Hankel products cost O(n log n) by FFT and no n x n matrix is formed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from ._samples import SampleTable, checked_grid, checked_samples
from .codec import Document
from .direct1d import Tabulated
from .dispersion import ReflectionData, _dispersion, _dispersion_slope
from .errors import NumericalError
from .twolevel import TabulatedPulse

_FOURIER_CHUNK = 64
# kernel z-grid points: far beyond any data a Nystroem solve can take
_MAX_Z_POINTS = 10**7
_FD_STEP = 0.01  # half-width of the central difference Q = 2 dK(x, x)/dx


def _trapezoid_weights(x):
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def _fourier_rows(k, values, z, done=None):
    """(1/2 pi) int values(k) e^{ikz} dk on the grid, chunked over z.

    done holds rows already computed on a prefix of z.  Its whole chunks are
    kept and only the chunks after them are computed, so an extended table
    equals a one-shot build bit for bit.
    """
    wk = _trapezoid_weights(k) * values
    out = np.empty(z.size, dtype=complex)
    start = 0
    if done is not None:
        start = done.size - done.size % _FOURIER_CHUNK
        out[:start] = done[:start]
    for i0 in range(start, z.size, _FOURIER_CHUNK):
        blk = np.exp(1j * np.outer(z[i0 : i0 + _FOURIER_CHUNK], k))
        out[i0 : i0 + _FOURIER_CHUNK] = blk @ wk / (2.0 * np.pi)
    return out


def bound_state_weights(data: ReflectionData) -> tuple:
    """Kernel weights g_j of the bound-state terms, one per bound state.

    g_j = b_j / (i a'(i eta_j)) with a = 1/T, whose zeros are the i eta_j;
    the slope comes from the dispersion relation (see dispersion).  For
    physical data every g_j is positive.
    """
    h = -np.log1p(-np.abs(data.R) ** 2)
    zeros = [1j * s.eta for s in data.bound_states]
    return tuple(
        (s.norming / (1j * _dispersion_slope(data.k, h, zeros, j))).real
        for j, s in enumerate(data.bound_states)
    )


@dataclass(frozen=True)
class MarchenkoKernel:
    """Tabulated kernel C(z): spline for the reflection integral, analytic
    exponentials g exp(-eta z) for the bound-state part.

    The kernel is real for potential data.  Pulse data gives a complex
    reflection integral and complex rates eta = -i zeta_j (Re eta > 0).
    """

    z: np.ndarray
    refl: np.ndarray
    bound_terms: tuple = ()

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.refl) else float
        table = SampleTable(self.z, self.refl, dtype)
        dz = np.diff(table.grid)
        if not np.allclose(dz, dz[0], rtol=1e-9):
            raise ValueError("tabulation grid must be uniform ascending")
        for eta, g in self.bound_terms:
            if not np.real(eta) > 0:
                raise ValueError("bound-term decay rates must be positive")
        object.__setattr__(self, "z", table.grid)
        object.__setattr__(self, "refl", table.values)
        object.__setattr__(self, "bound_terms", tuple(self.bound_terms))
        object.__setattr__(self, "_table", table)

    def __call__(self, z):
        zz = np.atleast_1d(np.asarray(z, dtype=float))
        if np.min(zz) < self.z[0] - 1e-9:
            raise ValueError(
                f"kernel tabulated for z >= {self.z[0]:g}; got {np.min(zz):g}"
            )
        # beyond the right edge the reflection integral has decayed: tail only
        out = self._table(np.maximum(zz, self.z[0]))
        for eta, g in self.bound_terms:
            out = out + g * np.exp(-eta * zz)
        return out if np.ndim(z) else out[0].item()


def marchenko_kernel(data: ReflectionData, z) -> MarchenkoKernel:
    """Tabulate the inverse-scattering kernel on the given uniform z grid."""
    z = np.asarray(z, dtype=float)
    refl = _real_rows(_fourier_rows(data.k, data.R, z))
    return MarchenkoKernel(z=z, refl=refl, bound_terms=_potential_terms(data))


def _potential_terms(data):
    return tuple(
        (s.eta, g) for s, g in zip(data.bound_states, bound_state_weights(data))
    )


def _real_rows(vals):
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise NumericalError(
            "kernel came out complex; reflection data must satisfy "
            "R(-k) = conj(R(k))"
        )
    return vals.real


def _simpson_weights(n, ds):
    # n is kept odd so the composite rule closes
    w = np.full(n, 2.0 * ds / 3.0)
    w[1::2] = 4.0 * ds / 3.0
    w[0] = w[-1] = ds / 3.0
    return w


def _nystroem_system(kernel, x, ds):
    # samples c2 = C(2x + j ds), j < 2n - 1, and Simpson weights w of the
    # Nystroem discretization at x on the grid s = j ds: the system is
    # (I + H W) u = -c2[:n] with the Hankel matrix H_ij = c2[i + j]
    n = int(np.floor((kernel.z[-1] / 2.0 - x) / ds)) + 1
    if n % 2 == 0:
        n -= 1
    if n < 5:
        raise ValueError("node too close to the kernel truncation edge")
    return kernel(2.0 * x + ds * np.arange(2 * n - 1)), _simpson_weights(n, ds)


def _hankel_apply(c2, v):
    # (H v)_i = sum_j c2[i + j] v_j; np.correlate conjugates its second input
    return np.correlate(c2, np.conj(v), "valid")


def _fft_hankel(c2, d):
    """The product y -> S y, S = D H D with H_ij = c2[i + j] and D = diag(d),
    without forming a matrix: (H v)_i is entry n - 1 + i of the convolution
    of c2 with v reversed, one FFT product on the spectrum of c2.  A cyclic
    length of 2n - 1 already keeps the wrap-around off those n entries."""
    n, size = d.size, next_fast_len(2 * d.size - 1)
    forward, inverse = (fft, ifft) if np.iscomplexobj(c2) else (rfft, irfft)
    spectrum = forward(c2, size)
    return lambda y: d * inverse(spectrum * forward((d * y)[::-1], size), size)[n - 1 : 2 * n - 1]


# The Nystroem matrices are the identity plus a discretized compact operator,
# so their spectra cluster at 1 and CG converges superlinearly in a few
# iterations; with r bound states and no reflection S has rank r, and CG
# needs at most r + 1.
def _cg_solve(apply, b):
    """Conjugate gradients for A y = b, A = I + S or I + S S^H given as
    y -> A y, to an updated residual of at most 1e-13 |b|.  Non-positive
    curvature p^H A p means A is not positive definite."""
    y, r, p = np.zeros_like(b), b.copy(), b.copy()
    rr = np.vdot(b, b).real
    stop, steps = 1e-26 * rr, 0
    while rr > stop:
        if steps == b.size:
            raise NumericalError(f"Nystroem solve did not converge in {steps} CG iterations")
        ap = apply(p)
        curvature = np.vdot(p, ap).real
        if not curvature > 0:
            raise NumericalError(
                "Nystroem matrix is not positive definite; the data are not "
                "physical scattering data"
            )
        alpha = rr / curvature
        y += alpha * p
        r -= alpha * ap
        rr, rr_old, steps = np.vdot(r, r).real, rr, steps + 1
        p = r + (rr / rr_old) * p
    return y


def _check_residual(resid, rhs):
    if not np.max(np.abs(resid)) <= 1e-6 * max(1.0, np.max(np.abs(rhs))):
        raise NumericalError(
            "Nystroem solve lost accuracy (kernel too large for the window); "
            "refine the s-grid or shrink the recovery window"
        )


def marchenko_diagonal(kernel: MarchenkoKernel, x: float, ds: float = 0.05) -> float:
    """Diagonal value K(x, x) of the layer-stripping solution.

    Nystroem discretization on s = x + j ds with composite Simpson weights w;
    the integral is truncated where the kernel tabulation ends.  The system
    (I + H W) u = -c is solved by conjugate gradients in its symmetrized form
    (I + S) D u = -D c, with S = D H D and D = diag(sqrt(w)), each product
    with the Hankel matrix H taken by FFT.  I + S is symmetric positive
    definite for physical scattering data; otherwise NumericalError is
    raised.  The residual is checked on the unscaled system.  The kernel
    must be real: pulse kernels go through recover_pulse.
    """
    if not ds > 0:
        raise ValueError("ds must be positive")
    c2, w = _nystroem_system(kernel, x, ds)
    if np.iscomplexobj(c2):
        raise ValueError(
            "marchenko_diagonal needs a real (potential) kernel; pulse kernels "
            "go through recover_pulse"
        )
    d = np.sqrt(w)
    rhs = -c2[: w.size]
    s = _fft_hankel(c2, d)
    u = _cg_solve(lambda y: y + s(y), d * rhs) / d
    _check_residual(u + _hankel_apply(c2, w * u) - rhs, rhs)
    return float(u[0])


_END_DECAY = 1e-4


@dataclass(frozen=True, eq=False)
class _Recovered:
    # end-decay contract shared by the recovered sample tables
    check_decay: InitVar[bool] = True

    def __post_init__(self, check_decay):
        super().__post_init__()
        ends = self._table.values[[0, -1]]
        if check_decay and np.max(np.abs(ends)) >= _END_DECAY:
            raise ValueError(
                "recovered samples have not decayed below 1e-4 at the window "
                "ends; widen the grid (or pass check_decay=False for "
                "band-limited data)"
            )


@dataclass(frozen=True, eq=False)
class RecoveredPotential(_Recovered, Tabulated):
    """Potential samples produced by the inverse transform.

    By default the samples must have decayed below 1e-4 at both window
    ends (so truncating to the window is harmless downstream).  Band-limited
    data leaves ringing that never decays that far; pass check_decay=False
    for those, at your own risk.  The document is the bare (x, q) table.
    """

    def to_potential(self) -> Tabulated:
        """The samples as a plain Tabulated potential (tagged document)."""
        return Tabulated(x=self.x, q=self.q)


def solve_marchenko(
    kernel: MarchenkoKernel,
    x,
    ds: float = 0.05,
    *,
    check_decay: bool = True,
) -> RecoveredPotential:
    """Recover the potential on the given nodes from a tabulated kernel.

    Q(x) = 2 dK(x, x)/dx by a central difference of half-width 0.01.
    """
    x = checked_grid(x)

    def node(xi):
        hi = marchenko_diagonal(kernel, xi + _FD_STEP, ds)
        lo = marchenko_diagonal(kernel, xi - _FD_STEP, ds)
        return (hi - lo) / _FD_STEP

    q = np.array([node(xi) for xi in x])
    return RecoveredPotential(x=x, q=q, check_decay=check_decay)


def _tabulate_kernel(k, values, terms, z_lo, z_hi, tail_tol, real):
    """Kernel of the data (k, values) and the ready bound terms (eta, g) on
    a uniform grid from z_lo, grown to the right of z_hi until |C| has
    decayed below tail_tol; each extension computes only the Fourier rows
    the last one did not.  real selects the real (potential) kernel."""
    dz = min(0.094 / np.max(np.abs(k)), 0.25)
    pad = 12.0
    if terms:
        gmax = max(abs(g) for _, g in terms)
        rate = min(eta.real for eta, _ in terms)
        pad = max(pad, 2.0 + np.log(max(gmax, 1.0) / tail_tol) / rate)
    rows = None
    for _ in range(6):
        n = (z_hi + pad + dz - z_lo) / dz
        if not n <= _MAX_Z_POINTS:
            raise ValueError(
                f"kernel z-grid over [{z_lo:.6g}, {z_hi + pad:.6g}] (twice the x "
                f"nodes, plus the decay pad) at spacing {dz:.3g} for momenta up to "
                f"|k| = {np.max(np.abs(k)):.6g} needs {n:.3g} points, over the limit "
                f"of {_MAX_Z_POINTS:.0e}"
            )
        z = np.arange(z_lo, z_hi + pad + dz, dz)
        rows = _fourier_rows(k, values, z, rows)
        refl = _real_rows(rows) if real else rows
        kernel = MarchenkoKernel(z=z, refl=refl, bound_terms=terms)
        tail = np.max(np.abs(kernel(kernel.z[kernel.z > kernel.z[-1] - 2.0])))
        if tail <= tail_tol:
            return kernel
        pad *= 1.7
    raise NumericalError(
        f"kernel tail still {tail:.2e} after extension; data decays too "
        "slowly for the requested tail_tol"
    )


def recover_potential(
    data: ReflectionData,
    x,
    ds: float = 0.05,
    *,
    tail_tol: float = 1e-8,
    threads: int = 1,
    check_decay: bool = True,
) -> RecoveredPotential:
    """Recover the potential from reflection data on the given nodes.

    Builds the kernel on a grid starting just left of 2 x_min and extended
    to the right until |C| falls below tail_tol (absolute), then solves the
    integral equation at each node.  threads is accepted for compatibility;
    work runs serially.
    """
    x = checked_grid(x)
    kernel = _tabulate_kernel(
        data.k, data.R, _potential_terms(data), 2.0 * (x[0] - _FD_STEP) - 1e-6,
        2.0 * x[-1] + 2.0 * _FD_STEP, tail_tol, real=True,
    )
    return solve_marchenko(kernel, x, ds, check_decay=check_decay)


# ---------------------------------------------------------------------------
# two-level (coupled-mode) data: complex kernel, two-row integral equation


@dataclass(frozen=True)
class TwoLevelScatteringData(Document):
    """Reflection ratio r on the real frequency axis plus the zeros of the
    transmission amplitude in the upper half plane with norming constants."""

    zeta: np.ndarray
    r: np.ndarray
    poles: tuple[complex, ...] = ()
    norming: tuple[complex, ...] = ()

    def __post_init__(self):
        zeta, r = checked_samples(self.zeta, self.r, complex, min_size=2)
        if abs(r[0]) >= 1e-6 or abs(r[-1]) >= 1e-6:
            raise ValueError("reflection ratio must decay below 1e-6 at the ends")
        poles = tuple(complex(p) for p in self.poles)
        norming = tuple(complex(d) for d in self.norming)
        if len(poles) != len(norming):
            raise ValueError("need one norming constant per pole")
        if not np.all(np.isfinite(poles + norming)):
            raise ValueError("poles and norming must be finite")
        if any(p.imag <= 0 for p in poles):
            raise ValueError("transmission zeros must lie in the upper half plane")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "norming", norming)


def transmission_a_two_level(data: TwoLevelScatteringData, zeta) -> complex:
    """Transmission amplitude a(zeta) from |r| and the half-plane zeros.

    On the real axis |a|^2 = 1/(1 + |r|^2); the dispersion relation (see
    dispersion) gives the phase.  Valid on the closed upper half plane.
    """
    zeta = complex(zeta)
    if zeta.imag < -1e-12:
        raise ValueError("transmission amplitude defined on the upper half plane")
    return _dispersion(data.zeta, -np.log1p(np.abs(data.r) ** 2), data.poles, zeta)


def transmission_derivative_at_pole(data: TwoLevelScatteringData, j: int) -> complex:
    """a'(zeta_j) at the j-th transmission zero (needed for kernel weights)."""
    return _dispersion_slope(data.zeta, -np.log1p(np.abs(data.r) ** 2), data.poles, j)


def _pulse_sample(kernel, t, ds):
    # E(t) = -2i v(t, t): with M = H W the system (I + M conj(M)) v = -c is
    # solved by conjugate gradients as (I + S S^H) D v = -D c, Hermitian
    # positive definite for any data because S = D H D is complex symmetric,
    # so S^H y = conj(S conj(y))
    c2, w = _nystroem_system(kernel, t, ds)
    d = np.sqrt(w)
    rhs = -c2[: w.size]
    s = _fft_hankel(c2, d)
    v = _cg_solve(lambda y: y + s(np.conj(s(np.conj(y)))), d * rhs) / d
    mv = _hankel_apply(c2, w * np.conj(_hankel_apply(c2, w * np.conj(v))))
    _check_residual(v + mv - rhs, rhs)
    return -2j * v[0]


@dataclass(frozen=True, eq=False)
class RecoveredPulse(_Recovered, TabulatedPulse):
    """Complex pulse envelope samples produced by the inverse transform.

    Same end-decay contract as RecoveredPotential; the document is the bare
    (t, re_E, im_E) table, which `twolevel --pulse` reads back.
    """


def recover_pulse(
    data: TwoLevelScatteringData,
    t,
    ds: float = 0.05,
    tail_tol: float = 1e-8,
    *,
    check_decay: bool = True,
) -> RecoveredPulse:
    """Recover the complex pulse envelope on the given nodes.

    The kernel is F(z) = (1/2 pi) int r(zeta) e^{i zeta z} d zeta
    + sum_j m_j e^{i zeta_j z} with m_j = d_j / a'(zeta_j), and the envelope
    is E(t) = -2i v(t, t) where v solves the coupled pair

        u(y) - int_t^inf conj(F(s + y)) v(s) ds = 0,
        v(y) + int_t^inf F(s + y) u(s) ds = -F(t + y).

    At each node the Nystroem system for v is solved by conjugate gradients
    as the Hermitian positive definite I + S S^H, S = D H D, with FFT
    Hankel products (see _pulse_sample).
    """
    t = checked_grid(t)
    # m_j e^{i zeta_j z} as a bound term g e^{-eta z} with rate eta = -i zeta_j
    terms = tuple(
        (-1j * p, d / transmission_derivative_at_pole(data, j))
        for j, (p, d) in enumerate(zip(data.poles, data.norming))
    )
    kernel = _tabulate_kernel(
        data.zeta, data.r, terms, 2.0 * t[0] - 1e-6, 2.0 * t[-1], tail_tol, real=False
    )

    E = np.array([_pulse_sample(kernel, ti, ds) for ti in t])
    return RecoveredPulse(t=t, E=E, check_decay=check_decay)
