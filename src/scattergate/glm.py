"""Inverse scattering: potentials and pulse envelopes from scattering data.

Both recovery paths run through the same layer-stripping integral equation.
For a real decaying potential the input is reflection data on the momentum
axis plus bound states, the kernel is

    C(z) = sum_j g_j exp(-eta_j z) + (1/2 pi) int R(k) exp(i k z) dk,

and solving

    K(x, y) + C(x + y) + int_x^inf K(x, s) C(s + y) ds = 0,   y >= x,

gives the potential as Q(x) = 2 dK(x, x)/dx.  The bound-state weights g_j
follow from the norming ratios and the modulus of the transmission
amplitude, so they are fixed by the same data that feeds the dispersion
reconstruction.

For the two-level (coupled-mode) problem the data are a complex reflection
ratio r on the frequency axis plus the upper-half-plane zeros of the
transmission amplitude with their norming constants.  The kernel is complex
and the integral equation couples two rows, but the recipe is the same and
the pulse envelope is read off the diagonal of the solution.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from ._samples import SampleTable, checked_grid, checked_samples
from .codec import Document
from .direct1d import Tabulated
from .dispersion import ReflectionData, principal_value_integral
from .errors import NumericalError
from .twolevel import TabulatedPulse

_FOURIER_CHUNK = 64


def _trapezoid_weights(x):
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def _fourier_rows(k, values, z):
    """(1/2 pi) int values(k) e^{ikz} dk on the grid, chunked over z."""
    wk = _trapezoid_weights(k) * values
    out = np.empty(z.size, dtype=complex)
    for i0 in range(0, z.size, _FOURIER_CHUNK):
        blk = np.exp(1j * np.outer(z[i0 : i0 + _FOURIER_CHUNK], k))
        out[i0 : i0 + _FOURIER_CHUNK] = blk @ wk
    return out / (2.0 * np.pi)


def bound_state_weights(data: ReflectionData) -> tuple:
    """Kernel weights g_j of the bound-state terms, one per bound state.

    g_j = 2 eta_j b_j prod_{l != j} (eta_j + eta_l)/(eta_j - eta_l)
          * exp( (eta_j / pi) int_0^inf ln(1 - |R|^2) / (z^2 + eta_j^2) dz ),

    the product and the integral coming from the derivative of the
    transmission amplitude at the pole.  For physical data every g_j is
    positive.
    """
    etas = np.array([s.eta for s in data.bound_states])
    if etas.size == 0:
        return ()
    if np.min(np.abs(np.subtract.outer(etas, etas) + np.eye(etas.size))) < 1e-9:
        raise ValueError("bound-state decay rates must be distinct")
    h = np.log1p(-np.abs(data.R) ** 2)
    out = []
    for j, s in enumerate(data.bound_states):
        prod = 1.0
        for l, e in enumerate(etas):
            if l != j:
                prod *= (s.eta + e) / (s.eta - e)
        # integrand is even in k: use the whole grid and halve
        expo = (s.eta / (2.0 * np.pi)) * np.trapezoid(
            h / (data.k**2 + s.eta**2), data.k
        )
        out.append(2.0 * s.eta * s.norming * prod * np.exp(expo))
    return tuple(out)


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
    vals = _fourier_rows(data.k, data.R, z)
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise NumericalError(
            "kernel came out complex; reflection data must satisfy "
            "R(-k) = conj(R(k))"
        )
    terms = tuple(
        (s.eta, g) for s, g in zip(data.bound_states, bound_state_weights(data))
    )
    return MarchenkoKernel(z=z, refl=vals.real, bound_terms=terms)


def _simpson_weights(n, ds):
    # n is kept odd so the composite rule closes
    w = np.full(n, 2.0 * ds / 3.0)
    w[1::2] = 4.0 * ds / 3.0
    w[0] = w[-1] = ds / 3.0
    return w


def _hankel_system(kernel, x, ds):
    # right-hand side -C(2x + s) and weighted matrix C(2x + s + s') w(s')
    # of the Nystroem discretization at x, on the Simpson grid s = j ds
    n = int(np.floor((kernel.z[-1] / 2.0 - x) / ds)) + 1
    if n % 2 == 0:
        n -= 1
    if n < 5:
        raise ValueError("node too close to the kernel truncation edge")
    c2 = kernel(2.0 * x + ds * np.arange(2 * n - 1))
    idx = np.arange(n)
    return -c2[:n], c2[np.add.outer(idx, idx)] * _simpson_weights(n, ds)[None, :]


def _fredholm_solve(a, rhs):
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "Nystroem system singular; refine the s-grid or reduce the data"
        ) from None
    resid = np.max(np.abs(a @ sol - rhs))
    if not resid <= 1e-6 * max(1.0, np.max(np.abs(rhs))):
        raise NumericalError(
            "Nystroem solve lost accuracy (kernel too large for the window); "
            "refine the s-grid or shrink the recovery window"
        )
    return sol


def marchenko_diagonal(kernel: MarchenkoKernel, x: float, ds: float = 0.05) -> float:
    """Diagonal value K(x, x) of the layer-stripping solution.

    Nystroem discretization on s = x + j ds with composite Simpson weights;
    the integral is truncated where the kernel tabulation ends.
    """
    if not ds > 0:
        raise ValueError("ds must be positive")
    rhs, m = _hankel_system(kernel, x, ds)
    return float(_fredholm_solve(np.eye(rhs.size) + m, rhs)[0])


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
    fd_step: float = 0.01,
    threads: int = 1,
    check_decay: bool = True,
) -> RecoveredPotential:
    """Recover the potential on the given nodes from a tabulated kernel.

    Q(x) = 2 dK(x, x)/dx by a central difference of half-width fd_step.
    The per-node Fredholm solves are independent and run on a thread pool
    when threads > 1.
    """
    x = checked_grid(x)

    def node(xi):
        hi = marchenko_diagonal(kernel, xi + fd_step, ds)
        lo = marchenko_diagonal(kernel, xi - fd_step, ds)
        return (hi - lo) / fd_step

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            q = np.array(list(pool.map(node, x)))
    else:
        q = np.array([node(xi) for xi in x])
    return RecoveredPotential(x=x, q=q, check_decay=check_decay)


def _extend_until_decayed(build, z_hi0, pad0, tail_tol):
    # grow the tabulation to the right until the kernel has decayed
    pad = pad0
    for _ in range(6):
        kernel = build(z_hi0 + pad)
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
    fd_step: float = 0.01,
    tail_tol: float = 1e-8,
    threads: int = 1,
    check_decay: bool = True,
    dz: float = None,
) -> RecoveredPotential:
    """Recover the potential from reflection data on the given nodes.

    Builds the kernel on a grid starting just left of 2 x_min and extended
    to the right until |C| falls below tail_tol (absolute), then solves the
    integral equation at each node.
    """
    x = checked_grid(x)
    if dz is None:
        dz = min(0.094 / np.max(np.abs(data.k)), 0.25)
    z_lo = 2.0 * (x[0] - fd_step) - 1e-6

    def build(z_hi):
        return marchenko_kernel(data, np.arange(z_lo, z_hi + dz, dz))

    etas = [s.eta for s in data.bound_states]
    pad = 12.0
    if etas:
        gmax = max(abs(g) for g in bound_state_weights(data))
        pad = max(pad, 2.0 + np.log(max(gmax, 1.0) / tail_tol) / min(etas))
    kernel = _extend_until_decayed(build, 2.0 * x[-1] + 2.0 * fd_step, pad, tail_tol)
    return solve_marchenko(kernel, x, ds, fd_step, threads, check_decay)


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
        if any(p.imag <= 0 for p in poles):
            raise ValueError("transmission zeros must lie in the upper half plane")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "norming", norming)


def transmission_a_two_level(data: TwoLevelScatteringData, zeta) -> complex:
    """Transmission amplitude a(zeta) from |r| and the half-plane zeros.

    On the real axis |a|^2 = 1/(1 + |r|^2); the phase follows from the
    dispersion integral of ln|a| and the Blaschke factors of the zeros.
    Valid on the closed upper half plane.
    """
    zeta = complex(zeta)
    if zeta.imag < -1e-12:
        raise ValueError("transmission amplitude defined on the upper half plane")
    h = -np.log1p(np.abs(data.r) ** 2)
    blaschke = 1.0 + 0.0j
    for p in data.poles:
        blaschke *= (zeta - p) / (zeta - np.conj(p))
    if zeta.imag > 1e-9:
        integral = np.trapezoid(h / (data.zeta - zeta), data.zeta)
        return blaschke * np.exp(integral / (2j * np.pi))
    x0 = zeta.real
    if not (data.zeta[0] < x0 < data.zeta[-1]):
        # outside the data grid |r| ~ 0 and the axis formula degenerates
        integral = np.trapezoid(h / (data.zeta - x0), data.zeta)
        return blaschke * np.exp(integral / (2j * np.pi))
    pv = principal_value_integral(data.zeta, h, x0)
    h0 = np.interp(x0, data.zeta, h)
    return blaschke * np.exp(h0 / 2.0) * np.exp(-1j * pv / (2.0 * np.pi))


def transmission_derivative_at_pole(data: TwoLevelScatteringData, j: int) -> complex:
    """a'(zeta_j) at the j-th transmission zero (needed for kernel weights)."""
    p = data.poles[j]
    rest = 1.0 + 0.0j
    for l, other in enumerate(data.poles):
        if l != j:
            rest *= (p - other) / (p - np.conj(other))
    h = -np.log1p(np.abs(data.r) ** 2)
    integral = np.trapezoid(h / (data.zeta - p), data.zeta)
    return rest * np.exp(integral / (2j * np.pi)) / (p - np.conj(p))


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
    threads: int = 1,
    check_decay: bool = True,
    dz: float = None,
) -> RecoveredPulse:
    """Recover the complex pulse envelope on the given nodes.

    The kernel is F(z) = (1/2 pi) int r(zeta) e^{i zeta z} d zeta
    + sum_j m_j e^{i zeta_j z} with m_j = d_j / a'(zeta_j), and the envelope
    is E(t) = -2i v(t, t) where v solves the coupled pair

        u(y) - int_t^inf conj(F(s + y)) v(s) ds = 0,
        v(y) + int_t^inf F(s + y) u(s) ds = -F(t + y).
    """
    t = checked_grid(t)
    # m_j e^{i zeta_j z} as a bound term g e^{-eta z} with rate eta = -i zeta_j
    terms = tuple(
        (-1j * p, d / transmission_derivative_at_pole(data, j))
        for j, (p, d) in enumerate(zip(data.poles, data.norming))
    )
    if dz is None:
        dz = min(0.094 / np.max(np.abs(data.zeta)), 0.25)
    z_lo = 2.0 * t[0] - 1e-6

    def build(z_hi):
        z = np.arange(z_lo, z_hi + dz, dz)
        return MarchenkoKernel(z=z, refl=_fourier_rows(data.zeta, data.r, z), bound_terms=terms)

    pad = 12.0
    if terms:
        mmax = max(abs(m) for _, m in terms)
        rate = min(eta.real for eta, _ in terms)
        pad = max(pad, 2.0 + np.log(max(mmax, 1.0) / tail_tol) / rate)
    kernel = _extend_until_decayed(build, 2.0 * t[-1], pad, tail_tol)

    def node(ti):
        rhs, m = _hankel_system(kernel, ti, ds)
        return -2j * _fredholm_solve(np.eye(rhs.size) + m @ np.conj(m), rhs)[0]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            E = np.array(list(pool.map(node, t)))
    else:
        E = np.array([node(ti) for ti in t])
    return RecoveredPulse(t=t, E=E, check_decay=check_decay)
