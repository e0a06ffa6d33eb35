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

The kernel is tabulated once, on a z grid padded until its end decays, by a
phase recurrence in z: each row is the last one times e^{ik dz}, on any k grid.
Every node, of either equation, integrates on the grid s = x + j ds up to the
kernel's end with Gregory's sixth-order end weights at its own endpoint; they
differ from the trapezoid weight ds on its first five points only.  For a
potential, the matrix I + ds Hankel(C) on one uniform s grid holds the system
of every node as a trailing block, so its reverse Cholesky factor gives the
whole diagonal K(s, s) at once: discrete layer peeling (Bruckstein & Kailath,
SIAM Rev. 29, 359 (1987)).  A 5 x 5 system built from the factor's band next
to the diagonal gives each node, and a generalized Schur recursion on the
displacement generator (Kailath & Sayed, SIAM Rev. 37, 297 (1995)) takes that
band in O(n^2) time and O(n) memory.  A pulse node is solved on its own by
conjugate gradients on its symmetrized, positive definite system; the Hankel
products cost O(n log n) by FFT and no n x n matrix is formed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from ._samples import SampleTable, checked_grid, sample_fields
from .codec import Document, Positive, checked
from .direct1d import Tabulated
from .dispersion import ReflectionData, _dispersion, _dispersion_slope
from .errors import NumericalError
from .twolevel import TabulatedPulse

# kernel z-grid points: far beyond any data a Nystroem solve can take
_MAX_Z_POINTS = 10**7
# grid points of one Marchenko node: keeps a node's arrays to hundreds of MB
_MAX_NODES = 2**20
_FD_STEP = 0.01  # half-width of the central difference Q = 2 dK(x, x)/dx
_NOT_POSITIVE_DEFINITE = (
    "Nystroem matrix is not positive definite; the data are not physical scattering data"
)


def _trapezoid_weights(x):
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def _fourier_rows(k, values, z):
    """(1/2 pi) int values(k) e^{ikz} dk, trapezoid rule in k, on the uniform
    z grid; the rounding of N rows grows like N eps sum |w values| / 2 pi."""
    out = np.empty(z.size, dtype=complex)
    row = _trapezoid_weights(k) * values * np.exp(1j * k * z[0]) / (2.0 * np.pi)
    step = np.exp(1j * k * (z[-1] - z[0]) / max(z.size - 1, 1))
    for i in range(z.size):
        out[i] = row.sum()
        row *= step
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
        # K(x, x) tables of marchenko_diagonal, one per step ds
        object.__setattr__(self, "_diagonals", {})
        dtype = complex if np.iscomplexobj(self.refl) else float
        table = SampleTable(*sample_fields(self, "z", "refl", dtype))
        dz = np.diff(table.grid)
        if not np.allclose(dz, dz[0], rtol=1e-9):
            raise ValueError("tabulation grid must be uniform ascending")
        for eta, g in self.bound_terms:
            if not np.real(eta) > 0:
                raise ValueError("bound-term decay rates must be positive")
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
    z = checked_grid(z, "z")
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
            raise NumericalError(_NOT_POSITIVE_DEFINITE)
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


# Gregory's end weights for a node with q = 1 .. 5 grid points at or right of
# it: row q - 1 is the trapezoid rule corrected by forward differences up to
# order q - 1 (Fornberg, SIAM Rev. 63, 167 (2021)), padded with the interior
# weight 1.  The last row is exact for polynomials of degree five, and a
# smooth integrand's error falls like ds^6.
_GREGORY = np.array([
    [1 / 2, 1, 1, 1, 1],
    [5 / 12, 13 / 12, 1, 1, 1],
    [3 / 8, 7 / 6, 23 / 24, 1, 1],
    [251 / 720, 299 / 240, 211 / 240, 739 / 720, 1],
    [95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160],
])
_BAND = _GREGORY.shape[1]


def _node_system(kernel, x, ds):
    # samples c2 = C(2x + j ds), j < 2n - 1, and Gregory weights w of the
    # Nystroem discretization at x on the grid s = x + j ds, truncated where
    # the kernel tabulation ends: the system is (I + H W) u = -c2[:n] with the
    # Hankel matrix H_ij = c2[i + j]
    n = np.floor((kernel.z[-1] / 2.0 - x) / ds) + 1
    if not n <= _MAX_NODES:
        raise ValueError(f"node x = {x:.6g} at step ds = {ds:.3g} needs n = {n:.3g} grid "
                         f"points, over the limit of {_MAX_NODES}")
    n = int(n)
    if n < _BAND:
        raise ValueError("node too close to the kernel truncation edge")
    w = np.full(n, ds)
    w[:_BAND] *= _GREGORY[-1]
    return kernel(2.0 * x + ds * np.arange(2 * n - 1)), w


def _schur_band(h):
    """The first _BAND entries of every Schur column of A = I + Hankel(h),
    A_ij = delta_ij + h[i + j], less the unit diagonal, for h of odd length
    2m - 1, in O(m) memory.  Row j holds t_0 of step j: the pivot L_jj^2 less
    one, then L[j + e, j] L_jj for e >= 1 (A = L L^T), zero past m.

    Each Schur complement of A is I + T, and the recursion runs on T, so a
    pivot near one keeps its difference from one to full relative precision.
    With Y = Z + Z^T (Z the down shift) the identity commutes with Y, so
    Y A - A Y = sum_p (v_p u_p^T - u_p v_p^T) has nonzero rows and columns
    only at 0 and m - 1: u_0 = e_0, v_0 = (0, h_0 .. h_{m-2}), u_1 = e_{m-1},
    v_1 = (h_m .. h_{2m-2}, 0).  Each step takes the pivot a = 1 + t_0[0] and
    the rest b = t_0[1:] of the first column e_0 + t_0 of I + T.  Its second
    column is e_1 + t_1 = Y (e_0 + t_0) - (Y A - A Y) e_0, where the
    displacement of a Schur complement gains the pair
    (b_p s_0^T - s_0 b_p^T)/a_p, s_0 = e_0 + t_0, of the previous pivot
    (a_p, b_p), which cancels one step later.  Then the next t_0 is
    t_1[1:] - b t_1[0]/a, and every generator row g becomes g[1:] - b g[0]/a;
    u_1 stays the last unit vector.  A pivot that is not positive and
    finite means A is not positive definite.
    """
    m = (h.size + 1) // 2
    # rows: t_0, then u_0, v_0, v_1, and b_p; row views shrink from the left,
    # and the zero columns past m fill the last steps' band rows
    rows = np.zeros((5, m + _BAND - 1))
    rows[0, :m] = h[:m]
    rows[1, 0] = 1.0
    rows[2, 1:m] = h[: m - 1]
    rows[3, : m - 1] = h[m:]
    band = np.empty((m, _BAND))
    coef = np.zeros(5)
    a_p = np.inf
    for j in range(m):
        band[j] = rows[0, j : j + _BAND]
        r = rows[:, j:m]
        t0 = r[0]
        a = 1.0 + t0[0]
        if not 0.0 < a < np.inf:
            raise NumericalError(_NOT_POSITIVE_DEFINITE)
        if j == m - 1:
            return band
        coef[0], coef[1], coef[2], coef[4] = r[4, 0] / a_p, r[2, 0], -r[1, 0], -a / a_p
        t1 = coef @ r
        t1[0] += coef[0]
        t1[1:] += t0[:-1]
        t1[:-1] += t0[1:]
        t1[-1] += r[3, 0]
        r[4] = t0
        t0[:] = t1
        r[:4, 1:] -= r[:4, :1] * (r[4, 1:] / a)
        a_p = a


def _gregory_diagonal(c, ds):
    """K(s_i, s_i) at the n nodes s_i = z_0/2 + i ds, from the 2n - 1 samples
    c_m = C(z_0 + m ds), node i with the weights ds omega_b on s_{i + b}.

    Node i's system is (I + (G_i - I) Omega) u = -(G_i - I) e_0 / ds, where
    G_i = G[i:, i:] is the trailing block of G = I + ds Hankel(c) and
    Omega = diag(omega) differs from I only on the first r = _BAND points.
    Times G_i^-1 its first r rows close on themselves; with G = U U^T, U upper
    triangular, (G_i^-1)[:r, :r] = (V V^T)^-1 for the block V = U[i:i+r, i:i+r],
    and times V V^T they read (I + M Omega_r) u_r = -M e_0 / ds with
    M = V V^T - I: node i's own r x r system.  The band of _schur_band holds
    every V, and M = E + E^T + E E^T with E = V - I keeps its difference from
    I to full relative precision.
    """
    n = (c.size + 1) // 2
    r = _BAND
    # column p of U above its diagonal, U[p - e, p], padded with identity
    # columns so the last nodes' blocks are the identity past the edge
    above = np.zeros((n + r - 1, r))
    above[:n] = _schur_band(ds * c[::-1])[::-1]
    root = np.sqrt(1.0 + above[:, 0])
    above[:, 1:] /= root[:, None]
    above[:, 0] /= 1.0 + root  # sqrt(1 + d) - 1
    cols = np.arange(n)[:, None] + np.arange(r)
    upper, right = np.triu_indices(r)
    e = np.zeros((n, r, r))
    e[:, upper, right] = above[cols[:, right], right - upper]
    m = e + e.transpose(0, 2, 1) + e @ e.transpose(0, 2, 1)
    # a node with q < r points to its right takes Gregory's row q - 1
    omega = _GREGORY[np.minimum(n - np.arange(n), r) - 1]
    return np.linalg.solve(np.eye(r) + m * omega[:, None, :], -m[:, :, :1] / ds)[:, 0, 0]


def _diagonal_table(kernel, ds):
    # one grid from z[0]/2 at step ds to the kernel's end; its first node, the
    # worst conditioned, is held to 1e-6 max(1, |K|) against a
    # conjugate-gradient solve of its own system
    x = kernel.z[0] / 2.0
    c, w = _node_system(kernel, x, ds)
    if np.iscomplexobj(c):
        raise ValueError(
            "marchenko_diagonal needs a real (potential) kernel; pulse kernels "
            "go through recover_pulse"
        )
    k = _gregory_diagonal(c, ds)
    scale = np.sqrt(w)
    s = _fft_hankel(c, scale)
    u = _cg_solve(lambda y: y + s(y), -scale * c[: w.size]) / scale
    _check_residual(k[:1] - u[:1], u[:1])
    return SampleTable(x + ds * np.arange(w.size), k)


def marchenko_diagonal(kernel: MarchenkoKernel, x: float, ds: float = 0.05) -> float:
    """Diagonal value K(x, x) of the layer-stripping solution.

    Read from the kernel's table of the whole diagonal at step ds, built on
    its first call: on the grid s = z[0]/2 + j ds, with the integral truncated
    where the kernel tabulation ends, each node takes Gregory's end weights at
    its own endpoint, sixth order where five points lie at or right of it and
    the order its points allow nearer the end.  One Schur recursion records
    the band of the grid's reverse Cholesky factor next to its diagonal, and
    one batched 5 x 5 solve turns the band into every node (see
    _gregory_diagonal); a quintic spline reads the table at x.  The
    factorization needs a positive definite Nystroem matrix, as physical
    scattering data give; otherwise NumericalError is raised.  So it is when
    the first, worst conditioned node differs from a conjugate-gradient solve
    of its own system by more than 1e-6 max(1, |K|).  x must lie at or right of
    z[0]/2 and at least 4 ds left of z[-1]/2.  The kernel must be real: pulse
    kernels go through recover_pulse.
    """
    table = kernel._diagonals.get(ds)
    if table is None:  # only a checked step enters the cache
        ds = checked("ds", Positive, ds)
    if not x >= kernel.z[0] / 2.0:
        raise ValueError(f"kernel tabulated for z >= {kernel.z[0]:g}; got {2.0 * x:g}")
    if not (kernel.z[-1] / 2.0 - x) / ds >= 4.0:
        raise ValueError("node too close to the kernel truncation edge")
    if table is None:
        table = kernel._diagonals[ds] = _diagonal_table(kernel, ds)
    return float(table(x))


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

    Q(x) = 2 dK(x, x)/dx by a central difference of half-width 0.01, both
    values read from the one diagonal table of marchenko_diagonal.
    """
    x = checked_grid(x, "x")

    def node(xi):
        hi = marchenko_diagonal(kernel, xi + _FD_STEP, ds)
        lo = marchenko_diagonal(kernel, xi - _FD_STEP, ds)
        return (hi - lo) / _FD_STEP

    q = np.array([node(xi) for xi in x])
    return RecoveredPotential(x=x, q=q, check_decay=check_decay)


def _tabulate_kernel(k, values, terms, z_lo, z_hi, tail_tol, real):
    """Kernel of (k, values) and the ready bound terms (eta, g) on a uniform
    grid from z_lo, padded right of z_hi until |C| on the last two units of z,
    the only rows a trial pad forms, is below tail_tol; real: rows must be real."""
    dz = min(0.094 / np.max(np.abs(k)), 0.25)
    pad = 12.0
    if terms:
        gmax = max(abs(g) for _, g in terms)
        rate = min(eta.real for eta, _ in terms)
        pad = max(pad, 2.0 + np.log(max(gmax, 1.0) / tail_tol) / rate)
    form = _real_rows if real else np.asarray
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
        end = z[z > z[-1] - 2.0]
        tail = form(_fourier_rows(k, values, end))
        for eta, g in terms:  # as MarchenkoKernel adds them
            tail = tail + g * np.exp(-eta * end)
        if np.max(np.abs(tail)) <= tail_tol:
            return MarchenkoKernel(z=z, refl=form(_fourier_rows(k, values, z)), bound_terms=terms)
        pad *= 1.7
    raise NumericalError(
        f"kernel tail still {np.max(np.abs(tail)):.2e} after extension; data decays too "
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
    ds, tail_tol = checked("ds", Positive, ds), checked("tail_tol", Positive, tail_tol)
    x = checked_grid(x, "x")
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

    def _check(self):
        _, r = sample_fields(self, "zeta", "r", complex, min_size=2)
        if abs(r[0]) >= 1e-6 or abs(r[-1]) >= 1e-6:
            raise ValueError("reflection ratio must decay below 1e-6 at the ends")
        if len(self.poles) != len(self.norming):
            raise ValueError("need one norming constant per pole")
        if any(p.imag <= 0 for p in self.poles):
            raise ValueError("transmission zeros must lie in the upper half plane")


def transmission_a_two_level(data: TwoLevelScatteringData, zeta) -> complex:
    """Transmission amplitude a(zeta) from |r| and the half-plane zeros.

    On the real axis |a|^2 = 1/(1 + |r|^2); the dispersion relation (see
    dispersion) gives the phase.  Valid on the closed upper half plane but
    for the two ends of the data grid, where the dispersion integral is
    singular.
    """
    zeta = checked("zeta", complex, zeta)
    if zeta.imag < -1e-12:
        raise ValueError("transmission amplitude defined on the upper half plane")
    if zeta.imag <= 1e-9 and zeta.real in (data.zeta[0], data.zeta[-1]):
        raise ValueError(f"zeta: {zeta.real!r} is an end of the data grid")
    return _dispersion(data.zeta, -np.log1p(np.abs(data.r) ** 2), data.poles, zeta)


def transmission_derivative_at_pole(data: TwoLevelScatteringData, j: int) -> complex:
    """a'(zeta_j) at the j-th transmission zero (needed for kernel weights)."""
    return _dispersion_slope(data.zeta, -np.log1p(np.abs(data.r) ** 2), data.poles, j)


def _pulse_sample(kernel, t, ds):
    # E(t) = -2i v(t, t) on Gregory's sixth-order weights: with M = H W the
    # system (I + M conj(M)) v = -c is solved by conjugate gradients as
    # (I + S S^H) D v = -D c, Hermitian positive definite for any data because
    # S = D H D is complex symmetric, so S^H y = conj(S conj(y))
    c2, w = _node_system(kernel, t, ds)
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

    At each node the integrals, truncated where the kernel tabulation ends,
    take the trapezoid rule at step ds with Gregory's sixth-order end weights,
    as the potential's nodes do, and the Nystroem system for v is solved by
    conjugate gradients as the Hermitian positive definite I + S S^H,
    S = D H D, with FFT Hankel products (see _pulse_sample).  ds and tail_tol
    must be positive finite floats.
    """
    ds, tail_tol = checked("ds", Positive, ds), checked("tail_tol", Positive, tail_tol)
    t = checked_grid(t, "t")
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
