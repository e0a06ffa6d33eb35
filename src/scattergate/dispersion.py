"""The dispersion relation of 1-D scattering, and reflection data built on it.

An amplitude f analytic in the upper half plane, with zeros p_j there and
modulus |f(s)| on the real axis, is fixed by

    f(z) = prod_j (z - p_j)/(z - conj(p_j))
           * exp( (1/(2 pi i)) int ln|f(s)|^2 / (s - z) ds ),

a Blaschke product times the outer function of its modulus (on the axis the
integral is a principal value plus half a residue).  _dispersion evaluates
it and _dispersion_slope its derivative at a zero.  The relation has three
uses:

- T(k) of a potential, from |T|^2 = 1 - |R|^2; its poles at the bound
  states i eta_j enter as the points -i eta_j;
- a(zeta) of a two-level pulse, from |a|^2 = 1/(1 + |r|^2) and its zeros;
- the kernel weights of both inverse problems (glm), from the slope of
  a = 1/T, or of a(zeta), at its zeros.

The reflection grid always covers both signs of k, with the reality
constraint R(-k) = conj(R(k)) built into the sampler and the builder.

build_scattering_data runs the other way: given target (transmission,
reflection) pairs at isolated momenta, it assembles a smooth compactly
supported R(k) whose dispersion phase hits the targets.  Each target gets a
main bump carrying the reflection value and an auxiliary side bump whose
amplitude is the one free knob used to steer arg T at that momentum; the
auxiliary bumps live in disjoint slots so the targets decouple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ._samples import SampleTable, sample_fields
from .codec import Document, Positive, checked
from .direct1d import BoundState, find_bound_states, solve_grid
from .errors import InfeasibleTargetError, NumericalError


_K_LO = 0.04        # lowest directly solved momentum of sample_reflection
_TAPER = 0.8        # sample_reflection tapers |R| to zero above _TAPER * kmax
_PHASE_TOL = 1e-4   # arg T residual the phase solve must reach (rad)
_MAX_SWEEPS = 50


def principal_value_integral(x, f, x0):
    """PV int f(t)/(t - x0) dt over the grid [x[0], x[-1]].

    The singularity is subtracted exactly: the regular part
    (f(t) - f(x0))/(t - x0) goes through the trapezoid rule and the
    remainder integrates to f(x0) ln((x_max - x0)/(x0 - x_min)).
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f)
    if not (x[0] < x0 < x[-1]):
        raise ValueError(f"PV point {x0} must lie strictly inside the grid")
    fx0 = np.interp(x0, x, f)
    d = x - x0
    g = np.empty_like(f)
    safe = np.abs(d) > 1e-12 * max(1.0, abs(x0))
    g[safe] = (f[safe] - fx0) / d[safe]
    if not np.all(safe):
        # a grid point landed on x0: use the local slope there instead
        i = int(np.nonzero(~safe)[0][0])
        lo, hi = max(i - 1, 0), min(i + 1, x.size - 1)
        g[~safe] = (f[hi] - f[lo]) / (x[hi] - x[lo])
    return np.trapezoid(g, x) + fx0 * np.log((x[-1] - x0) / (x0 - x[0]))


@dataclass(frozen=True, eq=False)
class ReflectionData(Document):
    """Reflection samples R(k) on an axis-spanning grid plus bound states."""

    k: np.ndarray
    R: np.ndarray
    bound_states: tuple[BoundState, ...] = ()

    def _check(self):
        k, R = sample_fields(self, "k", "R", complex, min_size=2)
        if not (k[0] < 0.0 < k[-1]):
            raise ValueError("grid must cover negative and positive momenta")
        mod = np.abs(R)
        if not np.all(mod < 1.0):
            raise ValueError("|R| must stay below 1 (log singularity otherwise)")
        if mod[0] >= 1e-6 or mod[-1] >= 1e-6:
            raise ValueError("|R| must decay below 1e-6 at the grid ends")

    def reflection_at(self, k: float) -> complex:
        k = checked("k", float, k)
        re = np.interp(k, self.k, self.R.real)
        im = np.interp(k, self.k, self.R.imag)
        return complex(re + 1j * im)


def _dispersion(grid, log_mod, zeros, z):
    """prod_j (z - p_j)/(z - conj(p_j)) * exp((1/(2 pi i)) int log_mod(s)/(s - z) ds)
    by the trapezoid rule on the grid, for z on the closed upper half plane.
    On the axis inside the grid the integral is the principal value plus
    i pi log_mod(z), so there |f| = exp(log_mod(z)/2)."""
    z = complex(z)
    out = 1.0 + 0.0j
    for p in zeros:
        out *= (z - p) / (z - np.conj(p))
    if z.imag <= 1e-9:
        z = z.real
        if grid[0] < z < grid[-1]:
            pv = principal_value_integral(grid, log_mod, z)
            half = np.interp(z, grid, log_mod) / 2.0
            return out * np.exp(half) * np.exp(-1j * pv / (2.0 * np.pi))
    return out * np.exp(np.trapezoid(log_mod / (grid - z), grid) / (2j * np.pi))


def _dispersion_slope(grid, log_mod, zeros, j):
    """Derivative of _dispersion at its j-th zero p: the other factors at p
    over p - conj(p).  Coincident zeros make a double zero, which has no
    kernel weight, so they are refused."""
    p = zeros[j]
    others = [q for i, q in enumerate(zeros) if i != j]
    if any(abs(p - q) < 1e-9 for q in others):
        raise ValueError(f"zeros of the transmission amplitude must be distinct; {p} repeats")
    return _dispersion(grid, log_mod, others, p) / (p - np.conj(p))


def _mirrored(k, R):
    """Samples on k > 0 extended to the whole axis by R(-k) = conj(R(k))."""
    return np.concatenate([-k[::-1], k]), np.concatenate([np.conj(R[::-1]), R])


def reconstruct_transmission(data: ReflectionData, k: float) -> complex:
    """T(k) from |R| and bound states via the dispersion relation."""
    k = float(k)
    if not (data.k[0] < k < data.k[-1]):
        raise ValueError(f"momentum {k} lies outside the data grid")
    points = [-1j * s.eta for s in data.bound_states]
    return _dispersion(data.k, np.log1p(-np.abs(data.R) ** 2), points, k)


def sample_reflection(
    q,
    kmax: float = 10.0,
    dk: float = 2.5e-4,
    n_solve: int = 420,
    *,
    threads: int = 1,
) -> ReflectionData:
    """Sample R(k) = b/a of a potential onto a dense symmetric grid.

    Direct solves run on a geometric node set in [0.04, kmax] and are
    interpolated (quintic in ln k) onto the uniform output grid.  Below 0.04
    the samples are extended by the generic total-reflection model
    ln(1-|R|^2) ~ 2 ln k + const when |R(0.04)| is already close to 1, and
    by a constant otherwise (weak or reflectionless scatterers).  |R| is
    tapered smoothly to zero above 0.8 kmax so the data satisfies the
    end-decay contract; push kmax up if the tail still carries weight.
    threads is accepted for compatibility; work runs serially.
    """
    if not _K_LO < _TAPER * kmax < np.inf:
        raise ValueError(f"need a finite kmax > {_K_LO / _TAPER:g}")
    dk, n_solve = checked("dk", Positive, dk), checked("n_solve", int, n_solve)
    if not dk <= kmax:
        raise ValueError(f"need dk <= kmax, got dk = {dk}")
    if not n_solve >= 3:
        raise ValueError(f"need n_solve >= 3, got {n_solve}")
    nodes = np.geomspace(_K_LO, kmax, n_solve)
    coeffs = solve_grid(q, nodes)
    r_nodes = np.array([c.reflection for c in coeffs])

    kk = np.arange(dk, kmax + 0.5 * dk, dk)
    R = np.empty(kk.size, dtype=complex)
    body = kk >= _K_LO
    # the table reads zero past ln kmax, where only the last kk, tapered to 0, can fall
    R[body] = SampleTable(np.log(nodes), r_nodes)(np.log(kk[body]))

    head = ~body
    r0 = r_nodes[0]
    if abs(r0) ** 2 > 0.5:
        # near-total reflection at _K_LO: |T|^2 vanishes like k^2 at the origin
        h0 = np.log1p(-abs(r0) ** 2)
        hh = h0 + 2.0 * np.log(kk[head] / _K_LO)
        mod = np.sqrt(-np.expm1(hh))
        args = np.unwrap(np.angle(r_nodes[:3]))
        slope = (args[2] - args[0]) / (nodes[2] - nodes[0])
        ang = args[0] + slope * (kk[head] - nodes[0])
        R[head] = mod * np.exp(1j * ang)
    else:
        R[head] = r0

    over = np.abs(R) >= 1.0
    if np.any(over):
        R[over] *= (1.0 - 1e-9) / np.abs(R[over])

    edge = kk > _TAPER * kmax
    win = np.ones(kk.size)
    win[edge] = np.cos(0.5 * np.pi * (kk[edge] - _TAPER * kmax) / ((1.0 - _TAPER) * kmax)) ** 2
    win[-1] = 0.0
    R *= win

    x0, x1 = q.window
    states = ()
    if x1 > x0:
        xs = np.linspace(x0, x1, 2001)
        # a table's knots too: a narrow well can fall between the points
        xs = xs if q.knots is None else np.concatenate([xs, q.knots])
        qmax = float(np.max(q(xs)))
        if qmax > 1e-9:
            states = tuple(find_bound_states(q, np.sqrt(qmax) + 0.1))
    return ReflectionData(*_mirrored(kk, R), bound_states=states)


@dataclass(frozen=True)
class GateTarget(Document):
    """Prescribed (transmission, reflection) pair at one momentum."""

    k: Positive
    t: complex
    r: complex

    def _check(self):
        if not abs(self.t) > 0:
            raise ValueError("target transmission must be nonzero")
        try:
            defect = abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0
        except OverflowError:  # float ** raises where |t| or |r| exceed 1e154
            defect = np.inf
        if not np.isfinite(defect) or abs(defect) > 1e-10:
            raise ValueError(f"|t|^2 + |r|^2 - 1 = {defect:.3e} violates unitarity")


def _bump(u):
    # C^7 compactly supported cosine bump on |u| <= 1
    v = np.clip(u, -1.0, 1.0)
    out = np.cos(0.5 * np.pi * v) ** 8
    return np.where(np.abs(u) < 1.0, out, 0.0)


_AUX_OFFSET = 1.6   # aux slot center, in units of the main half-width
_AUX_SCALE = 0.5    # aux half-width relative to the main one
_AUX_MAX = 0.995    # amplitude ceiling keeping ln(1-|R|^2) finite


class _TargetAssembly:
    """Shared grid and bump geometry for the phase solve."""

    def __init__(self, targets):
        ks = np.array([g.k for g in targets])
        order = np.argsort(ks)
        self.targets = [targets[int(i)] for i in order]
        self.ks = ks[order]
        if np.any(np.diff(self.ks) <= 0):
            raise ValueError("target momenta must be pairwise distinct")
        gap = np.min(np.diff(self.ks)) if self.ks.size > 1 else np.inf
        # bumps clear each other and the origin; 50 samples per half-width
        self.w = float(min(gap / 4.0, self.ks[0] / 2.5))
        dk = self.w / 50.0
        hi = self.ks[-1] + 2.5 * self.w
        self.kk = np.arange(dk, hi + 0.5 * dk, dk)
        self.base = np.zeros(self.kk.size, dtype=complex)
        for g, kj in zip(self.targets, self.ks):
            if g.r != 0:
                self.base += g.r * _bump((self.kk - kj) / self.w)

    def reflection(self, s):
        R = self.base.copy()
        wa = _AUX_SCALE * self.w
        for sj, kj in zip(s, self.ks):
            if sj != 0.0:
                c = kj + np.sign(sj) * _AUX_OFFSET * self.w
                R = R + abs(sj) * _bump((self.kk - c) / wa)
        return R

    def phase_at(self, s, j):
        k_full, R_full = _mirrored(self.kk, self.reflection(s))
        return np.angle(_dispersion(k_full, np.log1p(-np.abs(R_full) ** 2), (), self.ks[j]))


def _wrap(phi):
    return (phi + np.pi) % (2.0 * np.pi) - np.pi


def build_scattering_data(targets) -> ReflectionData:
    """Synthesize reflection data hitting the given gate targets.

    Main bumps pin R(k_j) = r_j exactly (and with it |T(k_j)| = |t_j|); the
    auxiliary side bumps steer the dispersion phase until arg T(k_j) matches
    arg t_j.  One auxiliary amplitude moves the phase only a few hundredths
    of a radian around the baseline (about +-0.05 at |r| ~ 0.7); targets
    beyond that raise InfeasibleTargetError.  No bound states are introduced.
    The phase solve sweeps at most 50 times, to a residual of 1e-4 rad.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    asm = _TargetAssembly(targets)
    n = len(asm.targets)
    want = np.array([np.angle(g.t) for g in asm.targets])
    s = np.zeros(n)

    def err(j, sj):
        trial = s.copy()
        trial[j] = sj
        return _wrap(asm.phase_at(trial, j) - want[j])

    def check_reachable(j, joint):
        # the full auxiliary range must bracket the target phase
        lo, hi = err(j, -_AUX_MAX), err(j, _AUX_MAX)
        if lo > 0 or hi < 0:
            raise InfeasibleTargetError(
                (f"target phase at k={asm.ks[j]} left the reachable band "
                 "during the joint solve") if joint else
                (f"target phase {want[j]:.4f} at k={asm.ks[j]} is outside the "
                 f"reachable band [{_wrap(want[j] + lo):.4f}, {_wrap(want[j] + hi):.4f}]")
            )

    for j in range(n):
        check_reachable(j, joint=False)

    for sweep in range(_MAX_SWEEPS):
        for j in range(n):
            if abs(err(j, s[j])) <= 0.3 * _PHASE_TOL:
                continue
            check_reachable(j, joint=True)
            s[j] = brentq(lambda v: err(j, v), -_AUX_MAX, _AUX_MAX, xtol=1e-6)
        resid = max(abs(err(j, s[j])) for j in range(n))
        if resid <= _PHASE_TOL:
            break
    else:
        raise NumericalError(
            f"phase solve did not reach {_PHASE_TOL} in {_MAX_SWEEPS} sweeps "
            f"(residual {resid:.2e})"
        )

    data = ReflectionData(*_mirrored(asm.kk, asm.reflection(s)), bound_states=())
    for g in asm.targets:
        t_got = reconstruct_transmission(data, g.k)
        r_got = data.reflection_at(g.k)
        if abs(t_got - g.t) > 1e-3 or abs(r_got - g.r) > 1e-3:
            raise NumericalError(
                f"built data misses target at k={g.k}: "
                f"|dT|={abs(t_got - g.t):.2e}, |dR|={abs(r_got - g.r):.2e}"
            )
    return data
