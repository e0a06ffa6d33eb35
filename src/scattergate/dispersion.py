"""Transmission reconstruction from reflection data, and data synthesis.

For a decaying real potential the transmission amplitude is determined by
|R(k)| and the bound-state poles:

    T(k) = sqrt(1 - |R(k)|^2) * prod_j (k + i eta_j)/(k - i eta_j)
           * exp( (1/(2 pi i)) PV int ln(1 - |R(z)|^2) / (z - k) dz ),

a principal-value dispersion integral over the full momentum axis.  The
reflection grid therefore always covers both signs of k, with the reality
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
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from ._samples import checked_samples
from .codec import Document
from .direct1d import BoundState, find_bound_states, solve_grid
from .errors import InfeasibleTargetError, NumericalError


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

    def __post_init__(self):
        k, R = checked_samples(self.k, self.R, complex, min_size=2)
        if not (k[0] < 0.0 < k[-1]):
            raise ValueError("grid must cover negative and positive momenta")
        mod = np.abs(R)
        if not np.all(mod < 1.0):
            raise ValueError("|R| must stay below 1 (log singularity otherwise)")
        if mod[0] >= 1e-6 or mod[-1] >= 1e-6:
            raise ValueError("|R| must decay below 1e-6 at the grid ends")
        states = tuple(self.bound_states)
        if not all(isinstance(s, BoundState) for s in states):
            raise ValueError("bound_states must be BoundState instances")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "bound_states", states)

    def reflection_at(self, k: float) -> complex:
        re = np.interp(k, self.k, self.R.real)
        im = np.interp(k, self.k, self.R.imag)
        return complex(re + 1j * im)


def reconstruct_transmission(data: ReflectionData, k: float) -> complex:
    """T(k) from |R| and bound states via the dispersion formula."""
    k = float(k)
    if not (data.k[0] < k < data.k[-1]):
        raise ValueError(f"momentum {k} lies outside the data grid")
    h = np.log1p(-np.abs(data.R) ** 2)
    phase = principal_value_integral(data.k, h, k)
    r2 = np.interp(k, data.k, np.abs(data.R) ** 2)
    t = complex(np.sqrt(max(1.0 - r2, 0.0)))
    for s in data.bound_states:
        t *= (k + 1j * s.eta) / (k - 1j * s.eta)
    return t * np.exp(-0.5j * phase / np.pi)


def sample_reflection(
    q,
    kmax: float = 10.0,
    dk: float = 2.5e-4,
    n_solve: int = 420,
    k_lo: float = 0.04,
    taper: float = 0.8,
    threads: int = 1,
) -> ReflectionData:
    """Sample R(k) = b/a of a potential onto a dense symmetric grid.

    Direct solves run on a geometric node set in [k_lo, kmax] and are
    interpolated (cubic in ln k) onto the uniform output grid.  Below k_lo
    the samples are extended by the generic total-reflection model
    ln(1-|R|^2) ~ 2 ln k + const when |R(k_lo)| is already close to 1, and
    by a constant otherwise (weak or reflectionless scatterers).  |R| is
    tapered smoothly to zero above taper*kmax so the data satisfies the
    end-decay contract; push kmax up if the tail still carries weight.
    threads is accepted for compatibility; work runs serially.
    """
    if not (0 < k_lo < taper * kmax):
        raise ValueError("need 0 < k_lo < taper*kmax")
    nodes = np.geomspace(k_lo, kmax, n_solve)
    coeffs = solve_grid(q, nodes)
    r_nodes = np.array([c.reflection for c in coeffs])
    spl_re = CubicSpline(np.log(nodes), r_nodes.real)
    spl_im = CubicSpline(np.log(nodes), r_nodes.imag)

    kk = np.arange(dk, kmax + 0.5 * dk, dk)
    R = np.empty(kk.size, dtype=complex)
    body = kk >= k_lo
    R[body] = spl_re(np.log(kk[body])) + 1j * spl_im(np.log(kk[body]))

    head = ~body
    r0 = r_nodes[0]
    if abs(r0) ** 2 > 0.5:
        # near-total reflection at k_lo: |T|^2 vanishes like k^2 at the origin
        h0 = np.log1p(-abs(r0) ** 2)
        hh = h0 + 2.0 * np.log(kk[head] / k_lo)
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

    edge = kk > taper * kmax
    win = np.ones(kk.size)
    win[edge] = np.cos(0.5 * np.pi * (kk[edge] - taper * kmax) / ((1.0 - taper) * kmax)) ** 2
    win[-1] = 0.0
    R *= win

    k_full = np.concatenate([-kk[::-1], kk])
    R_full = np.concatenate([np.conj(R[::-1]), R])

    x0, x1 = q.window
    states = ()
    if x1 > x0:
        qmax = float(np.max(q(np.linspace(x0, x1, 2001))))
        if qmax > 1e-9:
            states = tuple(find_bound_states(q, np.sqrt(qmax) + 0.1))
    return ReflectionData(k=k_full, R=R_full, bound_states=states)


@dataclass(frozen=True)
class GateTarget:
    """Prescribed (transmission, reflection) pair at one momentum."""

    k: float
    t: complex
    r: complex

    def __post_init__(self):
        if not np.all(np.isfinite([self.k, self.t, self.r])):
            raise ValueError("target momentum and amplitudes must be finite")
        if not self.k > 0:
            raise ValueError("target momentum must be positive")
        if not abs(self.t) > 0:
            raise ValueError("target transmission must be nonzero")
        defect = abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0
        if abs(defect) > 1e-10:
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

    def __init__(self, targets, width, dk):
        ks = np.array([g.k for g in targets])
        order = np.argsort(ks)
        self.targets = [targets[int(i)] for i in order]
        self.ks = ks[order]
        if np.any(np.diff(self.ks) <= 0):
            raise ValueError("target momenta must be pairwise distinct")
        gap = np.min(np.diff(self.ks)) if self.ks.size > 1 else np.inf
        if width is None:
            width = min(gap / 4.0, self.ks[0] / 2.5)
        else:
            if gap < 4.0 * width:
                raise ValueError(
                    f"targets only {gap:.4g} apart need a bump width below {gap / 4.0:.4g}"
                )
            if self.ks[0] < 2.5 * width:
                raise ValueError("lowest target too close to the origin for this width")
        self.w = float(width)
        self.dk = float(dk) if dk is not None else self.w / 50.0
        hi = self.ks[-1] + 2.5 * self.w
        self.kk = np.arange(self.dk, hi + 0.5 * self.dk, self.dk)
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

    def full_grid(self, s):
        R = self.reflection(s)
        k_full = np.concatenate([-self.kk[::-1], self.kk])
        R_full = np.concatenate([np.conj(R[::-1]), R])
        return k_full, R_full

    def phase_at(self, s, j):
        k_full, R_full = self.full_grid(s)
        h = np.log1p(-np.abs(R_full) ** 2)
        return -0.5 * principal_value_integral(k_full, h, self.ks[j]) / np.pi


def _wrap(phi):
    return (phi + np.pi) % (2.0 * np.pi) - np.pi


def build_scattering_data(
    targets,
    width: float = None,
    dk: float = None,
    phase_tol: float = 1e-4,
    max_sweeps: int = 50,
) -> ReflectionData:
    """Synthesize reflection data hitting the given gate targets.

    Main bumps pin R(k_j) = r_j exactly (and with it |T(k_j)| = |t_j|); the
    auxiliary side bumps steer the dispersion phase until arg T(k_j) matches
    arg t_j.  One auxiliary amplitude moves the phase only a few hundredths
    of a radian around the baseline (about +-0.05 at |r| ~ 0.7); targets
    beyond that raise InfeasibleTargetError.  No bound states are introduced.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    asm = _TargetAssembly(targets, width, dk)
    n = len(asm.targets)
    want = np.array([np.angle(g.t) for g in asm.targets])
    s = np.zeros(n)

    def err(j, sj):
        trial = s.copy()
        trial[j] = sj
        return _wrap(asm.phase_at(trial, j) - want[j])

    for j in range(n):
        lo, hi = err(j, -_AUX_MAX), err(j, _AUX_MAX)
        if lo > 0 or hi < 0:
            raise InfeasibleTargetError(
                f"target phase {want[j]:.4f} at k={asm.ks[j]} is outside the "
                f"reachable band [{_wrap(want[j] + lo):.4f}, {_wrap(want[j] + hi):.4f}]"
            )

    for sweep in range(max_sweeps):
        moved = 0.0
        for j in range(n):
            r = err(j, s[j])
            if abs(r) <= 0.3 * phase_tol:
                continue
            lo, hi = err(j, -_AUX_MAX), err(j, _AUX_MAX)
            if lo > 0 or hi < 0:
                raise InfeasibleTargetError(
                    f"target phase at k={asm.ks[j]} left the reachable band "
                    "during the joint solve"
                )
            root = brentq(lambda v: err(j, v), -_AUX_MAX, _AUX_MAX, xtol=1e-6)
            moved = max(moved, abs(root - s[j]))
            s[j] = root
        resid = max(abs(err(j, s[j])) for j in range(n))
        if resid <= phase_tol:
            break
    else:
        raise NumericalError(
            f"phase solve did not reach {phase_tol} in {max_sweeps} sweeps "
            f"(residual {resid:.2e})"
        )

    k_full, R_full = asm.full_grid(s)
    data = ReflectionData(k=k_full, R=R_full, bound_states=())
    for g in asm.targets:
        t_got = reconstruct_transmission(data, g.k)
        r_got = data.reflection_at(g.k)
        if abs(t_got - g.t) > 1e-3 or abs(r_got - g.r) > 1e-3:
            raise NumericalError(
                f"built data misses target at k={g.k}: "
                f"|dT|={abs(t_got - g.t):.2e}, |dR|={abs(r_got - g.r):.2e}"
            )
    return data
