"""Adaptive sixth-order Magnus propagator for every 2x2 linear flow.

``transfer_matrix`` propagates y' = A(x) y from x_from to x_to, in either
direction, for any 2x2 generator A: real or complex, with or without trace.
The Schrodinger systems pass [[0, k], [-(k^2 + Q)/k, 0]] (the variables
(psi, psi'/k)), the bound-state search adds -eta I to its tilted frame, a
Fuchsian monodromy passes dz(u) omega(z(u)) along each loop segment, and a
pulse S-matrix passes the rotating-frame -i [[-delta/2, E], [conj E, delta/2]].

Each step is the three-Gauss-point Magnus exponential of Blanes, Casas & Ros
(BIT 40, 434 (2000)): with A_1, A_2, A_3 at the nodes 1/2 + (-1, 0, 1)
sqrt(15)/10, a1 = h A_2, a2 = (sqrt(15)/3) h (A_3 - A_1) and
a3 = (10/3) h (A_3 - 2 A_2 + A_1),

    C_1 = [a1, a2],  C_2 = -[a1, 2 a3 + C_1]/60,
    Omega = a1 + a3/12 + [-20 a1 - a3 + C_1, a2 + C_2]/240,

taken in closed form: with tau = tr(Omega)/2, N = Omega - tau I and
r^2 = -det N, e^Omega = e^tau (cosh r I + (sinh r / r) N).  Real generators
stay in real arithmetic (cos/sin where r^2 < 0); complex ones use the
principal root r.  The trace enters the same exponent as r, so decaying
frames never overflow.  The step is exact wherever A is constant and keeps
its accuracy at large h k, so a free stretch costs one step whatever its
length (Iserles, BIT 42, 561 (2002); Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)).

Refinement runs in rounds, vectorized over up to _CHUNK pending intervals:
one step M1 is compared with two half-steps M2.  An interval whose
difference is within max(rtol h / L, 1e-13) of its size is accepted with
the Richardson value M2 + (M2 - M1)/63.  The others are bisected j times at
once, 1 <= j <= _LEVELS, where j is what the h^7 fall of the difference
predicts the parts need to pass.  Accepted intervals that tile a prefix of
the span are multiplied in order by a pairwise product tree, so the live
intervals stay bounded by a few rounds.  A solve whose pending intervals
alone would exceed _MAX_INTERVALS ends at once.
"""

from __future__ import annotations

import numpy as np

from .codec import Positive, checked
from .errors import NumericalError

# Gauss-Legendre nodes on [0, 1], and the weights of (A_3 - A_1) and
# (A_3 - 2 A_2 + A_1) in the sixth-order Magnus exponent
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
_FIRST = np.sqrt(15.0) / 3.0
_SECOND = 10.0 / 3.0
# relative step-doubling difference that roundoff alone can produce
_FLOOR = 1e-13
# an accepted step must not have underflowed to noise
_TINY = 1e-250
# equal intervals of the first round
_INITIAL = 32
# a rejected interval is split into at most 2^_LEVELS parts per round, with
# a fifth of a level to spare over the predicted split
_LEVELS = 4
_MARGIN = 0.2
# intervals refined in one round, and evaluated in one solve
_CHUNK = 1024
_MAX_INTERVALS = 1 << 20


def _at_nodes(gen, x, what):
    # the entries (A00, A01, A10, A11) at each Gauss node, one row of steps
    # per node; a constant entry stays one scalar
    entries = []
    for entry in map(np.asarray, gen(x.ravel())):
        if not np.isfinite(entry).all():
            at = x.ravel()[~np.isfinite(np.broadcast_to(entry, (x.size,)))][0]
            raise NumericalError(f"{what} integration failed: generator not finite at x = {at}")
        entries.append(entry.reshape(x.shape) if entry.ndim else (entry.item(),) * _NODES.size)
    return zip(*entries)


def _bracket(x, y):
    # [X, Y] of the traceless X = [[d, p], [q, -d]], each as (d, p, q)
    (dx, px, qx), (dy, py, qy) = x, y
    return px * qy - py * qx, 2.0 * (dx * py - px * dy), 2.0 * (qx * dy - dx * qy)


def _steps(gen, x_from, span, u, du, what):
    """Stacked one-step propagators over the fractions [u, u + du] of the span."""
    h = du * span
    x = x_from + span * (u + du * _NODES[:, None])
    nodes = _at_nodes(gen, x, what)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Omega = tau I + N with N = [[n00, n01], [n10, -n00]], from the trace
        # and the traceless part (d, p, q) of A at each node: a1 = A_2,
        # a2 = _FIRST (A_3 - A_1) and a3 = _SECOND (A_3 - 2 A_2 + A_1)
        (t1, m1), (t2, m2), (t3, m3) = ((a00 + a11, (0.5 * (a00 - a11), a01, a10))
                                        for a00, a01, a10, a11 in nodes)
        tau = h * ((5.0 / 36.0) * (t1 + t3) + (8.0 / 36.0) * t2)
        a1 = m2
        a2 = [_FIRST * (v3 - v1) for v1, v3 in zip(m1, m3)]
        a3 = [_SECOND * (v3 - 2.0 * v2 + v1) for v1, v2, v3 in zip(m1, m2, m3)]
        c1 = [h * v for v in _bracket(a1, a2)]
        c2 = [(h / -60.0) * v for v in _bracket(a1, [2.0 * v3 + c for v3, c in zip(a3, c1)])]
        outer = _bracket([c - 20.0 * v1 - v3 for v1, v3, c in zip(a1, a3, c1)],
                         [v2 + c for v2, c in zip(a2, c2)])
        n00, n01, n10 = (h * (v1 + v3 / 12.0 + (h / 240.0) * b) for v1, v3, b in zip(a1, a3, outer))
        r2 = n00 * n00 + n01 * n10
        real = not any(np.iscomplexobj(v) for v in (tau, n00, n01, n10))
        # e^tau cosh r and e^tau sinh(r)/r, with tau inside the exponent of
        # the growing branch; (1 - e^{-2r})/2 is exact for small r
        r = np.sqrt(np.abs(r2)) if real else np.sqrt(r2 + 0j)
        e = np.exp(r + tau)
        half_gap = -0.5 * np.expm1(-2.0 * r)
        if real:
            grow = r2 > 0.0
            sinc = np.where(r == 0.0, 1.0, np.sin(r) / r)
            cosh_part = np.where(grow, e * (1.0 - half_gap), np.exp(tau) * np.cos(r))
            sinh_part = np.where(grow, e * half_gap / r, np.exp(tau) * sinc)
        else:
            cosh_part = e * (1.0 - half_gap)
            sinh_part = np.where(r == 0.0, np.exp(tau), e * half_gap / r)
        out = np.empty((u.size, 2, 2), dtype=float if real else complex)
        out[:, 0, 0] = cosh_part + sinh_part * n00
        out[:, 0, 1] = sinh_part * n01
        out[:, 1, 0] = sinh_part * n10
        out[:, 1, 1] = cosh_part - sinh_part * n00
    return out


def transfer_matrix(gen, x_from, x_to, rtol, what, knots=None):
    """2x2 M with y(x_to) = M y(x_from) for y' = A(x) y.

    gen maps a 1-D array of x to the four entries (A00, A01, A10, A11), each
    an array over x or a scalar where it is constant.  The error is measured
    entrywise in M, so the generator's variables set the weights (psi'/k
    against psi, say).  The first round's intervals end at the given knots
    inside the span, or split it into _INITIAL equal parts without them, so
    no feature narrower than those intervals is stepped over unseen.
    Raises ValueError for a bad rtol or span, NumericalError naming
    ``what`` for a non-finite generator, a propagator that overflows, or
    more than _MAX_INTERVALS intervals.
    """
    rtol = checked("rtol", Positive, rtol)
    span = float(x_to) - float(x_from)
    if not np.isfinite(span):
        raise ValueError(f"{what} integration span ({x_from}, {x_to}) is not finite")
    if knots is None or span == 0.0:
        u = np.arange(_INITIAL) / _INITIAL
    else:
        u = np.unique(np.append((np.asarray(knots, dtype=float) - x_from) / span, 0.0))
        u = u[(u >= 0.0) & (u < 1.0)]
    du = np.diff(u, append=1.0)
    total = np.eye(2)
    done_u = np.empty(0)
    done_m = np.empty((0, 2, 2))
    evaluated = 0
    while u.size:
        # every pending interval is evaluated at least once
        if evaluated + u.size > _MAX_INTERVALS:
            raise NumericalError(
                f"{what} integration failed: more than {_MAX_INTERVALS} Magnus intervals"
            )
        n = min(u.size, _CHUNK)
        evaluated += n
        cu, cdu = u[:n], du[:n]
        half = 0.5 * cdu
        m = _steps(gen, x_from, span, np.concatenate([cu, cu, cu + half]),
                   np.concatenate([cdu, half, half]), what)
        m1, left, right = m[:n], m[n:2 * n], m[2 * n:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m2 = right @ left
            # the largest |entry| of each matrix, from three elementwise maxima
            size, diff = (np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3]))
                          for a in (np.abs(m2.reshape(n, 4)), np.abs((m2 - m1).reshape(n, 4))))
            tol = np.maximum(rtol * cdu, _FLOOR) * size
            ok = (diff <= tol) & (size >= _TINY) & np.isfinite(size)
            # the difference falls like h^7: 2^j parts should pass
            j = np.clip(np.ceil(np.log2(diff[~ok] / tol[~ok]) / 7.0 + _MARGIN), 1, _LEVELS)
        j = np.where(np.isfinite(j), j, _LEVELS).astype(int)
        parts = 1 << j
        su = np.repeat(cu[~ok], parts)
        sdu = np.repeat(cdu[~ok] / parts, parts)
        # offsets 0, 1, ..., parts - 1 within each split interval
        first = np.cumsum(parts) - parts
        su = su + sdu * (np.arange(su.size) - np.repeat(first, parts))
        u = np.concatenate([su, u[n:]])
        du = np.concatenate([sdu, du[n:]])
        done_u = np.concatenate([done_u, cu[ok]])
        done_m = np.concatenate([done_m, m2[ok] + (m2[ok] - m1[ok]) / 63.0])
        # accepted intervals left of the first pending one tile a prefix
        ready = done_u < (u[0] if u.size else np.inf)
        if ready.any():
            chain = done_m[ready][np.argsort(done_u[ready])]
            # an overflow here is caught by the finiteness check at the end
            with np.errstate(over="ignore", invalid="ignore"):
                while len(chain) > 1:
                    odd = chain[len(chain) - len(chain) % 2:]
                    chain = np.concatenate([chain[1::2] @ chain[0:len(chain) - 1:2], odd])
                total = chain[0] @ total
            done_u, done_m = done_u[~ready], done_m[~ready]
    if not np.all(np.isfinite(total)):
        raise NumericalError(f"{what} integration failed: the propagator overflowed")
    return total
