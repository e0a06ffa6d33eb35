"""Adaptive fourth-order Magnus propagator for every 2x2 linear flow.

``transfer_matrix`` propagates y' = A(x) y from x_from to x_to, in either
direction, for any 2x2 generator A: real or complex, with or without trace.
The Schrodinger systems pass [[0, k], [-(k^2 + Q)/k, 0]] (the variables
(psi, psi'/k)), the bound-state search adds -eta I to its tilted frame, a
Fuchsian monodromy passes dz(u) omega(z(u)) along each loop segment, and a
pulse S-matrix passes the rotating-frame -i [[-delta/2, E], [conj E, delta/2]].

Each step is the two-Gauss-point Magnus exponential

    Omega = (h/2)(A_1 + A_2) + (sqrt(3) h^2 / 12)[A_2, A_1],

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
the Richardson value M2 + (M2 - M1)/15.  The others are bisected j times at
once, 1 <= j <= _LEVELS, where j is what the h^5 fall of the difference
predicts the parts need to pass.  Accepted intervals that tile a prefix of
the span are multiplied in order by a pairwise product tree, so the live
intervals stay bounded by a few rounds.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Gauss-Legendre nodes on [0, 1]
_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_COMMUTATOR = np.sqrt(3.0) / 12.0
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
    # the entries (A00, A01, A10, A11) at the first and at the second Gauss
    # node of each step; a constant entry stays one scalar
    entries = []
    for entry in map(np.asarray, gen(x.ravel())):
        if not np.isfinite(entry).all():
            at = x.ravel()[~np.isfinite(np.broadcast_to(entry, (x.size,)))][0]
            raise NumericalError(f"{what} integration failed: generator not finite at x = {at}")
        entries.append(entry.reshape(x.shape).T if entry.ndim else (entry.item(),) * 2)
    return zip(*entries)


def _steps(gen, x_from, span, u, du, what):
    """Stacked one-step propagators over the fractions [u, u + du] of the span."""
    h = du * span
    x = x_from + span * (u[:, None] + du[:, None] * _NODES)
    (p1, q1, s1, w1), (p2, q2, s2, w2) = _at_nodes(gen, x, what)
    kappa = _COMMUTATOR * h
    # Omega = tau I + h nu with nu traceless: the mean of A plus kappa times
    # the commutator [A_2, A_1], written out entrywise
    tau = h * (0.25 * (p1 + p2 + w1 + w2))
    d1, d2 = p1 - w1, p2 - w2
    nu00 = 0.25 * (d1 + d2) + kappa * (q2 * s1 - q1 * s2)
    nu01 = 0.5 * (q1 + q2) + kappa * (q1 * d2 - q2 * d1)
    nu10 = 0.5 * (s1 + s2) + kappa * (s2 * d1 - s1 * d2)
    r2 = h * h * (nu00 * nu00 + nu01 * nu10)
    real = not any(np.iscomplexobj(v) for v in (tau, nu00, nu01, nu10))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # e^tau cosh r and e^tau sinh(r)/r, with tau inside the exponent of
        # the growing branch; (1 - e^{-2r})/2 is exact for small r
        r = np.sqrt(np.abs(r2)) if real else np.sqrt(r2 + 0j)
        e = np.exp(r + tau)
        half_gap = -0.5 * np.expm1(-2.0 * r)
        if real:
            grow = r2 > 0.0
            cosh_part = np.where(grow, e * (1.0 - half_gap), np.exp(tau) * np.cos(r))
            sinh_part = np.where(grow, e * half_gap / r, np.exp(tau) * np.sinc(r / np.pi))
        else:
            cosh_part = e * (1.0 - half_gap)
            sinh_part = np.where(r == 0.0, np.exp(tau), e * half_gap / r)
        sinh_h = sinh_part * h
        out = np.empty((u.size, 2, 2), dtype=float if real else complex)
        out[:, 0, 0] = cosh_part + sinh_h * nu00
        out[:, 0, 1] = sinh_h * nu01
        out[:, 1, 0] = sinh_h * nu10
        out[:, 1, 1] = cosh_part - sinh_h * nu00
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
    if not (np.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
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
        n = min(u.size, _CHUNK)
        evaluated += n
        if evaluated > _MAX_INTERVALS:
            raise NumericalError(
                f"{what} integration failed: more than {_MAX_INTERVALS} Magnus intervals"
            )
        cu, cdu = u[:n], du[:n]
        half = 0.5 * cdu
        m = _steps(gen, x_from, span, np.concatenate([cu, cu, cu + half]),
                   np.concatenate([cdu, half, half]), what)
        m1, left, right = m[:n], m[n:2 * n], m[2 * n:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m2 = right @ left
            size = np.max(np.abs(m2), axis=(1, 2))
            diff = np.max(np.abs(m2 - m1), axis=(1, 2))
            tol = np.maximum(rtol * cdu, _FLOOR) * size
            ok = (diff <= tol) & (size >= _TINY) & np.isfinite(size)
            # the difference falls like h^5: 2^j parts should pass
            j = np.clip(np.ceil(np.log2(diff[~ok] / tol[~ok]) / 5.0 + _MARGIN), 1, _LEVELS)
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
        done_m = np.concatenate([done_m, m2[ok] + (m2[ok] - m1[ok]) / 15.0])
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
