"""Adaptive fourth-order Magnus propagator for the 2x2 Schrodinger systems.

``transfer_matrix`` propagates y' = (A(x) + shift) y with the traceless
generator A = [[0, 1], [-g(x), 0]] (g = k^2 + Q for the wave equation
psi'' + (k^2 + Q) psi = 0) from x_from to x_to, in either direction.

Each step is the two-Gauss-point Magnus exponential

    Omega = (h/2)(A_1 + A_2) + (sqrt(3) h^2 / 12)(g_2 - g_1) sigma_3,

whose 2x2 exponential is closed form (Omega^2 = d I): cosh/sinh where d > 0,
cos/sin where d < 0.  It is exact wherever g is constant and keeps its
accuracy at large h k, so a free stretch costs one step whatever its length
(Iserles, BIT 42, 561 (2002); Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)).  The scalar shift enters as e^{shift h} folded into the same
exponent, so the decaying frames of the bound-state search never overflow.

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


def _steps(g, x_from, span, u, du, scale, shift, what):
    """Stacked one-step propagators over the fractions [u, u + du] of the
    span, in the variables (y, y'/scale)."""
    h = du * span
    x = x_from + span * (u[:, None] + du[:, None] * _NODES)
    gv = np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)
    gs = gv / scale
    if not np.all(np.isfinite(gs)):
        at = x[~np.isfinite(gs)][0]
        raise NumericalError(f"{what} integration failed: generator not finite at x = {at}")
    c = _COMMUTATOR * h * h * (gv[:, 1] - gv[:, 0])
    d = c * c - h * h * 0.5 * (gv[:, 0] + gv[:, 1])
    r = np.sqrt(np.abs(d))
    sh = shift * h
    # both branches everywhere, the unused one discarded: cosh r and
    # sinh(r)/r times e^{shift h} with the shift inside the exponent where
    # d > 0, cos r and sin(r)/r where d <= 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e = np.exp(r + sh)
        half_gap = -0.5 * np.expm1(-2.0 * r)  # (1 - e^{-2r})/2, exact for small r
        grow = d > 0.0
        cosh_part = np.where(grow, e * (1.0 - half_gap), np.exp(sh) * np.cos(r))
        sinh_part = np.where(grow, e * half_gap / r, np.exp(sh) * np.sinc(r / np.pi))
        out = np.empty((u.size, 2, 2))
        out[:, 0, 0] = cosh_part + sinh_part * c
        out[:, 0, 1] = sinh_part * h * scale
        out[:, 1, 0] = -sinh_part * h * 0.5 * (gs[:, 0] + gs[:, 1])
        out[:, 1, 1] = cosh_part - sinh_part * c
    return out


def transfer_matrix(g, x_from, x_to, rtol, what, scale=1.0, shift=0.0):
    """Real 2x2 M with (y, y'/scale)(x_to) = M (y, y'/scale)(x_from).

    g maps a 1-D array of x to k^2 + Q there; scale > 0 weighs y' against y
    in the error norm (the momentum, or eta).  Raises ValueError for a bad
    rtol or span, NumericalError naming ``what`` for a non-finite generator,
    a propagator that overflows, or more than _MAX_INTERVALS intervals.
    """
    if not (np.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    span = float(x_to) - float(x_from)
    if not np.isfinite(span):
        raise ValueError(f"{what} integration span ({x_from}, {x_to}) is not finite")
    u = np.arange(_INITIAL) / _INITIAL
    du = np.full(_INITIAL, 1.0 / _INITIAL)
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
        m = _steps(g, x_from, span, np.concatenate([cu, cu, cu + half]),
                   np.concatenate([cdu, half, half]), scale, shift, what)
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
            while len(chain) > 1:
                odd = chain[len(chain) - len(chain) % 2:]
                chain = np.concatenate([chain[1::2] @ chain[0:len(chain) - 1:2], odd])
            total = chain[0] @ total
            done_u, done_m = done_u[~ready], done_m[~ready]
    if not np.all(np.isfinite(total)):
        raise NumericalError(f"{what} integration failed: the propagator overflowed")
    return total
