"""Numerical monodromy of rank-2 Fuchsian systems df = omega f, and the
Moebius bridge from resonant Lorentzian pulses to such systems.

The coordinate change z = 1/(t - i) maps the time line to the circle
|z - i/2| = 1/2 traversed clockwise as t runs from -infinity to +infinity;
the resonant two-level system in the sigma3 gauge (conjugation by the
Hadamard matrix) becomes a two-pole Fuchsian system whose monodromy around
the image circle reproduces the pulse S-matrix.  The clockwise image
orientation is what makes the correspondence come out as e^{-2 pi b i},
matching the time-ordered integration; plain loops elsewhere default to
counterclockwise.

Monodromy convention: continuing a fundamental solution F once around a
loop multiplies it on the right, and integrating from F = I along the loop
returns exactly that factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._magnus import transfer_matrix
from .algebra import HADAMARD, SIGMA3
from .codec import Document
from .errors import NumericalError

_RTOL = 1e-10
_EXCLUSION = 1e-6


@dataclass(frozen=True, eq=False)
class FuchsianSystem(Document):
    """Simple-pole matrix 1-form omega = sum_j A_j dz / (z - s_j)."""

    poles: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]

    def __post_init__(self):
        poles = tuple(complex(s) for s in self.poles)
        residues = tuple(np.asarray(m, dtype=complex) for m in self.residues)
        if len(poles) != len(residues):
            raise ValueError("need one residue matrix per pole")
        if any(m.shape != (2, 2) for m in residues):
            raise ValueError("residues must be 2x2 matrices")
        if not (np.all(np.isfinite(poles)) and all(np.all(np.isfinite(m)) for m in residues)):
            raise ValueError("poles and residues must be finite")
        for j in range(len(poles)):
            for l in range(j + 1, len(poles)):
                if abs(poles[j] - poles[l]) <= 1e-8:
                    raise ValueError(f"poles {j} and {l} coincide")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)

    def omega(self, z) -> np.ndarray:
        """Coefficient matrix of the 1-form at z (the dz factor stripped);
        an array of z gives the stack of matrices, shape z.shape + (2, 2)."""
        out = np.zeros(np.shape(z) + (2, 2), dtype=complex)
        z = np.asarray(z)[..., None, None]
        for s, m in zip(self.poles, self.residues):
            out += m / (z - s)
        return out


class Loop(Document, tag="kind", noun="loop"):
    """Closed integration path; subclasses give the parametrization.

    on_contour declares that a pole is allowed to sit on the path; such
    loops carry principal-value meaning and are rejected by direct
    integration.  Documents written with the former ``samples`` field
    still load; the key is ignored.
    """

    @property
    def base_point(self) -> complex:
        raise NotImplementedError

    def segments(self):
        """Yield (z(u), z'(u)) per smooth segment, u in [0, 1]; both take an
        array of u, and z' may return a constant."""
        raise NotImplementedError

    def pole_distance(self, s: complex) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class CircleLoop(Loop):
    """Circle {center, radius}; orientation +1 counterclockwise, -1 clockwise."""

    center: complex
    radius: float
    orientation: int = 1
    on_contour: bool = False

    kind = "circle"

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "orientation", int(self.orientation))
        if not (np.isfinite(self.center) and np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("need a finite center and a finite positive radius")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 (ccw) or -1 (cw)")

    @property
    def base_point(self):
        return self.center + self.radius

    def segments(self):
        w = 2j * np.pi * self.orientation

        def z(u):
            return self.center + self.radius * np.exp(w * u)

        def dz(u):
            return self.radius * w * np.exp(w * u)

        yield z, dz

    def pole_distance(self, s):
        return abs(abs(s - self.center) - self.radius)


def _point_segment_distance(p, z0, z1):
    seg = z1 - z0
    ll = abs(seg) ** 2
    if ll == 0.0:
        return abs(p - z0)
    u = np.clip(((p - z0) * np.conj(seg)).real / ll, 0.0, 1.0)
    return abs(p - (z0 + u * seg))


@dataclass(frozen=True, eq=False)
class PolylineLoop(Loop):
    """Closed polyline through the listed points (first must equal last)."""

    points: tuple[complex, ...]
    on_contour: bool = False

    kind = "polyline"

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if len(pts) < 4:
            raise ValueError("need at least 3 edges")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        if abs(pts[0] - pts[-1]) > 1e-12:
            raise ValueError("path must close: first and last points differ")
        object.__setattr__(self, "points", pts)

    @property
    def base_point(self):
        return self.points[0]

    def segments(self):
        for a, b in zip(self.points, self.points[1:]):
            yield (lambda u, a=a, b=b: a + u * (b - a)), (lambda u, d=b - a: d)

    def pole_distance(self, s):
        return min(
            _point_segment_distance(s, a, b)
            for a, b in zip(self.points, self.points[1:])
        )


def monodromy(sys: FuchsianSystem, loop: Loop, rtol: float = _RTOL) -> np.ndarray:
    """Continue F = I once around the loop; returns the right factor M.

    Each smooth segment is one adaptive Magnus transfer matrix of the
    generator z'(u) omega(z(u)) over its real parameter u in [0, 1], the
    same propagator the Schrodinger solves use.  A pole closer than 1e-6 to
    the path is refused: inside that radius the local error control cannot
    vouch for the result.
    """
    for j, s in enumerate(sys.poles):
        if loop.pole_distance(s) <= _EXCLUSION:
            if loop.on_contour:
                raise NumericalError(
                    f"pole {j} at {s} lies on the contour; direct integration "
                    "does not define a principal value, use the residue-based "
                    "evaluator"
                )
            raise ValueError(
                f"pole {j} at {s} is within {_EXCLUSION} of the path"
            )
    f = np.eye(2, dtype=complex)
    for z, dz in loop.segments():
        def gen(u, z=z, dz=dz):
            a = np.asarray(dz(u))[..., None, None] * sys.omega(z(u))
            return a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]

        f = transfer_matrix(gen, 0.0, 1.0, rtol, "monodromy") @ f
    return f


def monodromy_product(sys: FuchsianSystem, loops, rtol: float = _RTOL) -> np.ndarray:
    """Product of the individual monodromies in the listed order.

    The loops must share a base point, so the product represents the
    concatenated path in the right-multiplication convention.
    """
    loops = list(loops)
    out = np.eye(2, dtype=complex)
    if not loops:
        return out
    base = loops[0].base_point
    for lp in loops[1:]:
        if abs(lp.base_point - base) > 1e-12:
            raise ValueError("loops do not share a base point")
    for lp in loops:
        out = out @ monodromy(sys, lp, rtol=rtol)
    return out


def gauge_to_su2(m: np.ndarray) -> np.ndarray:
    """Conjugate a sigma3-gauge matrix back to the sigma1 frame."""
    return HADAMARD @ np.asarray(m, dtype=complex) @ HADAMARD


def lorentzian_to_fuchsian(a: float, b: float):
    """Moebius image z = 1/(t - i) of the resonant Lorentzian two-level flow.

    Returns the two-pole sigma3-gauge system with residues +b sigma3 at
    i/(a+1) and -b sigma3 at -i/(a-1), together with the image of the time
    line: the circle |z - i/2| = 1/2 traversed clockwise.  Conjugate the
    monodromy with gauge_to_su2 to compare against the pulse S-matrix.
    """
    a = float(a)
    b = float(b)
    if not a > 0:
        raise ValueError("width a must be positive")
    if a == 1.0:
        raise ValueError(
            "a = 1 sends the second pole to infinity; the image system is "
            "not Fuchsian on the finite plane"
        )
    sys = FuchsianSystem(
        poles=(1j / (a + 1.0), -1j / (a - 1.0)),
        residues=(b * SIGMA3, -b * SIGMA3),
    )
    loop = CircleLoop(center=0.5j, radius=0.5, orientation=-1)
    return sys, loop


def odd_lorentzian_to_fuchsian(a: float):
    """Moebius image of the odd pulse E(t) = 2t / (t^2 + a^2).

    The transformed 1-form carries the extra scalar factor (1/z + i); its
    partial fractions leave a three-pole sigma3-gauge system with
    coefficients b1 = 2i at z = 0 (the image of t = infinity, sitting on
    the contour), b2 = -i at i/(a+1) and b3 = -i at i/(1-a).
    """
    a = float(a)
    if not a > 0:
        raise ValueError("width a must be positive")
    if a == 1.0:
        raise ValueError(
            "a = 1 sends the third pole to infinity; the image system is "
            "not Fuchsian on the finite plane"
        )
    p = 1j / (1.0 + a)
    q = 1j / (1.0 - a)
    # residues of (1/a)(1/z + i)(1/(z - p) - 1/(z - q))
    b1 = (1.0 / q - 1.0 / p) / a
    b2 = (1.0 / p + 1j) / a
    b3 = -(1.0 / q + 1j) / a
    sys = FuchsianSystem(
        poles=(0.0, p, q),
        residues=(b1 * SIGMA3, b2 * SIGMA3, b3 * SIGMA3),
    )
    loop = CircleLoop(center=0.5j, radius=0.5, orientation=-1, on_contour=True)
    return sys, loop


def pv_monodromy_example4(a: float) -> np.ndarray:
    """Principal-value monodromy of the odd-pulse image system.

    The contour passes through the z = 0 pole, which contributes half a
    residue; the enclosed pole at i/(a+1) contributes a full one and the
    third pole lies outside.  All residues are proportional to sigma3, so
    the assembly exp(i pi (b1 + 2 b2) sigma3) is order-independent; the
    exponent in fact vanishes identically in a (b1 = 2i, b2 = -i), which is
    the monodromy image of the odd pulse having zero area over every
    symmetric window.
    """
    sys, loop = odd_lorentzian_to_fuchsian(a)
    exponent = 0.0j
    for s, m in zip(sys.poles, sys.residues):
        if np.linalg.norm(m - np.diag(np.diag(m))) > 1e-12:
            raise NumericalError(
                "principal-value assembly needs commuting diagonal residues"
            )
        coeff = m[0, 0]
        dist = abs(s - loop.center)
        if loop.pole_distance(s) <= _EXCLUSION:
            exponent += 1j * np.pi * coeff
        elif dist < loop.radius:
            exponent += 2j * np.pi * coeff
    return np.array(
        [[np.exp(exponent), 0.0], [0.0, np.exp(-exponent)]], dtype=complex
    )
