"""Gate algebra: SU(1,1) scattering data and the unitary matrices it encodes.

A lossless 1-D scatterer is described by a pair of complex amplitudes (a, b)
with |a|^2 - |b|^2 = 1.  Two different unitary matrices are attached to that
pair here: the symmetric 2x2 scattering matrix built from the transmission
and reflection coefficients t = 1/a, r = b/a, and the SU(2) matrix obtained
by reweighting the columns.  Both are exactly unitary whenever the input
satisfies the SU(1,1) constraint, which both functions check on each call.

The module also carries the small zoo of fixed gates used throughout the
tests and demos, a phase-invariant distance between gates, and an operator
Schmidt decomposition for deciding whether a two-qubit gate is entangling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._samples import numbers
from .codec import Positive, checked

EYE2 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# diag(1, -1): the "NOT" in the scattering-gate sense (phase flip of |1>).
NOT_GATE = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# the conventional bit flip, kept under a separate name
BIT_FLIP = SIGMA1.copy()
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * checked("phi", float, phi))]], dtype=complex)


def _check_su11(a, b, atol):
    # refuse a pair off |a|^2 - |b|^2 = 1 by more than atol
    checked("atol", Positive, atol)
    try:
        defect = abs(a) ** 2 - abs(b) ** 2 - 1.0
    except OverflowError:  # float ** raises where |a| or |b| exceed 1e154
        defect = np.inf
    if not np.isfinite(defect) or abs(defect) > atol:
        raise ValueError(
            f"not an SU(1,1) pair: |a|^2-|b|^2-1 = {defect:.3e} exceeds atol={atol:.1e}"
        )


def tau(a: complex, b: complex, atol: float = 1e-12) -> np.ndarray:
    """Symmetric unitary scattering matrix [[conj(b)/a, 1/a], [1/a, -b/a]].

    Unitarity is exactly the SU(1,1) constraint, so the pair is checked
    first: a ValueError refuses it where |a|^2 - |b|^2 - 1 exceeds atol
    (solver output good to ~1e-8 passes atol=1e-8).
    """
    _check_su11(a, b, atol)
    return np.array(
        [
            [np.conj(b) / a, 1.0 / a],
            [1.0 / a, -b / a],
        ],
        dtype=complex,
    )


def su11_to_su2(a: complex, b: complex, atol: float = 1e-12) -> np.ndarray:
    """SU(2) matrix [[1/a, b/conj(a)], [-conj(b)/a, 1/conj(a)]], checked as tau checks."""
    _check_su11(a, b, atol)
    return np.array(
        [
            [1.0 / a, b / np.conj(a)],
            [-np.conj(b) / a, 1.0 / np.conj(a)],
        ],
        dtype=complex,
    )


def kron(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kronecker product u (x) v; unitary whenever both factors are."""
    return np.kron(numbers(u, complex, "u"), numbers(v, complex, "v"))


def gate_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant distance between two n x n unitaries.

    min over theta of ||u - e^{i theta} v||_F / sqrt(n), which evaluates to
    sqrt(2 - 2 |tr(u^dag v)| / n).  Ranges over [0, sqrt(2)]; it is zero iff
    the gates agree up to a global phase.
    """
    u, v = numbers(u, complex, "u"), numbers(v, complex, "v")
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    n = u.shape[0]
    overlap = abs(np.trace(u.conj().T @ v)) / n
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Operator Schmidt data of a two-qubit gate U = sum_m s_m A_m (x) B_m."""

    coefficients: np.ndarray      # singular values, descending, length 4
    left_factors: np.ndarray      # (4, 2, 2), orthonormal in Frobenius inner product
    right_factors: np.ndarray     # (4, 2, 2)

    def __post_init__(self):
        total = float(np.sum(self.coefficients**2))
        if not abs(total - 4.0) <= 1e-8:  # NaN fails too
            raise ValueError(f"sum s_m^2 = {total:.6f}, expected 4 for a unitary")

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for s, am, bm in zip(self.coefficients, self.left_factors, self.right_factors):
            out += s * np.kron(am, bm)
        return out


def operator_schmidt(u: np.ndarray) -> SchmidtDecomposition:
    """Schmidt-decompose a 4x4 operator across the A (x) B tensor split.

    The reshuffled matrix M[(i,k),(j,l)] = U[(i,j),(k,l)] is SVD'd; each left
    singular vector reshapes to an A factor and each right one to a B factor.
    For a unitary the coefficients satisfy sum s_m^2 = 4; a product gate
    u_A (x) u_B has exactly one nonzero coefficient (s_1 = 2).
    """
    u = numbers(u, complex, "u")
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    m = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    w, s, vh = np.linalg.svd(m)
    left = np.array([w[:, i].reshape(2, 2) for i in range(4)])
    right = np.array([vh[i].reshape(2, 2) for i in range(4)])
    return SchmidtDecomposition(coefficients=s, left_factors=left, right_factors=right)


def entanglement_verdict(u: np.ndarray) -> str:
    """Classify a two-qubit gate as 'entangling', 'product' or 'indeterminate'.

    Decided by the second operator Schmidt coefficient: clearly above noise
    (> 1e-3) means the gate cannot be written as a tensor product; at
    round-off level (< 1e-10) it is a product; in between no call is made.
    """
    s = operator_schmidt(u).coefficients
    if s[1] > 1e-3:
        return "entangling"
    if s[1] < 1e-10:
        return "product"
    return "indeterminate"
