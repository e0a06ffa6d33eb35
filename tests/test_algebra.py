import numpy as np
import pytest

from scattergate import algebra
from scattergate.algebra import (
    CNOT,
    HADAMARD,
    NOT_GATE,
    entanglement_verdict,
    gate_distance,
    operator_schmidt,
    phase_gate,
    su11_to_su2,
    tau,
)

from conftest import assert_unitary, random_su11, random_unitary


class TestSU11Element:
    """The SU(1,1) element (a, b) that tau and su11_to_su2 check on every call."""

    def test_accepts_valid_pair(self):
        s = tau(np.sqrt(2.0), 1.0)
        # the transmission 1/a and the reflection b/a = -S[1, 1]
        assert s[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
        assert -s[1, 1] == pytest.approx(1.0 / np.sqrt(2.0))
        assert su11_to_su2(np.sqrt(2.0), 1.0)[0, 0] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_rejects_violation(self):
        for fn in (tau, su11_to_su2):
            with pytest.raises(ValueError, match=r"^not an SU\(1,1\) pair: .* = -1.000e\+00 "):
                fn(1.0, 1.0)

    def test_rejects_huge_amplitudes_without_overflow(self):
        # |a|^2 of 1e200 overflows a float: refused, not an OverflowError
        for fn in (tau, su11_to_su2):
            with pytest.raises(ValueError, match=r"^not an SU\(1,1\) pair: .* = inf exceeds"):
                fn(1e200, 1.0)

    def test_atol_loosens_check(self):
        a = np.sqrt(2.0) * (1.0 + 3e-10)
        for fn in (tau, su11_to_su2):
            with pytest.raises(ValueError, match="exceeds atol=1.0e-12$"):
                fn(a, 1.0)
            fn(a, 1.0, atol=1e-8)

    def test_random_pairs_validate(self, rng):
        for _ in range(20):
            a, b = random_su11(rng, scale=rng.uniform(0.1, 5.0))
            tau(a, b)
            su11_to_su2(a, b)


class TestTau:
    def test_hadamard_from_sqrt2_1(self):
        # a = sqrt(2), b = 1 encodes the Hadamard gate exactly
        np.testing.assert_allclose(tau(np.sqrt(2.0), 1.0), HADAMARD, atol=1e-14)

    def test_not_gate_from_1_0(self):
        # free propagation a=1, b=0 gives the off-diagonal phase gate
        expect = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(tau(1.0, 0.0), expect, atol=1e-15)

    def test_frozen_value_sqrt5_2(self):
        got = tau(np.sqrt(5.0), 2.0)
        s5 = np.sqrt(5.0)
        expect = np.array([[2.0 / s5, 1.0 / s5], [1.0 / s5, -2.0 / s5]])
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_unitary_and_symmetric(self, rng):
        for _ in range(50):
            a, b = random_su11(rng, scale=rng.uniform(0.0, 4.0))
            u = tau(a, b)
            assert_unitary(u, atol=1e-12)
            np.testing.assert_allclose(u, u.T, atol=1e-15)

    def test_rejects_non_su11(self):
        with pytest.raises(ValueError):
            tau(2.0, 1.0)


class TestSu11ToSu2:
    def test_hadamard_pair(self):
        s2 = np.sqrt(2.0)
        expect = np.array([[1.0 / s2, 1.0 / s2], [-1.0 / s2, 1.0 / s2]])
        np.testing.assert_allclose(su11_to_su2(s2, 1.0), expect, atol=1e-15)

    def test_special_unitary(self, rng):
        for _ in range(50):
            a, b = random_su11(rng, scale=rng.uniform(0.0, 4.0))
            u = su11_to_su2(a, b)
            assert_unitary(u, atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(algebra.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_uniform_superposition(self):
        e1 = np.array([1.0, 0.0])
        state = algebra.kron(HADAMARD, HADAMARD) @ np.kron(e1, e1)
        np.testing.assert_allclose(state, 0.5 * np.ones(4), atol=1e-15)

    def test_flip_first_qubit_permutes_basis(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        out = algebra.kron(algebra.BIT_FLIP, np.eye(2)) @ np.kron(e1, e2)
        np.testing.assert_allclose(out, np.kron(e2, e2), atol=1e-15)

    def test_unitary_closure(self, rng):
        u = algebra.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert_unitary(u, atol=1e-12)


class TestGateDistance:
    def test_identity_vs_bit_flip(self):
        # traceless difference: maximal separation sqrt(2)
        assert gate_distance(np.eye(2), algebra.BIT_FLIP) == pytest.approx(np.sqrt(2.0))

    def test_phase_invariance(self, rng):
        for _ in range(20):
            u = random_unitary(rng, 4)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            assert gate_distance(u, np.exp(1j * theta) * u) == pytest.approx(0.0, abs=1e-7)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            u, v, w = (random_unitary(rng, 2) for _ in range(3))
            duv = gate_distance(u, v)
            assert duv == pytest.approx(gate_distance(v, u), abs=1e-12)
            assert duv <= gate_distance(u, w) + gate_distance(w, v) + 1e-12

    def test_not_family_at_n100(self):
        # a = sqrt(n^2+1), b = n approaches diag(1,-1); frozen at n = 100
        n = 100.0
        d = gate_distance(tau(np.sqrt(n * n + 1.0), n), NOT_GATE)
        assert d == pytest.approx(0.0100, abs=5e-5)

    def test_not_family_monotone(self):
        ns = np.array([2.0, 5.0, 10.0, 30.0, 100.0, 300.0])
        ds = [gate_distance(tau(np.sqrt(n * n + 1.0), n), NOT_GATE) for n in ns]
        assert all(x > y for x, y in zip(ds, ds[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gate_distance(np.eye(2), np.eye(4))


class TestOperatorSchmidt:
    def test_identity_coefficients(self):
        s = operator_schmidt(np.eye(4)).coefficients
        np.testing.assert_allclose(s, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_cnot_coefficients(self):
        s = operator_schmidt(CNOT).coefficients
        s2 = np.sqrt(2.0)
        np.testing.assert_allclose(s, [s2, s2, 0.0, 0.0], atol=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(10):
            u = random_unitary(rng, 4)
            dec = operator_schmidt(u)
            np.testing.assert_allclose(dec.reconstruct(), u, atol=1e-10)

    def test_matches_direct_reshuffle(self, rng):
        # independent oracle: build the reshuffle entry by entry
        u = random_unitary(rng, 4)
        m = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for el in range(2):
                        m[2 * i + k, 2 * j + el] = u[2 * i + j, 2 * k + el]
        s_oracle = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(
            operator_schmidt(u).coefficients, s_oracle, atol=1e-12
        )

    def test_product_gate_rank_one(self, rng):
        for _ in range(10):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            s = operator_schmidt(u).coefficients
            assert s[0] == pytest.approx(2.0, abs=1e-10)
            assert s[1] < 1e-10

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            operator_schmidt(np.eye(2))


class TestEntanglementVerdict:
    def test_cnot_entangling(self):
        assert entanglement_verdict(CNOT) == "entangling"

    def test_products_are_products(self, rng):
        for _ in range(10):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            assert entanglement_verdict(u) == "product"

    def test_phase_gate_values(self):
        np.testing.assert_allclose(
            phase_gate(np.pi), np.diag([1.0, -1.0]).astype(complex), atol=1e-15
        )
