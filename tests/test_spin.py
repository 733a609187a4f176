import re

import numpy as np
import pytest

from kossprobe import spin


I2 = np.eye(2)


class TestPauli:
    def test_sigma3_diagonal(self):
        assert np.array_equal(spin.pauli(3), np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_involution(self):
        for k in (1, 2, 3):
            assert np.allclose(spin.pauli(k) @ spin.pauli(k), I2)

    def test_algebra_relation(self):
        assert np.allclose(spin.pauli(1) @ spin.pauli(2), 1j * spin.pauli(3))

    def test_anticommutators(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                anti = spin.pauli(i) @ spin.pauli(j) + spin.pauli(j) @ spin.pauli(i)
                expected = 2.0 * I2 if i == j else np.zeros((2, 2))
                assert np.max(np.abs(anti - expected)) <= 1e-15

    def test_hermitian_unitary_traceless(self):
        for k in (1, 2, 3):
            s = spin.pauli(k)
            assert np.array_equal(s, s.conj().T)
            assert np.max(np.abs(s.conj().T @ s - I2)) <= 1e-15
            assert abs(np.trace(s)) <= 1e-15

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            spin.pauli(0)
        with pytest.raises(ValueError):
            spin.pauli(4)


class TestRotations:
    def test_rotation_1_matrix(self):
        expected = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(spin.rotation(1), expected, atol=1e-15)

    def test_rotation_2_matrix(self):
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(spin.rotation(2), expected, atol=1e-15)

    def test_unitarity(self):
        for k in (1, 2):
            r = spin.rotation(k)
            assert np.max(np.abs(r.conj().T @ r - I2)) <= 1e-15

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            spin.rotation(3)

    def test_conjugation_signs(self):
        # computed, not assumed: conjugating with rotation(k) fixes sigma_k and
        # exchanges the other two Pauli matrices with exactly these signs
        r1, r2 = spin.rotation(1), spin.rotation(2)
        assert np.allclose(r1.conj().T @ spin.pauli(2) @ r1, -spin.pauli(3), atol=1e-15)
        assert np.allclose(r1.conj().T @ spin.pauli(3) @ r1, +spin.pauli(2), atol=1e-15)
        assert np.allclose(r1.conj().T @ spin.pauli(1) @ r1, +spin.pauli(1), atol=1e-15)
        assert np.allclose(r2.conj().T @ spin.pauli(1) @ r2, +spin.pauli(3), atol=1e-15)
        assert np.allclose(r2.conj().T @ spin.pauli(3) @ r2, -spin.pauli(1), atol=1e-15)
        assert np.allclose(r2.conj().T @ spin.pauli(2) @ r2, +spin.pauli(2), atol=1e-15)

    def test_pauli_frame_matches_conjugation(self):
        for k in (1, 2):
            u = spin.rotation(k)
            o = spin.pauli_frame(u)
            assert np.allclose(o @ o.T, np.eye(3), atol=1e-14)
            for i in (1, 2, 3):
                direct = u.conj().T @ spin.pauli(i) @ u
                expanded = sum(o[i - 1, j] * spin.pauli(j + 1) for j in range(3))
                assert np.allclose(direct, expanded, atol=1e-14)

    def test_pauli_frame_identity(self):
        assert np.allclose(spin.pauli_frame(np.eye(2)), np.eye(3))

    # each was read as a frame: 1.5 * I gave O = 2.25 * I, and a nan entry an O of nans
    @pytest.mark.parametrize("u, deviation", [
        ([[2.0, 1.0j], [0.5, 1.0]], "3.25"),
        (1.5 * np.eye(2), "1.25"),
        ([[np.nan, 0.0], [0.0, 1.0]], "nan"),
    ], ids=["general", "scaled", "nan"])
    def test_pauli_frame_refuses_a_non_unitary_u(self, u, deviation):
        refused = re.escape(f"u must be unitary, got max |u^dag u - 1| = {deviation}")
        with pytest.raises(ValueError, match=f"^{refused}$"):
            spin.pauli_frame(u)


class TestBases:
    def test_canonical_is_bell(self):
        b = spin.basis("canonical")
        s = 1 / np.sqrt(2)
        assert np.allclose(b.vectors[0], [s, 0, 0, s])
        assert np.allclose(b.vectors[1], [0, s, s, 0])
        assert np.allclose(b.vectors[2], [0, s, -s, 0])
        assert np.allclose(b.vectors[3], [s, 0, 0, -s])

    @pytest.mark.parametrize("label", spin.BASIS_LABELS)
    def test_orthonormality(self, label):
        v = spin.basis(label).vectors
        gram = v.conj() @ v.T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_rot_bases_are_lifted_rotations(self):
        bell = spin.bell_states()
        for label, kind in (("rot1", 1), ("rot2", 2)):
            lifted = np.kron(np.eye(2), spin.rotation(kind))
            b = spin.basis(label)
            for i in range(4):
                assert np.allclose(b.vectors[i], lifted @ bell[i], atol=1e-14)

    def test_rot2_last_vector_componentwise(self):
        lifted = np.kron(np.eye(2), spin.rotation(2))
        expected = lifted @ spin.bell_states()[3]
        assert np.allclose(spin.basis("rot2").vectors[3], expected, atol=1e-14)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            spin.basis("rot3")


class TestSpinStatePair:
    def test_explicit_vectors(self):
        phi0, phi1 = spin.basis("canonical").state_pair()
        s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
        assert np.allclose(phi0, np.array([0, 1, -1, 0]) / s2, atol=1e-15)
        assert np.allclose(phi1, np.array([1, 1 / s2, 1 / s2, 1]) / s3, atol=1e-15)

    def test_normalized_and_orthogonal(self):
        phi0, phi1 = spin.basis("canonical").state_pair()
        assert abs(np.vdot(phi0, phi0) - 1) <= 1e-15
        assert abs(np.vdot(phi1, phi1) - 1) <= 1e-15
        assert abs(np.vdot(phi0, phi1)) <= 1e-15

    def test_bell_identity(self):
        # phi0 is the third Bell vector, phi1 = (psi1 + sqrt(2) psi0)/sqrt(3)
        bell = spin.bell_states()
        phi0, phi1 = spin.basis("canonical").state_pair()
        assert np.max(np.abs(phi0 - bell[2])) <= 1e-15
        expected = (bell[1] + np.sqrt(2.0) * bell[0]) / np.sqrt(3.0)
        assert np.max(np.abs(phi1 - expected)) <= 1e-15


class TestVectorization:
    def test_left_right_multiplication(self):
        # column stacking: vec(a rho b) = kron(b^T, a) vec(rho)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        l = np.kron(b.T, a)
        assert np.allclose(spin.vec(a @ rho @ b), l @ spin.vec(rho), atol=1e-12)
        assert np.allclose(spin.unvec(l @ spin.vec(rho)), a @ rho @ b, atol=1e-12)

    def test_vec_is_column_stacking(self):
        m = np.array([[1, 2], [3, 4]])
        assert np.array_equal(spin.vec(m), [1, 3, 2, 4])
        assert np.array_equal(spin.unvec(np.array([1, 3, 2, 4])), m)
