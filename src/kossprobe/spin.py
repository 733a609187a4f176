"""Fixed-size spin algebra for the electron + impurity system.

Pauli matrices, the Bell basis and the probe-frame rotations, used across
the package, and the column-stacking vectorization helpers ``vec``/``unvec``,
used by the oracle's superoperators.  The probe
frames are constants: :mod:`kossprobe.probe` builds their Pauli frames with
:func:`basis` and :func:`pauli_frame` once, at import.

Conventions, used consistently across the package:

* Tensor order: the first factor is the electron spin, the second factor is
  the impurity spin.  All Kronecker products follow this order.
* Computational basis ordering |00>, |01>, |10>, |11>.
* Vectorization is column-stacking, so vec(A rho B) = (B^T kron A) vec(rho).

Every function is pure and every value is immutable after construction, so
everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

BASIS_LABELS = ("canonical", "rot1", "rot2")


def pauli(index: int) -> np.ndarray:
    """Return the Pauli matrix sigma_index, index in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index!r}")
    return _PAULI[index - 1].copy()


def rotation(kind: int) -> np.ndarray:
    """Impurity-frame rotation (1 - i sigma_kind)/sqrt(2), kind in {1, 2}.

    Conjugation by rotation(k) keeps sigma_k fixed and exchanges the other
    two Pauli matrices up to a sign; the computed signs are exposed through
    :func:`pauli_frame` rather than assumed.
    """
    if kind not in (1, 2):
        raise ValueError(f"rotation kind must be 1 or 2, got {kind!r}")
    return (IDENTITY_2 - 1.0j * pauli(kind)) / np.sqrt(2.0)


def bell_states() -> np.ndarray:
    """The four Bell vectors as rows, in the order psi_0, psi_1, psi_2, psi_3."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, 0.0, 0.0, s],  # (|00> + |11>)/sqrt(2)
            [0.0, s, s, 0.0],  # (|01> + |10>)/sqrt(2)
            [0.0, s, -s, 0.0],  # (|01> - |10>)/sqrt(2)
            [s, 0.0, 0.0, -s],  # (|00> - |11>)/sqrt(2)
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class SpinBasis:
    """Four orthonormal two-qubit vectors defining one probe frame.

    ``vectors[i]`` is the i-th basis vector; ``impurity_rotation`` is the
    2x2 unitary applied to the impurity factor of the Bell basis (identity
    for the canonical frame).
    """

    label: str
    vectors: np.ndarray
    impurity_rotation: np.ndarray

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)
        self.impurity_rotation.setflags(write=False)

    @property
    def probe_state(self) -> np.ndarray:
        """The detection state, index 3 of the basis."""
        return self.vectors[3]

    def state_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The two spin states carried by a scattering eigenstate, in this frame.

        phi0 is the singlet combination, phi1 the normalized sum of the three
        triplet components; both are expressed through this basis's vectors.
        In the canonical frame phi0 = (|01> - |10>)/sqrt(2) and
        phi1 = (|00> + (|01> + |10>)/sqrt(2) + |11>)/sqrt(3).
        """
        phi0 = self.vectors[2]
        phi1 = (self.vectors[1] + np.sqrt(2.0) * self.vectors[0]) / np.sqrt(3.0)
        return phi0, phi1


def basis(label: str) -> SpinBasis:
    """Build the canonical Bell basis or one of the two rotated probe bases."""
    if label not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}")
    if label == "canonical":
        u = IDENTITY_2.copy()
    else:
        u = rotation(1 if label == "rot1" else 2)
    lifted = np.kron(IDENTITY_2, u)
    vectors = bell_states() @ lifted.T
    return SpinBasis(label=label, vectors=vectors, impurity_rotation=u)


def pauli_frame(u: np.ndarray) -> np.ndarray:
    """Real 3x3 matrix O with u^dag sigma_i u = sum_j O[i, j] sigma_j.

    O is the rotation induced on Pauli labels by conjugating with the 2x2
    unitary ``u``, so it is orthogonal; a ``u`` that is not unitary within
    1e-12 is refused.  Each O[i, j] is real, as u^dag sigma_i u is Hermitian.
    """
    u = np.asarray(u, dtype=complex)
    deviation = np.max(np.abs(u.conj().T @ u - IDENTITY_2))
    if not deviation <= 1e-12:  # a nan entry too
        raise ValueError(f"u must be unitary, got max |u^dag u - 1| = {deviation:.3g}")
    o = np.empty((3, 3))
    for i in range(3):
        conj = u.conj().T @ _PAULI[i] @ u
        for j in range(3):
            o[i, j] = (0.5 * np.trace(_PAULI[j] @ conj)).real
    return o


# ---------------------------------------------------------------------------
# vectorization (column-stacking)
# ---------------------------------------------------------------------------


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix."""
    v = np.asarray(v)
    dim = int(round(np.sqrt(v.size)))
    return v.reshape((dim, dim), order="F")
