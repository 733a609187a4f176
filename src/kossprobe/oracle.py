"""Independent brute-force ground truth for every closed form in the package.

The dissipator is assembled as an explicit vectorized superoperator straight
from its definition, using only Kronecker identities; the compressed 2x2 form
and all six detection rates are then evaluated from the defining sandwiches,
and exact dynamics come from the matrix exponential of the superoperator.
None of the closed-form expressions in :mod:`kossprobe.kossakowski` or
:mod:`kossprobe.probe` are used anywhere in this path, which is what makes
the adjudication meaningful.  Shared surface is limited to the spin-algebra
primitives (Pauli matrices, bases, vectorization conventions), the
scattering coefficients, which are inputs, and the type check
:func:`kossprobe.kossakowski.as_kossakowski`, by which C enters here as it
enters the closed forms.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .kossakowski import as_kossakowski
from .probe import AGREEMENT_TOL, CANONICAL_PHASE, CHANNELS, build_matrix_appendix, build_matrix_programmatic, compare_matrices, forward
from .scattering import ScatteringCoefficients, coefficients
from .spin import BASIS_LABELS, IDENTITY_2, basis, pauli, unvec, vec

_SQRT3 = np.sqrt(3.0)
# The adjudication's couplings and the seed of its random C, fixed so that a
# fresh report compares with the committed one in adjudication/.
ADJUDICATION_G_VALUES = (0.5, 2.0, 5.0)
ADJUDICATION_SEED = 20240901
# exp(tL) and exp(tL/2)^2 may differ by this much relative to max(1, max|exp(tL)|).
_EXPM_RTOL = 1e-10


def build_superop(c, lifted: bool) -> np.ndarray:
    """Vectorized dissipator, 4x4 on the impurity alone or 16x16 when lifted.

    Assembled term by term from vec(A rho B) = (B^T kron A) vec(rho); the
    lifted form tensors the identity on the electron-spin factor.
    """
    a = as_kossakowski(c).matrix
    if lifted:
        sigmas = [np.kron(IDENTITY_2, pauli(i)) for i in (1, 2, 3)]
        eye = np.eye(4, dtype=complex)
    else:
        sigmas = [pauli(i) for i in (1, 2, 3)]
        eye = IDENTITY_2
    dim = eye.shape[0]
    l = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(3):
        for j in range(3):
            cij = a[i, j]
            if cij == 0:
                continue
            sij = sigmas[i] @ sigmas[j]
            l += cij * (
                np.kron(sigmas[i].T, sigmas[j])
                - 0.5 * (np.kron(eye, sij) + np.kron(sij.T, eye))
            )
    return l


def apply_superop(l: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unvec(l @ vec(rho))


def d_tilde_bruteforce(c, probe_basis: str = "canonical") -> np.ndarray:
    """The compressed 2x2 form from its definition.

    Entry (i, j) is <v3| L[|phi_j><phi_i|] |v3> with v3 the probe state and
    (phi_0, phi_1) the eigenstate spin states, all expressed in the requested
    frame, and L the lifted superoperator.
    """
    b = basis(probe_basis)
    l = build_superop(c, lifted=True)
    phi = b.state_pair()
    v3 = b.probe_state
    d = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            rho = np.outer(phi[j], phi[i].conj())
            d[i, j] = v3.conj() @ apply_superop(l, rho) @ v3
    return d


def _amplitudes(coeffs: ScatteringCoefficients, side: str, phase: float) -> np.ndarray:
    # deliberately re-derived here rather than imported from the scattering
    # module, to keep this evaluation path self-contained
    half = np.exp(0.5j * phase)
    if side == "transmitted":
        return np.array([coeffs.t0 * half, _SQRT3 * coeffs.t1 * half])
    f0 = half + coeffs.r0 * np.conj(half)
    f1 = half + coeffs.r1 * np.conj(half)
    return np.array([f0, _SQRT3 * f1])


def rates_bruteforce(
    c,
    coeffs: ScatteringCoefficients,
    probe_basis: str = "canonical",
    phase: float = CANONICAL_PHASE,
) -> tuple[float, float]:
    """(transmitted, reflected) rates for one probe frame, straight from the
    wavefunction values and the brute-force compressed form."""
    d = d_tilde_bruteforce(c, probe_basis)
    out = []
    for side in ("transmitted", "reflected"):
        w = _amplitudes(coeffs, side, phase)
        out.append(float(np.real(w.conj() @ d @ w)))
    return out[0], out[1]


def forward_bruteforce(c, coeffs: ScatteringCoefficients, phase: float = CANONICAL_PHASE) -> np.ndarray:
    """All six rates in the channel order of the forward model."""
    pairs = [rates_bruteforce(c, coeffs, label, phase) for label in BASIS_LABELS]
    return np.array([p[0] for p in pairs] + [p[1] for p in pairs])


# ---------------------------------------------------------------------------
# exact dynamics
# ---------------------------------------------------------------------------


def _expm_checked(l: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) with a step-doubling self-check: exp(tL) must equal exp(tL/2)^2."""
    u = expm(t * l)
    half = expm(0.5 * t * l)
    scale = max(1.0, float(np.max(np.abs(u))))
    if np.max(np.abs(half @ half - u)) > _EXPM_RTOL * scale:
        raise ArithmeticError("matrix exponential failed the step-doubling check")
    return u


def exact_evolution(c, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a 2x2 impurity state, or a 4x4 electron x impurity state under
    the lifted dissipator, for time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 state, got shape {rho0.shape}")
    u = _expm_checked(build_superop(c, lifted=rho0.shape == (4, 4)), t)
    return unvec(u @ vec(rho0))


# ---------------------------------------------------------------------------
# adjudication of the closed forms
# ---------------------------------------------------------------------------


def _random_symmetric(rng: np.random.Generator, scale: float = 2.0) -> np.ndarray:
    a = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (a + a.T)


def adjudicate(trials: int = 100) -> dict:
    """Machine-readable report pitting every closed form against this module.

    The compressed 2x2 form and the six-rate forward model must agree with the
    brute-force path, at the canonical phase, to within ``AGREEMENT_TOL``
    (the report's ``ok`` flag).  The hand-derived coefficient table for M is
    compared as well; its deviations are expected, listed entry by entry, and
    do not affect ``ok``.  ``trials`` must be at least 1, so that the
    report compares something.
    """
    from .kossakowski import d_tilde

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    rng = np.random.default_rng(ADJUDICATION_SEED)

    d_dev = 0.0
    for _ in range(trials):
        c = _random_symmetric(rng)
        d_dev = max(d_dev, float(np.max(np.abs(d_tilde(c) - d_tilde_bruteforce(c)))))

    forward_dev = 0.0
    for g in ADJUDICATION_G_VALUES:
        coeffs = coefficients(g)
        for _ in range(trials):
            c = _random_symmetric(rng)
            got = forward(c, coeffs, CANONICAL_PHASE).rates
            want = forward_bruteforce(c, coeffs, CANONICAL_PHASE)
            forward_dev = max(forward_dev, float(np.max(np.abs(got - want))))

    tabulated = {}
    for g in ADJUDICATION_G_VALUES:
        coeffs = coefficients(g)
        prog = build_matrix_programmatic(coeffs)
        app = build_matrix_appendix(coeffs)
        tabulated[f"g={g:g}"] = compare_matrices(prog, app)

    return {
        "schema_version": 1,
        "trials": trials,
        "g_values": list(ADJUDICATION_G_VALUES),
        "phase": CANONICAL_PHASE,
        "tolerance": AGREEMENT_TOL,
        "seed": ADJUDICATION_SEED,
        "channels": list(CHANNELS),
        "d_tilde_max_deviation": d_dev,
        "forward_max_deviation": forward_dev,
        "tabulated_matrix": tabulated,
        "ok": bool(d_dev <= AGREEMENT_TOL and forward_dev <= AGREEMENT_TOL),
    }
