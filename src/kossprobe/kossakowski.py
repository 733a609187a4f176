"""The Kossakowski matrix and the closed forms of the dissipator it generates.

The noisy part of the impurity's Markovian evolution is

    L_D[rho] = sum_ij C_ij ( sigma_j rho sigma_i - {sigma_i sigma_j, rho}/2 ),

with C the real symmetric 3x3 Kossakowski matrix (entropy-increasing case).
C being positive semidefinite is equivalent to the generated semigroup being
completely positive, which is what the estimation pipeline ultimately tests.

This module carries the matrix type with its complete-positivity diagnostics,
the one rule by which every symmetry and PSD decision on C reads "zero within
rounding" (``rounding_tolerance``: relative to max|C|, so no verdict depends
on the units of C), ``as_kossakowski``, the one coercion by which C enters
every closed form (a KossakowskiMatrix, or a 3x3 array that is finite, real
and symmetric within rounding), the 2x2 compression ``d_tilde`` that the
forward model is a quadratic form of, the Kraus decomposition of the noise
term, and ``evolve``, the exact semigroup in closed form (a signed Pauli
channel in C's eigenframe) for any real symmetric C, on the impurity or on
electron + impurity.  The dissipator itself, as a superoperator, is built
only by :func:`kossprobe.oracle.build_superop`, the referee of these closed
forms.  ``d_tilde`` takes its coupling matrix already expressed in a probe
frame; :mod:`kossprobe.probe` evaluates it once per symmetric unit coupling
and frame, at import, and builds every rate from that constant kernel.
Every outside array (C, its parameters, rates, sigmas) becomes floats through
``_finite_reals``, which names each entry that is not a finite real number (by
:func:`kossprobe.scattering._real`, the rule C's entries, ``evolve``'s t and
``cp_check``'s condition number take too); sigmas then take ``_nonnegative_reals``'
one sign test, which names each negative one.  A refusal quotes a value through
``_shown``, which bounds its length.
Every real ``eigh``, singular-value, inverse and determinant in the library
runs through ``_eigh``, ``_singular_values``, ``_inv`` and ``_det``, which
call the LAPACK gufunc that ``np.linalg`` calls, in float64 and under its
error state, without its Python dispatch: the same values, bit for bit, and
the same LinAlgError.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import _extobj_contextvar as _ERRSTATE
from numpy.linalg import _umath_linalg as _gufuncs
from numpy.linalg._linalg import (_raise_linalgerror_eigenvalues_nonconvergence,
                                  _raise_linalgerror_singular,
                                  _raise_linalgerror_svd_nonconvergence)

from .scattering import _real
from .spin import IDENTITY_2, pauli

# The six free entries of C are its upper triangle in row-major order,
# np.triu_indices(3); _PARAM_OF_ENTRY[i, j] is the parameter holding C[i, j].
PARAM_ORDER = ("c11", "c12", "c13", "c22", "c23", "c33")
_ROWS, _COLS = np.triu_indices(3)
_PARAM_OF_ENTRY = np.empty((3, 3), dtype=int)
_PARAM_OF_ENTRY[_ROWS, _COLS] = _PARAM_OF_ENTRY[_COLS, _ROWS] = np.arange(6)
# The six symmetric unit couplings: _UNITS[b] is the C of the b-th parameter alone,
# its off-diagonal units carrying both mirror entries.
_UNITS = np.eye(6)[:, _PARAM_OF_ENTRY]
_FLOAT64 = np.dtype(np.float64)  # numpy's one native float64 dtype, tested by identity

_SIGMA = np.array([pauli(i) for i in (1, 2, 3)])
_PARAM_NAMES = np.array(PARAM_ORDER)
_ENTRY_NAMES = np.array([[f"c{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)])

ROUNDING = 8
_EPS = float(np.finfo(float).eps)


def _linalg_errors(refusal):
    """The ufunc error state that np.linalg sets around a decomposition, captured once: a
    LAPACK failure (a NaN entry, a singular inverse, no convergence) flags an invalid value,
    which calls ``refusal``, numpy's own raiser of its LinAlgError; the other flags are
    ignored."""
    with np.errstate(call=refusal, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _ERRSTATE.get()


_EIGH_ERRORS = _linalg_errors(_raise_linalgerror_eigenvalues_nonconvergence)
_SVD_ERRORS = _linalg_errors(_raise_linalgerror_svd_nonconvergence)
_INV_ERRORS = _linalg_errors(_raise_linalgerror_singular)


def _lapack(gufunc, signature: str, errors, a: np.ndarray):
    """``gufunc(a)`` in its float64 loop (``signature``) under ``errors``, as np.linalg
    calls it: the state is set and reset in this thread's context, so it costs no
    np.errstate object per call."""
    token = _ERRSTATE.set(errors)
    try:
        return gufunc(a, signature=signature)
    finally:
        _ERRSTATE.reset(token)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a): ascending eigenvalues and eigenvectors, from the lower triangle."""
    return _lapack(_gufuncs.eigh_lo, "d->dd", _EIGH_ERRORS, a)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False): the singular values, descending."""
    return _lapack(_gufuncs.svd, "d->d", _SVD_ERRORS, a)


def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a); a singular ``a`` raises LinAlgError("Singular matrix")."""
    return _lapack(_gufuncs.inv, "d->d", _INV_ERRORS, a)


def _det(a: np.ndarray) -> np.float64:
    """np.linalg.det(a), which sets no error state."""
    return _gufuncs.det(a, signature="d->d")


def rounding_tolerance(c: np.ndarray, condition_number: float = 1.0) -> float:
    """ROUNDING * eps * condition_number * max|C|: within it, every symmetry and PSD decision
    on C (or on its six parameters) reads zero.  ``condition_number`` is 1 for a given C and
    cond(M) for an inversion; inverted noise-free boundary truths stay within 1/ROUNDING of it."""
    return ROUNDING * _EPS * condition_number * max(map(abs, c.ravel().tolist()))


class NotCompletelyPositiveError(ValueError):
    """Raised when a Kraus form is requested for a non-PSD Kossakowski matrix."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"Kossakowski matrix is not positive semidefinite "
            f"(eigenvalue {eigenvalue:.6g}); no Kraus form exists"
        )


class InputOverflowError(ValueError):
    """Raised when finite inputs are so large that a result computed from them overflows."""


@dataclass(frozen=True)
class CPReport:
    """Complete-positivity diagnostics: eigenvalue verdict plus the principal minors.

    ``conditions`` maps each nonnegativity condition (three diagonal entries,
    three 2x2 minors, the determinant) to its margin; ``conditions_ok`` holds
    the verdicts, the entries and minors each at ``tol`` times max|C|^(degree - 1),
    so that margin and tolerance scale alike on 2^k C.  The determinant is the
    product of the eigenvalues, lambda_1 (lambda_2 lambda_3), at ``tol`` times
    |lambda_2 lambda_3|, so it is ok whenever ``psd`` is.  Noisy estimates can
    violate some minors but not others, which is why they are reported
    alongside the eigenvalue test.
    """

    psd: bool
    min_eigenvalue: float
    eigenvalues: tuple[float, float, float]
    conditions: dict[str, float]
    conditions_ok: dict[str, bool]
    tol: float

    def to_dict(self) -> dict:
        return {
            "psd": self.psd,
            "min_eigenvalue": self.min_eigenvalue,
            "eigenvalues": list(self.eigenvalues),
            "conditions": {
                name: {"margin": self.conditions[name], "ok": self.conditions_ok[name]}
                for name in self.conditions
            },
            "tolerance": self.tol,
        }


@dataclass(frozen=True, init=False)
class KossakowskiMatrix:
    """Real symmetric 3x3 noise-parameter matrix, stored by its six free entries.

    Invariant: each entry is a finite real number (a bool is not one), stored
    as a Python float, so every instance is a valid C.
    """

    c11: float
    c12: float
    c13: float
    c22: float
    c23: float
    c33: float

    def __init__(self, c11, c12, c13, c22, c23, c33) -> None:
        values = (c11, c12, c13, c22, c23, c33)
        reals = [_real(x) for x in values]
        if None in reals or not all(map(math.isfinite, reals)):
            bad = {name: x for name, x, real in zip(PARAM_ORDER, values, reals)
                   if real is None or not math.isfinite(real)}
            raise ValueError(f"Kossakowski entries must be real and finite, got {_shown(bad)}")
        c11, c12, c13, c22, c23, c33 = reals
        # one write of the instance dict, in place of a frozen __setattr__ per field
        object.__setattr__(self, "__dict__", {"c11": c11, "c12": c12, "c13": c13,
                                              "c22": c22, "c23": c23, "c33": c33})

    @property
    def matrix(self) -> np.ndarray:
        return symmetric_from_vector(self.vector)

    @property
    def vector(self) -> np.ndarray:
        """The six free parameters in the fixed order (c11, c12, c13, c22, c23, c33)."""
        return np.array([self.c11, self.c12, self.c13, self.c22, self.c23, self.c33])

    @classmethod
    def from_vector(cls, v) -> "KossakowskiMatrix":
        return cls(*_finite_reals(v, _PARAM_NAMES, "Kossakowski entries").tolist())

    @classmethod
    def from_matrix(cls, a) -> "KossakowskiMatrix":
        # finite before the symmetry test: NaN compares false, so it would pass
        a = _finite_reals(a, _ENTRY_NAMES, "Kossakowski entries")
        if np.max(np.abs(a - a.T)) > rounding_tolerance(a):
            raise ValueError("matrix is not symmetric within rounding")
        s = 0.5 * (a + a.T)
        return cls(*s[_ROWS, _COLS])

    @classmethod
    def diagonal(cls, c1: float, c2: float, c3: float) -> "KossakowskiMatrix":
        return cls(c1, 0.0, 0.0, c2, 0.0, c3)

    @classmethod
    def identity(cls) -> "KossakowskiMatrix":
        return cls.diagonal(1.0, 1.0, 1.0)

    @classmethod
    def zero(cls) -> "KossakowskiMatrix":
        return cls.diagonal(0.0, 0.0, 0.0)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, from ``_eigh``, as every PSD test on C."""
        return _eigh(self.matrix)[0]

    def cp_check(self, condition_number: float = 1.0) -> CPReport:
        """Eigenvalue PSD verdict (the :meth:`eigenvalues` of ``eigh``) plus the seven minors,
        within :func:`rounding_tolerance`; refuses, as an InputOverflowError, a C so large
        that a minor or the determinant overflows.  ``condition_number`` must be a positive,
        finite real number."""
        if (kappa := _real(condition_number)) is None or not 0.0 < kappa < math.inf:
            raise ValueError(f"condition_number must be positive and finite, "
                             f"got {_shown(condition_number)}")
        c = self.matrix
        low, mid, top = self.eigenvalues().tolist()
        tol = rounding_tolerance(c, kappa)
        minor_tol = tol * float(np.max(np.abs(c)))
        # the determinant is low * rest from the same eigh, ok within tol * |rest|: rounding
        # is monotone, so it is ok whenever low >= -tol
        rest = mid * top
        conditions = {
            "c11": (self.c11, tol),
            "c22": (self.c22, tol),
            "c33": (self.c33, tol),
            "minor_12": (self.c11 * self.c22 - self.c12 * self.c12, minor_tol),
            "minor_13": (self.c11 * self.c33 - self.c13 * self.c13, minor_tol),
            "minor_23": (self.c22 * self.c33 - self.c23 * self.c23, minor_tol),
            "det": (low * rest, tol * abs(rest)),
        }
        if overflowed := [k for k, (v, _) in conditions.items() if not math.isfinite(v)]:
            raise InputOverflowError(
                f"C is too large: its CP conditions {', '.join(overflowed)} overflow"
            )
        return CPReport(
            psd=low >= -tol,
            min_eigenvalue=low,
            eigenvalues=(low, mid, top),
            conditions={k: float(v) for k, (v, _) in conditions.items()},
            conditions_ok={k: bool(v >= -t) for k, (v, t) in conditions.items()},
            tol=tol,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    @classmethod
    def from_dict(cls, data: dict) -> "KossakowskiMatrix":
        if not isinstance(data, dict):
            raise ValueError(
                f"expected an object with the Kossakowski entries {list(PARAM_ORDER)}, "
                f"got {type(data).__name__}"
            )
        missing = [name for name in PARAM_ORDER if name not in data]
        if missing:
            raise ValueError(f"missing Kossakowski entries: {missing}")
        unknown = [key for key in data if key not in PARAM_ORDER]
        if unknown:
            raise ValueError(f"unknown key {_shown(unknown[0])}; a Kossakowski matrix is given "
                             f"by exactly the entries {list(PARAM_ORDER)}")
        return cls(**data)


def _finite_reals(x, names: np.ndarray, what: str) -> np.ndarray:
    """``x`` as floats of the shape of ``names``, which name its entries.  An exact float64
    ndarray takes one pass, another numeric one a conversion first (an ndarray subclass,
    such as np.matrix, as its base ndarray); a list, or any other array, is judged entry by
    entry, as ``np.asarray`` reads True as 1 (and complex is not real)."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == names.shape:
        if all(map(math.isfinite, x.ravel().tolist())):
            return x
    a = np.asarray(x) if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    if a.shape != names.shape:
        raise ValueError(f"{what} must have shape {'x'.join(map(str, names.shape))}, got {a.shape}")
    if a.dtype.kind in "fiu" or a.dtype.kind == "c" and not a.imag.any():
        a = a.real.astype(float, copy=False)
        if all(map(math.isfinite, a.ravel().tolist())):
            return a
    entries = dict(zip(names.ravel().tolist(), a.ravel().tolist()))
    reals = [_real(v) for v in entries.values()]
    bad = {n: v for (n, v), real in zip(entries.items(), reals)
           if real is None or not math.isfinite(real)}
    imag = {n: v.imag for n, v in bad.items() if isinstance(v, complex) and v.imag}
    if bad:
        raise ValueError(f"{what} must be real, got imaginary parts {_shown(imag)}" if imag
                         else f"{what} must be finite, got {_shown(bad)}")
    return np.array(reals).reshape(names.shape)


def _nonnegative_reals(x, names: np.ndarray, what: str) -> np.ndarray:
    """``_finite_reals`` of ``x``, refused when an entry is negative; the refusal
    names each negative entry (-0.0 is not one)."""
    a = _finite_reals(x, names, what)
    if min(a.ravel().tolist()) < 0.0:
        negative = {n: v for n, v in zip(names.ravel().tolist(), a.ravel().tolist()) if v < 0.0}
        raise ValueError(f"{what} must be nonnegative, got {_shown(negative)}")
    return a


def _shown(x) -> str:
    """``repr(x)`` with each number, string and container cut to reprlib's default limits (40
    digits, 30 characters), so that a refusal stays short whatever it quotes; a dict keeps
    its order."""
    if isinstance(x, dict):
        return "{" + ", ".join(f"{reprlib.repr(k)}: {reprlib.repr(v)}" for k, v in x.items()) + "}"
    return reprlib.repr(x)


def symmetric_from_vector(v) -> np.ndarray:
    """Symmetric 3x3 matrices from six-parameter vectors, (..., 6) -> (..., 3, 3)."""
    return np.asarray(v, dtype=float)[..., _PARAM_OF_ENTRY]


def as_kossakowski(c) -> KossakowskiMatrix:
    """The real symmetric C of a KossakowskiMatrix, which is valid by construction,
    or of a 3x3 array-like.

    Arrays go through :meth:`KossakowskiMatrix.from_matrix`, which refuses
    non-finite, complex and asymmetric entries.
    """
    return c if isinstance(c, KossakowskiMatrix) else KossakowskiMatrix.from_matrix(c)


# ---------------------------------------------------------------------------
# the 2x2 compression entering the detection rates
# ---------------------------------------------------------------------------


def d_tilde(c) -> np.ndarray:
    """Closed form of the dissipator compressed between the eigenstate's spin
    states and the detection state.

    For real symmetric C the entries are

        D[0, 0] = C11
        D[0, 1] = conj(D[1, 0]) = (-i C12 + sqrt(2) C13) / sqrt(3)
        D[1, 1] = (C22 + 2 C33) / 3

    obtained by evaluating the defining sandwich directly (the brute-force
    superoperator route in :mod:`kossprobe.oracle` reproduces it to machine
    precision, which the test suite asserts).  D is Hermitian, and PSD
    whenever C is PSD.
    """
    c = as_kossakowski(c)
    off = (-1.0j * c.c12 + np.sqrt(2.0) * c.c13) / np.sqrt(3.0)
    return np.array([[c.c11, off], [np.conj(off), (c.c22 + 2.0 * c.c33) / 3.0]])


# ---------------------------------------------------------------------------
# Kraus decomposition of the noise term
# ---------------------------------------------------------------------------


def kraus_noise(c) -> list[np.ndarray]:
    """Kraus operators W_l with sum_l W_l rho W_l^dag = sum_ij C_ij sigma_j rho sigma_i.

    W_l = sqrt(c_l) sum_j psi_l[j] sigma_j, built from the eigendecomposition
    C = sum_l c_l |psi_l><psi_l|.  Exists exactly when C is PSD; otherwise a
    :class:`NotCompletelyPositiveError` carrying the offending eigenvalue is
    raised.  Eigenvalues are ordered descending, with each eigenvector's first
    nonzero component made positive to fix the sign.
    """
    a = as_kossakowski(c).matrix
    eigvals, eigvecs = _eigh(a)
    if eigvals[0] < -rounding_tolerance(a):
        raise NotCompletelyPositiveError(eigvals[0])
    order = np.argsort(-eigvals, kind="stable")
    ops = []
    for l in order:
        val = max(float(eigvals[l]), 0.0)
        vec = eigvecs[:, l].copy()
        nonzero = np.nonzero(np.abs(vec) > 1e-12)[0]
        if nonzero.size and vec[nonzero[0]] < 0:
            vec = -vec
        w = np.sqrt(val) * sum(vec[j] * _SIGMA[j] for j in range(3))
        ops.append(w)
    return ops


# ---------------------------------------------------------------------------
# the exact semigroup
# ---------------------------------------------------------------------------


def evolve(c, rho, t: float) -> np.ndarray:
    """exp(t L_D)[rho] for any real symmetric C, PSD or not.

    ``rho`` is a 2x2 impurity state or a 4x4 electron x impurity state, the
    impurity being the second factor.  With C = O diag(lambda) O^T, the
    dissipator is sum_k lambda_k (tau_k rho tau_k - rho) in terms of the
    rotated Pauli matrices tau_k = sum_j O[j, k] sigma_j (lifted as
    I x tau_k), because sum_ij C_ij sigma_i sigma_j = tr C.  Each tau_m is an
    eigenoperator with decay f_m = exp(-2 (tr C - lambda_m) t), so the
    semigroup is the signed Pauli channel

        rho -> p_0 rho + sum_k p_k tau_k rho tau_k,
        p_0 = (1 + f_1 + f_2 + f_3) / 4,  p_k = (1 + f_k - f_m - f_n) / 4.

    Some p_k are negative exactly when C is not PSD.  The oracle's matrix
    exponential of the superoperator is the referee of this closed form.
    """
    if (real := _real(t)) is None or not 0.0 <= real < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    t = real
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 state, got shape {rho.shape}")
    lam, o = _eigh(as_kossakowski(c).matrix)
    f = np.exp(-2.0 * (lam.sum() - lam) * t)
    p = 0.25 * (1.0 + 2.0 * f - f.sum())
    tau = np.tensordot(o.T, _SIGMA, axes=1)
    if rho.shape == (4, 4):
        tau = np.kron(IDENTITY_2, tau)
    return 0.25 * (1.0 + f.sum()) * rho + np.tensordot(p, tau @ rho @ tau, axes=1)
