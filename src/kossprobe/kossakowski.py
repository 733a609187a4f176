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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .spin import IDENTITY_2, pauli

# The six free entries of C are its upper triangle in row-major order,
# np.triu_indices(3); _PARAM_OF_ENTRY[i, j] is the parameter holding C[i, j].
PARAM_ORDER = ("c11", "c12", "c13", "c22", "c23", "c33")
_ROWS, _COLS = np.triu_indices(3)
_PARAM_OF_ENTRY = np.empty((3, 3), dtype=int)
_PARAM_OF_ENTRY[_ROWS, _COLS] = _PARAM_OF_ENTRY[_COLS, _ROWS] = np.arange(6)

_SIGMA = np.array([pauli(i) for i in (1, 2, 3)])
_ENTRY_NAMES = tuple(f"c{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))

ROUNDING = 8
_EPS = np.finfo(float).eps


def rounding_tolerance(c, condition_number: float = 1.0) -> float:
    """ROUNDING * eps * condition_number * max|C|: within it, every symmetry and PSD decision
    on C (or on its six parameters) reads zero.  ``condition_number`` is 1 for a given C and
    cond(M) for an inversion; inverted noise-free boundary truths stay within 1/ROUNDING of it."""
    return ROUNDING * _EPS * condition_number * np.max(np.abs(c))


class NotCompletelyPositiveError(ValueError):
    """Raised when a Kraus form is requested for a non-PSD Kossakowski matrix."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"Kossakowski matrix is not positive semidefinite "
            f"(eigenvalue {eigenvalue:.6g}); no Kraus form exists"
        )


@dataclass(frozen=True)
class CPReport:
    """Complete-positivity diagnostics: eigenvalue verdict plus the principal minors.

    ``conditions`` maps each nonnegativity condition (three diagonal entries,
    three 2x2 minors, the determinant) to its margin; ``conditions_ok`` holds
    the verdicts, each at ``tol`` times max|C|^(degree - 1), so that margin and
    tolerance scale alike on 2^k C.  Noisy estimates can violate some minors but
    not others, which is why they are reported alongside the eigenvalue test.
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


@dataclass(frozen=True)
class KossakowskiMatrix:
    """Real symmetric 3x3 noise-parameter matrix, stored by its six free entries."""

    c11: float
    c12: float
    c13: float
    c22: float
    c23: float
    c33: float

    @property
    def matrix(self) -> np.ndarray:
        return symmetric_from_vector(self.vector)

    @property
    def vector(self) -> np.ndarray:
        """The six free parameters in the fixed order (c11, c12, c13, c22, c23, c33)."""
        return np.array([self.c11, self.c12, self.c13, self.c22, self.c23, self.c33])

    @classmethod
    def from_vector(cls, v) -> "KossakowskiMatrix":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise ValueError(f"expected 6 parameters, got shape {v.shape}")
        values = v.tolist()
        _require_finite(values, PARAM_ORDER)
        return cls(*values)

    @classmethod
    def from_matrix(cls, a) -> "KossakowskiMatrix":
        a = np.asarray(a)
        if a.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
        if np.iscomplexobj(a):
            imag = {n: x for n, x in zip(_ENTRY_NAMES, a.imag.ravel().tolist()) if x != 0}
            if imag:
                raise ValueError(f"Kossakowski entries must be real, got imaginary parts {imag}")
            a = a.real
        a = a.astype(float)
        _require_finite(a.ravel().tolist(), _ENTRY_NAMES)
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
        """Eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.matrix)

    def cp_check(self, condition_number: float = 1.0) -> CPReport:
        """Eigenvalue PSD verdict plus the seven minors, within :func:`rounding_tolerance`."""
        c = self.matrix
        eigs = np.linalg.eigvalsh(c)
        tol = float(rounding_tolerance(c, condition_number))
        scale = float(np.max(np.abs(c)))
        minor_tol, det_tol = tol * scale, tol * scale * scale
        conditions = {
            "c11": (self.c11, tol),
            "c22": (self.c22, tol),
            "c33": (self.c33, tol),
            "minor_12": (self.c11 * self.c22 - self.c12 * self.c12, minor_tol),
            "minor_13": (self.c11 * self.c33 - self.c13 * self.c13, minor_tol),
            "minor_23": (self.c22 * self.c33 - self.c23 * self.c23, minor_tol),
            "det": (np.linalg.det(c), det_tol),
        }
        return CPReport(
            psd=bool(eigs[0] >= -tol),
            min_eigenvalue=float(eigs[0]),
            eigenvalues=tuple(float(e) for e in eigs),
            conditions={k: float(v) for k, (v, _) in conditions.items()},
            conditions_ok={k: bool(v >= -t) for k, (v, t) in conditions.items()},
            tol=tol,
        )

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in PARAM_ORDER}

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
        bad = {name: data[name] for name in PARAM_ORDER if not _is_finite_number(data[name])}
        if bad:
            raise ValueError(f"Kossakowski entries must be finite numbers, got {bad}")
        return cls(**{name: float(data[name]) for name in PARAM_ORDER})


# a Python float, which compares with an int of any size exactly
_FLOAT_MAX = float(np.finfo(float).max)


def _is_finite_number(x) -> bool:
    # a bool is not a number here; the bounds refuse nan, inf and ints too
    # large for a double
    return (
        isinstance(x, numbers.Real) and not isinstance(x, bool) and -_FLOAT_MAX <= x <= _FLOAT_MAX
    )


def _require_finite(values: list[float], names) -> None:
    # checked before any comparison: NaN compares false, so it would pass the
    # symmetry test and reach eigvalsh, which does not converge on it
    if not all(map(math.isfinite, values)):
        bad = {name: x for name, x in zip(names, values) if not math.isfinite(x)}
        raise ValueError(f"Kossakowski entries must be finite, got {bad}")


def symmetric_from_vector(v) -> np.ndarray:
    """Symmetric 3x3 matrices from six-parameter vectors, (..., 6) -> (..., 3, 3)."""
    return np.asarray(v, dtype=float)[..., _PARAM_OF_ENTRY]


# One cyclic Jacobi sweep: for each rotation plane (p, q), with r the third
# index, the parameters holding C_pp, C_qq, C_pq, C_rp and C_rq.
_JACOBI_SWEEP = tuple(
    tuple(int(_PARAM_OF_ENTRY[i, j]) for i, j in ((p, p), (q, q), (p, q), (r, p), (r, q)))
    for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
)
_DIAGONAL = tuple(int(k) for k in _PARAM_OF_ENTRY.diagonal())
_OFF_DIAGONAL = tuple(pq for _, _, pq, _, _ in _JACOBI_SWEEP)
# Random and clustered spectra alike converge in four sweeps.
_JACOBI_MAX_SWEEPS = 10
_TINY = np.finfo(float).tiny


# The secular exit is tried when max(|a13| + |a23|) <= _SECULAR_BOUND * min(a33 - min(a11, a22))
# over the batch, which bounds every step's contraction factor by _SECULAR_BOUND^2 = 2^-12.
# From lambda_min(B) of a scaled matrix, the k-th step then moves by at most
# 3 * 2^(-12 k), so in exact arithmetic the fifth moves by less than eps / 2 <= tol.
_SECULAR_BOUND = 2.0**-6
_SECULAR_MAX_STEPS = 5


def _min_eigenvalue_2x2(x11, x22, x12sq, out, h, r) -> np.ndarray:
    """Smaller eigenvalues of the 2x2 blocks [[x11, x12], [x12, x22]], into ``out``.

    min(x11, x22) - x12^2 / (|h| + sqrt(h^2 + x12^2)) with h = (x11 - x22) / 2:
    exact on a diagonal block, and a small root suffers no cancellation.
    ``x12sq`` holds x12^2 and is overwritten; ``h`` and ``r`` are scratch rows.
    ``out`` may be x11's row and ``r`` x22's.
    """
    np.subtract(x11, x22, out=h)
    np.multiply(h, 0.5, out=h)
    np.minimum(x11, x22, out=out)
    np.multiply(h, h, out=r)
    np.add(r, x12sq, out=r)
    np.sqrt(r, out=r)
    np.abs(h, out=h)
    np.add(r, h, out=r)
    # _TINY keeps 0/0 out of a diagonal block
    np.add(r, _TINY, out=r)
    np.divide(x12sq, r, out=x12sq)
    return np.subtract(out, x12sq, out=out)


def _secular_min_eigenvalue(a: np.ndarray, tol: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """Smallest eigenvalues of the matrices in ``a`` from a certified secular equation, or None.

    With B a matrix's leading 2x2 block, e = (a13, a23) and d = a33, a
    lambda < d is an eigenvalue exactly when it is one of the Schur complement
    B - e e^T / (d - lambda) (Golub 1973; Bunch, Nielsen & Sorensen 1978).
    That complement's smallest eigenvalue f(lambda) does not increase with
    lambda, so lambda_min is the one fixed point of f below d, and two
    consecutive steps of lambda <- f(lambda), started at lambda_min(B),
    bracket it.  The steps stop when every matrix's last two iterates lie
    within its ``tol`` (eps * max|entry|), and return the last; the result is
    one of the five scratch ``rows``, and ``a`` is left as it was.

    In floating point every iterate lies at or below min(a11, a22): the
    complement's diagonal is B's less nonnegative terms, and the 2x2 closed
    form subtracts a nonnegative quotient from the smaller one.  So
    d > min(a11, a22) keeps every iterate below d, and |a13| + |a23| at most
    _SECULAR_BOUND times d - min(a11, a22) bounds every step's contraction
    factor |e|^2 / (d - lambda)^2 by _SECULAR_BOUND^2 and keeps the quotients
    from overflowing.  Without both, over the whole batch, this returns None
    having divided by nothing; it also returns None when _SECULAR_MAX_STEPS
    steps do not certify.
    """
    a11, a12, a13, a22, a23, a33 = a
    lam, w, u, v, x = rows
    np.minimum(a11, a22, out=w)
    np.subtract(a33, w, out=w)
    np.abs(a13, out=u)
    np.add(np.abs(a23, out=v), u, out=u)
    gap = np.min(w, initial=np.inf)
    if not (gap > 0.0 and np.max(u, initial=0.0) <= _SECULAR_BOUND * gap):
        return None
    np.multiply(a12, a12, out=x)
    _min_eigenvalue_2x2(a11, a22, x, lam, w, v)
    for k in range(_SECULAR_MAX_STEPS):
        # the Schur complement at lam: its diagonal into u and v, its
        # off-diagonal entry into x
        np.subtract(a33, lam, out=w)
        np.divide(a13, w, out=u)
        np.divide(a23, w, out=v)
        np.multiply(a13, v, out=x)
        np.subtract(a12, x, out=x)
        np.multiply(a13, u, out=u)
        np.subtract(a11, u, out=u)
        np.multiply(a23, v, out=v)
        np.subtract(a22, v, out=v)
        np.multiply(x, x, out=x)
        step = _min_eigenvalue_2x2(u, v, x, u, w, v)
        # certified where |step - lam| <= tol; the first step moves by about
        # |e|^2 / (d - lambda), which is rarely that small
        if k:
            np.abs(np.subtract(step, lam, out=w), out=w)
            if np.max(np.subtract(w, tol, out=w), initial=0.0) <= 0.0:
                return step
        lam, u = step, lam
    return None


def min_eigenvalue_in_place(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of the matrices held in ``a``, one C-contiguous row per parameter.

    ``a`` (6, n) is overwritten by the scaled, and perhaps rotated, matrices
    and ``scratch``, seven more float rows of length n, by intermediates; the
    result is one row of ``scratch``.  No n-sized array is allocated.

    Each matrix is first scaled by a power of two (exact) so that its largest
    entry lies in [0.5, 1).  When every matrix's last diagonal entry lies
    clear above the rest of its spectrum, as in draws around a boundary
    estimate taken in its eigenframe, the smallest eigenvalue is the root of
    the secular equation of that entry (:func:`_secular_min_eigenvalue`):
    fixed-point steps on the 2x2 Schur complement that bracket the root,
    taken as the answer once every bracket is within eps times the matrix's
    largest entry, which is Jacobi's own accuracy.  10k draws around a
    rank-1 estimate certify in three or four steps and take 0.56-0.73 ms on
    a 2-core host, against 1.0-1.2 ms for the two Jacobi sweeps they took
    before.

    Otherwise, or when the steps do not certify, cyclic Jacobi rotations in
    the planes (1,2), (1,3), (2,3) run on the whole batch at once, until
    every off-diagonal entry is at or below eps times the largest entry, or
    for a fixed number of sweeps.  Jacobi is backward stable, so the result
    keeps ``eigvalsh``'s eps * |C| accuracy at repeated and nearly repeated
    eigenvalues, where closed-form cubic roots do not.  Nearly diagonal
    matrices need fewer sweeps.
    """
    d, t, c, h, _, tol, exponent_row = scratch
    # frexp's C-int exponents, in the first half of the last scratch row
    exponent = exponent_row.view(np.intc)[: a.shape[1]]
    np.abs(a[0], out=h)
    for row in a[1:]:
        np.maximum(h, np.abs(row, out=d), out=h)
    if not np.isfinite(np.max(h, initial=0.0)):
        raise ValueError("parameters must be finite")
    # After the exact power-of-two scaling, a matrix's largest entry is its
    # frexp mantissa, in [0.5, 1) (0 for the zero matrix).
    np.frexp(h, out=(tol, exponent))
    np.negative(exponent, out=exponent)
    np.ldexp(a, exponent, out=a)
    tol *= _EPS

    lambda_min = _secular_min_eigenvalue(a, tol, scratch[:5])
    if lambda_min is None:
        lambda_min = _jacobi_min_eigenvalue(a, tol, d, t, c, h)
    np.negative(exponent, out=exponent)
    return np.ldexp(lambda_min, exponent, out=lambda_min)


def _jacobi_min_eigenvalue(a, tol, d, t, c, h) -> np.ndarray:
    """Cyclic Jacobi sweeps on the scaled matrices in ``a``; their smallest diagonal
    entries, in ``h``."""
    for _ in range(_JACOBI_MAX_SWEEPS):
        np.abs(a[_OFF_DIAGONAL[0]], out=h)
        for pq in _OFF_DIAGONAL[1:]:
            np.maximum(h, np.abs(a[pq], out=d), out=h)
        # converged where h <= tol, that is h - tol <= 0: the difference of
        # two distinct doubles is never 0
        if np.max(np.subtract(h, tol, out=h), initial=0.0) <= 0.0:
            break
        for pp, qq, pq, rp, rq in _JACOBI_SWEEP:
            app, aqq, apq, arp, arq = a[pp], a[qq], a[pq], a[rp], a[rq]
            # t = tan of the angle that zeroes C_pq, the root of modulus <= 1:
            # 2 C_pq / (d + sign(d) sqrt(d^2 + 4 C_pq^2)) with d = C_qq - C_pp;
            # _TINY keeps 0/0 out of a pair that is already diagonal.
            np.subtract(aqq, app, out=d)
            np.multiply(apq, 2.0, out=t)
            np.multiply(d, d, out=h)
            np.multiply(t, t, out=c)
            np.add(h, c, out=h)
            np.sqrt(h, out=h)
            np.add(h, _TINY, out=h)
            np.copysign(h, d, out=h)
            np.add(h, d, out=h)
            np.divide(t, h, out=t)
            # c = cos of that angle, so sin = t c
            np.multiply(t, t, out=c)
            np.add(c, 1.0, out=c)
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            # C_rp, C_rq = c (C_rp - t C_rq), c (C_rq + t C_rp)
            np.multiply(t, arq, out=d)
            np.multiply(t, arp, out=h)
            np.subtract(arp, d, out=arp)
            np.multiply(arp, c, out=arp)
            np.add(arq, h, out=arq)
            np.multiply(arq, c, out=arq)
            # C_pp -= t C_pq, C_qq += t C_pq, C_pq = 0
            np.multiply(t, apq, out=t)
            np.subtract(app, t, out=app)
            np.add(aqq, t, out=aqq)
            apq.fill(0.0)

    c11, c22, c33 = (a[k] for k in _DIAGONAL)
    return np.minimum(np.minimum(c11, c22, out=h), c33, out=h)


def as_kossakowski(c) -> KossakowskiMatrix:
    """The checked real symmetric C of a KossakowskiMatrix or of a 3x3 array-like.

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
    eigvals, eigvecs = np.linalg.eigh(a)
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
    t = float(t)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 state, got shape {rho.shape}")
    lam, o = np.linalg.eigh(as_kossakowski(c).matrix)
    f = np.exp(-2.0 * (lam.sum() - lam) * t)
    p = 0.25 * (1.0 + 2.0 * f - f.sum())
    tau = np.tensordot(o.T, _SIGMA, axes=1)
    if rho.shape == (4, 4):
        tau = np.kron(IDENTITY_2, tau)
    return 0.25 * (1.0 + f.sum()) * rho + np.tensordot(p, tau @ rho @ tau, axes=1)
