"""The parametric bootstrap of lambda_min that judged nearly degenerate spectra.

Before the cone test (``kossprobe.inversion``), an estimate whose smallest
eigenvalue was not resolved read not-CP when margin <= -z sigma_boot, with
sigma_boot the spread of lambda_min over 10k seeded draws from
N(c_hat, covariance).  This module keeps that bootstrap as it ran, outside
the library: ``calibrate_cp_test.py`` judges its trials by it for the
"bootstrap (parent)" column, and the tests take it as the referee of the
delta spread.  A work block of 13 doubles per draw is its only n-sized
allocation (1.04 MB at 10k draws).  The draws are ``multivariate_normal``'s, and the batched
smallest eigenvalue is a certified secular-equation exit with cyclic Jacobi
sweeps behind it, agreeing with ``eigvalsh`` to 16 eps max|entry|.

    from adjudication.bootstrap_referee import bootstrap_min_eigenvalue_sigma

(from the repository root, with ``src`` on the path).
"""

from __future__ import annotations

import warnings

import numpy as np

from kossprobe.kossakowski import symmetric_from_vector

# The six free entries of C are its upper triangle in row-major order,
# np.triu_indices(3); _PARAM_OF_ENTRY[i, j] is the parameter holding C[i, j].
_ROWS, _COLS = np.triu_indices(3)
_PARAM_OF_ENTRY = np.empty((3, 3), dtype=int)
_PARAM_OF_ENTRY[_ROWS, _COLS] = _PARAM_OF_ENTRY[_COLS, _ROWS] = np.arange(6)
# The six symmetric unit couplings: column b of the map from the parameters of
# C to those of O^T C O is the parameters of O^T _UNITS[b] O.
_UNITS = symmetric_from_vector(np.eye(6))
_EPS = np.finfo(float).eps


def bootstrap_min_eigenvalue_sigma(
    center: np.ndarray, covariance: np.ndarray, n: int, seed: int, frame: np.ndarray
) -> float:
    """Spread of lambda_min over ``n`` seeded draws from N(center, covariance).

    The draws are those of ``multivariate_normal(center, covariance,
    method="svd")`` with the same seed, taken in the orthogonal ``frame``
    (the estimate's eigenvectors): congruence keeps every eigenvalue, and
    draws near the estimate are then nearly diagonal, with the top
    eigenvalue last.  They are built parameter-major in one work block whose
    other seven rows hold the standard normals and then the eigenvalue
    kernel's scratch rows.
    """
    work = np.empty((13, n))
    draws, scratch = work[:6], work[6:]
    normals = work[6:12].reshape(n, 6)
    np.random.default_rng(seed).standard_normal(out=normals)
    # multivariate_normal's factor, cov = factor factor^T, checked as it checks
    # it; at a singular covariance u and vh^T may differ in the null space
    u, s, vh = np.linalg.svd(covariance)
    if not np.allclose((vh.T * s) @ vh, covariance, rtol=1e-8, atol=1e-8):
        warnings.warn("covariance is not symmetric positive-semidefinite.", RuntimeWarning)
    to_frame = (frame.T @ _UNITS @ frame)[:, _ROWS, _COLS].T
    np.matmul(to_frame @ (u * np.sqrt(s)), normals.T, out=draws)
    draws += (to_frame @ center)[:, None]
    lambda_min = min_eigenvalue_in_place(draws, scratch)
    # relative to one draw, so that identical draws (all sigmas zero) give exactly 0
    lambda_min -= lambda_min[0]
    return float(lambda_min.std(ddof=1))


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
