"""Recovering the Kossakowski matrix from measured probability rates.

The forward model is linear, rates = M @ c, with M the 6x6 probe matrix, so
recovery is c = M^-1 @ rates with M inverted once.  For empirical rates that
inverse also propagates the covariance, and the estimate gets a statistically
guarded complete-positivity verdict and an optional nearest-PSD repair.

The not-CP verdict requires significance: shot noise can push the smallest
eigenvalue of the estimate slightly negative even when the true matrix is
PSD, so the verdict is "indeterminate" unless the eigenvalue is negative by
at least z standard deviations (z = 3 by default).  A spread is needed only
when the smallest eigenvalue is negative beyond the inversion's rounding,
:func:`kossprobe.kossakowski.rounding_tolerance` at cond(M), the rule by
which ``cp_check(cond(M))`` reads the estimate too; otherwise the verdict is
CP in closed form.  The spread then takes one of two paths, and the result
says which (``verdict_path``):

- "delta": the first-order spread sqrt(g^T Sigma g) of lambda_min, from one
  ``eigh`` of the estimate, with g = (2 - delta_ij) v1_i v1_j over the six
  parameters.  It is used when lambda_min is resolved: its gap to the next
  eigenvalue is at least RESOLVED_GAP times the largest of its own spread
  and the spreads of its couplings v1^T E vk to the other two eigenvectors.
  It adds about 45 us to an inversion on a 2-core host; on rank-2 boundary
  truths it matches the bootstrap spread to within 2.5%.
- "bootstrap": otherwise (nearly degenerate spectra, such as those of rank-1
  and zero truths, where lambda_min is not smooth in the data), a parametric
  bootstrap over the propagated covariance.  Its draws are the seeded
  Gaussian parameter vectors of ``multivariate_normal(method="svd")``, built
  parameter-major in the estimate's eigenframe inside one work block, and
  their smallest eigenvalues are computed in place on the whole batch at
  once (:func:`kossprobe.kossakowski.min_eigenvalue_in_place`).  Near a
  rank-1 estimate every draw's top eigenvalue is separated from a nearly
  degenerate pair, so lambda_min is the root of the 2x2 secular equation
  of the top diagonal entry: fixed-point steps bracket it, and three or
  four steps certify it to eps times the draw's largest entry.  Draws that
  do not certify (zero truths, say) take cyclic Jacobi sweeps instead.  A
  10k-draw spread at a rank-1 estimate takes 1.8-2.4 ms on a 2-core host,
  about 1.2 ms of it the draws and 0.6-0.7 ms their smallest eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .kossakowski import (
    KossakowskiMatrix,
    min_eigenvalue_in_place,
    rounding_tolerance,
    symmetric_from_vector,
)
from .probe import ProbeMatrix, ProbeResult

CONDITION_LIMIT = 1e10
# The bootstrap's work block holds 13 doubles per draw (the draws, then the
# eigenvalue kernel's scratch rows): 104 MB at this many.
MAX_BOOTSTRAP = 1_000_000

# lambda_min counts as resolved, and its delta-method spread stands in for the
# bootstrap, when its gap to the next eigenvalue is at least this many spreads
# (its own and those of its couplings to the other two eigenvectors).
RESOLVED_GAP = 10.0

CP = "CP"
NOT_CP = "not-CP"
INDETERMINATE = "indeterminate"

CLOSED = "closed"
DELTA = "delta"
BOOTSTRAP = "bootstrap"

# The gradient of v1^T E vk over the six parameters is v1_i vk_j + v1_j vk_i
# off the diagonal and v1_i vk_i on it: the symmetrised outer product at the
# parameters' entries (c11, c12, c13, c22, c23, c33), its diagonal halved.
_ROWS, _COLS = np.triu_indices(3)
_HALF_ON_DIAGONAL = np.array([0.5, 1.0, 1.0, 0.5, 1.0, 0.5])
# The six symmetric unit couplings: column b of the map from the parameters of
# C to those of O^T C O is the parameters of O^T _UNITS[b] O.
_UNITS = symmetric_from_vector(np.eye(6))


class SingularProbeMatrixError(ArithmeticError):
    """Probe matrix too ill-conditioned to invert (g too small or degenerate probe)."""

    def __init__(self, det: float, condition_number: float):
        self.det = float(det)
        self.condition_number = float(condition_number)
        super().__init__(
            f"probe matrix refused: det = {det:.6g}, "
            f"condition number = {condition_number:.6g} exceeds {CONDITION_LIMIT:.0e}"
        )


def _as_rates(rates) -> np.ndarray:
    if isinstance(rates, ProbeResult):
        rates = rates.rates
    r = np.asarray(rates, dtype=float)
    if r.shape != (6,):
        raise ValueError(f"expected 6 rates, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"rates must be finite, got {r.tolist()}")
    return r


def _check_conditioning(m: ProbeMatrix) -> None:
    if not np.isfinite(m.condition_number) or m.condition_number > CONDITION_LIMIT:
        raise SingularProbeMatrixError(m.det, m.condition_number)


@dataclass(frozen=True)
class InversionResult:
    """Estimated Kossakowski matrix with propagated uncertainty and CP verdict.

    ``margin`` is the smallest eigenvalue of the estimate, reported as 0.0
    when it is negative only within the inversion's rounding
    (``rounding_tolerance`` at cond(M)); ``margin_sigma`` is its delta-method
    or bootstrap spread (None when the verdict did not need one).
    ``verdict_path`` says which ran ("closed", "delta" or "bootstrap") and
    ``draws`` how many bootstrap draws (0 unless the bootstrap ran).
    """

    c_hat: KossakowskiMatrix
    covariance: np.ndarray
    residual_norm: float
    cp_verdict: str
    margin: float
    margin_sigma: float | None
    condition_number: float
    verdict_path: str = CLOSED
    draws: int = 0

    def __post_init__(self) -> None:
        self.covariance.setflags(write=False)

    def standard_errors(self) -> np.ndarray:
        """Propagated one-sigma errors of the six estimated parameters."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat.to_dict(),
            "covariance": [[float(x) for x in row] for row in self.covariance],
            "residual_norm": self.residual_norm,
            "cp_verdict": self.cp_verdict,
            "margin": self.margin,
            "margin_sigma": self.margin_sigma,
            "condition_number": self.condition_number,
            "verdict_path": self.verdict_path,
            "draws": self.draws,
        }


def _delta_min_eigenvalue_sigma(
    eigenvalues: np.ndarray, frame: np.ndarray, covariance: np.ndarray
) -> float | None:
    """First-order spread of lambda_min, or None when lambda_min is not resolved.

    ``eigenvalues`` and ``frame`` are the estimate's ``eigh``.  With v1..v3 its
    eigenvectors, the spread is that of v1^T E v1 for a perturbation
    E ~ N(0, covariance).  It holds when the gap lambda_2 - lambda_1 is at
    least RESOLVED_GAP times the largest spread of v1^T E vk, k = 1, 2, 3: the
    couplings to v2 and v3 rotate v1, and the second-order shift they cause
    grows as their spread squared over the gap.
    """
    pair = frame[:, 0, None] * frame.T[:, None, :]  # pair[k, i, j] = v1_i vk_j
    gradients = (pair + pair.transpose(0, 2, 1))[:, _ROWS, _COLS] * _HALF_ON_DIAGONAL
    spreads = np.sqrt(np.maximum(((gradients @ covariance) * gradients).sum(axis=1), 0.0))
    if eigenvalues[1] - eigenvalues[0] < RESOLVED_GAP * spreads.max():
        return None
    return float(spreads[0])


def _bootstrap_min_eigenvalue_sigma(
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


def invert_noisy(
    rates,
    sigmas,
    m: ProbeMatrix,
    z: float = 3.0,
    bootstrap: int = 10_000,
    seed: int = 0,
) -> InversionResult:
    """Solve for the mean rates and propagate the rate covariance linearly.

    ``sigmas`` are per-channel one-sigma rate uncertainties (zero allowed; all
    zero gives the plain solve of M c = rates, refusals included).  The
    covariance of the estimate is M^-1 diag(sigma^2) M^-T.  Refuses an
    ill-conditioned M (condition number beyond ``CONDITION_LIMIT``) instead
    of returning garbage.  Verdict: CP when the smallest
    eigenvalue is nonnegative (or negative only within the inversion's
    rounding, ``rounding_tolerance`` at cond(M)), not-CP when it is below -z
    sigmas, indeterminate in between.  The sigma is the delta-method spread
    when the smallest eigenvalue is resolved, and otherwise that of a
    ``bootstrap``-draw parametric bootstrap seeded with ``seed``.
    """
    r = _as_rates(rates)
    s = np.asarray(sigmas, dtype=float)
    if s.shape != (6,):
        raise ValueError(f"expected 6 sigmas, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError(f"sigmas must be finite, got {s.tolist()}")
    if np.any(s < 0):
        raise ValueError("sigmas must be nonnegative")
    if not 0.0 < z < np.inf:
        raise ValueError(f"z must be positive and finite, got {z}")
    # a bool bootstrap (0 or 1 draws) is out of range too
    if not isinstance(bootstrap, Integral) or not 2 <= bootstrap <= MAX_BOOTSTRAP:
        raise ValueError(
            f"bootstrap needs an integer of 2 to {MAX_BOOTSTRAP} draws, got {bootstrap!r}"
        )
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    _check_conditioning(m)

    m_inv = np.linalg.inv(m.matrix)
    c_vec = m_inv @ r
    covariance = m_inv @ np.diag(s**2) @ m_inv.T
    c_hat = KossakowskiMatrix.from_vector(c_vec)
    margin = float(c_hat.eigenvalues()[0])
    residual = float(np.linalg.norm(m.matrix @ c_vec - r))

    draws = 0
    if margin >= -rounding_tolerance(c_vec, m.condition_number):
        verdict, path, margin, margin_sigma = CP, CLOSED, max(margin, 0.0), None
    else:
        eigenvalues, frame = np.linalg.eigh(c_hat.matrix)
        margin_sigma, path = _delta_min_eigenvalue_sigma(eigenvalues, frame, covariance), DELTA
        if margin_sigma is None:
            margin_sigma = _bootstrap_min_eigenvalue_sigma(
                c_vec, covariance, bootstrap, seed, frame
            )
            path, draws = BOOTSTRAP, bootstrap
        verdict = NOT_CP if margin <= -z * margin_sigma else INDETERMINATE

    return InversionResult(
        c_hat=c_hat,
        covariance=covariance,
        residual_norm=residual,
        cp_verdict=verdict,
        margin=margin,
        margin_sigma=margin_sigma,
        condition_number=m.condition_number,
        verdict_path=path,
        draws=draws,
    )


def psd_project(c: KossakowskiMatrix) -> KossakowskiMatrix:
    """Nearest positive semidefinite matrix in Frobenius norm.

    Eigenvalue clipping at zero in the eigenbasis; idempotent.
    """
    eigvals, eigvecs = np.linalg.eigh(c.matrix)
    clipped = np.clip(eigvals, 0.0, None)
    projected = eigvecs @ np.diag(clipped) @ eigvecs.T
    return KossakowskiMatrix.from_matrix(0.5 * (projected + projected.T))
