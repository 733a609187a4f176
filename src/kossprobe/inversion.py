"""Recovering the Kossakowski matrix from measured probability rates.

The forward model is linear, rates = M @ c, with M the 6x6 probe matrix, so
recovery is c = M^-1 @ rates with M inverted once.  For empirical rates that
inverse also propagates the covariance, and the estimate gets a statistically
guarded complete-positivity verdict and an optional nearest-PSD repair.

The not-CP verdict requires significance: shot noise can push the smallest
eigenvalue of the estimate slightly negative even when the true matrix is
PSD, so the verdict is "indeterminate" unless the eigenvalue is negative by
at least z standard deviations (z = 3 by default, spread estimated by a
parametric bootstrap over the propagated covariance).  The bootstrap runs
only when the smallest eigenvalue is negative beyond the inversion's
rounding, :func:`kossprobe.kossakowski.rounding_tolerance` at cond(M), the
rule by which ``cp_check(cond(M))`` reads the estimate too.  Its draws are
seeded Gaussian parameter vectors, and their smallest eigenvalues come from
cyclic Jacobi sweeps run on the whole batch at once
(:func:`kossprobe.kossakowski.min_eigenvalue_from_vector`), not one LAPACK
call per draw: a 10k-draw verdict takes about 5 ms on a 2-core host, 2 ms
of it the multivariate normal draws (12.5-17 ms with ``eigvalsh``).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .kossakowski import KossakowskiMatrix, min_eigenvalue_from_vector, rounding_tolerance
from .probe import ProbeMatrix, ProbeResult

CONDITION_LIMIT = 1e10
# The draws hold bootstrap * 6 doubles and the eigenvalue sweep copies them
# once more: about 100 MB at this many.
MAX_BOOTSTRAP = 1_000_000

CP = "CP"
NOT_CP = "not-CP"
INDETERMINATE = "indeterminate"


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


def invert_exact(rates, m: ProbeMatrix) -> KossakowskiMatrix:
    """Unique solution of M c = rates, mapped back to a symmetric matrix.

    Refuses ill-conditioned matrices (condition number beyond
    ``CONDITION_LIMIT``) instead of returning garbage.
    """
    r = _as_rates(rates)
    _check_conditioning(m)
    return KossakowskiMatrix.from_vector(np.linalg.inv(m.matrix) @ r)


@dataclass(frozen=True)
class InversionResult:
    """Estimated Kossakowski matrix with propagated uncertainty and CP verdict.

    ``margin`` is the smallest eigenvalue of the estimate, reported as 0.0
    when it is negative only within the inversion's rounding
    (``rounding_tolerance`` at cond(M)); ``margin_sigma`` is its bootstrap
    spread (None when the verdict did not need one).
    """

    c_hat: KossakowskiMatrix
    covariance: np.ndarray
    residual_norm: float
    cp_verdict: str
    margin: float
    margin_sigma: float | None
    condition_number: float

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
        }


def _bootstrap_min_eigenvalue_sigma(
    center: np.ndarray, covariance: np.ndarray, n: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    draws = rng.multivariate_normal(center, covariance, size=n, method="svd")
    lambda_min = min_eigenvalue_from_vector(draws)
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

    ``sigmas`` are per-channel one-sigma rate uncertainties (zero allowed; the
    degenerate limit reproduces :func:`invert_exact`).  The covariance of the
    estimate is M^-1 diag(sigma^2) M^-T.  Verdict: CP when the smallest
    eigenvalue is nonnegative (or negative only within the inversion's
    rounding, ``rounding_tolerance`` at cond(M)), not-CP when it is below -z
    bootstrap sigmas, indeterminate in between.
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
    if not isinstance(bootstrap, Integral) or not 2 <= bootstrap <= MAX_BOOTSTRAP:
        raise ValueError(
            f"bootstrap needs an integer of 2 to {MAX_BOOTSTRAP} draws, got {bootstrap!r}"
        )
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    _check_conditioning(m)

    m_inv = np.linalg.inv(m.matrix)
    c_vec = m_inv @ r
    covariance = m_inv @ np.diag(s**2) @ m_inv.T
    c_hat = KossakowskiMatrix.from_vector(c_vec)
    margin = float(c_hat.eigenvalues()[0])
    residual = float(np.linalg.norm(m.matrix @ c_vec - r))

    if margin >= -rounding_tolerance(c_vec, m.condition_number):
        verdict, margin, margin_sigma = CP, max(margin, 0.0), None
    else:
        sigma_lambda = _bootstrap_min_eigenvalue_sigma(c_vec, covariance, bootstrap, seed)
        verdict = NOT_CP if margin <= -z * sigma_lambda else INDETERMINATE
        margin_sigma = sigma_lambda

    return InversionResult(
        c_hat=c_hat,
        covariance=covariance,
        residual_norm=residual,
        cp_verdict=verdict,
        margin=margin,
        margin_sigma=margin_sigma,
        condition_number=m.condition_number,
    )


def psd_project(c: KossakowskiMatrix) -> KossakowskiMatrix:
    """Nearest positive semidefinite matrix in Frobenius norm.

    Eigenvalue clipping at zero in the eigenbasis; idempotent.
    """
    eigvals, eigvecs = np.linalg.eigh(c.matrix)
    clipped = np.clip(eigvals, 0.0, None)
    projected = eigvecs @ np.diag(clipped) @ eigvecs.T
    return KossakowskiMatrix.from_matrix(0.5 * (projected + projected.T))
