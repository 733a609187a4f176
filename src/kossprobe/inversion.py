"""Recovering the Kossakowski matrix from measured probability rates.

The forward model is linear, rates = M @ c, with M the 6x6 probe matrix, so
recovery is c = M^-1 @ rates with M inverted once per probe matrix.  For
empirical rates that inverse also propagates the covariance, and the estimate
gets a statistically guarded complete-positivity verdict and an optional
nearest-PSD repair.  Each ``eigh`` here is np.linalg's, bit for bit, from the
LAPACK gufunc that :mod:`kossprobe.kossakowski` calls directly.

The not-CP verdict requires significance: shot noise can push the smallest
eigenvalue of the estimate slightly negative even when the true matrix is
PSD, so the verdict is "indeterminate" unless the evidence against a PSD
truth is worth z standard normal deviations (z = 3 by default: a PSD truth
reads not-CP at most at the rate Phi(-3) = 0.135%).  Evidence is weighed
only when the smallest eigenvalue is negative beyond the inversion's
rounding, :func:`kossprobe.kossakowski.rounding_tolerance` at cond(M), the
rule by which ``cp_check(cond(M))`` reads the estimate too; otherwise the
verdict is CP in closed form ("closed").  Otherwise the evidence is one
test, the likelihood ratio of "C is PSD" on the tangent cone of the PSD cone
at the PSD truths the estimate's spectrum allows (Shapiro, Biometrika 72,
1985; Silvapulle & Sen, Constrained Statistical Inference, 2005), read from
one covariance of the parameters in the estimate's eigenframe
(:func:`_evidence`).  ``verdict_path`` says which case ran: "delta" when
lambda_min is resolved, where the cone is a half-space and the test is the
z-test of the margin on its delta-method spread; "cone" otherwise (nearly
degenerate spectra, such as those of rank-1 and zero truths, where lambda_min
is not smooth in the data), whose null law is a chi-bar-squared mixture.  No
case draws or searches.

Either case reports ``p_value``, the probability of evidence at least this
strong at a PSD truth, and ``margin_sigma``, the spread a normal margin
would need to give it, -margin / Phi^-1(1 - p): on the delta path the delta
spread itself.  The verdict is not-CP when margin <= -z margin_sigma, that
is, when p <= Phi(-z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kossakowski import (_COLS, _PARAM_OF_ENTRY, _ROWS, _UNITS, InputOverflowError,
                          KossakowskiMatrix, _eigh, _finite_reals, _is_finite_number,
                          _nonnegative_reals, rounding_tolerance)
from .probe import CHANNELS, ProbeMatrix, ProbeResult

CONDITION_LIMIT = 1e10
_CHANNEL_NAMES = np.array(CHANNELS)
_OVERFLOW = "rates or sigmas too large: the estimate, its covariance, spectrum or residual overflows"

# lambda_min counts as resolved, and its delta-method spread weighs the
# evidence, when its gap to the next eigenvalue is at least this many spreads
# (its own and those of its couplings to the other two eigenvectors).
# Otherwise an eigenvalue counts as resolved from zero, and the 2x2 block
# from the top eigenvalue, by the same factor.
RESOLVED_GAP = 10.0

CP = "CP"
NOT_CP = "not-CP"
INDETERMINATE = "indeterminate"

CLOSED = "closed"
DELTA = "delta"
CONE = "cone"

# The parameters of O^T C O that form the block of the two lowest
# eigenvectors, y = (Y11, Y12, Y22) (their covariance is frame_covariance[_BLOCK]);
# Y13 and Y23, parameters 2 and 4, are its couplings to the third.
_BLOCK = np.ix_([0, 1, 3], [0, 1, 3])
# y^T _DETERMINANT y = det Y, positive inside the 2x2 PSD cone.
_DETERMINANT = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
# Bulirsch's cel stops when its arithmetic-geometric mean agrees to this
# tolerance, where its value agrees to about the tolerance squared.  It and the
# distance's Newton iteration converge quadratically; both loops are bounded.
_CEL_TOL = 2.0**-26
_MAX_STEPS = 64
_EPS = np.finfo(float).eps
_SQRT2 = math.sqrt(2.0)


class SingularProbeMatrixError(ArithmeticError):
    """Probe matrix too ill-conditioned to invert (g too small or degenerate probe)."""

    def __init__(self, det: float, condition_number: float):
        self.det = float(det)
        self.condition_number = float(condition_number)
        super().__init__(
            f"probe matrix refused: det = {det:.6g}, "
            f"condition number = {condition_number:.6g} exceeds {CONDITION_LIMIT:.0e}"
        )


@dataclass(frozen=True, init=False)
class InversionResult:
    """Estimated Kossakowski matrix with propagated uncertainty and CP verdict.

    ``margin`` is the smallest eigenvalue of the estimate, reported as 0.0
    when it is negative only within the inversion's rounding
    (``rounding_tolerance`` at cond(M)).  ``verdict_path`` says how the
    verdict was reached ("closed", "delta" or "cone"), ``p_value`` is the
    probability of evidence against CP at least this strong at a PSD truth,
    and ``margin_sigma`` the normal-equivalent spread -margin /
    Phi^-1(1 - p_value) (capped at -2 margin / z where p_value is near or
    above 1/2); both are None on the closed path.  ``cone_statistic`` is the
    cone path's likelihood-ratio statistic, None elsewhere.  No path draws:
    ``draws`` is always 0, kept for the JSON's shape.
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
    p_value: float | None = None
    cone_statistic: float | None = None

    def __init__(self, c_hat, covariance, residual_norm, cp_verdict, margin, margin_sigma,
                 condition_number, verdict_path=CLOSED, draws=0, p_value=None,
                 cone_statistic=None) -> None:
        covariance.setflags(write=False)
        # one write of the instance dict, in place of a frozen __setattr__ per field
        object.__setattr__(self, "__dict__", {
            "c_hat": c_hat, "covariance": covariance, "residual_norm": residual_norm,
            "cp_verdict": cp_verdict, "margin": margin, "margin_sigma": margin_sigma,
            "condition_number": condition_number, "verdict_path": verdict_path,
            "draws": draws, "p_value": p_value, "cone_statistic": cone_statistic,
        })

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
            "p_value": self.p_value,
            "cone_statistic": self.cone_statistic,
        }


def _chi2_tail(k: int, t: float) -> float:
    """P(chi2_k >= t) for k = 1..6, in closed form."""
    if t <= 0.0:
        return 1.0
    h = 0.5 * t
    if k % 2 == 0:
        # exp(-t/2) sum_{j < k/2} (t/2)^j / j!
        term = total = 1.0
        for j in range(1, k // 2):
            term *= h / j
            total += term
        return math.exp(-h) * total
    # erfc(sqrt(t/2)) + sqrt(2/pi) exp(-t/2) sum_{j <= (k-1)/2} t^(j-1/2) / (2j-1)!!
    term = math.sqrt(t) * math.sqrt(2.0 / math.pi) * math.exp(-h)
    total = math.erfc(math.sqrt(h))
    for j in range(1, (k + 1) // 2):
        total += term
        term *= t / (2 * j + 1)
    return total


def _normal_equivalent_sigma(margin: float, p: float, z: float) -> float:
    """-margin / Phi^-1(1 - p), with the quantile floored at z / 2: a finite spread that
    reads indeterminate where p is near or above 1/2."""
    if p <= 0.0:
        return 0.0
    from statistics import NormalDist  # deferred: only the cone path reads it

    quantile = -NormalDist().inv_cdf(p) if p < 0.5 else 0.0
    return -margin / max(quantile, 0.5 * z)


def _cone_distance(x0: float, x1: float, x2: float, r0: float, r1: float) -> float:
    """Squared distance from x to the elliptic cone x2 >= sqrt(r0 x0^2 + r1 x1^2).

    x is first scaled by a power of two, so that no square underflows.  The
    distance is 0 inside the cone and |x|^2 in the polar (x2 <= 0, x2^2 >=
    x0^2 / r0 + x1^2 / r1).  Otherwise x projects to the boundary point t (x0 / l0, x1 / l1, 1),
    l_i = t + r_i u with u = t - x2, where t > max(x2, 0) is the one root of
    sum r_i x_i^2 / l_i^2 = 1.  h = (sum r_i x_i^2 / l_i^2)^(-1/2) is increasing
    and concave in t, so Newton's method on h = 1 climbs to t from below without
    overshoot.  It starts at the root for x2 = 0, where h is linear, moved by
    |x2| to stay below the root.  It steps in s, with t = s + max(x2, 0) and
    u = s + max(-x2, 0), so that t and u are both sums of nonnegative terms.
    """
    scale = math.ldexp(1.0, math.frexp(max(abs(x0), abs(x1), abs(x2)))[1])
    x0, x1, x2 = x0 / scale, x1 / scale, x2 / scale
    a0, a1 = r0 * x0 * x0, r1 * x1 * x1
    if x2 >= 0.0 and x2 * x2 >= a0 + a1:
        return 0.0
    if x2 <= 0.0 and x2 * x2 >= x0 * x0 / r0 + x1 * x1 / r1:
        return (x0 * x0 + x1 * x1 + x2 * x2) * scale * scale
    flat = math.sqrt(a0 / (1.0 + r0) ** 2 + a1 / (1.0 + r1) ** 2)
    s, t_shift, u_shift = max(flat - abs(x2), 0.0), max(x2, 0.0), max(-x2, 0.0)
    for _ in range(_MAX_STEPS):
        t, u = s + t_shift, s + u_shift
        l0, l1 = t + r0 * u, t + r1 * u
        q0, q1 = a0 / (l0 * l0), a1 / (l1 * l1)
        h = 1.0 / math.sqrt(q0 + q1)
        step = (1.0 - h) / (h**3 * (q0 * (1.0 + r0) / l0 + q1 * (1.0 + r1) / l1))
        s += step
        if step <= _EPS * s:
            break
    t, u = s + t_shift, s + u_shift
    stretch = 1.0 + (r0 * x0 / (t + r0 * u)) ** 2 + (r1 * x1 / (t + r1 * u)) ** 2
    return u * u * stretch * scale * scale


def _cel(kc: float, p: float) -> float:
    """Bulirsch's complete elliptic integral cel(kc, p, 1, 1), kc, p > 0: the integral
    over [0, pi/2] of dphi / ((cos^2 + p sin^2) sqrt(cos^2 + kc^2 sin^2)) (Bulirsch,
    Numer. Math. 13, 1969), by his arithmetic-geometric-mean iteration."""
    e, em = kc, 1.0
    p = math.sqrt(p)
    a, b = 1.0, 1.0 / p
    for _ in range(_MAX_STEPS):
        g = e / p
        a, b, p = a + b / p, 2.0 * (b + a * g), p + g
        converged = abs(em - kc) <= em * _CEL_TOL
        em += kc
        if converged:
            break
        kc = 2.0 * math.sqrt(e)
        e = kc * em
    return 0.5 * math.pi * (b + a * em) / (em * (em + p))


def _cone_fraction(r0: float, r1: float) -> float:
    """P(x2 >= sqrt(r0 x0^2 + r1 x1^2)) for a standard normal x in three dimensions.

    It is the mean over the azimuth of (1 - cos theta) / 2, the cone's
    half-angle theta at that azimuth, which is one complete elliptic integral.
    """
    kc = math.sqrt((1.0 + r1) * r0 / ((1.0 + r0) * r1))
    return 0.5 - r0 / (math.pi * math.sqrt(r1 * (1.0 + r0))) * _cel(kc, r0 / r1)


def _block_cone_test(y: np.ndarray, block_covariance: np.ndarray) -> tuple[float, float]:
    """(T, p): the likelihood-ratio test that the 2x2 block y = (Y11, Y12, Y22) is PSD.

    T is the block_covariance^-1 distance squared from y to the 2x2 PSD cone,
    p its chi-bar-squared tail at the cone's vertex.  The covariance is
    whitened through its ``eigh``, its eigenvalues floored at eps times the
    largest plus max|y|^2, so that a singular covariance (some rate sigmas
    zero) gives a huge distance along its null directions, not an error.
    """
    d, q = _eigh(block_covariance)
    d = np.maximum(d, _EPS * (d[2] + max(map(abs, y.tolist())) ** 2))
    # In whitened coordinates x, y = root x, the cone is x^T B x >= 0 with
    # B = root^T _DETERMINANT root, of one positive and two negative
    # eigenvalues.  In B's eigenframe it is the elliptic cone
    # x2 >= sqrt(r0 x0^2 + r1 x1^2), its nappe the one of nonnegative trace.
    # Since root^T root = diag(d), each |mu| is at least d[0] / 2 (Ostrowski),
    # a bound that rounding can cross when d[0] is near the floor.
    root = q * np.sqrt(d)
    mu, v = _eigh(root.T @ _DETERMINANT @ root)
    floor = 0.5 * float(d[0])
    mu0, mu1, mu2 = (max(abs(m), floor) for m in mu.tolist())
    r0, r1 = mu0 / mu2, mu1 / mu2
    x0, x1, x2 = (v.T @ (root.T @ y / d)).tolist()
    if (root[0] + root[2]) @ v[:, 2] < 0.0:
        x2 = -x2
    statistic = _cone_distance(x0, x1, x2, r0, r1)
    # w3 = P(x in the cone), w0 = P(x in its polar x2 <= -sqrt(x0^2 / r0 + x1^2 / r1))
    w3, w0 = _cone_fraction(r0, r1), _cone_fraction(1.0 / r0, 1.0 / r1)
    p = (
        w0 * _chi2_tail(3, statistic)
        + (0.5 - w3) * _chi2_tail(2, statistic)
        + (0.5 - w0) * _chi2_tail(1, statistic)
    )
    return statistic, min(max(p, 0.0), 1.0)


def _evidence(
    margin: float, eigenvalues: np.ndarray, frame: np.ndarray, covariance: np.ndarray, z: float
) -> tuple[str, float, float, float | None]:
    """(path, p-value, margin_sigma, statistic) of the evidence against a PSD truth.

    ``eigenvalues`` and ``frame`` are the estimate's ``eigh``.  The map from
    the parameters of C to those of O^T C O in its eigenframe O gives their
    covariance, whose diagonal holds the spreads of v_j^T E v_k.  The test is
    the likelihood ratio on the tangent cone at the PSD truths the spectrum
    allows, by which eigenvalues are resolved (RESOLVED_GAP spreads):

    - lambda_min from lambda_2, by the spreads of v1^T E vk, k = 1, 2, 3 (the
      couplings rotate v1 and shift lambda_min by their spread squared over
      the gap): the cone is the half-space v1^T C v1 >= 0, and the test the
      z-test of the margin on sigma, the spread of v1^T E v1 ("delta");
    - lambda_3 from zero, and lambda_1, lambda_2 from lambda_3 (the spreads
      of v1^T E v3, v2^T E v3), as near a rank-1 truth: with U their
      eigenvectors, the block U^T C U must be PSD and the other three
      parameters are free (:func:`_block_cone_test`);
    - otherwise T is the half-space statistic (margin / sigma)^2, at most the
      distance squared to the whole PSD cone: p = P(chi2_1 >= T) / 2 when
      lambda_2 is resolved from zero (a truth of rank 2 or more, whose cone
      is a half-space), else Perlman's bound on any chi-bar-squared of six
      degrees of freedom, (P(chi2_5 >= T) + P(chi2_6 >= T)) / 2 (zero truths).

    The last two are the "cone" path, whose margin_sigma is the normal
    equivalent of p.
    """
    # column b: the parameters of O^T U_b O, for the b-th unit coupling U_b
    to_frame = (frame.T @ _UNITS @ frame)[:, _ROWS, _COLS].T
    frame_covariance = to_frame @ covariance @ to_frame.T
    spreads = np.sqrt(np.maximum(frame_covariance.diagonal(), 0.0)).tolist()
    sigma = spreads[0]
    # r_b is RESOLVED_GAP spreads of parameter b; 2 and 4 are the couplings to the top
    r0, r1, r2, r3, r4, r5 = (RESOLVED_GAP * s for s in spreads)
    l1, l2, l3 = eigenvalues.tolist()
    low_gap, top_gap = l2 - l1, l3 - l2
    # each gap is compared with each spread, so that a nan spread resolves nothing
    if low_gap >= r0 and low_gap >= r1 and low_gap >= r2:
        p = 0.5 * math.erfc(-margin / (_SQRT2 * sigma)) if sigma else 0.0
        return DELTA, p, sigma, None
    if l3 >= r5 and top_gap >= r2 and top_gap >= r4:
        statistic, p = _block_cone_test(np.array([l1, 0.0, l2]), frame_covariance[_BLOCK])
    else:
        statistic = (margin / sigma) ** 2 if sigma > 0.0 else math.inf
        if l2 >= r3:
            p = 0.5 * _chi2_tail(1, statistic)
        else:
            p = 0.5 * (_chi2_tail(5, statistic) + _chi2_tail(6, statistic))
    return CONE, p, _normal_equivalent_sigma(margin, p, z), statistic


def invert_noisy(
    rates,
    sigmas,
    m: ProbeMatrix,
    z: float = 3.0,
    bootstrap: int = 10_000,
) -> InversionResult:
    """Solve for the mean rates and propagate the rate covariance linearly.

    ``rates`` and ``sigmas`` are six finite real numbers each, the sigmas
    per-channel one-sigma rate uncertainties (zero allowed; all zero gives the
    plain solve of M c = rates, refusals included).  The
    covariance of the estimate is M^-1 diag(sigma^2) M^-T.  Refuses an
    ill-conditioned M (condition number beyond ``CONDITION_LIMIT``) instead
    of returning garbage, before M is inverted: M is inverted once per
    :class:`ProbeMatrix` (``m.inverse``), so the runs estimated with one M
    share its inverse.  Refuses, as an ``InputOverflowError``, rates or
    sigmas so large that the estimate, its covariance, the spectrum or the
    residual overflows.  One ``eigh`` of the estimate gives the margin and the frame in
    which the evidence is weighed.  Verdict: CP when the smallest eigenvalue is
    nonnegative (or negative only within the inversion's rounding,
    ``rounding_tolerance`` at cond(M)); otherwise not-CP when the evidence
    against a PSD truth has a p-value of at most Phi(-z) (the likelihood
    ratio on the tangent cone, a z-test on the delta path), indeterminate
    when it does not.  ``bootstrap`` is neither read nor checked (no path
    draws); it stays because the benchmark's ``perfbench/tracer.py`` binds it by name.
    """
    if isinstance(rates, ProbeResult):
        rates = rates.rates
    r = _finite_reals(rates, _CHANNEL_NAMES, "rates")
    s = _nonnegative_reals(sigmas, _CHANNEL_NAMES, "sigmas")
    if not (_is_finite_number(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")
    if not math.isfinite(m.condition_number) or m.condition_number > CONDITION_LIMIT:
        raise SingularProbeMatrixError(m.det, m.condition_number)

    m_inv = m.inverse
    c_vec = m_inv @ r
    covariance = (m_inv * s**2) @ m_inv.T
    entries = c_vec.tolist()
    # the estimate is tested before it is a KossakowskiMatrix, which refuses its entries
    if not all(map(math.isfinite, entries + covariance.ravel().tolist())):
        raise InputOverflowError(_OVERFLOW)
    eigenvalues, frame = _eigh(c_vec[_PARAM_OF_ENTRY])
    misfit = m.matrix @ c_vec - r
    residual = math.sqrt(misfit @ misfit)
    if not (all(map(math.isfinite, eigenvalues.tolist())) and math.isfinite(residual)):
        raise InputOverflowError(_OVERFLOW)
    c_hat = KossakowskiMatrix(*entries)
    margin = float(eigenvalues[0])

    p_value = statistic = None
    if margin >= -rounding_tolerance(c_vec, m.condition_number):
        verdict, path, margin, margin_sigma = CP, CLOSED, max(margin, 0.0), None
    else:
        path, p_value, margin_sigma, statistic = _evidence(
            margin, eigenvalues, frame, covariance, z
        )
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
        p_value=p_value,
        cone_statistic=statistic,
    )


def psd_project(c: KossakowskiMatrix) -> KossakowskiMatrix:
    """Nearest positive semidefinite matrix in Frobenius norm.

    Eigenvalue clipping at zero in the eigenbasis; idempotent to rounding.
    """
    eigvals, eigvecs = _eigh(c.matrix)
    clipped = np.clip(eigvals, 0.0, None)
    projected = eigvecs @ np.diag(clipped) @ eigvecs.T
    return KossakowskiMatrix.from_matrix(0.5 * (projected + projected.T))
