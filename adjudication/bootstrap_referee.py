"""The parametric bootstrap of lambda_min that judged nearly degenerate spectra.

Before the cone test (``kossprobe.inversion``), an estimate whose smallest
eigenvalue was not resolved read not-CP when margin <= -z sigma_boot, with
sigma_boot the spread of lambda_min over 10k seeded draws from
N(c_hat, covariance).  This module keeps that bootstrap outside the library,
in plain numpy: ``multivariate_normal`` draws and ``eigvalsh``, 14-16 ms per
10k-draw call on a 2-core host with one BLAS thread.  The tests take it as the
referee of the delta spread.  It shares no code with the cone test it judges.

    from adjudication.bootstrap_referee import bootstrap_min_eigenvalue_sigma

(from the repository root, with ``src`` on the path).
"""

from __future__ import annotations

import numpy as np

from kossprobe.kossakowski import symmetric_from_vector


def bootstrap_min_eigenvalue_sigma(
    center: np.ndarray, covariance: np.ndarray, n: int, seed: int
) -> float:
    """Spread (ddof = 1) of lambda_min over ``n`` seeded draws from N(center, covariance)."""
    draws = np.random.default_rng(seed).multivariate_normal(
        center, covariance, size=n, method="svd"
    )
    return float(np.linalg.eigvalsh(symmetric_from_vector(draws))[:, 0].std(ddof=1))
