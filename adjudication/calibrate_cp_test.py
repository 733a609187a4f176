"""Calibration of the not-CP verdict: its false rate at PSD truths, its power at others.

Each trial adds Gaussian noise of SIGMA to every exact rate of a truth (g = 2,
canonical phase) and inverts the noisy rates with ``invert_noisy`` at z = 3.
Where the verdict takes the cone path (nearly degenerate spectra), the trial
is also judged as the parametric bootstrap judged it before the cone test
(``bootstrap_referee.py``, beside this script): not-CP when margin <= -z
sigma_boot, with sigma_boot the spread of the smallest eigenvalue over 10k
seeded draws from N(c_hat, covariance).  The closed and delta paths are
common to both tests.  The table reports each test's not-CP rate with its
95% Wilson interval; at a PSD truth the rate should be at most
Phi(-3) = 0.135%.

numpy only and seeded (the same seed gives the same table).  Not run by the
test suite: the default sizes take about 15 minutes on a 2-core host, nearly
all of it in the bootstrap's ``eigvalsh`` on 10k 3x3 matrices per cone-path
trial (``--scale 0.01`` about 10 s, ``--scale 0.05`` about 47 s).

    PYTHONPATH=src python adjudication/calibrate_cp_test.py [--scale 0.1]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from bootstrap_referee import bootstrap_min_eigenvalue_sigma
from kossprobe.inversion import CONE, NOT_CP, invert_noisy
from kossprobe.kossakowski import KossakowskiMatrix
from kossprobe.probe import build_matrix_programmatic, forward
from kossprobe.scattering import coefficients

SIGMA = 0.05
Z = 3.0
DRAWS = 10_000
# (label, diagonal of the truth, PSD, trials)
TRUTHS = (
    ("C = 0", (0.0, 0.0, 0.0), True, 20_000),
    ("diag(1, 0, 0)", (1.0, 0.0, 0.0), True, 20_000),
    ("diag(1, 0.03, 0)", (1.0, 0.03, 0.0), True, 5_000),
    ("diag(1, 0.1, 0)", (1.0, 0.1, 0.0), True, 5_000),
    ("diag(1, 1, 0)", (1.0, 1.0, 0.0), True, 5_000),
    ("diag(1, 0, -0.15)", (1.0, 0.0, -0.15), False, 2_000),
    ("diag(1, 0, -0.3)", (1.0, 0.0, -0.3), False, 2_000),
    ("diag(1, 1, -0.3)", (1.0, 1.0, -0.3), False, 2_000),
)


def wilson(k: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate k / n."""
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(centre - half, 0.0), min(centre + half, 1.0)


def calibrate(diagonal, trials: int, seed: int) -> dict:
    co = coefficients(2.0)
    m = build_matrix_programmatic(co)
    rates = forward(KossakowskiMatrix.diagonal(*diagonal), co).rates
    sigmas = np.full(6, SIGMA)
    rng = np.random.default_rng(seed)
    cone = bootstrap_not_cp = cone_not_cp = 0
    for trial in range(trials):
        result = invert_noisy(rates + rng.normal(0.0, SIGMA, 6), sigmas, m, z=Z)
        not_cp = result.cp_verdict == NOT_CP
        cone_not_cp += not_cp
        if result.verdict_path == CONE:
            cone += 1
            sigma = bootstrap_min_eigenvalue_sigma(
                result.c_hat.vector, result.covariance, DRAWS, trial
            )
            not_cp = result.margin <= -Z * sigma
        bootstrap_not_cp += not_cp
    return {"trials": trials, "cone": cone, "bootstrap": bootstrap_not_cp, "cone_test": cone_not_cp}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every trial count")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"sigma = {SIGMA} on every rate, g = 2, z = {Z:g}, {DRAWS} bootstrap draws; "
          f"nominal size {0.5 * math.erfc(Z / math.sqrt(2)):.3%}")
    print("| truth | PSD | trials | cone path | not-CP, bootstrap (parent) | not-CP, cone test |")
    print("|---|---|---|---|---|---|")
    for index, (label, diagonal, psd, trials) in enumerate(TRUTHS):
        start = time.perf_counter()
        n = max(1, round(trials * args.scale))
        row = calibrate(diagonal, n, seed=args.seed * len(TRUTHS) + index)
        cells = [
            f"{row[key] / n:.3%} ({wilson(row[key], n)[0]:.3%}–{wilson(row[key], n)[1]:.3%})"
            for key in ("bootstrap", "cone_test")
        ]
        print(f"| `{label}` | {'yes' if psd else 'no'} | {n:,} | {row['cone'] / n:.1%} | "
              f"{cells[0]} | {cells[1]} |", flush=True)
        print(f"{label}: {time.perf_counter() - start:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
