"""Calibration of the not-CP verdict: its false rate at PSD truths, its power at others.

Each trial adds Gaussian noise of SIGMA to every exact rate of a truth (g = 2,
canonical phase) and inverts the noisy rates with ``invert_noisy`` at z = 3.
The table reports, for each truth, the share of trials whose verdict took the
cone path and the not-CP rate with its 95% Wilson interval.  At a PSD truth
that rate should be at most Phi(-3) = 0.135%: the script exits 1, naming the
truth, when a PSD truth's interval lies wholly above it.

numpy only and seeded (row i by i), so every run prints the same table.

    PYTHONPATH=src python adjudication/calibrate_cp_test.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

from kossprobe.inversion import CONE, NOT_CP, invert_noisy
from kossprobe.kossakowski import KossakowskiMatrix
from kossprobe.probe import build_matrix_programmatic, forward
from kossprobe.scattering import coefficients

SIGMA = 0.05
Z = 3.0
SIZE = 0.5 * math.erfc(Z / math.sqrt(2))
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


def calibrate(diagonal, trials: int, seed: int) -> tuple[int, int]:
    """(cone-path trials, not-CP trials) of ``trials`` noisy inversions of a truth."""
    co = coefficients(2.0)
    m = build_matrix_programmatic(co)
    rates = forward(KossakowskiMatrix.diagonal(*diagonal), co).rates
    sigmas = np.full(6, SIGMA)
    cone = not_cp = 0
    for noise in np.random.default_rng(seed).normal(0.0, SIGMA, (trials, 6)):
        result = invert_noisy(rates + noise, sigmas, m, z=Z)
        cone += result.verdict_path == CONE
        not_cp += result.cp_verdict == NOT_CP
    return cone, not_cp


def main() -> int:
    print(f"sigma = {SIGMA} on every rate, g = 2, z = {Z:g}; nominal size {SIZE:.3%}")
    print("| truth | PSD | trials | cone path | not-CP |")
    print("|---|---|---|---|---|")
    oversized = []
    for index, (label, diagonal, psd, trials) in enumerate(TRUTHS):
        cone, not_cp = calibrate(diagonal, trials, seed=index)
        low, high = wilson(not_cp, trials)
        print(f"| `{label}` | {'yes' if psd else 'no'} | {trials:,} | {cone / trials:.1%} | "
              f"{not_cp / trials:.3%} ({low:.3%}–{high:.3%}) |", flush=True)
        if psd and low > SIZE:
            oversized.append(label)
    if oversized:
        print(f"not-CP rate above {SIZE:.3%} at PSD truths: {', '.join(oversized)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
