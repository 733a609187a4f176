"""A seeded virtual experiment: shots, counts, and the full estimation pipeline.

Each shot scatters one electron, evolves it briefly under the noisy impurity,
and asks a yes/no detector whether it landed at the probe point in the probe
spin state.  Binomial counts per channel, rescaled by the calibration, feed
the linear inversion.
"""

from dataclasses import replace

import numpy as np

from kossprobe import (
    ExperimentConfig,
    KossakowskiMatrix,
    build_matrix_programmatic,
    coefficients,
    estimate,
    run,
)
from kossprobe.probe import CANONICAL_PHASE

truth = KossakowskiMatrix.identity()
config = ExperimentConfig(
    true_c=truth,
    g=2.0,
    phase=CANONICAL_PHASE,
    exposure=0.01,
    calibration=0.9,
    shots_per_channel=1_000_000,
    seed=42,
)
m = build_matrix_programmatic(coefficients(config.g))

print("=== one run ===")
out = run(config)
p, _ = config.per_shot_probabilities()
print(f"{'channel':>8} {'p':>9} {'counts':>8} {'p_hat':>9}")
for label, prob, k, p_hat in zip(
    ("P0T", "P1T", "P2T", "P0R", "P1R", "P2R"), p, out.detections, out.p_hat
):
    print(f"{label:>8} {prob:9.5f} {k:8d} {p_hat:9.5f}")

print("\n=== estimation ===")
result = estimate(out, m)
print("estimate:\n", np.round(result.c_hat.matrix, 4))
print("one-sigma errors:", np.round(result.standard_errors(), 4))
print("verdict:", result.cp_verdict, "| smallest eigenvalue:", round(result.margin, 4))

print("\n=== error shrinks like 1/sqrt(N) ===")
print(f"{'N':>9} {'mean |error|_F over 8 seeds':>28}")
errors = []
ns = [1_000, 10_000, 100_000, 1_000_000]
for n in ns:
    errs = []
    for s in range(8):
        cfg = replace(config, shots_per_channel=n, seed=1_000 + s)
        res = estimate(run(cfg), m)
        errs.append(np.linalg.norm(res.c_hat.matrix - truth.matrix))
    errors.append(np.mean(errs))
    print(f"{n:9d} {errors[-1]:28.5f}")
slope = np.polyfit(np.log10(ns), np.log10(errors), 1)[0]
print(f"log-log slope: {slope:.3f} (expected -0.5)")

print("\n=== pooling runs ===")
runs = [run(replace(config, seed=s)) for s in range(5)]
pooled = estimate(runs, m)
single = estimate(runs[0], m)
print("single-run errors:", np.round(single.standard_errors(), 5))
print("pooled errors:    ", np.round(pooled.standard_errors(), 5))

print("\n=== determinism ===")
print("same seed, identical artifact bytes:",
      run(config).to_json() == run(config).to_json())
