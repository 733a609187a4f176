"""Linear inversion: reading the noise matrix off the measured rates.

Noiseless rates invert exactly: zero sigmas give the plain solve of
M c = rates.  Noisy rates invert with a propagated
covariance, a statistically guarded complete-positivity verdict, and an
optional nearest-PSD repair.
"""

import numpy as np

from kossprobe import (
    KossakowskiMatrix,
    build_matrix_programmatic,
    coefficients,
    forward,
    invert_noisy,
    psd_project,
)

rng = np.random.default_rng(2024)
co = coefficients(2.0)
m = build_matrix_programmatic(co)

hidden = KossakowskiMatrix(1.1, 0.25, -0.15, 0.9, 0.05, 0.7)
print("hidden noise matrix:\n", hidden.matrix)

print("\n=== exact recovery from noiseless rates ===")
rates = forward(hidden, co)
recovered = invert_noisy(rates, np.zeros(6), m).c_hat
print("recovered:\n", np.round(recovered.matrix, 12))
print("max error:", np.max(np.abs(recovered.matrix - hidden.matrix)))

print("\n=== recovery from noisy rates ===")
sigma = 0.01 * np.ones(6)
noisy = rates.rates + rng.normal(0.0, sigma)
result = invert_noisy(noisy, sigma, m)
print("estimate:\n", np.round(result.c_hat.matrix, 4))
print("one-sigma errors on (c11, c12, c13, c22, c23, c33):")
print(" ", np.round(result.standard_errors(), 4))
print("smallest eigenvalue:", round(result.margin, 4))
print("verdict:", result.cp_verdict)

print("\n=== shrinking noise tightens the estimate ===")
print(f"{'sigma':>8} {'|error|_F':>10} {'verdict':>14}")
for scale in (0.1, 0.03, 0.01, 0.003, 0.001):
    s = scale * np.ones(6)
    res = invert_noisy(rates.rates + rng.normal(0.0, s), s, m)
    err = np.linalg.norm(res.c_hat.matrix - hidden.matrix)
    print(f"{scale:8.3f} {err:10.4f} {res.cp_verdict:>14}")

print("\n=== nearest-PSD repair of an unphysical estimate ===")
bad = KossakowskiMatrix.diagonal(1.0, 1.0, -0.2)
fixed = psd_project(bad)
print("estimate eigenvalues: ", bad.eigenvalues())
print("projected eigenvalues:", fixed.eigenvalues())
print("Frobenius distance moved:", np.linalg.norm(fixed.matrix - bad.matrix))
print("projection is idempotent:", np.allclose(psd_project(fixed).matrix, fixed.matrix))
