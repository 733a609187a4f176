"""Why complete positivity matters: a positive map that predicts negative
probabilities.

The noise matrix diag(1, 1, -1) generates a perfectly sensible-looking
single-qubit evolution: Bloch vectors shrink, states stay states.  But it is
not positive semidefinite, the map is not completely positive, and the moment
it acts on one half of an entangled pair the bookkeeping breaks: a detection
channel acquires a negative rate.
"""

import numpy as np

from kossprobe import (
    KossakowskiMatrix,
    NotCompletelyPositiveError,
    coefficients,
    evolve,
    forward,
    kraus_noise,
)
from kossprobe.spin import basis, pauli

sigma = [pauli(i) for i in (1, 2, 3)]

c = KossakowskiMatrix.diagonal(1.0, 1.0, -1.0)
print("noise matrix: diag(1, 1, -1)")
report = c.cp_check()
print("eigenvalues:", report.eigenvalues, "-> positive semidefinite:", report.psd)
for name, ok in report.conditions_ok.items():
    if not ok:
        print(f"  violated condition: {name} (margin {report.conditions[name]:+.3g})")

print("\n=== yet the single-qubit evolution looks fine ===")
state = np.diag([1.0, 0.0])  # Bloch vector (0, 0, 1)
print("Bloch z-component decays as exp(-4t), x and y are frozen:")
for t in (0.0, 0.25, 0.5, 1.0, 2.0):
    r = [np.real(np.trace(evolve(c, state, t) @ s)) for s in sigma]
    print(f"  t = {t:4.2f}: r = ({r[0]:.3f}, {r[1]:.3f}, {r[2]:.6f})"
          f"   |r| = {np.linalg.norm(r):.6f}")
print("norms never grow, so every qubit state stays a state: the map is positive.")

print("\n=== no Kraus form exists, though ===")
try:
    kraus_noise(c)
except NotCompletelyPositiveError as exc:
    print("Kraus decomposition refused:", exc)

print("\n=== and entanglement exposes it ===")
co = coefficients(2.0)
rates = forward(c, co)
print("the six detection rates at g = 2:")
for label, rate in rates.by_channel().items():
    marker = "   <-- negative probability rate" if rate < 0 else ""
    print(f"  {label}: {rate:+.4f}{marker}")

v3 = basis("canonical").probe_state
rho = np.outer(v3, v3.conj())
print("\nevolving the maximally entangled probe state under the lifted map:")
for t in (0.001, 0.01, 0.05):
    eigs = np.linalg.eigvalsh(evolve(c, rho, t))
    print(f"  t = {t:5.3f}: smallest eigenvalue {eigs[0]:+.6f}")
print("the output is no longer a physical state; to first order the negative")
print("eigenvalue equals -t, exactly the negative detection rate's origin.")

print("\nfor contrast, the identity noise matrix keeps everything positive:")
good = forward(KossakowskiMatrix.identity(), co)
print("  min rate:", min(good.by_channel().values()))
