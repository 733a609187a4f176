"""Electron transmission and reflection off a contact-coupled spin-1/2 impurity.

The exchange interaction is diagonal in the total spin of electron plus
impurity, so the two channels scatter independently: channel 0 is the singlet
(total spin 0) and channel 1 the triplet (total spin 1).  Everything depends
on one dimensionless coupling

    g = pi * J * rho(E) / 4,        rho(E) = sqrt(2 m / E) / (pi hbar),

with rho(E) the linear density of states of the wire at the scattering energy,
plus, on the reflected side, the interference phase theta = 2 k |x| of the
probe point.  :func:`physical_coupling` derives g and k from J, E, m and
hbar; :func:`coefficients` is the one check of g, which must be finite with
-1.5 g finite, and is flagged by a warning when negative.

Channel couplings are alpha_0 = -3g/2 (singlet) and alpha_1 = +g/2 (triplet),
giving t = 1 / (1 + i alpha) and r = t - 1.  These satisfy |t|^2 + |r|^2 = 1
and Re(t) = |t|^2 identically.

Sign convention for the reflected side: amplitudes are evaluated in the phase
variable theta = 2k|x|, so the oscillatory cross terms enter as cos(theta) and
+sin(theta).  The canonical probe phase theta = pi/2 therefore has sin = +1;
detector positions on the physical x < 0 axis realizing the same amplitudes
sit at 2k|x| = 3pi/2 (mod 2pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_SQRT3 = np.sqrt(3.0)
# The quarter-wave probe phase theta = pi/2 of the paper's six rates.
CANONICAL_PHASE = np.pi / 2.0


def physical_coupling(
    coupling: float, energy: float, mass: float, hbar: float = 1.0
) -> tuple[float, float]:
    """(g, k) from the magnetic coupling J, the electron energy E and mass m, and
    hbar: the dimensionless coupling, which :func:`coefficients` checks, and the
    wavenumber that maps a detector position x to the probe phase theta = 2k|x|."""
    if energy <= 0:
        raise ValueError(f"positive-energy scattering only, got E = {energy}")
    if mass <= 0 or hbar <= 0:
        raise ValueError("mass and hbar must be positive")
    dos = np.sqrt(2.0 * mass / energy) / (np.pi * hbar)
    k = float(np.sqrt(2.0 * mass * energy) / hbar)
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber k must be positive and finite, got {k}")
    return float(np.pi * coupling * dos / 4.0), k


@dataclass(frozen=True, init=False)
class ScatteringCoefficients:
    """Transmission/reflection amplitudes per total-spin channel."""

    t0: complex
    t1: complex
    r0: complex
    r1: complex
    g: float

    def __init__(self, t0: complex, t1: complex, r0: complex, r1: complex, g: float) -> None:
        # one write of the instance dict, in place of a frozen __setattr__ per field
        object.__setattr__(self, "__dict__", {"t0": t0, "t1": t1, "r0": r0, "r1": r1, "g": g})


def coefficients(g: float) -> ScatteringCoefficients:
    """Channel amplitudes t_i = 1/(1 + i alpha_i), r_i = t_i - 1, at coupling g.

    g must be finite, and so must alpha_0 = -1.5 g (|g| below about 1.2e308);
    a negative g is flagged by a warning that names the caller's line.
    """
    g = float(g)
    if not math.isfinite(1.5 * g):  # a nan or infinite g too
        raise ValueError(f"coupling g must be finite, and so must alpha_0 = -1.5 g, got {g}")
    if g < 0:
        warnings.warn(
            "attractive coupling (g < 0): formulas remain valid but unitarity "
            "sweeps in this package only cover g >= 0",
            stacklevel=2,
        )
    alpha0 = -1.5 * g
    alpha1 = 0.5 * g
    t0 = 1.0 / (1.0 + 1.0j * alpha0)
    t1 = 1.0 / (1.0 + 1.0j * alpha1)
    return ScatteringCoefficients(t0=t0, t1=t1, r0=t0 - 1.0, r1=t1 - 1.0, g=g)


def probe_amplitudes(coeffs: ScatteringCoefficients, phase: float) -> np.ndarray:
    """Both sides' amplitude vectors (phi0, phi1) at probe phase theta = 2k|x|, as one
    (2, 2) array: row 0 the transmitted side, row 1 the reflected side.

    phi0 multiplies the singlet spin state and phi1 (with its sqrt(3)
    normalization) the symmetric triplet combination.
    The detection rates are quadratic forms in these vectors; the common
    plane-wave factor on the transmitted side is kept for symmetry and
    cancels in every rate.  A non-finite phase raises ``ValueError``; every
    rate's phase passes through here.
    """
    if not math.isfinite(phase):
        raise ValueError(f"probe phase must be finite, got {phase}")
    half = np.exp(0.5j * phase)
    back = np.conj(half)
    return np.array([
        [coeffs.t0 * half, _SQRT3 * coeffs.t1 * half],
        [half + coeffs.r0 * back, _SQRT3 * (half + coeffs.r1 * back)],
    ])
