"""Forward model: first-order detection probability rates at the probe point.

A scattering eigenstate evolved for a short time t under the lifted dissipator
is detected at a point x with total spin projected onto a probe frame's last
basis vector.  To first order in t the detection probability per unit time is
the quadratic form

    P/t = <phi(x)| D |phi(x)>,

with phi the two-component spatial amplitude vector (transmitted or reflected
side) and D the compressed dissipator of :func:`kossprobe.kossakowski.d_tilde`
evaluated in the probe frame.  Measuring in the canonical frame and in the two
rotated frames, on both sides, yields six rates that are linear in the six
free entries of the Kossakowski matrix:

    rates = M @ c_vector.

Only the two amplitude vectors depend on the coupling g and the phase, so
the compressed dissipator of every symmetric unit coupling U_b (the matrix
of the b-th parameter, off-diagonal units carrying both mirror entries) in
each of the three constant probe frames O_f is one kernel built at import,

    K[f, b] = d_tilde(O_f^T U_b O_f),

and a (g, theta) pair reduces to the real 6x6 rate matrix
M[r, b] = Re w_s^H K[f, b] w_s, one row per channel, free of any
hand-transcribed coefficient.  One read-only :class:`ProbeMatrix` is built
per (coefficients, phase) and kept in a memo of ``_MEMO_SIZE`` pairs:
``build_matrix_programmatic`` returns it, so its condition number and
inverse are computed once per pair, and ``forward`` (M times the
parameter vector) and ``probability_rate`` (one row of it) read its matrix.
M's singular values, inverse and determinant are np.linalg's, bit for bit,
from the LAPACK gufuncs that :mod:`kossprobe.kossakowski` calls directly.
C enters through :func:`kossprobe.kossakowski.as_kossakowski`, which refuses
anything but a finite, real, symmetric C.

``build_matrix_appendix`` assembles the hand-derived closed-form table for M
at the quarter-wave phase; it is kept as a cross-check target and is known
to deviate from the programmatic ground truth in a handful of entries (see
:func:`compare_matrices` and the committed adjudication report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kossakowski import (PARAM_ORDER, _UNITS, _det, _inv, _singular_values,
                          as_kossakowski, d_tilde)
from .scattering import CANONICAL_PHASE, ScatteringCoefficients, _finite_phase, probe_amplitudes
from .spin import BASIS_LABELS, basis, pauli_frame

CHANNELS = ("P0T", "P1T", "P2T", "P0R", "P1R", "P2R")
SIDES = ("transmitted", "reflected")
# Two constructions of M agree where their entries differ by at most this.
AGREEMENT_TOL = 1e-12
# An M of a larger condition number is not inverted: the inversion refuses it.
CONDITION_LIMIT = 1e10

# The Pauli frame of each probe basis's impurity rotation, built once at import.
_FRAMES = {label: pauli_frame(basis(label).impurity_rotation) for label in BASIS_LABELS}

# _KERNEL[f, b] = d_tilde(O_f^T U_b O_f), flattened to (frame, 6, 2x2 = 4): the
# compressed dissipator of the b-th symmetric unit coupling U_b in probe frame f.
_KERNEL = np.array(
    [
        [d_tilde(frame.T @ unit @ frame).ravel() for unit in _UNITS]
        for frame in _FRAMES.values()
    ]
)


# An analysis revisits a handful of (g, theta) designs; a scan over more
# distinct pairs than this re-derives the oldest ones.
_MEMO_SIZE = 64

# A phase within this distance of pi/2, modulo 2 pi, is the canonical one.
_CANONICAL_TOL = 1e-12


def _is_canonical(phase: float) -> bool:
    offset = (phase - CANONICAL_PHASE) % (2.0 * np.pi)
    return bool(offset <= _CANONICAL_TOL or 2.0 * np.pi - offset <= _CANONICAL_TOL)


@dataclass(frozen=True, init=False)
class ProbeResult:
    """The six probability rates, ordered (P0T, P1T, P2T, P0R, P1R, P2R)."""

    rates: np.ndarray
    g: float
    phase: float

    def __init__(self, rates: np.ndarray, g: float, phase: float) -> None:
        rates.setflags(write=False)
        # one write of the instance dict, in place of a frozen __setattr__ per field
        object.__setattr__(self, "__dict__", {"rates": rates, "g": g, "phase": phase})

    @property
    def is_canonical_phase(self) -> bool:
        return _is_canonical(self.phase)

    def by_channel(self) -> dict[str, float]:
        return {label: float(r) for label, r in zip(CHANNELS, self.rates)}


@dataclass(frozen=True, init=False)
class ProbeMatrix:
    """The 6x6 rate matrix with its condition number and inverse.

    Columns follow the coupling-vector order (c11, c12, c13, c22, c23, c33),
    rows the channel order of :class:`ProbeResult`.  Invariant: ``matrix`` is
    read-only, and ``condition_number`` and ``inverse`` are derived from it
    here, never passed in: ``condition_number`` is s_max / s_min, as
    np.linalg.cond (inf when s_min is 0, null in ``to_dict``, as JSON has no
    infinity), and ``inverse`` is M^-1, read-only, when the condition number is
    at most ``CONDITION_LIMIT``, and None otherwise, so an ill-conditioned M is
    never inverted.  ``inverse`` is not a field: ``==`` and ``repr`` ignore it.
    ``build_matrix_programmatic`` returns one shared instance per (coefficients,
    phase): its ``phase`` is the float key, and its ``g`` and ``phase`` keep the
    signs of the first caller's +-0.0.
    """

    matrix: np.ndarray
    g: float
    phase: float
    source: str
    condition_number: float = field(init=False)

    def __init__(self, matrix: np.ndarray, g: float, phase: float, source: str) -> None:
        matrix.setflags(write=False)
        s = _singular_values(matrix).tolist()
        condition_number = s[0] / s[-1] if s[-1] else math.inf
        inverse = None
        if condition_number <= CONDITION_LIMIT:
            inverse = _inv(matrix)
            inverse.setflags(write=False)
        # one write of the instance dict, in place of a frozen __setattr__ per field
        object.__setattr__(self, "__dict__", {
            "matrix": matrix, "g": g, "phase": phase, "source": source,
            "condition_number": condition_number, "inverse": inverse,
        })

    @property
    def det(self) -> float:
        """det M, as np.linalg.det, computed at each read."""
        return float(_det(self.matrix))

    def to_dict(self) -> dict:
        return {
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "g": self.g,
            "phase": self.phase,
            "source": self.source,
            "det": self.det,
            "condition_number": self.condition_number if self.condition_number < math.inf else None,
            "rows": list(CHANNELS),
            "columns": list(PARAM_ORDER),
        }


@lru_cache(maxsize=_MEMO_SIZE)
def _probe_matrix(coeffs: ScatteringCoefficients, phase: float) -> ProbeMatrix:
    """M[r, b] = Re w_s^H K[f, b] w_s, rows in CHANNELS order and columns in
    PARAM_ORDER; ``phase`` is a float from :func:`_finite_phase`.  The
    amplitude vectors w_s, one row per side, come from :func:`probe_amplitudes`."""
    w = probe_amplitudes(coeffs, phase)
    # conj(w_a) w_b for each side, against the kernel's flattened 2x2 blocks
    outer = (w.conj()[:, :, None] * w[:, None, :]).reshape(2, 4)
    m = (_KERNEL @ outer.T).real.transpose(2, 0, 1).reshape(6, 6)
    return ProbeMatrix(m, coeffs.g, phase, "programmatic")


def probability_rate(
    c,
    coeffs: ScatteringCoefficients,
    probe_basis: str,
    side: str,
    phase: float = CANONICAL_PHASE,
) -> float:
    """Detection rate P/t for one probe frame and one side of the impurity.

    Rotating the probe frame is equivalent to expressing the Kossakowski
    matrix in the rotated Pauli frame; the rotation is folded into the
    constant kernel, so the rate is one entry of :func:`forward`'s M c, bit for bit.
    Transmitted-side rates are independent of the probe phase.
    ``probe_basis`` is one of ``BASIS_LABELS``.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if probe_basis not in BASIS_LABELS:
        raise ValueError(
            f"unknown basis label {probe_basis!r}, expected one of {BASIS_LABELS}"
        )
    row = SIDES.index(side) * len(BASIS_LABELS) + BASIS_LABELS.index(probe_basis)
    return float(forward(c, coeffs, phase).rates[row])


def forward(
    c, coeffs: ScatteringCoefficients, phase: float = CANONICAL_PHASE
) -> ProbeResult:
    """All six rates: three probe frames on the transmitted side, then reflected."""
    v = as_kossakowski(c).vector
    m = _probe_matrix(coeffs, _finite_phase(phase)).matrix
    return ProbeResult(rates=m @ v, g=coeffs.g, phase=phase)


def build_matrix_programmatic(
    coeffs: ScatteringCoefficients, phase: float = CANONICAL_PHASE
) -> ProbeMatrix:
    """M from the kernel: column b holds the rates of the b-th symmetric unit
    coupling matrix (off-diagonal units carry both mirror entries, matching
    the six-parameter vector convention).  One instance per (coefficients,
    phase), shared by every caller."""
    return _probe_matrix(coeffs, _finite_phase(phase))


def appendix_coefficients(coeffs: ScatteringCoefficients) -> dict[str, float]:
    """The eight closed-form constants of the tabulated quarter-wave matrix."""
    re0, im0 = coeffs.t0.real, coeffs.t0.imag
    re1, im1 = coeffs.t1.real, coeffs.t1.imag
    return {
        "a0": re0,
        "a1": re1,
        "b": 2.0 * (-im0 * re1 + im1 * re0),
        "c": 2.0 * (re0 * re1 + im1 * im0),
        "d0": 2.0 - abs(coeffs.t0) ** 2 + 2.0 * im0,
        "d1": 2.0 - abs(coeffs.t1) ** 2 + 2.0 * im1,
        "e": 2.0 * (im0 * re1 + im1 * re0 + re0 - re1 + im0 - im1),
        "f": 2.0 * (2.0 + re0 * re1 + im1 * im0 - re0 - re1 + im0 + im1),
    }


def build_matrix_appendix(coeffs: ScatteringCoefficients) -> ProbeMatrix:
    """The hand-derived coefficient table for M at the quarter-wave phase.

    Kept verbatim as a cross-validation target for the programmatic
    construction; the two are compared, never silently reconciled.
    """
    k = appendix_coefficients(coeffs)
    a0, a1, b, c = k["a0"], k["a1"], k["b"], k["c"]
    d0, d1, e, f = k["d0"], k["d1"], k["e"], k["f"]
    m = np.array(
        [
            [a0, b, c, a1, 0.0, 2.0 * a1],
            [a0, -c, b, 2.0 * a1, 0.0, a1],
            [2.0 * a1, 0.0, -c, a1, b, a0],
            [d0, e, f, d1, 0.0, 2.0 * d1],
            [d0, -f, e, 2.0 * d1, 0.0, d1],
            [2.0 * d1, 0.0, -f, d1, e, d0],
        ]
    )
    return ProbeMatrix(m, coeffs.g, CANONICAL_PHASE, "appendix")


def compare_matrices(reference: ProbeMatrix, other: ProbeMatrix) -> dict:
    """Entrywise deviation report between two rate-matrix constructions;
    entries further apart than ``AGREEMENT_TOL`` are listed as deviating."""
    diff = np.abs(other.matrix - reference.matrix)
    entries = [
        {
            "row": int(i),
            "col": int(j),
            "reference": float(reference.matrix[i, j]),
            "other": float(other.matrix[i, j]),
            "abs_deviation": float(diff[i, j]),
        }
        for i, j in zip(*np.nonzero(diff > AGREEMENT_TOL))
    ]
    return {
        "reference_source": reference.source,
        "other_source": other.source,
        "g": reference.g,
        "max_abs_deviation": float(diff.max()),
        "deviating_entries": entries,
        "agrees": not entries,
    }

