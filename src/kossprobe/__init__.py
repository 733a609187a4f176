"""kossprobe: noise-matrix estimation from impurity scattering probabilities.

A spin-1/2 impurity in a one-dimensional wire is coupled to a noisy
environment described by a Kossakowski matrix C.  An electron scattered off
the impurity and detected in entangled spin frames picks up, to first order
in time, detection rates that are linear in the six free entries of C.  This
package implements the forward model, the linear inversion with uncertainty
propagation, complete-positivity diagnostics, a seeded virtual experiment,
and an independent brute-force oracle adjudicating every closed form.
"""

__version__ = "0.1.0"

from .inversion import InversionResult, SingularProbeMatrixError, invert_noisy, psd_project
from .kossakowski import (
    CPReport,
    KossakowskiMatrix,
    NotCompletelyPositiveError,
    d_tilde,
    evolve,
    kraus_noise,
)
from .probe import (
    CANONICAL_PHASE,
    CHANNELS,
    ProbeMatrix,
    ProbeResult,
    build_matrix_appendix,
    build_matrix_programmatic,
    forward,
    probability_rate,
)
from .scattering import ScatteringCoefficients, ScatteringParams, coefficients
from .experiment import ExperimentConfig, ExperimentRun, estimate, run, save_run, load_run

__all__ = [
    "__version__",
    "CPReport",
    "CANONICAL_PHASE",
    "CHANNELS",
    "ExperimentConfig",
    "ExperimentRun",
    "InversionResult",
    "KossakowskiMatrix",
    "NotCompletelyPositiveError",
    "ProbeMatrix",
    "ProbeResult",
    "ScatteringCoefficients",
    "ScatteringParams",
    "SingularProbeMatrixError",
    "build_matrix_appendix",
    "build_matrix_programmatic",
    "coefficients",
    "d_tilde",
    "estimate",
    "evolve",
    "forward",
    "invert_noisy",
    "kraus_noise",
    "load_run",
    "probability_rate",
    "psd_project",
    "run",
    "save_run",
]
