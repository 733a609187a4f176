"""kossprobe: noise-matrix estimation from impurity scattering probabilities.

A spin-1/2 impurity in a one-dimensional wire is coupled to a noisy
environment described by a Kossakowski matrix C.  An electron scattered off
the impurity and detected in entangled spin frames picks up, to first order
in time, detection rates that are linear in the six free entries of C.  This
package implements the forward model, the linear inversion with uncertainty
propagation, complete-positivity diagnostics, a seeded virtual experiment,
and an independent brute-force oracle adjudicating every closed form.

The public names are exported lazily (PEP 562): ``import kossprobe`` loads
neither numpy nor any submodule, and ``kossprobe.forward`` imports its home
module, ``kossprobe.probe``, on first access.  Each export is bound here as
soon as its home module is imported, however that happens, so afterwards it
is a plain module attribute, and whatever rebinds names across the loaded
``kossprobe`` modules (a tracer's wrappers, say) finds it here too.
"""

import sys
import types

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_HOMES = {
    "inversion": ("InversionResult", "SingularProbeMatrixError", "invert_noisy", "psd_project"),
    "kossakowski": (
        "CPReport",
        "InputOverflowError",
        "KossakowskiMatrix",
        "NotCompletelyPositiveError",
        "d_tilde",
        "evolve",
        "kraus_noise",
    ),
    "probe": (
        "CHANNELS",
        "ProbeMatrix",
        "ProbeResult",
        "build_matrix_appendix",
        "build_matrix_programmatic",
        "forward",
        "probability_rate",
    ),
    "scattering": ("CANONICAL_PHASE", "ScatteringCoefficients", "ScatteringParams", "coefficients"),
    "experiment": ("ExperimentConfig", "ExperimentRun", "estimate", "run", "save_run"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME_OF)]


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system sets each submodule here once it has run: bind its exports too
        super().__setattr__(name, value)
        for export in _HOMES.get(name, ()):
            super().__setattr__(export, getattr(value, export))


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    importlib.import_module(f".{_HOME_OF[name]}", __name__)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


sys.modules[__name__].__class__ = _Package
