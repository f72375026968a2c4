"""Spectral analysis of spherically homogeneous sparse trees.

The package builds rooted trees whose branching happens only at a sparse
set of generations, assembles the associated graph operators, reduces them
to direct sums of one-dimensional Jacobi matrices, and runs the Pruefer
phase flow, whose runs also give the transfer matrices, to classify the
spectrum (singular continuous interval, dense point complement, local
scaling exponents).

numpy is imported only where arrays are built: at the top of `operators`
and `decomposition`, and inside `spectral.mc_exponent`, the coverage
functions and the omega sampler's Philox stream.  So importing the package
loads no numpy, and neither does a run that builds no array (tree
statistics, the theorem classifier, a phase diagram, a phase-flow run of
a gamma or explicit spec).  The three names from `decomposition` are
resolved on first use by the module `__getattr__` below.
"""

__version__ = "0.1.0"

from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY, DEGREE
from .phase import PhaseReducer
from .spectral import (
    V,
    Z,
    corollary_check,
    essential_spectrum_coverage,
    interval_I,
    local_dimension,
    mc_exponent,
    phase_diagram,
    theorem_classifier,
)
from .transfer import bump_coefficients, efgp_run
from .trees import (
    TreeSpec,
    ball_count,
    estimate_dimension,
    make_gamma_tree,
    parse_gamma,
    sample_omega_tree,
    spec_from_record,
    spec_to_record,
    theoretical_dimension,
)

__all__ = [
    "ADJACENCY",
    "DEGREE",
    "GuardError",
    "PhaseReducer",
    "TreeSpec",
    "V",
    "ValidationError",
    "Z",
    "__version__",
    "ball_count",
    "bump_coefficients",
    "corollary_check",
    "efgp_run",
    "essential_spectrum_coverage",
    "estimate_dimension",
    "interval_I",
    "local_dimension",
    "make_gamma_tree",
    "mc_exponent",
    "parse_gamma",
    "phase_diagram",
    "plan_decomposition",
    "sample_omega_tree",
    "spec_from_record",
    "spec_to_record",
    "theorem_classifier",
    "theoretical_dimension",
    "truncated_block",
    "verify_decomposition",
]

_DECOMPOSITION_NAMES = ("plan_decomposition", "truncated_block", "verify_decomposition")


def __getattr__(name: str):
    # Any other name must raise AttributeError: `from sparsetrees import
    # decomposition` imports the submodule only after this lookup fails.
    if name in _DECOMPOSITION_NAMES:
        from . import decomposition

        return getattr(decomposition, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DECOMPOSITION_NAMES))
