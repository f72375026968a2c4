"""Spectral analysis of spherically homogeneous sparse trees.

The package builds rooted trees whose branching happens only at a sparse
set of generations, assembles the associated graph operators, reduces them
to direct sums of one-dimensional Jacobi matrices, and runs the Pruefer
phase flow, whose runs also give the transfer matrices, to classify the
spectrum (singular continuous interval, dense point complement, local
scaling exponents).

Importing the package loads no numpy: the modules that build arrays import
it inside the functions that build them, so a run that builds none (tree
statistics, the theorem classifier, a phase diagram over a list of
energies) never pays for numpy's import.  The three names from
`decomposition`, which imports numpy at its top, are resolved on first use
by the module `__getattr__` below.
"""

__version__ = "0.1.0"

from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY, DEGREE, JacobiCoefficients
from .phase import PhaseReducer
from .spectral import (
    V,
    Z,
    classify,
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
    "JacobiCoefficients",
    "PhaseReducer",
    "TreeSpec",
    "V",
    "ValidationError",
    "Z",
    "__version__",
    "ball_count",
    "bump_coefficients",
    "classify",
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
