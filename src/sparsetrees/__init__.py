"""Spectral analysis of spherically homogeneous sparse trees.

The package builds rooted trees whose branching happens only at a sparse
set of generations, assembles the associated graph operators, reduces them
to direct sums of one-dimensional Jacobi matrices, and runs the Pruefer
phase flow, whose runs also give the transfer matrices, to classify the
spectrum (singular continuous interval, dense point complement, local
scaling exponents).
"""

__version__ = "0.1.0"

from .decomposition import plan_decomposition, truncated_block, verify_decomposition
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
