"""The half-line Jacobi model of a tree's blocks, its two variants and its boundary.

The operators studied here act on square-summable sequences indexed by
j >= 1 through

    (J u)(j) = a(j) u(j+1) + a(j-1) u(j-1) + b(j) u(j),      a(0) = 1,

where the off-diagonal a(j) equals 1 everywhere except at finitely many
bump positions (where it is the square root of a branching factor) and the
diagonal b(j) is either zero (adjacency variant) or the negated vertex
degree pattern (degree variant).  No second form of the coefficients is
kept: a tree's bumps are its spec's branch pairs (L_n, k_n), read where a
block is cut (decomposition.truncated_block) and where the phase flow
crosses them (transfer.efgp_run); bump positions may be huge integers,
and nothing walks the line site by site.  A boundary parameter rho adds
-tan(rho) to b(1); it is applied where a block is cut
(operators.apply_root_boundary), and the phase flow encodes it as an
initial angle (transfer.boundary_theta0).
"""

from __future__ import annotations

import math

from .errors import ValidationError

ADJACENCY = "adjacency"
DEGREE = "degree"


def check_variant(variant: str) -> None:
    if variant not in (ADJACENCY, DEGREE):
        raise ValidationError(f"variant: unknown variant {variant!r}")


def check_rho(rho: float) -> None:
    if not abs(rho) < math.pi / 2:
        raise ValidationError("rho: boundary parameter must satisfy |rho| < pi/2")
