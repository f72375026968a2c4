"""Half-line Jacobi coefficients of a tree's root block, sparse off-diagonal bumps.

The operators studied here act on square-summable sequences indexed by
j >= 1 through

    (J u)(j) = a(j) u(j+1) + a(j-1) u(j-1) + b(j) u(j),      a(0) = 1,

where the off-diagonal a(j) equals 1 everywhere except at finitely many
bump positions (where it is the square root of a branching factor) and the
diagonal b(j) is either zero (adjacency variant) or the negated vertex
degree pattern (degree variant).  The coefficients are held as the bump
list alone; bump positions may be huge integers, and nothing walks the
line site by site.  A boundary parameter rho adds -tan(rho) to b(1); it is
applied where a block is cut (operators.apply_root_boundary), and the
phase flow encodes it as an initial angle (transfer.boundary_theta0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .trees import TreeSpec

ADJACENCY = "adjacency"
DEGREE = "degree"


def check_rho(rho: float) -> None:
    if not abs(rho) < math.pi / 2:
        raise ValidationError("rho: boundary parameter must satisfy |rho| < pi/2")


@dataclass(frozen=True)
class JacobiCoefficients:
    """Sparse-bump Jacobi coefficients a(j), b(j).

    positions: strictly increasing bump indices (a(position) != 1).
    values: a at each bump, positive.
    diag_bumps: b at each bump for the degree variant (ignored for the
    adjacency variant, where b is zero).
    """

    positions: tuple[int, ...]
    values: tuple[float, ...]
    variant: str = ADJACENCY
    diag_bumps: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.variant not in (ADJACENCY, DEGREE):
            raise ValidationError(f"variant: unknown variant {self.variant!r}")
        if len(self.positions) != len(self.values):
            raise ValidationError("values: must match positions in length")
        prev = 0
        for p in self.positions:
            if p <= prev:
                raise ValidationError("positions: must be strictly increasing and >= 1")
            prev = p
        for v in self.values:
            if not v > 0:
                raise ValidationError("values: bump weights must be positive")
        if self.variant == DEGREE and len(self.diag_bumps) != len(self.positions):
            raise ValidationError("diag_bumps: degree variant needs one entry per bump")

    @classmethod
    def for_tree_block(cls, spec: TreeSpec, variant: str = ADJACENCY) -> JacobiCoefficients:
        """Coefficients of the root block of the tree decomposition.

        Site j sits at generation j - 1, so branching m puts a bump at
        j = L_m + 1 with weight sqrt(k_m).  In the degree variant the
        diagonal is -2 off the bumps and -(k_m + 1) on them: minus the
        degree of a site that has a parent.  Every other block is a tail of
        this one: block n is the root block seen from generation
        R_n = L_n + 1 on.  The root's missing parent, the children cut
        off a finite matrix and the boundary rho are applied where a block
        is cut (decomposition.truncated_block), which also takes the tails.
        """
        positions = tuple(lv + 1 for lv in spec.branch_levels)
        values = tuple(math.sqrt(k) for k in spec.branch_factors)
        diag = tuple(-float(k + 1) for k in spec.branch_factors) if variant == DEGREE else ()
        return cls(positions, values, variant, diag)
