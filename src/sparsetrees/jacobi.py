"""Half-line Jacobi coefficient sequences with sparse off-diagonal bumps.

The operators studied here act on square-summable sequences indexed by
j >= 1 through

    (J u)(j) = a(j) u(j+1) + a(j-1) u(j-1) + b(j) u(j),      a(0) = 1,

where the off-diagonal a(j) equals 1 everywhere except at finitely many
bump positions (where it is the square root of a branching factor) and the
diagonal b(j) is either zero (adjacency variant) or the negated vertex
degree pattern (degree variant).  A boundary parameter rho adds -tan(rho)
to b(1).  Bump positions may be huge integers; lookups bisect the sorted
position list, so nothing walks the line site by site.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    """Sparse-bump Jacobi coefficients a(j), b(j) with boundary rho.

    positions: strictly increasing bump indices (a(position) != 1).
    values: a at each bump, positive.
    diag_bumps: b at each bump for the degree variant (ignored for the
    adjacency variant, where b is zero away from the boundary).
    """

    positions: tuple[int, ...]
    values: tuple[float, ...]
    variant: str = ADJACENCY
    rho: float = 0.0
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
        check_rho(self.rho)
        if self.variant == DEGREE and len(self.diag_bumps) != len(self.positions):
            raise ValidationError("diag_bumps: degree variant needs one entry per bump")

    @classmethod
    def free(cls, rho: float = 0.0) -> JacobiCoefficients:
        """The free half-line operator: a = 1, b = 0 (plus the boundary)."""
        return cls((), (), ADJACENCY, rho)

    @classmethod
    def for_tree_block(
        cls,
        spec: TreeSpec,
        variant: str = ADJACENCY,
        rho: float = 0.0,
    ) -> JacobiCoefficients:
        """Coefficients of the root block of the tree decomposition.

        Site j sits at generation j - 1, so branching m puts a bump at
        j = L_m + 1 with weight sqrt(k_m).  In the degree variant the
        diagonal is -2 off the bumps and -(k_m + 1) on them: minus the
        degree of a site that has a parent.  Every other block is a tail of
        this one: block n is the root block seen from generation
        R_n = L_n + 1 on.  The root's missing parent and the children cut
        off a finite matrix are corrected where a block is cut
        (decomposition.truncated_block), which also takes the tails.
        """
        positions = tuple(lv + 1 for lv in spec.branch_levels)
        values = tuple(math.sqrt(k) for k in spec.branch_factors)
        diag = tuple(-float(k + 1) for k in spec.branch_factors) if variant == DEGREE else ()
        return cls(positions, values, variant, rho, diag)

    @property
    def bump_count(self) -> int:
        return len(self.positions)

    def _bump_index(self, j: int) -> int | None:
        pos = bisect_left(self.positions, j)
        if pos < len(self.positions) and self.positions[pos] == j:
            return pos
        return None

    def a(self, j: int) -> float:
        """Off-diagonal coefficient; a(0) = 1 closes the recursion."""
        if j < 0:
            raise ValidationError("j: index must be >= 0")
        idx = self._bump_index(j)
        return self.values[idx] if idx is not None else 1.0

    def b(self, j: int) -> float:
        """Diagonal coefficient at j >= 1, including the boundary term."""
        if j < 1:
            raise ValidationError("j: index must be >= 1")
        if self.variant == ADJACENCY:
            base = 0.0
        else:
            idx = self._bump_index(j)
            base = self.diag_bumps[idx] if idx is not None else -2.0
        if j == 1 and self.rho != 0.0:
            base -= math.tan(self.rho)
        return base

    @property
    def is_adjacency(self) -> bool:
        return self.variant == ADJACENCY

