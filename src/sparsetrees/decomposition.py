"""Orthogonal decomposition of tree operators into Jacobi blocks.

The adjacency operator of a spherically homogeneous tree is unitarily
equivalent to a direct sum of half-line Jacobi matrices: one copy of the
block that starts at the root, and for every branching generation L_n a
batch of identical blocks starting at generation L_n + 1, with
multiplicity M_n counting the newly independent directions created by the
branching.  The degree variant decomposes the same way with the degree
diagonal carried along.  Everything here is about building those blocks,
their multiplicities, and verifying the equivalence on finite truncations
by comparing eigenvalue multisets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY, DEGREE, JacobiCoefficients, block_offsets
from .operators import (
    SymOperator,
    apply_root_boundary,
    assemble_delta,
    assemble_delta_tilde,
    component_eigenvalues,
    eigenvalues_sym,
    tridiagonal,
)
from .trees import TreeSpec, ball_count, generation_size

__all__ = [
    "DecompositionPlan",
    "DecompositionReport",
    "multiplicities",
    "plan_decomposition",
    "truncated_block",
    "verify_decomposition",
]

_BLOCK_DEPTH_GUARD = 100_000


def multiplicities(spec: TreeSpec) -> tuple[int, ...]:
    """Block multiplicities M_0..M_N.

    M_0 = 1; for n >= 1, M_n is the jump in the generation size across
    branching n, prod(k_1..k_n) - prod(k_1..k_{n-1}), the number of
    directions that become independent at branching n.
    """
    return (1,) + tuple(
        generation_size(spec, lv + 1) - generation_size(spec, lv) for lv in spec.branch_levels
    )


@dataclass(frozen=True)
class DecompositionPlan:
    """Block layout of a depth-D truncation.

    Holds, for every block that intersects the truncation, its start
    generation R_n, its multiplicity and its truncated size D - R_n + 1.
    The vertex counting identity sum(M_n * size_n) == ball_count(D) is an
    exact integer statement and is exposed as a method.
    """

    spec: TreeSpec
    depth: int
    offsets: tuple[int, ...]
    multiplicities: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.offsets)

    def total_sites(self) -> int:
        return sum(m * s for m, s in zip(self.multiplicities, self.sizes))

    def counting_identity_holds(self) -> bool:
        return self.total_sites() == ball_count(self.spec, self.depth)


def plan_decomposition(spec: TreeSpec, depth: int) -> DecompositionPlan:
    if depth < 0:
        raise ValidationError("depth: must be >= 0")
    offs = block_offsets(spec)
    mult = multiplicities(spec)
    keep = [n for n in range(len(offs)) if offs[n] <= depth]
    return DecompositionPlan(
        spec,
        depth,
        tuple(offs[n] for n in keep),
        tuple(mult[n] for n in keep),
        tuple(depth - offs[n] + 1 for n in keep),
    )


def truncated_block(
    spec: TreeSpec,
    block: int,
    depth: int,
    variant: str = ADJACENCY,
    rho: float = 0.0,
) -> SymOperator:
    """Finite tridiagonal piece of one block, cut after generation `depth`.

    Site j of block n sits at tree generation R_n + j - 1.  The rows are
    the first depth - R_n + 1 sites of JacobiCoefficients.for_tree_block,
    with one correction at each end in the degree variant: the first site
    of the root block has no parent, and the last site has its children
    cut.  Without these corrections the eigenvalue match with the
    truncated tree fails.  Depths above 100,000 are refused before
    anything is built.
    """
    if depth > _BLOCK_DEPTH_GUARD:
        raise GuardError(
            f"depth {depth} exceeds the truncated-block solver guard ({_BLOCK_DEPTH_GUARD})"
        )
    coeffs = JacobiCoefficients.for_tree_block(spec, block, variant)
    start = block_offsets(spec)[block]
    if start > depth:
        raise ValidationError("depth: block starts beyond the truncation")
    size = depth - start + 1
    # bumps past the cut have positions >= size; they may be huge ints
    cut = bisect_left(coeffs.positions, size)
    rows = np.array(coeffs.positions[:cut], dtype=np.int64) - 1
    off = np.ones(size - 1)
    off[rows] = coeffs.values[:cut]
    if variant == ADJACENCY:
        diag = np.zeros(size)
    else:
        diag = np.full(size, -2.0)
        diag[rows] = coeffs.diag_bumps[:cut]
        diag[-1] = -1.0
        if block == 0:
            diag[0] += 1.0  # a lone root at depth 0 gets -1.0 + 1.0 = +0.0
    block_op = tridiagonal(diag, off)
    return apply_root_boundary(block_op, rho) if rho != 0.0 else block_op


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of one eigenvalue-multiset comparison."""

    passed: bool
    max_deviation: float
    tolerance: float
    tree_size: int
    counting_ok: bool
    block_sizes: tuple[int, ...]
    block_multiplicities: tuple[int, ...]


def verify_decomposition(
    spec: TreeSpec,
    depth: int,
    variant: str = ADJACENCY,
    rho: float = 0.0,
    tol: float | None = None,
) -> DecompositionReport:
    """Compare the truncated tree operator with its block direct sum.

    The tree side is the assembled tree operator, solved by
    eigenvalues_sym; the block side is one operator holding one copy of
    each block, solved by component_eigenvalues, and each block's
    eigenvalues are repeated M_n times.  So the two eigenvalue lists come
    from different matrices.  Each block is solved on its own grid, so its
    eigenvalues have the bits eigenvalues_sym gives the block alone, but
    the blocks share one class count: every block's rows are the root
    block's rows from its start generation down, so they share their
    subtree classes.  Both sides take the class count, except that chains
    above CLASS_COUNT_ROWS rows take the stretch count; either way the
    comparison checks the decomposition, not the eigensolver, which
    tests/test_operators.py checks against a 40-digit mpmath count.  No
    LAPACK routine is called.  With rho = 0 and no such long block the
    report is the same on every platform (a nonzero rho enters through the
    platform's tan, a long block through its libm).  Sorted lists are
    compared entrywise; the default tolerance is
    1e-9 * (1 + max |eigenvalue|).
    """
    if variant == ADJACENCY:
        tree_op = assemble_delta(spec, depth)
    elif variant == DEGREE:
        tree_op = assemble_delta_tilde(spec, depth)
    else:
        raise ValidationError(f"variant: unknown variant {variant!r}")
    if rho != 0.0:
        tree_op = apply_root_boundary(tree_op, rho)
    tree_eigs = eigenvalues_sym(tree_op)

    plan = plan_decomposition(spec, depth)
    blocks = [
        truncated_block(spec, n, depth, variant, rho if plan.offsets[n] == 0 else 0.0)
        for n in range(plan.n_blocks)
    ]
    # one copy of each block, split from the next by a zero coupling
    forest = tridiagonal(
        np.concatenate([b.diag for b in blocks]), np.concatenate([b.weight for b in blocks])[1:]
    )
    pieces = [np.tile(evs, m) for evs, m in zip(component_eigenvalues(forest), plan.multiplicities)]
    block_eigs = np.sort(np.concatenate(pieces))

    counting_ok = plan.counting_identity_holds()
    if len(tree_eigs) != len(block_eigs):
        return DecompositionReport(
            False, math.inf, 0.0, tree_op.size, counting_ok,
            plan.sizes, plan.multiplicities,
        )
    scale = float(np.abs(tree_eigs).max()) if len(tree_eigs) else 0.0
    tolerance = tol if tol is not None else 1e-9 * (1.0 + scale)
    max_dev = float(np.abs(tree_eigs - block_eigs).max()) if len(tree_eigs) else 0.0
    return DecompositionReport(
        passed=(max_dev <= tolerance) and counting_ok,
        max_deviation=max_dev,
        tolerance=tolerance,
        tree_size=tree_op.size,
        counting_ok=counting_ok,
        block_sizes=plan.sizes,
        block_multiplicities=plan.multiplicities,
    )
