"""Orthogonal decomposition of tree operators into Jacobi blocks.

The adjacency operator of a spherically homogeneous tree is unitarily
equivalent to a direct sum of half-line Jacobi matrices: one copy of the
block that starts at the root, and for every branching generation L_n a
batch of identical blocks starting at generation L_n + 1, with
multiplicity M_n counting the newly independent directions created by the
branching.  M_n is the jump across branching n in the spec's one table
of generation sizes (TreeSpec.prefix_products).  The degree variant
decomposes the same way with the degree diagonal carried along.
Everything here is about building those blocks, their multiplicities, and
verifying the equivalence on finite truncations by comparing eigenvalue
multisets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY, check_variant
from .operators import (
    SymOperator,
    apply_root_boundary,
    assemble_delta,
    assemble_delta_tilde,
    component_eigenvalues,
    eigenvalues_sym,
    tridiagonal,
)
from .trees import TreeSpec, ball_count, in_float_range

__all__ = [
    "DecompositionPlan",
    "DecompositionReport",
    "multiplicities",
    "plan_decomposition",
    "truncated_block",
    "verify_decomposition",
]

_BLOCK_DEPTH_GUARD = 100_000
# The two sorted eigenvalue lists may differ by this much relative to
# 1 + max |eigenvalue| before a decomposition check fails.
DECOMPOSITION_RTOL = 1e-9


def block_start(spec: TreeSpec, block: int) -> int:
    """Start generation R_n of block n: R_0 = 0 and R_n = L_n + 1."""
    return spec.branch_levels[block - 1] + 1 if block else 0


def multiplicities(spec: TreeSpec) -> tuple[int, ...]:
    """Block multiplicities M_0..M_N.

    M_0 = 1; for n >= 1, M_n is the jump in the generation size across
    branching n, prod(k_1..k_n) - prod(k_1..k_{n-1}), the number of
    directions that become independent at branching n: the successive
    differences of spec.prefix_products.
    """
    products = spec.prefix_products
    return (1,) + tuple(b - a for a, b in zip(products, products[1:]))


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

    def total_sites(self) -> int:
        return sum(m * s for m, s in zip(self.multiplicities, self.sizes))

    def counting_identity_holds(self) -> bool:
        return self.total_sites() == ball_count(self.spec, self.depth)


def plan_decomposition(spec: TreeSpec, depth: int) -> DecompositionPlan:
    if depth < 0:
        raise ValidationError("depth: must be >= 0")
    # only the branchings at L_n < depth start a block inside the truncation
    cut = bisect_left(spec.branch_levels, depth)
    offsets = tuple(block_start(spec, n) for n in range(cut + 1))
    sizes = tuple(depth - r + 1 for r in offsets)
    return DecompositionPlan(spec, depth, offsets, multiplicities(spec)[: cut + 1], sizes)


def truncated_block(
    spec: TreeSpec,
    block: int,
    depth: int,
    variant: str = ADJACENCY,
    rho: float = 0.0,
) -> SymOperator:
    """Finite tridiagonal piece of one block, cut after generation `depth`.

    Block n is the root block's tail from row R_n on, so its row i sits at
    generation R_n + i.  The root block's rows 0..depth are read straight
    from the spec's branch pairs below the cut, so the cost does not grow
    with the spec's horizon: branching m couples rows L_m and L_m + 1 with
    weight sqrt(k_m).  In the degree variant each row holds minus the
    degree of a vertex that has a parent, -(k_m + 1) at row L_m and -2 off
    the branchings; row 0 then gets +1 (the root has no parent) and the
    last row -1.0 (its children are cut).  Without these the eigenvalue
    match with the truncated tree fails.  rho applies to the block's first
    row.  Depths above 100,000 are refused before anything is built, and a
    factor too large for a float is refused naming k.
    """
    if depth > _BLOCK_DEPTH_GUARD:
        raise GuardError(
            f"depth {depth} exceeds the truncated-block solver guard ({_BLOCK_DEPTH_GUARD})"
        )
    if not 0 <= block <= spec.n_branchings:
        raise ValidationError("block: outside 0..n_branchings")
    check_variant(variant)
    start = block_start(spec, block)
    if start > depth:
        raise ValidationError("depth: block starts beyond the truncation")
    cut = bisect_left(spec.branch_levels, depth)
    rows = np.array(spec.branch_levels[:cut], dtype=np.int64)
    factors = spec.branch_factors[:cut]
    off = np.ones(depth)
    with in_float_range("k"):
        off[rows] = [math.sqrt(k) for k in factors]
        if variant == ADJACENCY:
            diag = np.zeros(depth + 1)
        else:
            diag = np.full(depth + 1, -2.0)
            diag[rows] = [-float(k + 1) for k in factors]
            diag[-1] = -1.0
            diag[0] += 1.0  # a lone root at depth 0 gets -1.0 + 1.0 = +0.0
    block_op = tridiagonal(diag[start:], off[start:])
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
) -> DecompositionReport:
    """Compare the truncated tree operator with its block direct sum.

    The tree side is the assembled tree operator, solved by
    eigenvalues_sym; the block side is one operator holding one copy of
    each block, solved by component_eigenvalues, and each block's
    eigenvalues are repeated M_n times.  So the two eigenvalue lists come
    from different matrices.  The root block is cut once (truncated_block),
    and block n is its tail from row R_n on, split from the rows above by
    a zero coupling.  Each block is solved on its own grid, so its
    eigenvalues have the bits eigenvalues_sym gives the block alone, but
    the tails share their subtree classes, and so one class count.  Both
    sides take component_eigenvalues' class count, or its stretch count
    for chains above CLASS_COUNT_ROWS rows; either way the comparison
    checks the decomposition, not the eigensolver, which
    tests/test_operators.py checks against a 40-digit mpmath count.  No
    LAPACK routine is called.  With rho = 0 and no such long block the
    report is the same on every platform (a nonzero rho enters through the
    platform's tan, a long block through its libm).  Sorted lists are
    compared entrywise, within DECOMPOSITION_RTOL * (1 + max |eigenvalue|).
    """
    check_variant(variant)
    if variant == ADJACENCY:
        tree_op = assemble_delta(spec, depth)
    else:
        tree_op = assemble_delta_tilde(spec, depth)
    if rho != 0.0:
        tree_op = apply_root_boundary(tree_op, rho)
    tree_eigs = eigenvalues_sym(tree_op)

    plan = plan_decomposition(spec, depth)
    root = truncated_block(spec, 0, depth, variant, rho)
    diag = np.concatenate([root.diag[r:] for r in plan.offsets])
    weight = np.concatenate([root.weight[r:] for r in plan.offsets])
    weight[np.cumsum(plan.sizes) - plan.sizes] = 0.0  # each tail's first row loses its parent
    forest = tridiagonal(diag, weight[1:])
    pieces = [np.tile(evs, m) for evs, m in zip(component_eigenvalues(forest), plan.multiplicities)]
    block_eigs = np.sort(np.concatenate(pieces))

    counting_ok = plan.counting_identity_holds()
    if len(tree_eigs) != len(block_eigs):
        return DecompositionReport(
            False, math.inf, 0.0, tree_op.size, counting_ok,
            plan.sizes, plan.multiplicities,
        )
    scale = float(np.abs(tree_eigs).max()) if len(tree_eigs) else 0.0
    tolerance = DECOMPOSITION_RTOL * (1.0 + scale)
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
