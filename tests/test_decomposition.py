"""Block decomposition: multiplicities, coefficients, eigenvalue equivalence."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _acceptance_specs

from sparsetrees import decomposition
from sparsetrees.decomposition import (
    block_start,
    multiplicities,
    plan_decomposition,
    truncated_block,
    verify_decomposition,
)
from sparsetrees.errors import ValidationError
from sparsetrees.jacobi import JacobiCoefficients
from sparsetrees.operators import (
    SymOperator,
    apply_root_boundary,
    assemble_delta,
    component_eigenvalues,
    eigenvalues_sym,
    tridiagonal,
)
from sparsetrees.trees import TreeSpec, ball_count, generation_size, make_gamma_tree


def random_small_spec(rng: random.Random, max_branchings: int = 4) -> TreeSpec:
    n = rng.randint(1, max_branchings)
    levels, cur = [], 0
    for _ in range(n):
        cur += rng.randint(1, 5)
        levels.append(cur)
    return TreeSpec(tuple(levels), tuple(rng.randint(2, 4) for _ in range(n)))


def test_multiplicities_examples():
    assert multiplicities(TreeSpec((1, 2, 3, 4), (2, 2, 2, 2))) == (1, 1, 2, 4, 8)
    assert multiplicities(TreeSpec((1, 3), (3, 2))) == (1, 2, 3)
    assert multiplicities(TreeSpec((5,), (4,))) == (1, 3)


def test_generation_sizes_never_hash_the_factors():
    # the spec holds its one table of generation sizes: no lookup keyed by
    # the factor tuple, which would hash all 40 factors each time
    class CountedHashes(tuple):
        hashes = 0

        def __hash__(self):
            CountedHashes.hashes += 1
            return super().__hash__()

    spec = TreeSpec(tuple(range(1, 80, 2)), CountedHashes((2,) * 40))
    assert multiplicities(spec) == (1,) + tuple(2 ** (n - 1) for n in range(1, 41))
    assert generation_size(spec, 20) == 2**10
    assert ball_count(spec, 20) == 2 * (2**10 - 1) + 2**10
    assert assemble_delta(spec, 20).size == ball_count(spec, 20)
    assert CountedHashes.hashes == 0


def test_multiplicities_sum_to_generation_products():
    # partial sums telescope to the branching products, the sizes of
    # generations just above each branching
    rng = random.Random(2)
    for _ in range(20):
        spec = random_small_spec(rng)
        mult = multiplicities(spec)
        prod = 1
        total = mult[0]
        for n, k in enumerate(spec.branch_factors, start=1):
            prod *= k
            total += mult[n]
            assert total == prod


def test_block_offsets():
    spec = TreeSpec((1, 4), (2, 2))
    assert [block_start(spec, n) for n in range(3)] == [0, 2, 5]


def test_for_tree_block_adjacency():
    spec = TreeSpec((1,), (2,))
    j0 = JacobiCoefficients.for_tree_block(spec)
    assert j0.a(2) == pytest.approx(math.sqrt(2))
    assert j0.a(1) == 1.0 and j0.a(5) == 1.0 and j0.a(0) == 1.0
    assert j0.b(1) == 0.0 and j0.b(2) == 0.0


def test_for_tree_block_degree_variant():
    spec = TreeSpec((1,), (2,))
    j0 = JacobiCoefficients.for_tree_block(spec, "degree")
    assert j0.b(2) == -3.0
    assert j0.b(1) == -2.0 and j0.b(3) == -2.0 and j0.b(7) == -2.0
    assert j0.a(2) == pytest.approx(math.sqrt(2))


def test_for_tree_block_boundary_rho():
    spec = TreeSpec((3,), (2,))
    j = JacobiCoefficients.for_tree_block(spec, rho=math.pi / 4)
    assert j.b(1) == pytest.approx(-1.0)
    assert j.b(2) == 0.0


def test_blocks_nest_as_tails():
    # block n is block n-1 with its first R_n - R_{n-1} rows removed
    rng = random.Random(8)
    for _ in range(10):
        spec = random_small_spec(rng)
        depth = max(0, spec.branch_levels[-1] + rng.randint(-2, 3))
        blocks = len(plan_decomposition(spec, depth).offsets)
        for variant in ("adjacency", "degree"):
            for n in range(1, blocks):
                shift = block_start(spec, n) - block_start(spec, n - 1)
                younger = truncated_block(spec, n, depth, variant)
                older = truncated_block(spec, n - 1, depth, variant)
                assert np.array_equal(younger.diag.view(np.int64), older.diag[shift:].view(np.int64))
                assert np.array_equal(
                    younger.weight[1:].view(np.int64), older.weight[shift + 1 :].view(np.int64)
                )


def test_cut_reads_no_branching_past_it(monkeypatch):
    # a cut at depth 10,000 keeps the 8 branchings of gamma = 3 below it,
    # however many lie beyond
    long_plan = plan_decomposition(make_gamma_tree(2, 3, 8000), 10_000)
    short_plan = plan_decomposition(make_gamma_tree(2, 3, 9), 10_000)
    assert len(long_plan.offsets) == 9
    assert long_plan.offsets == short_plan.offsets and long_plan.sizes == short_plan.sizes
    assert long_plan.multiplicities == short_plan.multiplicities
    seen = []
    build = JacobiCoefficients.for_tree_block.__func__

    def recorded(cls, spec, *args, **kwargs):
        seen.append(spec.n_branchings)
        return build(cls, spec, *args, **kwargs)

    monkeypatch.setattr(JacobiCoefficients, "for_tree_block", classmethod(recorded))
    deep = truncated_block(make_gamma_tree(2, 3, 8000), 0, 10_000, "degree")
    short = truncated_block(make_gamma_tree(2, 3, 9), 0, 10_000, "degree")
    assert seen == [8, 8]
    assert np.array_equal(deep.diag.view(np.int64), short.diag.view(np.int64))
    assert np.array_equal(deep.weight.view(np.int64), short.weight.view(np.int64))
    assert np.array_equal(deep.parent, short.parent)


def kappa(spec: TreeSpec, j: int) -> int:
    """Forward branching number at generation j (k_n at L_n, else 1)."""
    if j < 0:
        raise ValidationError("j: generation must be >= 0")
    pos = bisect_left(spec.branch_levels, j)
    if pos < len(spec.branch_levels) and spec.branch_levels[pos] == j:
        return spec.branch_factors[pos]
    return 1


def per_row_block(
    spec: TreeSpec, block: int, depth: int, variant: str = "adjacency", rho: float = 0.0
) -> SymOperator:
    """Reference truncated block, built row by row from kappa of each generation."""
    offs = (0,) + tuple(lv + 1 for lv in spec.branch_levels)
    if not 0 <= block < len(offs):
        raise ValidationError("block: outside 0..n_branchings")
    start = offs[block]
    if start > depth:
        raise ValidationError("depth: block starts beyond the truncation")
    size = depth - start + 1
    off = np.array(
        [math.sqrt(kappa(spec, start + j - 1)) for j in range(1, size)]
    )
    if variant == "adjacency":
        diag = np.zeros(size)
    elif variant == "degree":
        diag = np.empty(size)
        for j in range(1, size + 1):
            g = start + j - 1
            deg = (1 if g >= 1 else 0) + (kappa(spec, g) if g < depth else 0)
            diag[j - 1] = -deg
    else:
        raise ValidationError(f"variant: unknown variant {variant!r}")
    block_op = tridiagonal(diag, off)
    return apply_root_boundary(block_op, rho) if rho != 0.0 else block_op


@st.composite
def block_cuts(draw):
    n = draw(st.integers(0, 5))
    gaps = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    factors = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    spec = TreeSpec(tuple(accumulate(gaps)), tuple(factors))
    block = draw(st.integers(0, n))
    depth = block_start(spec, block) + draw(st.integers(0, 30))
    return spec, block, depth


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    block_cuts(),
    st.sampled_from(("adjacency", "degree")),
    st.sampled_from((0.0, 0.3, -0.3, -1.2)),
)
@example((TreeSpec((1,), (2,)), 0, 0), "degree", 0.0)  # the lone root: +0.0, not -0.0
@example((TreeSpec((1, 3), (2, 3)), 2, 4), "degree", 0.0)  # one row of block n > 0
@example((TreeSpec((2, 5), (3, 2)), 0, 5), "degree", 0.3)  # the last row on a branching
@example((TreeSpec((2, 10**30), (3, 2)), 1, 40), "adjacency", 0.0)  # a bump far past the cut
def test_truncated_block_equals_per_row_reference(cut, variant, rho):
    spec, block, depth = cut
    got = truncated_block(spec, block, depth, variant, rho)
    ref = per_row_block(spec, block, depth, variant, rho)
    assert np.array_equal(got.diag.view(np.int64), ref.diag.view(np.int64))
    assert np.array_equal(got.weight.view(np.int64), ref.weight.view(np.int64))
    assert np.array_equal(got.parent, ref.parent)


def test_truncated_block_matrix_example():
    spec = TreeSpec((1,), (2,))
    op = truncated_block(spec, 0, 2)
    # the matrix [[0, 1, 0], [1, 0, sqrt 2], [0, sqrt 2, 0]] as a forest
    assert op.diag.tolist() == [0.0, 0.0, 0.0]
    assert op.parent.tolist() == [-1, 0, 1]
    assert np.allclose(op.weight, [0.0, 1.0, math.sqrt(2)], atol=1e-15)
    evs = eigenvalues_sym(op)
    assert np.allclose(evs, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-12)


def test_truncated_block_single_site():
    spec = TreeSpec((1,), (2,))
    op = truncated_block(spec, 1, 2)
    assert op.size == 1 and op.diag.tolist() == [0.0]
    with pytest.raises(ValidationError):
        truncated_block(spec, 1, 1)


def test_truncated_block_degree_boundaries():
    # root site has no parent, the last site has its children cut
    spec = TreeSpec((1,), (2,))
    op = truncated_block(spec, 0, 2, "degree")
    assert op.diag.tolist() == [-1.0, -3.0, -1.0]
    leaf_block = truncated_block(spec, 1, 2, "degree")
    assert leaf_block.diag.tolist() == [-1.0]
    # depth zero: the root alone, degree zero
    root_only = truncated_block(spec, 0, 0, "degree")
    assert root_only.diag.tolist() == [0.0]


def test_plan_counting_identity_exact():
    rng = random.Random(4)
    for _ in range(25):
        spec = random_small_spec(rng)
        horizon = spec.branch_levels[-1] + 3
        for depth in range(0, horizon):
            plan = plan_decomposition(spec, depth)
            assert plan.counting_identity_holds()
            assert plan.total_sites() == ball_count(spec, depth)
            assert assemble_delta(spec, depth).size == ball_count(spec, depth)


def test_plan_example():
    spec = TreeSpec((1,), (2,))
    plan = plan_decomposition(spec, 2)
    assert plan.offsets == (0, 2)
    assert plan.multiplicities == (1, 1)
    assert plan.sizes == (3, 1)
    assert plan.total_sites() == 4 == ball_count(spec, 2)


def test_verify_decomposition_star():
    spec = TreeSpec((1,), (2,))
    for variant in ("adjacency", "degree"):
        rep = verify_decomposition(spec, 2, variant)
        assert rep.passed, (variant, rep)
        assert rep.max_deviation <= rep.tolerance


def test_verify_decomposition_gamma_trees():
    spec = make_gamma_tree(2, "5/2", 5)
    for variant in ("adjacency", "degree"):
        rep = verify_decomposition(spec, 15, variant)
        assert rep.passed and rep.counting_ok
    spec33 = make_gamma_tree(3, 3, 3)
    rep = verify_decomposition(spec33, 13, "adjacency")
    assert rep.passed


def test_verify_decomposition_depth_zero_and_gap_one():
    spec = TreeSpec((1,), (2,))
    assert verify_decomposition(spec, 0).passed
    tight = TreeSpec((1, 2, 4), (2, 3, 2))
    for variant in ("adjacency", "degree"):
        assert verify_decomposition(tight, 5, variant).passed


def test_verify_decomposition_with_boundary():
    spec = make_gamma_tree(2, 2, 3)
    rep = verify_decomposition(spec, 9, "adjacency", rho=0.7)
    assert rep.passed


def test_verify_decomposition_random_specs():
    rng = random.Random(31)
    for _ in range(8):
        spec = random_small_spec(rng)
        depth = spec.branch_levels[-1] + rng.randint(0, 3)
        for variant in ("adjacency", "degree"):
            rep = verify_decomposition(spec, depth, variant)
            assert rep.passed, (spec, depth, variant, rep)


def test_verify_decomposition_makes_no_lapack_call_on_large_trees(monkeypatch):
    # An AC1 tree and an 11,112-vertex tree: the class count solves both
    # trees and their blocks, which are short enough for it.
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    cases = [(make_gamma_tree(2, "5/2", 9), 150, 2863), (TreeSpec((1, 2, 3, 4), (10,) * 4), 5, 11_112)]
    for spec, depth, size in cases:
        for variant in ("adjacency", "degree"):
            rep = verify_decomposition(spec, depth, variant)
            assert rep.passed and rep.tree_size == size, (size, variant, rep.max_deviation)


def test_block_side_has_the_bits_of_each_block_alone(monkeypatch):
    # verify_decomposition solves one copy of every block in one operator;
    # each block's eigenvalues must be those eigenvalues_sym gives it alone.
    solved = []

    def recorded(op):
        solved.append(component_eigenvalues(op))
        return solved[-1]

    monkeypatch.setattr(decomposition, "component_eigenvalues", recorded)
    rho = 0.7
    for spec, depth in _acceptance_specs():
        for variant in ("adjacency", "degree"):
            solved.clear()
            assert verify_decomposition(spec, depth, variant, rho).passed, (spec, depth, variant)
            (blocks,) = solved
            assert len(blocks) == len(plan_decomposition(spec, depth).offsets)
            for n, evs in enumerate(blocks):
                block = truncated_block(spec, n, depth, variant, rho if n == 0 else 0.0)
                alone = eigenvalues_sym(block)
                assert np.array_equal(evs.view(np.int64), alone.view(np.int64)), (spec, depth, variant, n)
