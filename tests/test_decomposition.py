"""Block decomposition: multiplicities, coefficients, eigenvalue equivalence."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sparsetrees.decomposition import (
    multiplicities,
    plan_decomposition,
    truncated_block,
    verify_decomposition,
)
from sparsetrees.errors import ValidationError
from sparsetrees.jacobi import JacobiCoefficients, block_offsets
from sparsetrees.operators import eigenvalues_sym
from sparsetrees.trees import TreeSpec, ball_count, make_gamma_tree


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
    assert block_offsets(spec) == (0, 2, 5)


def test_for_tree_block_adjacency():
    spec = TreeSpec((1,), (2,))
    j0 = JacobiCoefficients.for_tree_block(spec, 0)
    assert j0.a(2) == pytest.approx(math.sqrt(2))
    assert j0.a(1) == 1.0 and j0.a(5) == 1.0 and j0.a(0) == 1.0
    assert j0.b(1) == 0.0 and j0.b(2) == 0.0


def test_for_tree_block_degree_variant():
    spec = TreeSpec((1,), (2,))
    j0 = JacobiCoefficients.for_tree_block(spec, 0, "degree")
    assert j0.b(2) == -3.0
    assert j0.b(1) == -2.0 and j0.b(3) == -2.0 and j0.b(7) == -2.0
    assert j0.a(2) == pytest.approx(math.sqrt(2))


def test_for_tree_block_boundary_rho():
    spec = TreeSpec((3,), (2,))
    j = JacobiCoefficients.for_tree_block(spec, 0, rho=math.pi / 4)
    assert j.b(1) == pytest.approx(-1.0)
    assert j.b(2) == 0.0


def test_blocks_nest_as_tails():
    # block n is block n-1 with the first R_n - R_{n-1} sites removed
    rng = random.Random(8)
    for _ in range(10):
        spec = random_small_spec(rng)
        offs = block_offsets(spec)
        for n in range(1, len(offs)):
            shift = offs[n] - offs[n - 1]
            younger = JacobiCoefficients.for_tree_block(spec, n)
            older = JacobiCoefficients.for_tree_block(spec, n - 1)
            for j in range(1, offs[-1] - offs[n] + 4):
                assert younger.a(j) == older.a(j + shift)
        degree_blocks = [
            JacobiCoefficients.for_tree_block(spec, n, "degree") for n in range(len(offs))
        ]
        for n in range(1, len(offs)):
            shift = offs[n] - offs[n - 1]
            for j in range(1, offs[-1] - offs[n] + 4):
                assert degree_blocks[n].b(j) == degree_blocks[n - 1].b(j + shift)


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
