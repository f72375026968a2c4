"""Truncated tree operators: indexing, assembly, eigenvalues."""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np
import pytest

from sparsetrees.decomposition import truncated_block
from sparsetrees.errors import GuardError, ValidationError
from sparsetrees.operators import (
    GRID_BITS,
    SymOperator,
    apply_root_boundary,
    assemble_delta,
    assemble_delta_tilde,
    enumerate_vertices,
    eigenvalues_sym,
    forest_eigenvalues,
    tridiagonal,
)
from sparsetrees.trees import TreeSpec, ball_count, make_gamma_tree


def free_tridiagonal(m: int) -> SymOperator:
    return tridiagonal(np.zeros(m), np.ones(m - 1))


def char_poly_roots_free(m: int) -> np.ndarray:
    """Brute-force oracle: roots of det(J - x), J the free tridiagonal.

    Uses the determinant recurrence D_m = -x * D_{m-1} - D_{m-2} on raw
    polynomial coefficients, then numpy root finding.
    """
    d_prev = np.array([1.0])  # D_0
    d_cur = np.array([-1.0, 0.0])  # D_1 = -x
    for _ in range(m - 1):
        nxt = np.polysub(np.polymul([-1.0, 0.0], d_cur), d_prev)
        d_prev, d_cur = d_cur, nxt
    return np.sort(np.roots(d_cur).real)


def test_enumerate_vertices_counts_and_offsets():
    spec = TreeSpec((1, 3), (2, 3))
    idx = enumerate_vertices(spec, 4)
    assert idx.total == ball_count(spec, 4)
    assert idx.sizes == (1, 1, 2, 2, 6)
    assert idx.offsets == (0, 1, 2, 4, 6)


def test_enumerate_vertices_guard():
    spec = make_gamma_tree(5, "3/2", 12)
    with pytest.raises(GuardError):
        enumerate_vertices(spec, spec.branch_levels[-1])


def test_delta_star_eigenvalues():
    # first branching immediately above the root with two children: a star
    spec = TreeSpec((1,), (2,))
    op = assemble_delta(spec, 2)
    got = eigenvalues_sym(op)
    want = np.array([-math.sqrt(3), 0.0, 0.0, math.sqrt(3)])
    assert np.allclose(got, want, atol=1e-12)


def test_delta_path_eigenvalues():
    spec = TreeSpec((5,), (2,))
    got = eigenvalues_sym(assemble_delta(spec, 2))
    want = np.array([-math.sqrt(2), 0.0, math.sqrt(2)])
    assert np.allclose(got, want, atol=1e-12)


def test_delta_depth_zero():
    spec = TreeSpec((1,), (2,))
    assert eigenvalues_sym(assemble_delta(spec, 0)) == pytest.approx([0.0])


def test_delta_tilde_degrees_and_rows():
    spec = TreeSpec((1,), (2,))
    op = assemble_delta_tilde(spec, 2)
    assert op.diag.tolist() == [-1.0, -3.0, -1.0, -1.0]
    assert math.copysign(1.0, assemble_delta_tilde(spec, 0).diag[0]) == -1.0
    dense = op.to_dense()
    assert np.allclose(dense.sum(axis=1), 0.0)
    evs = eigenvalues_sym(op)
    assert evs.max() <= 1e-10


def test_delta_tilde_negative_semidefinite_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 3)
        levels, cur = [], 0
        for _ in range(n):
            cur += rng.randint(1, 4)
            levels.append(cur)
        spec = TreeSpec(tuple(levels), tuple(rng.randint(2, 4) for _ in range(n)))
        depth = levels[-1] + rng.randint(0, 2)
        evs = eigenvalues_sym(assemble_delta_tilde(spec, depth))
        assert evs.max() <= 1e-10


def test_root_boundary():
    spec = TreeSpec((2,), (2,))
    op = assemble_delta(spec, 3)
    unshifted = apply_root_boundary(op, 0.0)
    assert np.array_equal(unshifted.to_dense(), op.to_dense())
    shifted = apply_root_boundary(op, math.pi / 4)
    assert shifted.diag[0] == pytest.approx(-1.0, abs=1e-15)
    assert np.array_equal(shifted.diag[1:], op.diag[1:])
    with pytest.raises(ValidationError):
        apply_root_boundary(op, math.pi / 2)


def test_eigenvalues_free_tridiagonal_closed_form_and_brute_force():
    for m in range(1, 9):
        got = eigenvalues_sym(free_tridiagonal(m))
        want = np.sort([2 * math.cos(math.pi * l / (m + 1)) for l in range(1, m + 1)])
        assert np.allclose(got, want, atol=1e-10)
        if m >= 2:
            assert np.allclose(char_poly_roots_free(m), want, atol=1e-8)


def test_eigenvalues_single_entry():
    assert eigenvalues_sym(tridiagonal([2.5], [])) == pytest.approx([2.5])


def test_eigenvalue_residuals_small():
    spec = TreeSpec((1, 3), (3, 2))
    op = assemble_delta(spec, 5)
    dense = op.to_dense()
    evs, vecs = np.linalg.eigh(dense)
    scale = np.abs(dense).sum(axis=1).max()
    for idx in (0, len(evs) // 2, len(evs) - 1):
        r = dense @ vecs[:, idx] - evs[idx] * vecs[:, idx]
        assert np.linalg.norm(r) <= 1e-9 * scale


def test_gershgorin_bound():
    rng = random.Random(9)
    for _ in range(5):
        levels, cur = [], 0
        for _ in range(rng.randint(1, 3)):
            cur += rng.randint(1, 4)
            levels.append(cur)
        spec = TreeSpec(tuple(levels), tuple(rng.randint(2, 5) for _ in levels))
        op = assemble_delta(spec, levels[-1] + 1)
        max_degree = np.count_nonzero(op.to_dense(), axis=1).max()
        evs = eigenvalues_sym(op)
        assert np.abs(evs).max() <= max_degree + 1e-12


def test_truncations_nest():
    spec = TreeSpec((1, 3), (2, 2))
    small = assemble_delta(spec, 3)
    large = assemble_delta(spec, 4)
    assert np.array_equal(large.parent[: small.size], small.parent)
    assert np.array_equal(large.weight[: small.size], small.weight)
    assert np.array_equal(large.diag[: small.size], small.diag)


def test_dense_guard_rejects_big_nontridiagonal():
    n = 4001
    parent = np.full(n, -1)
    parent[n - 1] = 0
    op = SymOperator(np.zeros(n), parent, np.where(parent >= 0, 1.0, 0.0))
    with pytest.raises(GuardError):
        eigenvalues_sym(op)


def mp_count_below(op: SymOperator):
    """Counter of the eigenvalues of op below x, by 40-digit leaf-up elimination."""
    with mpmath.workdps(40):
        diag = [mpmath.mpf(d) for d in op.diag]
        links = [
            (v, int(p), mpmath.mpf(float(w)) ** 2)
            for v, (p, w) in enumerate(zip(op.parent, op.weight))
            if p >= 0
        ]
    links.sort(reverse=True)  # elimination order: highest child first

    def count(x) -> int:
        with mpmath.workdps(40):
            q = [d - x for d in diag]
            for v, p, w2 in links:
                q[p] -= w2 / q[v]
            return sum(qv < 0 for qv in q)

    return count


def documented_bound(op: SymOperator) -> float:
    """h + (degree + 4) * 2**-53 * B, as forest_eigenvalues states it."""
    radius = [abs(d) for d in op.diag]
    degree = [0] * op.size
    for j, (i, w) in enumerate(zip(op.parent, op.weight)):
        if i < 0:
            continue
        for v in (i, j):
            radius[v] += abs(w)
            degree[v] += 1
    gershgorin = max(radius)
    h = math.ldexp(1.0, math.frexp(gershgorin)[1] + 1 - GRID_BITS)
    return h + (max(degree) + 4) * 2.0**-53 * gershgorin


def test_forest_eigenvalues_within_documented_bound_of_mpmath():
    fixture_block = make_gamma_tree(2, 3, 6)  # tests/fixtures/spectrum.json
    fixture_tree = make_gamma_tree(2, "5/2", 5)  # tests/fixtures/decompose.json
    cases = [
        truncated_block(fixture_block, 0, 60),
        truncated_block(fixture_block, 0, 60, "degree"),
        truncated_block(fixture_block, 0, 60, rho=0.3),
        assemble_delta(fixture_tree, 15),
        assemble_delta_tilde(fixture_tree, 15),
        # a zero coupling is no edge; as an edge, the pivot 0 at x = 1 gives 0/0
        tridiagonal([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0]),
    ]
    largest_cluster = 0
    for op in cases:
        evs = forest_eigenvalues(op)
        assert evs.shape == (op.size,) and np.all(np.diff(evs) >= 0)
        with mpmath.workdps(40):
            bound = mpmath.mpf(documented_bound(op))
            count_below = mp_count_below(op)
            for k, ev in enumerate(evs):
                below = count_below(mpmath.mpf(ev) - bound)
                upto = count_below(mpmath.mpf(ev) + bound)
                # the k-th exact eigenvalue lies within the bound of ev
                assert below <= k < upto, (op.size, k, ev)
                largest_cluster = max(largest_cluster, upto - below)
    # the odd zero-diagonal block has the exact eigenvalue 0, on the grid
    assert forest_eigenvalues(cases[0])[30] == 0.0
    # the tree's repeated eigenvalues are each found
    assert largest_cluster >= 2
    assert cases[3].size == 47
