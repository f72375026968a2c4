"""Truncated tree operators: indexing, assembly, eigenvalues."""

from __future__ import annotations

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetrees import operators
from sparsetrees.decomposition import truncated_block
from sparsetrees.errors import GuardError, ValidationError
from sparsetrees.operators import (
    CLASS_COUNT_ROWS,
    GRID_BITS,
    SECTION_BITS,
    WORK_GUARD,
    SymOperator,
    _count_stretches,
    _Stretch,
    _runs,
    apply_root_boundary,
    assemble_delta,
    assemble_delta_tilde,
    component_eigenvalues,
    eigenvalues_sym,
    forest_eigenvalues,
    tridiagonal,
)
from sparsetrees.trees import TreeSpec, ball_count, make_gamma_tree


def dense(op: SymOperator) -> np.ndarray:
    """The symmetric matrix of a forest operator."""
    a = np.diag(op.diag)
    child = np.flatnonzero(op.parent >= 0)
    a[child, op.parent[child]] = op.weight[child]
    a[op.parent[child], child] = op.weight[child]
    return a


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


def test_assemble_delta_numbers_generations_breadth_first():
    # generation sizes (1, 1, 2, 2, 6), first vertices (0, 1, 2, 4, 6)
    spec = TreeSpec((1, 3), (2, 3))
    op = assemble_delta(spec, 4)
    assert op.size == ball_count(spec, 4)
    assert op.parent.tolist() == [-1, 0, 1, 1, 2, 3, 4, 4, 4, 5, 5, 5]


def test_assemble_delta_guard_refuses_before_allocating(monkeypatch):
    spec = make_gamma_tree(5, "3/2", 12)
    counted = []
    monkeypatch.setattr(operators, "ball_count", lambda *args: counted.append(args) or ball_count(*args))
    # any array built before the guard fails with AttributeError instead
    monkeypatch.setattr(operators, "np", None)
    for assemble in (assemble_delta, assemble_delta_tilde):
        with pytest.raises(GuardError, match="guard is 1000000"):
            assemble(spec, spec.branch_levels[-1])
    assert len(counted) == 2  # one vertex count per call


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
    assert np.allclose(dense(op).sum(axis=1), 0.0)
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
    assert np.array_equal(dense(unshifted), dense(op))
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
    matrix = dense(op)
    evs, vecs = np.linalg.eigh(matrix)
    scale = np.abs(matrix).sum(axis=1).max()
    for idx in (0, len(evs) // 2, len(evs) - 1):
        r = matrix @ vecs[:, idx] - evs[idx] * vecs[:, idx]
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
        max_degree = np.count_nonzero(dense(op), axis=1).max()
        evs = eigenvalues_sym(op)
        assert np.abs(evs).max() <= max_degree + 1e-12


def test_truncations_nest():
    spec = TreeSpec((1, 3), (2, 2))
    small = assemble_delta(spec, 3)
    large = assemble_delta(spec, 4)
    assert np.array_equal(large.parent[: small.size], small.parent)
    assert np.array_equal(large.weight[: small.size], small.weight)
    assert np.array_equal(large.diag[: small.size], small.diag)


def test_work_guard_counts_classes_not_rows():
    # 4,001 rows but 3 subtree classes: one edge and 3,999 lone vertices
    n = 4001
    parent = np.full(n, -1)
    parent[n - 1] = 0
    op = SymOperator(np.zeros(n), parent, np.where(parent >= 0, 1.0, 0.0))
    evs = eigenvalues_sym(op)
    want = np.concatenate(([-1.0], np.zeros(n - 2), [1.0]))
    assert np.abs(evs - want).max() <= documented_bound(op)

    # a path of 5,000 pairs: 10,000 rows, 5,001 classes, 10,002 class steps
    big = assemble_delta(TreeSpec((1,), (2,)), 5000)
    assert big.size * 10_002 > WORK_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(GuardError):
            eigenvalues_sym(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before any rows x classes array (400 MB of doubles) exists
    assert peak < 8 * big.size * 5001 / 50


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


def gershgorin_and_degree(op: SymOperator) -> tuple[float, int]:
    radius = [abs(d) for d in op.diag]
    degree = [0] * op.size
    for j, (i, w) in enumerate(zip(op.parent, op.weight)):
        if i < 0:
            continue
        for v in (i, j):
            radius[v] += abs(w)
            degree[v] += 1
    return max(radius), max(degree)


def grid_step(gershgorin: float) -> float:
    return math.ldexp(1.0, math.frexp(gershgorin)[1] + 1 - GRID_BITS)


def documented_bound(op: SymOperator) -> float:
    """h + (degree + 4) * 2**-53 * B, as forest_eigenvalues states it."""
    gershgorin, degree = gershgorin_and_degree(op)
    return grid_step(gershgorin) + (degree + 4) * 2.0**-53 * gershgorin


def stretch_bound(op: SymOperator) -> float:
    """h + 2**-46 * B, as eigenvalues_sym states it for the stretch count."""
    gershgorin, _ = gershgorin_and_degree(op)
    return grid_step(gershgorin) + 2.0**-46 * gershgorin


def class_count(op: SymOperator) -> np.ndarray:
    """All eigenvalues of op by the class count (forest_eigenvalues), ascending."""
    return np.sort(np.concatenate(list(forest_eigenvalues(op).values())))


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
        evs = class_count(op)
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
    assert class_count(cases[0])[30] == 0.0
    # the tree's repeated eigenvalues are each found
    assert largest_cluster >= 2
    assert cases[3].size == 47


def components(op: SymOperator) -> list[SymOperator]:
    """Each component of op as an operator of its own, in the order of their roots."""
    members = {}  # root -> vertices, in order
    root = []
    for v, p in enumerate(op.parent.tolist()):
        root.append(v if p < 0 else root[p])
        members.setdefault(root[v], []).append(v)
    parts = []
    for vertices in members.values():
        index = {v: i for i, v in enumerate(vertices)}
        parent = [index.get(p, -1) for p in op.parent[vertices].tolist()]
        parts.append(SymOperator(op.diag[vertices], np.array(parent), op.weight[vertices]))
    return parts


def per_vertex_eigenvalues(op: SymOperator) -> np.ndarray:
    """A tree's eigenvalues with one pivot per vertex: the reference for the class count.

    The same grid and sections; each pass eliminates every vertex from the
    highest number down, q_v = (d_v - x) - sum of w_c^2/q_c over its
    children in elimination order, and counts the negative pivots.
    """
    assert np.count_nonzero(op.parent < 0) == 1
    diag = op.diag + 0.0
    linked = op.parent >= 0
    radius = np.abs(diag) + np.abs(op.weight)
    np.add.at(radius, op.parent[linked], np.abs(op.weight[linked]))
    h = math.ldexp(1.0, math.frexp(float(radius.max()))[1] + 1 - GRID_BITS)
    parent = op.parent.tolist()
    w2 = (op.weight * op.weight).tolist()
    parts = 1 << SECTION_BITS
    inner = np.arange(1, parts)
    target = np.arange(op.size)[:, None]
    lo = np.full(op.size, -(1 << GRID_BITS), dtype=np.int64)
    width = 1 << (GRID_BITS + 1)
    with np.errstate(divide="ignore", over="ignore"):
        while width > 1:
            width //= parts
            x = (lo[:, None] + width * inner) * h
            pivots = np.subtract.outer(diag, x.ravel())
            pending = [None] * op.size
            for v in range(op.size - 1, -1, -1):
                q = pivots[v]
                if pending[v] is not None:
                    q -= pending[v]
                p = parent[v]
                if p < 0:
                    continue
                if pending[p] is None:
                    pending[p] = w2[v] / q
                else:
                    pending[p] += w2[v] / q
            count = np.count_nonzero(pivots < 0.0, axis=0)
            above = count.reshape(x.shape) > target
            first = np.where(above.any(axis=1), above.argmax(axis=1), parts - 1)
            lo += first * width
    return np.sort(lo * h)


@st.composite
def forests_with_repeated_subtrees(draw, max_rows: int = 60) -> SymOperator:
    """Forests grown generation by generation from a few subtree types.

    A type is a diagonal, a coupling to its parent and a list of child
    types, so equal types grow equal subtrees.  Diagonals include -0.0; a
    zero coupling is no edge, and the child starts a tree of its own.  Each
    generation is shuffled, so equal subtrees may order their children
    differently.
    """
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25])
    couplings = st.sampled_from([0.0, 1.0, 0.5, math.sqrt(2.0)])
    types = []
    for t in range(draw(st.integers(2, 7))):
        kids = draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=5)) if t else []
        types.append((draw(values), draw(couplings), kids))
    roots = [len(types) - 1] + draw(st.lists(st.integers(0, len(types) - 1), max_size=2))
    level = [(t, -1) for t in roots]
    diag, parent, weight = [], [], []
    while level and len(diag) < max_rows:
        grown = []
        for t, p in draw(st.permutations(level))[: max_rows - len(diag)]:
            d, w, kids = types[t]
            linked = p >= 0 and w != 0.0
            grown.extend((k, len(diag)) for k in kids)
            diag.append(d)
            parent.append(p if linked else -1)
            weight.append(w if linked else 0.0)
        level = grown
    return SymOperator(np.array(diag), np.array(parent), np.array(weight))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(forests_with_repeated_subtrees())
@example(assemble_delta_tilde(TreeSpec((1, 3), (3, 2)), 6))
@example(apply_root_boundary(assemble_delta(make_gamma_tree(2, 3, 4), 9), 0.3))
def test_class_count_is_the_per_vertex_count_bit_for_bit(op):
    # Each component on its own grid: the class count of the whole forest
    # has the bits of the per-vertex count of each component alone.
    want = [per_vertex_eigenvalues(part) for part in components(op)]
    got = forest_eigenvalues(op)
    assert list(got) == np.flatnonzero(op.parent < 0).tolist()
    for evs, ref in zip(got.values(), want):
        assert np.array_equal(evs.view(np.int64), ref.view(np.int64))
    if op.size > 1:  # no component here is a long chain
        for evs, ref in zip(component_eigenvalues(op), want, strict=True):
            assert np.array_equal(evs.view(np.int64), ref.view(np.int64))
    evs = class_count(op)
    with mpmath.workdps(40):
        bound = mpmath.mpf(documented_bound(op))
        count_below = mp_count_below(op)
        for k, ev in enumerate(evs):
            assert count_below(mpmath.mpf(ev) - bound) <= k < count_below(mpmath.mpf(ev) + bound)


def test_class_count_agrees_with_dense_lapack_at_ac1_size():
    # The two largest AC1 trees, in both variants, against LAPACK's dense
    # solver; the tolerance, 1e-12 * (1 + Gershgorin bound), was fixed
    # before the first run.
    cases = [(make_gamma_tree(2, "5/2", 9), 150, 2863), (make_gamma_tree(3, 3, 5), 97, 2938)]
    for spec, depth, size in cases:
        for assemble in (assemble_delta, assemble_delta_tilde):
            op = assemble(spec, depth)
            matrix = dense(op)
            gershgorin = np.abs(matrix).sum(axis=1).max()
            got = eigenvalues_sym(op)
            assert op.size == size
            assert np.abs(got - np.linalg.eigvalsh(matrix)).max() <= 1e-12 * (1.0 + gershgorin)


def per_row_count(op: SymOperator, x: np.ndarray) -> np.ndarray:
    """Negative pivots of q = (d - x) - w**2 / q_prev, row by row from row 0."""
    count = np.zeros(len(x), dtype=np.int64)
    q = None
    with np.errstate(divide="ignore", over="ignore"):
        for d, w in zip((op.diag + 0.0).tolist(), op.weight.tolist()):
            q = d - x if w == 0.0 else (d - x) - w * w / q
            count += q < 0.0
    return count


@st.composite
def run_blocks(draw) -> SymOperator:
    """Tridiagonal blocks made of runs of 1 to 50 equal rows.

    A run is a diagonal in {0, -1, -2, -3} and a coupling in {1, sqrt 2,
    sqrt 3}; a zero coupling, drawn now and then, restarts the pivots, and
    a negative one, which leaves the eigenvalues as they are, is a run of
    its own magnitude.
    """
    diag, off = [], []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.sampled_from([0.0, -1.0, -2.0, -3.0]))
        w = draw(st.sampled_from([1.0, math.sqrt(2.0), math.sqrt(3.0), 1.0, 0.0, -1.0]))
        m = draw(st.integers(1, 50))
        diag += [d] * m
        off += [w] * m
    return tridiagonal(np.array(diag), np.array(off[1:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(run_blocks(), st.data())
@example(tridiagonal([0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), None)  # zero pivot enters a run at x = 0
@example(tridiagonal([-2.0] * 7, [1.0] * 6), None)  # s = +-2 at x = -4 and x = 0
@example(tridiagonal([0.0] * 4, [1.0, 1.0, math.sqrt(2.0)]), None)  # a run ends on a zero pivot at x = 0
def test_stretch_count_is_the_per_row_count(op, data):
    # Exact special points: s = +-2 on every run, and x = d, which makes a
    # fresh row's pivot an exact zero entering the next run.
    special = sorted({d + sign * 2.0 * w for d, w, _ in _runs(op.diag, op.weight) for sign in (-1.0, 1.0)})
    special += sorted(set(op.diag.tolist()))
    x = np.array(special)
    if data is not None:
        floats = st.floats(-9.0, 7.0, allow_nan=False)
        x = np.concatenate((x, data.draw(st.lists(floats, min_size=1, max_size=20))))
    with np.errstate(divide="ignore", over="ignore"):
        got = _count_stretches(_runs(op.diag, op.weight), x)
    want = per_row_count(op, x)
    # Where an eigenvalue lies within delta of x, both counts are exact counts
    # of nearby matrices only; the stretch count must then lie between the
    # counts at x -+ delta.
    delta = 1e-9
    exact = np.linalg.eigvalsh(dense(op))
    for xi, g, p in zip(x, got, want):
        near = np.abs(exact - xi).min() <= delta
        if near:
            assert np.sum(exact < xi - delta) <= g <= np.sum(exact < xi + delta), (xi, g, p)
        else:
            assert g == p, (xi, g, p)


def test_stretch_route_agrees_with_the_class_count_on_long_blocks():
    # Blocks of 501 to 2,000 rows: the stretch count against forest_eigenvalues,
    # each within its stated bound, so within the sum of the two.
    cases = [
        truncated_block(make_gamma_tree(2, 3, 8), 0, CLASS_COUNT_ROWS),
        truncated_block(make_gamma_tree(3, "5/2", 9), 0, 999, "degree"),
        truncated_block(make_gamma_tree(2, 3, 8), 0, 1999, rho=0.3),
    ]
    for op in cases:
        assert op.size > CLASS_COUNT_ROWS and op.is_tridiagonal()
        got = eigenvalues_sym(op)
        want = class_count(op)
        assert np.abs(got - want).max() <= stretch_bound(op) + documented_bound(op), op.size


def test_stretch_route_within_stated_bound_of_mpmath_on_deep_blocks():
    # The two blocks of the spectrum-deep benchmark, at a sample of
    # eigenvalues: both ends (bound states outside the band) and a spread.
    cases = [
        truncated_block(make_gamma_tree(2, 3, 10), 0, 10_000),
        truncated_block(make_gamma_tree(2, "5/2", 12), 0, 6000, "degree"),
    ]
    for op in cases:
        evs = eigenvalues_sym(op)
        assert evs.shape == (op.size,) and np.all(np.diff(evs) >= 0)
        sample = sorted({0, 1, op.size - 2, op.size - 1, *np.linspace(0, op.size - 1, 10).astype(int)})
        with mpmath.workdps(40):
            bound = mpmath.mpf(stretch_bound(op))
            count_below = mp_count_below(op)
            for k in sample:
                ev = mpmath.mpf(evs[k])
                assert count_below(ev - bound) <= k < count_below(ev + bound), (op.size, k, evs[k])


def direct_sum(ops: list[SymOperator]) -> SymOperator:
    """The forest with one component per operator, numbered in order."""
    offsets = np.cumsum([0] + [op.size for op in ops[:-1]])
    parent = [np.where(op.parent >= 0, op.parent + off, -1) for op, off in zip(ops, offsets)]
    return SymOperator(
        np.concatenate([op.diag for op in ops]), np.concatenate(parent), np.concatenate([op.weight for op in ops])
    )


def test_each_component_gets_the_bits_of_its_own_solve():
    # Two long blocks take the stretch count; a path of 602 rows with two
    # leaves on its end, a tree and a lone row share the class count.  Each
    # component's eigenvalues are those of eigenvalues_sym on it alone.
    long_block = truncated_block(make_gamma_tree(2, 3, 8), 0, 700, rho=0.3)
    parts = [
        assemble_delta(make_gamma_tree(2, 3, 7), 20),
        long_block,
        assemble_delta_tilde(TreeSpec((601,), (2,)), 602),
        tridiagonal([0.5], []),
        truncated_block(make_gamma_tree(2, 3, 8), 2, 700, "degree"),
        long_block,
    ]
    assert [p.size > CLASS_COUNT_ROWS and p.is_tridiagonal() for p in parts] == [False, True, False, False, True, True]
    got = component_eigenvalues(direct_sum(parts))
    assert len(got) == len(parts)
    for evs, part in zip(got, parts):
        assert np.array_equal(evs.view(np.int64), eigenvalues_sym(part).view(np.int64)), part.size


def test_many_components_take_memory_linear_in_rows():
    # 1,500 lone rows with distinct diagonals, each on its own grid: one
    # pass's counts for every component at every point would be
    # 8 * 3 * n * n bytes, 54 MB.
    n = 1500
    op = SymOperator(np.arange(n) / 8.0 - 90.0, np.full(n, -1), np.zeros(n))
    tracemalloc.start()
    try:
        evs = eigenvalues_sym(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(evs, op.diag)  # every diagonal lies on its grid
    assert peak < 2000 * n


def test_stretch_work_guard_refuses_before_counting():
    # 6,000 rows, every one its own run: 36,000,000 steps of work
    n = 6000
    op = tridiagonal(np.arange(n) / n, np.ones(n - 1))
    assert n * n > WORK_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="6000 rows x 6000 runs"):
            eigenvalues_sym(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below one pass's points, rows x 3 doubles
    assert peak < 8 * 3 * n


def test_run_crossing_matches_per_row_steps():
    # _Stretch.cross against m plain pivot steps q = 2wc - w**2/q: last
    # pivots that agree as directions (w, q) up to sign, which stays well
    # conditioned where q is near 0 or infinite, and equal counts.  Where
    # the exact last pivot is 0 (c = 0 with q_in 0, +-tiny or infinite),
    # rounding may put it on either side, so there the counts must agree
    # on the rows before the last, each with its own last pivot's sign.
    # (An exact zero one row earlier moves a crossing by one row only.)
    rng = np.random.default_rng(7)
    c = np.concatenate(([-1.0, 1.0, 0.0, 1 - 1e-6, -1 + 1e-6, 1 + 1e-6, -1 - 1e-6], rng.uniform(-4, 4, 60)))
    q_in = np.concatenate(([0.0, np.inf, -np.inf, 1e-300, -1e-300, 2.0, -2.0], rng.normal(0, 2, 8)))
    c, q_in = (a.ravel() for a in np.meshgrid(c, q_in))
    # w = 3 with q_in = +-2 at c = +-1 ends two rows on an exact zero pivot
    for w in (1.0, math.sqrt(2.0), 3.0):
        angles = _Stretch(c)
        for m in (2, 3, 17, 50):
            with np.errstate(divide="ignore", over="ignore"):
                crossed, last = angles.cross(q_in, w, m)
                q = q_in
                count = np.zeros(len(c), dtype=np.int64)
                for _ in range(m):
                    q = 2 * w * c - w * w / q
                    count += q < 0.0
            gap = np.abs(np.arctan2(last, w) - np.arctan2(q, w)) % math.pi
            assert np.minimum(gap, math.pi - gap).max() <= 1e-9, (w, m)
            tie = np.abs(np.arctan2(q, w)) <= 1e-9
            assert np.array_equal(crossed[~tie], count[~tie]), (w, m)
            before_last = crossed - (last < 0.0), count - (q < 0.0)
            assert np.array_equal(before_last[0][tie], before_last[1][tie]), (w, m)
            assert tie.sum() < len(c) // 20
