"""Tree operators and Jacobi blocks as forests, and their eigenvalues.

Vertices of the ball of radius D around the root are indexed breadth
first, generation by generation, so parent indices are pure arithmetic on
generation offsets.  Two tree operators are assembled: the plain
adjacency matrix, and adjacency minus the diagonal of vertex degrees
(degrees counted inside the truncation, so the truncation is a Dirichlet
cut after generation D).  These and the tridiagonal Jacobi blocks are all
forests numbered parents first, which is the one form SymOperator
stores.  Eigenvalues come from bisection of leaf-up inertia counts in
plain IEEE arithmetic, so their bits are the same on every platform.  A
count runs over classes of equal subtrees, not over vertices: on a
spherically homogeneous tree every generation is one class.  Only
tridiagonal operators above BISECTION_ROWS rows go to LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GuardError, ValidationError
from .jacobi import check_rho
from .trees import TreeSpec, ball_count, generation_size

VERTEX_GUARD = 1_000_000

# Largest tridiagonal operator solved by forest_eigenvalues instead of
# LAPACK.  A block has one subtree class per row, so its bisection work
# grows as rows**2: at 500 rows it took 0.13 s of CPU against 7 ms for
# LAPACK's eigh_tridiagonal (2 cores, Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31).  Above the cap the eigenvalue bits depend on the LAPACK build.
BISECTION_ROWS = 500

# Largest bisection work, rows times class steps (forest_eigenvalues).  A
# forest has at most 2 * rows - 1 steps, so every forest of up to 4,000
# rows is accepted.
WORK_GUARD = 32_000_000

# Bisection grid: eigenvalues are located on the integers j in
# [-2**GRID_BITS, 2**GRID_BITS], all exact doubles, scaled by a power of two.
GRID_BITS = 53

# Grid bits resolved per elimination pass: each pass counts at the
# 2**SECTION_BITS - 1 inner points of every bracket.  Two bits took 0.6 of
# the time of one bit on the AC1 blocks (at most 151 rows) and the same
# at 500 rows; three bits were slower than one at 500 rows.  Must divide
# GRID_BITS + 1.
SECTION_BITS = 2


@dataclass(frozen=True)
class VertexIndexing:
    """Breadth-first vertex numbering of the depth-D truncation."""

    offsets: tuple[int, ...]  # offsets[j] = index of first vertex in generation j
    sizes: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.offsets[-1] + self.sizes[-1]


def enumerate_vertices(spec: TreeSpec, depth: int) -> VertexIndexing:
    """Index the ball of radius depth; refuses more than a million vertices."""
    if depth < 0:
        raise ValidationError("depth: must be >= 0")
    if ball_count(spec, depth) > VERTEX_GUARD:
        raise GuardError(
            f"depth: truncation holds {ball_count(spec, depth)} vertices, "
            f"guard is {VERTEX_GUARD}"
        )
    sizes = [generation_size(spec, j) for j in range(depth + 1)]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    return VertexIndexing(tuple(offsets), tuple(sizes))


@dataclass(frozen=True, eq=False)
class SymOperator:
    """Real symmetric operator whose graph is a forest numbered parents first.

    Vertex v has diagonal entry diag[v] and at most one lower-numbered
    neighbour, parent[v] < v (-1 for none), coupled by weight[v].  A zero
    coupling is no edge: weight[v] is nonzero exactly where parent[v] >= 0.
    Breadth-first tree operators and tridiagonal blocks have this form, and
    nothing else is built.
    """

    diag: np.ndarray
    parent: np.ndarray
    weight: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)

    def is_tridiagonal(self) -> bool:
        return bool(np.all((self.parent < 0) | (self.parent == np.arange(self.size) - 1)))


def tridiagonal(diag, off) -> SymOperator:
    """Tridiagonal operator with diagonal diag and off[i] coupling rows i, i + 1.

    A zero off[i] is no edge: the operator splits there.
    """
    weight = np.zeros(len(diag))
    weight[1:] = off
    parent = np.arange(-1, len(diag) - 1)
    parent[weight == 0.0] = -1
    return SymOperator(np.asarray(diag, dtype=float), parent, weight)


def _tree_parents(spec: TreeSpec, depth: int) -> np.ndarray:
    """Parent of every vertex of the depth-D truncation, -1 for the root.

    The child at position i of generation g + 1 has parent
    offsets[g] + i // kappa(g), where kappa(g) = sizes[g + 1] // sizes[g].
    """
    indexing = enumerate_vertices(spec, depth)
    offsets = np.array(indexing.offsets)
    sizes = np.array(indexing.sizes)
    g = np.repeat(np.arange(depth), sizes[1:])  # generation of each parent
    position = np.arange(1, indexing.total) - offsets[g + 1]
    return np.concatenate(([-1], offsets[g] + position // (sizes[g + 1] // sizes[g])))


def assemble_delta(spec: TreeSpec, depth: int) -> SymOperator:
    """Pure adjacency operator of the truncated tree (0/1 entries)."""
    parent = _tree_parents(spec, depth)
    return SymOperator(np.zeros(parent.size), parent, np.where(parent >= 0, 1.0, 0.0))


def assemble_delta_tilde(spec: TreeSpec, depth: int) -> SymOperator:
    """Adjacency minus vertex degrees, degrees counted within the truncation.

    Equivalently the negative graph Laplacian of the ball, so the result is
    negative semidefinite and every row sums to zero.  The lone root of
    depth 0 gets the diagonal entry -0.0.
    """
    parent = _tree_parents(spec, depth)
    linked = parent >= 0
    degree = linked + np.bincount(parent[linked], minlength=parent.size)
    return SymOperator(-degree.astype(float), parent, np.where(linked, 1.0, 0.0))


def apply_root_boundary(op: SymOperator, rho: float) -> SymOperator:
    """Subtract tan(rho) from the root diagonal entry (vertex 0).

    rho parametrises the boundary condition of the half-line reduction;
    |rho| must stay below pi/2 so the tangent is finite.
    """
    check_rho(rho)
    if op.size == 0:
        raise ValidationError("op: empty operator")
    diag = op.diag.copy()
    diag[0] -= math.tan(rho)
    return SymOperator(diag, op.parent, op.weight)


def _subtree_classes(op: SymOperator) -> tuple[list[tuple], dict[int, int]]:
    """Classes of equal subtrees, numbered children first, and their sizes.

    Going from the highest vertex down, a vertex's key is its diagonal, its
    squared coupling and its children's classes in elimination order; one
    key means one pivot q(x) and one term w^2/q sent to the parent.
    """
    diag = (op.diag + 0.0).tolist()  # turns -0.0 into +0.0
    w2 = (op.weight * op.weight).tolist()
    parent = op.parent.tolist()
    ids, mult = {}, {}
    kids = {}  # classes of the children eliminated so far, by parent
    for v in range(op.size - 1, -1, -1):
        c = ids.setdefault((diag[v], w2[v], tuple(kids.pop(v, ()))), len(ids))
        mult[c] = mult.get(c, 0) + 1
        if parent[v] >= 0:
            kids.setdefault(parent[v], []).append(c)
    return list(ids), mult


def _count_below(classes, mult, last_reader, x) -> np.ndarray:
    """Number of eigenvalues below each x (Sylvester): sum of mult * [q < 0].

    A class's pivot is q = (d - x) - its children's terms, equal terms still
    added one at a time in elimination order, so q has the bits of the
    per-vertex elimination.  A zero pivot (always +0.0, as no diagonal is
    -0.0) sends +inf to its parent: the limit of a tiny positive pivot.  A
    term is kept until its last reader has added it.
    """
    count = np.zeros(len(x), dtype=np.int64)
    terms = {}
    for c, (d, w2, kids) in enumerate(classes):
        q = d - x
        if kids:
            q -= reduce(np.add, (terms[k] for k in kids))
        count += mult[c] * (q < 0.0)
        if c in last_reader:
            terms[c] = w2 / q
        terms = {k: t for k, t in terms.items() if last_reader[k] > c}
    return count


def forest_eigenvalues(op: SymOperator) -> np.ndarray:
    """Ascending eigenvalues of a SymOperator (a forest), in plain IEEE arithmetic.

    Every eigenvalue is located by bisection of the inertia count on the
    grid j*h, with j an integer, |j| <= 2**GRID_BITS, and h = 2**e / 2**GRID_BITS
    where 2**e is at least twice the Gershgorin bound B (taken with frexp,
    so exactly).  Each pass splits the bracket [lo, hi) of the k-th
    eigenvalue into 2**SECTION_BITS equal parts and keeps the part that
    ends at the first inner point whose count exceeds k (the last part if
    none does), so the count stays at most k at lo and above k at hi; where
    the count is monotone in x this is the cell that halving one bit at a
    time finds.  The eigenvalue is reported as the left end of the final
    cell [j*h, (j+1)*h), so an eigenvalue on the grid, such as an exact 0,
    comes back exactly.  Each computed count is the exact count of a
    matrix whose couplings differ from op's by at most (c + 4)/2 units of
    roundoff, c the number of children of the coupled parent (Demmel,
    Dhillon and Ren, Numer. Math. 1995).  Barring underflow, every
    eigenvalue is therefore within h + (degree + 4) * 2**-53 * B of the
    exact one, degree the largest vertex degree.

    Only IEEE basic operations and integer counts are used: no LAPACK, no
    libm call, no BLAS reduction.  The bits are thus the same on every
    platform, whether or not the floating-point count is monotone in x.

    A count runs over classes of equal subtrees: one pivot per generation
    on a spherically homogeneous tree.  Its work, rows times steps (class
    pivots plus child terms), is refused above WORK_GUARD before any count.
    """
    classes, mult = _subtree_classes(op)
    steps = sum(1 + len(kids) for _, _, kids in classes)
    if op.size * steps > WORK_GUARD:
        raise GuardError(
            f"size: bisection work {op.size} rows x {steps} class steps, guard is {WORK_GUARD}"
        )
    last_reader = {k: c for c, (_, _, kids) in enumerate(classes) for k in kids}
    linked = op.parent >= 0
    radius = np.abs(op.diag) + np.abs(op.weight)  # Gershgorin: own coupling, then children's
    np.add.at(radius, op.parent[linked], np.abs(op.weight[linked]))
    h = math.ldexp(1.0, math.frexp(float(radius.max()))[1] + 1 - GRID_BITS)

    parts = 1 << SECTION_BITS
    inner = np.arange(1, parts)  # inner points of a bracket, in steps
    target = np.arange(op.size)[:, None]  # eigenvalue index
    lo = np.full(op.size, -(1 << GRID_BITS), dtype=np.int64)
    width = 1 << (GRID_BITS + 1)
    with np.errstate(divide="ignore", over="ignore"):
        while width > 1:
            width //= parts
            x = (lo[:, None] + width * inner) * h
            points, back = np.unique(x, return_inverse=True)  # repeated eigenvalues share points
            count = _count_below(classes, mult, last_reader, points)[back]
            above = count.reshape(x.shape) > target
            first = np.where(above.any(axis=1), above.argmax(axis=1), parts - 1)
            lo += first * width
    return np.sort(lo * h)


def eigenvalues_sym(op: SymOperator) -> np.ndarray:
    """All eigenvalues of a SymOperator (a forest), ascending.

    Tridiagonal operators above BISECTION_ROWS rows (long blocks, and trees
    that do not branch inside the truncation) go to LAPACK's tridiagonal
    solver, with bits per LAPACK build; that check comes first.  Every
    other operator goes through forest_eigenvalues: the same bits on every
    platform, with work above WORK_GUARD refused.
    """
    if op.size <= 1:
        return op.diag.copy()
    if op.size > BISECTION_ROWS and op.is_tridiagonal():
        return eigh_tridiagonal(op.diag, op.weight[1:], eigvals_only=True)
    return forest_eigenvalues(op)
