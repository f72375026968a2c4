"""Tree operators and Jacobi blocks as forests, and their eigenvalues.

Vertices of the ball of radius D around the root are indexed breadth
first, generation by generation, so parent indices are pure arithmetic on
generation offsets.  Two tree operators are assembled: the plain
adjacency matrix, and adjacency minus the diagonal of vertex degrees
(degrees counted inside the truncation, so the truncation is a Dirichlet
cut after generation D).  These and the tridiagonal Jacobi blocks are all
forests numbered parents first, which is the one form SymOperator
stores.  Eigenvalues come from bisection of inertia counts on one
power-of-two grid, with one of two counts.  The class count runs over
classes of equal subtrees, not over vertices (on a spherically
homogeneous tree every generation is one class), in plain IEEE
arithmetic, so its bits are the same on every platform.  The stretch
count takes tridiagonal operators above CLASS_COUNT_ROWS rows: it crosses
each run of equal rows, such as a free stretch of a Jacobi block, in
closed form.  No LAPACK routine is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import GuardError, ValidationError
from .jacobi import check_rho
from .trees import TreeSpec, ball_count, generation_size

VERTEX_GUARD = 1_000_000

# Largest tridiagonal operator solved by the class count (forest_eigenvalues);
# longer ones take the stretch count.  A block has one subtree class per
# row, so the class count's work grows as rows**2, and the stretch count's
# as rows times runs.  On a 500-row block the class count took 0.17 s of
# CPU and the stretch count 18 ms; the stretch count took 0.29 s on the
# 10,001-row block of 18 runs in the spectrum-deep benchmark (best of 5,
# 2 cores, Python 3.11, numpy 2.4).  The cap keeps the bits of shorter
# blocks the same on every platform; above it they depend on libm.
CLASS_COUNT_ROWS = 500

# Largest bisection work: rows times class steps (forest_eigenvalues), or
# rows times runs (the stretch count).  A forest has at most 2 * rows - 1
# class steps, so every forest of up to 4,000 rows is accepted.
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


def _bisect(op: SymOperator, count) -> np.ndarray:
    """Ascending eigenvalues of op by bisection of count(x), the number below x.

    Every eigenvalue is located on the grid j*h, with j an integer,
    |j| <= 2**GRID_BITS, and h = 2**e / 2**GRID_BITS where 2**e is at least
    twice the Gershgorin bound B (taken with frexp, so exactly).  Each pass
    splits the bracket [lo, hi) of the k-th eigenvalue into
    2**SECTION_BITS equal parts and keeps the part that ends at the first
    inner point whose count exceeds k (the last part if none does), so the
    count stays at most k at lo and above k at hi; where the count is
    monotone in x this is the cell that halving one bit at a time finds.
    The eigenvalue is reported as the left end of the final cell
    [j*h, (j+1)*h), so an eigenvalue on the grid, such as an exact 0, comes
    back exactly.  If each computed count is the exact count of a matrix
    within distance E of op, every eigenvalue is within h + E of the exact
    one.  Repeated eigenvalues share their points: count sees each once.
    """
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
            points, back = np.unique(x, return_inverse=True)
            above = count(points)[back].reshape(x.shape) > target
            first = np.where(above.any(axis=1), above.argmax(axis=1), parts - 1)
            lo += first * width
    return np.sort(lo * h)


def forest_eigenvalues(op: SymOperator) -> np.ndarray:
    """Ascending eigenvalues of a SymOperator (a forest), in plain IEEE arithmetic.

    Bisection (_bisect) of the inertia count, which runs over classes of
    equal subtrees: one pivot per generation on a spherically homogeneous
    tree.  Each computed count is the exact count of a matrix whose
    couplings differ from op's by at most (c + 4)/2 units of roundoff, c the
    number of children of the coupled parent (Demmel, Dhillon and Ren,
    Numer. Math. 1995).  Barring underflow, every eigenvalue is therefore
    within h + (degree + 4) * 2**-53 * B of the exact one, degree the
    largest vertex degree.

    Only IEEE basic operations and integer counts are used: no LAPACK, no
    libm call, no BLAS reduction.  The bits are thus the same on every
    platform, whether or not the floating-point count is monotone in x.
    The work, rows times steps (class pivots plus child terms), is refused
    above WORK_GUARD before any count.
    """
    classes, mult = _subtree_classes(op)
    steps = sum(1 + len(kids) for _, _, kids in classes)
    if op.size * steps > WORK_GUARD:
        raise GuardError(
            f"size: bisection work {op.size} rows x {steps} class steps, guard is {WORK_GUARD}"
        )
    last_reader = {k: c for c, (_, _, kids) in enumerate(classes) for k in kids}
    return _bisect(op, partial(_count_below, classes, mult, last_reader))


def _runs(op: SymOperator) -> list[tuple[float, float, int]]:
    """A tridiagonal op as maximal runs (d, w, rows) of rows with equal diag and coupling.

    w is the coupling's magnitude: the signs of the couplings do not change
    the eigenvalues (a sign flip still starts a run).  A row with w = 0
    starts a fresh pivot and is a run of its own.  The stretch count's work, rows times runs, is refused above
    WORK_GUARD before the runs are listed.
    """
    diag, weight = op.diag, op.weight
    start = np.ones(op.size, dtype=bool)
    start[1:] = (diag[1:] != diag[:-1]) | (weight[1:] != weight[:-1]) | (weight[1:] == 0.0)
    first = np.flatnonzero(start)
    if op.size * first.size > WORK_GUARD:
        raise GuardError(
            f"size: stretch-count work {op.size} rows x {first.size} runs, guard is {WORK_GUARD}"
        )
    d = (diag[first] + 0.0).tolist()  # turns -0.0 into +0.0
    return list(zip(d, np.abs(weight[first]).tolist(), np.diff(first, append=op.size).tolist()))


# Stands in for w/q at a zero pivot q: the limit of a tiny positive pivot.
_HUGE = 2.0**1000


class _Stretch:
    """One pass's angles for the runs of one (d, w), from c = (d - x)/(2w).

    Inside the band, |c| < 1, c = cos(phi); outside, |c| = cosh(mu) and
    sign is the sign of c.  Points outside get the dummy angle pi/2 in the
    band arrays, and their band results are overwritten.
    """

    def __init__(self, c: np.ndarray) -> None:
        inside = np.abs(c) < 1.0
        self.cos = np.where(inside, c, 0.0)
        self.sin = np.sqrt((1.0 - self.cos) * (1.0 + self.cos))
        self.phi = np.arctan2(self.sin, self.cos)
        self.out = np.flatnonzero(~inside)
        self.sign = np.sign(c[self.out])
        self.mu = np.arccosh(np.abs(c[self.out]))
        self.g = np.exp(self.mu)
        self.sinh2 = self.g - 1.0 / self.g  # 2 sinh(mu)

    def cross(self, q: np.ndarray, w: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Negative pivots of a run of m >= 2 rows entered with pivot q, and its last pivot.

        The run's pivots are w*u_j/u_{j-1}, j = 1..m, where
        u_{j+1} = 2c*u_j - u_{j-1}, u_0 = 1 and u_{-1} = r = w/q, so its
        negative pivots are the sign changes of u_0..u_m.  Inside the band
        u_j is proportional to sin(beta + j*phi) with beta in [0, pi]: the
        count is the number of positive multiples of pi below
        theta = beta + m*phi, and the last pivot is w/(cos - sin*cot(theta)).
        Outside, v_j = sign**j * u_j = g**j * W_j with g = e**mu and
        W_j = 1 - (sign*r - 1/g) * (1 - g**(-2j)) / (2 sinh(mu)), or
        W_j = 1 + j*(1 - sign*r) at mu = 0, which changes sign at most
        once: the count is [W_m < 0] for sign > 0 and m - [W_m <= 0] for
        sign < 0.  theta is reduced by whole turns before cot is taken, so
        its sign and the count agree.  q is never -0.0, and the last pivot
        is returned with -0.0 turned into +0.0: a zero pivot is positive.
        """
        r = np.clip(w / q, -_HUGE, _HUGE)
        beta = np.pi / 2 - np.arctan((self.cos - r) / self.sin)
        theta = beta + m * self.phi
        turns = np.floor(theta * (1 / np.pi))
        rest = theta - turns * np.pi
        crossed = turns - 1.0 + np.ceil(rest * (1 / np.pi))
        last = w / (self.cos - self.sin / np.tan(rest))
        if self.out.size:
            o, mu, g = self.out, self.mu, self.g
            t = self.sign * r[o] - 1.0 / g
            s_prev = np.divide(
                -np.expm1(-2.0 * (m - 1) * mu), self.sinh2, out=np.full(o.size, m - 1.0), where=mu > 0.0
            )
            w_prev = 1.0 - t * s_prev
            w_last = w_prev - t * np.exp((1 - 2 * m) * mu)
            crossed[o] = np.where(self.sign > 0.0, w_last < 0.0, m - (w_last <= 0.0))
            # 0/0 only where g**(1 - 2m) underflows at the repelling fixed point,
            # sign*r = g: a nearby start ends at the attracting one, ratio 1
            ratio = np.divide(w_last, w_prev, out=np.ones(o.size), where=(w_prev != 0.0) | (w_last != 0.0))
            last[o] = self.sign * w * g * ratio
        return crossed, last + 0.0


def _count_stretches(runs: list[tuple[float, float, int]], x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each x (Sylvester), counted run by run.

    Pivots go from row 0 on: q = (d - x) - w**2/q_prev, and q = d - x
    where w = 0.  A one-row run takes that plain step, the class count's
    operation; a longer run is crossed in closed form (_Stretch.cross),
    with its angles computed once per pass for each distinct (d, w).
    """
    count = np.zeros(len(x))
    shift = {d: d - x for d in {d for d, _, _ in runs}}
    stretches = {}
    for d, w, m in runs:  # the first run is row 0, with w = 0
        if w == 0.0:
            q = shift[d]
        elif m == 1:
            q = shift[d] - w * w / q
        else:
            if (d, w) not in stretches:
                stretches[d, w] = _Stretch(shift[d] / (2.0 * w))
            crossed, q = stretches[d, w].cross(q, w, m)
            count += crossed
            continue
        count += q < 0.0
    return count.astype(np.int64)


def eigenvalues_sym(op: SymOperator) -> np.ndarray:
    """All eigenvalues of a SymOperator (a forest), ascending.

    Trees, and tridiagonal operators of up to CLASS_COUNT_ROWS rows, go
    through forest_eigenvalues: the same bits on every platform, with work
    above WORK_GUARD refused.  Longer tridiagonal operators (long blocks,
    and trees that do not branch inside the truncation) are bisected
    (_bisect) on the stretch count, _count_stretches, whose work, rows
    times runs, is refused above WORK_GUARD (_runs) before any count.  Its
    closed forms call libm (arctan, arctan2, tan, arccosh, exp, expm1), so
    those bits are the platform's.  To first order, with libm within 2
    units in the last place, each of its counts is the exact count of a
    matrix whose entries differ from op's by at most about 50 * 2**-53 * B;
    every eigenvalue is stated to be within h + 2**-46 * B of the exact
    one, a bound the tests check against 40-digit counts.
    """
    if op.size <= 1:
        return op.diag.copy()
    if op.size <= CLASS_COUNT_ROWS or not op.is_tridiagonal():
        return forest_eigenvalues(op)
    return _bisect(op, partial(_count_stretches, _runs(op)))
