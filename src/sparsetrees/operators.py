"""Tree operators and Jacobi blocks as forests, and their eigenvalues.

Vertices of the ball of radius D around the root are indexed breadth
first, generation by generation, so parent indices are pure arithmetic on
generation offsets, summed from the generation sizes in the spec's one
table (TreeSpec.prefix_products).  Two tree operators are assembled: the
plain adjacency matrix, and adjacency minus the diagonal of vertex degrees
(degrees counted inside the truncation, so the truncation is a Dirichlet
cut after generation D).  These and the tridiagonal Jacobi blocks are all
forests numbered parents first, which is the one form SymOperator
stores.  Eigenvalues come from bisection of inertia counts, component by
component, each on a power-of-two grid of its own, with one of two
counts.  The class count runs over classes of equal subtrees, not over
vertices (on a spherically homogeneous tree every generation is one
class, and the Jacobi blocks of one tree share their tails), in plain
IEEE arithmetic, so its bits are the same on every platform; all
components but long chains share one sweep of it per pass.  The stretch
count takes each chain of more than CLASS_COUNT_ROWS rows alone: it
crosses each run of equal rows, such as a free stretch of a Jacobi
block, in closed form.  No LAPACK routine is called.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import GuardError, ValidationError
from .jacobi import check_rho
from .trees import TreeSpec, ball_count

VERTEX_GUARD = 1_000_000

# Longest chain component solved by the class count (forest_eigenvalues);
# longer ones take the stretch count.  A lone block has one subtree class
# per row, so the class count's work grows as rows**2, and the stretch
# count's as rows times runs.  On a 500-row block the class count took 0.07 s of
# CPU and the stretch count 9 ms; the stretch count took 0.09 s on the
# 10,001-row block of 18 runs in the spectrum-deep benchmark (best of 5,
# one pinned CPU of a 2-core Xeon, Python 3.11, numpy 2.4).  The cap keeps
# the bits of shorter blocks the same on every platform; above it they
# depend on libm.
CLASS_COUNT_ROWS = 500

# Largest bisection work: the rows of the components solved times class
# steps (forest_eigenvalues), or a chain's rows times its runs (the stretch
# count).  A forest has at most 2 * rows - 1 class steps, so every forest
# of up to 4,000 rows is accepted.
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

    Generation j has sizes[j] = prefix_products[number of L_n < j]
    vertices, numbered from offsets[j].  The child at position i of
    generation g + 1 has parent offsets[g] + i // kappa(g), where
    kappa(g) = sizes[g + 1] // sizes[g].  More than VERTEX_GUARD vertices
    are refused before anything is allocated.
    """
    total = ball_count(spec, depth)
    if total > VERTEX_GUARD:
        raise GuardError(f"depth: truncation holds {total} vertices, guard is {VERTEX_GUARD}")
    cut = bisect_left(spec.branch_levels, depth)  # branchings below generation depth
    below = np.searchsorted(spec.branch_levels[:cut], np.arange(depth + 1))
    sizes = np.array(spec.prefix_products[: cut + 1])[below]
    offsets = np.cumsum(sizes) - sizes
    g = np.repeat(np.arange(depth), sizes[1:])  # generation of each parent
    position = np.arange(1, total) - offsets[g + 1]
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


def _subtree_classes(op: SymOperator, vertices) -> tuple[list[tuple], dict[int, int], list[int], list[float]]:
    """Classes of equal subtrees among vertices, whole components listed highest first.

    Classes are numbered children first.  A vertex's key is its diagonal,
    the magnitude of its coupling and its children's classes in
    elimination order; one key means one pivot q(x), one term w^2/q sent to
    the parent and one subtree, with its rows and its Gershgorin bound (the
    largest absolute row sum in it, each summed as the rows are numbered).
    Returns the classes as (d, w^2, kids), the class of each root vertex,
    highest root first, and the rows and bound of each class.
    """
    diag = (op.diag + 0.0).tolist()  # turns -0.0 into +0.0
    coupling = np.abs(op.weight).tolist()
    parent = op.parent.tolist()
    ids, keys, rows, bound, tops = {}, [], [], [], {}
    kids = {}  # classes of the children eliminated so far, by parent
    for v in vertices:
        key = (diag[v], coupling[v], tuple(kids.pop(v, ())))
        c = ids.setdefault(key, len(keys))
        if c == len(keys):
            keys.append(key)
            d, w, below = key
            radius = abs(d) + w  # own coupling, then the children's, lowest first
            for k in reversed(below):
                radius += keys[k][1]
            rows.append(1 + sum(rows[k] for k in below))
            bound.append(max([radius, *(bound[k] for k in below)]))
        if parent[v] >= 0:
            kids.setdefault(parent[v], []).append(c)
        else:
            tops[v] = c
    return [(d, w * w, below) for d, w, below in keys], tops, rows, bound


def _count_below(classes, last_reader, picks, points, back) -> np.ndarray:
    """Eigenvalues of each bracket's component below its points (Sylvester).

    points are the pass's distinct points, and back[i] the indices of
    bracket i's points among them.  A class's pivot is q = (d - x) - its
    children's terms, equal terms still added one at a time in elimination
    order, so q has the bits of the per-vertex elimination.  A zero pivot
    (always +0.0, as no diagonal is -0.0) sends +inf to its parent: the
    limit of a tiny positive pivot.  The class's subtree count, [q < 0]
    plus its children's counts, goes up with its term, and at a root class
    it is the count of that class's components: it goes at once to their
    brackets, picks[c].  A root class sends no term (w^2/q would be 0/0 at
    q = 0).  A term and a count are kept until their last reader has added
    them.
    """
    count = np.empty(back.shape, dtype=np.int64)
    sent = {}  # class -> (term, subtree count)
    for c, (d, w2, kids) in enumerate(classes):
        q = d - points
        if kids:
            q -= reduce(np.add, (sent[k][0] for k in kids))
        below = (q < 0.0).astype(np.int64)
        for k in kids:
            below += sent[k][1]
        if c in picks:
            count[picks[c]] = below[back[picks[c]]]
        else:
            sent[c] = (w2 / q, below)
        for k in set(kids):
            if last_reader[k] == c:
                del sent[k]
    return count


def _bisect(sizes: list[int], bounds: list[float], count) -> list[np.ndarray]:
    """Ascending eigenvalues of components by bisection of count, the number below x.

    Component i has sizes[i] rows, and its eigenvalues are located on its
    own grid j*h, with j an integer, |j| <= 2**GRID_BITS, and
    h = 2**e / 2**GRID_BITS where 2**e is at least twice its Gershgorin
    bound bounds[i] (taken with frexp, so exactly).  Each pass splits the
    bracket [lo, hi) of the component's k-th eigenvalue into
    2**SECTION_BITS equal parts and keeps the part that ends at the first
    inner point whose count exceeds k (the last part if none does), so the
    count stays at most k at lo and above k at hi; where the count is
    monotone in x this is the cell that halving one bit at a time finds.
    The eigenvalue is reported as the left end of the final cell
    [j*h, (j+1)*h), so an eigenvalue on the grid, such as an exact 0, comes
    back exactly.  If each computed count is the exact count of a matrix
    within distance E of the component, every eigenvalue is within h + E
    of the exact one.  count(points, back) gets the pass's distinct points
    and, for every bracket, the indices back of its inner points among
    them, and returns the number of the bracket's component's eigenvalues
    below each, so repeated eigenvalues, and components whose grids meet,
    share their points.  The bits of a component's eigenvalues are those
    of solving it alone.
    """
    parts = 1 << SECTION_BITS
    inner = np.arange(1, parts)  # inner points of a bracket, in steps
    steps = [math.ldexp(1.0, math.frexp(b)[1] + 1 - GRID_BITS) for b in bounds]
    # a grid step per bracket; one component keeps a scalar, as lean as before
    h = steps[0] if len(sizes) == 1 else np.repeat(steps, sizes)[:, None]
    target = np.concatenate([np.arange(n) for n in sizes])[:, None]  # index in its component
    lo = np.full(len(target), -(1 << GRID_BITS), dtype=np.int64)
    width = 1 << (GRID_BITS + 1)
    with np.errstate(divide="ignore", over="ignore"):
        while width > 1:
            width //= parts
            x = (lo[:, None] + width * inner) * h
            points, back = np.unique(x, return_inverse=True)
            above = count(points, back.reshape(x.shape)) > target
            first = np.where(above.any(axis=1), above.argmax(axis=1), parts - 1)
            lo += first * width
    return [np.sort(v) for v in np.split(lo * np.ravel(h), np.cumsum(sizes)[:-1])]


def forest_eigenvalues(op: SymOperator, skip=()) -> dict[int, np.ndarray]:
    """Ascending eigenvalues of each component of a SymOperator (a forest), by root vertex.

    Components that start at the rows given as (first row, rows) in skip
    are left out.  Every other component is bisected (_bisect) on its own
    grid, and all of them share one inertia count per pass, which runs
    over classes of equal subtrees: one pivot per generation on a
    spherically homogeneous tree, and, for Jacobi blocks that are tails of
    one another, one per row of the longest plus one per other block's top
    row.  Equal components are solved once.  Each computed count is the exact count of a matrix whose
    couplings differ from op's by at most (c + 4)/2 units of roundoff, c
    the number of children of the coupled parent (Demmel, Dhillon and Ren,
    Numer. Math. 1995).  Barring underflow, every eigenvalue is therefore
    within h + (degree + 4) * 2**-53 * B of the exact one, degree the
    largest vertex degree and B the Gershgorin bound of its component.

    Only IEEE basic operations and integer counts are used: no LAPACK, no
    libm call, no BLAS reduction.  The bits are thus the same on every
    platform, whether or not the floating-point count is monotone in x,
    and a component's bits do not depend on the other components.  The
    work, the rows of the components solved times the steps (class pivots
    plus child terms), is refused above WORK_GUARD before any count; a
    pass holds a few arrays of 3 points per row solved.
    """
    if skip:
        rest = np.ones(op.size, dtype=bool)
        for first, rows in skip:
            rest[first : first + rows] = False
        vertices = np.flatnonzero(rest)[::-1].tolist()
    else:
        vertices = range(op.size - 1, -1, -1)
    classes, tops, rows, bounds = _subtree_classes(op, vertices)
    solved = list(dict.fromkeys(tops.values()))  # root classes, each solved once
    sizes = [rows[c] for c in solved]
    steps = sum(1 + len(kids) for _, _, kids in classes)
    if sum(sizes) * steps > WORK_GUARD:
        raise GuardError(
            f"size: bisection work {sum(sizes)} rows x {steps} class steps, guard is {WORK_GUARD}"
        )
    if not solved:
        return {}
    last_reader = {k: c for c, (_, _, kids) in enumerate(classes) for k in kids}
    ends = np.cumsum(sizes).tolist()
    picks = {c: slice(end - size, end) for c, size, end in zip(solved, sizes, ends)}
    count = partial(_count_below, classes, last_reader, picks)
    evs = dict(zip(solved, _bisect(sizes, [bounds[c] for c in solved], count)))
    return {v: evs[c] for v, c in reversed(tops.items())}


def _runs(diag: np.ndarray, weight: np.ndarray) -> list[tuple[float, float, int]]:
    """A chain's rows as maximal runs (d, w, rows) of rows with equal diag and coupling.

    w is the coupling's magnitude: the signs of the couplings do not change
    the eigenvalues (a sign flip still starts a run).  A row with w = 0
    starts a fresh pivot and is a run of its own.  The stretch count's
    work, rows times runs, is refused above WORK_GUARD before the runs are
    listed.
    """
    start = np.ones(len(diag), dtype=bool)
    start[1:] = (diag[1:] != diag[:-1]) | (weight[1:] != weight[:-1]) | (weight[1:] == 0.0)
    first = np.flatnonzero(start)
    if len(diag) * first.size > WORK_GUARD:
        raise GuardError(
            f"size: stretch-count work {len(diag)} rows x {first.size} runs, guard is {WORK_GUARD}"
        )
    d = (diag[first] + 0.0).tolist()  # turns -0.0 into +0.0
    return list(zip(d, np.abs(weight[first]).tolist(), np.diff(first, append=len(diag)).tolist()))


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
        sin = 1.0 - self.cos
        sin *= 1.0 + self.cos
        self.sin = np.sqrt(sin, out=sin)
        self.phi = np.arctan2(self.sin, self.cos)
        self.out = np.flatnonzero(~inside)
        self.sign = np.sign(c[self.out])
        self.mu = np.arccosh(np.abs(c[self.out]))
        self.g = np.exp(self.mu)
        self.sinh2 = self.g - 1.0 / self.g  # 2 sinh(mu)

    def cross(self, q: np.ndarray, count: np.ndarray, w: float, m: int, a: np.ndarray, b: np.ndarray) -> None:
        """Cross a run of m >= 2 rows entered with pivot q: q becomes its last
        pivot, and its negative pivots are added to count.

        The pass runs in place: every step over all points writes into q
        or the scratch arrays a and b, all of the points' length, so a
        crossing allocates only arrays of the points outside the band.
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
        its sign and the count agree.  The run's count is an integer-valued
        float far below 2**53, so adding it straight into count is exact.
        q is never -0.0, and the last pivot is left with -0.0 turned into
        +0.0: a zero pivot is positive.
        """
        r = np.clip(np.divide(w, q, out=a), -_HUGE, _HUGE, out=a)
        r_out = r[self.out]
        np.subtract(self.cos, r, out=a)
        np.divide(a, self.sin, out=a)
        beta = np.subtract(np.pi / 2, np.arctan(a, out=a), out=a)
        theta = np.add(beta, np.multiply(m, self.phi, out=b), out=a)
        turns = np.floor(np.multiply(theta, 1 / np.pi, out=b), out=b)
        rest = np.subtract(theta, np.multiply(turns, np.pi, out=q), out=a)
        crossed = np.subtract(turns, 1.0, out=b)
        crossed += np.ceil(np.multiply(rest, 1 / np.pi, out=q), out=q)
        np.divide(self.sin, np.tan(rest, out=a), out=a)
        np.divide(w, np.subtract(self.cos, a, out=a), out=q)  # last pivot
        if self.out.size:
            o, mu, g = self.out, self.mu, self.g
            t = self.sign * r_out - 1.0 / g
            s_prev = np.divide(
                -np.expm1(-2.0 * (m - 1) * mu), self.sinh2, out=np.full(o.size, m - 1.0), where=mu > 0.0
            )
            w_prev = 1.0 - t * s_prev
            w_last = w_prev - t * np.exp((1 - 2 * m) * mu)
            crossed[o] = np.where(self.sign > 0.0, w_last < 0.0, m - (w_last <= 0.0))
            # 0/0 only where g**(1 - 2m) underflows at the repelling fixed point,
            # sign*r = g: a nearby start ends at the attracting one, ratio 1
            ratio = np.divide(w_last, w_prev, out=np.ones(o.size), where=(w_prev != 0.0) | (w_last != 0.0))
            q[o] = self.sign * w * g * ratio
        count += crossed
        np.add(q, 0.0, out=q)


def _count_stretches(runs: list[tuple[float, float, int]], x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each x (Sylvester), counted run by run.

    Pivots go from row 0 on: q = (d - x) - w**2/q_prev, and q = d - x
    where w = 0.  A one-row run takes that plain step, the class count's
    operation; a longer run is crossed in closed form (_Stretch.cross),
    with its angles computed once per pass for each distinct (d, w).  The
    pass runs in arrays of x's length allocated once per call: the pivot
    q, two scratch arrays, the float count, and d - x for each distinct d,
    which no step writes to, and x is left as it is.  Each step writes
    into q with the operations, in the order, of the plain expressions, so
    the pivots keep their bits; the count sums integers, exact in any
    grouping.
    """
    count = np.zeros(len(x))
    q, a, b = np.empty(len(x)), np.empty(len(x)), np.empty(len(x))
    shift = {d: d - x for d in {d for d, _, _ in runs}}
    stretches = {}
    for d, w, m in runs:  # the first run is row 0, with w = 0
        if w == 0.0:
            np.copyto(q, shift[d])
        elif m == 1:
            np.subtract(shift[d], np.divide(w * w, q, out=q), out=q)
        else:
            if (d, w) not in stretches:
                stretches[d, w] = _Stretch(shift[d] / (2.0 * w))
            stretches[d, w].cross(q, count, w, m, a, b)
            continue
        count += np.less(q, 0.0, out=a)
    return count.astype(np.int64)


def _stretch_count(runs, points, back) -> np.ndarray:
    """_count_stretches at a chain's brackets, in _bisect's form."""
    return _count_stretches(runs, points)[back]


def _long_chains(op: SymOperator) -> list[tuple[int, int]]:
    """(first row, rows) of each component that is a chain of more than CLASS_COUNT_ROWS rows.

    A chain is numbered in order: each row after its first hangs from the
    row before.  Between two rows that do not hang from the row before
    lies a run of the forest; a run is such a chain when it starts at a
    root and no row after it hangs from any of its rows.
    """
    if op.size <= CLASS_COUNT_ROWS:
        return []
    stop = np.flatnonzero(op.parent != np.arange(-1, op.size - 1))  # row 0 hangs from -1
    first = np.concatenate(([0], stop))
    rows = np.diff(first, append=op.size)
    chain = (op.parent[first] < 0) & (rows > CLASS_COUNT_ROWS)
    hung = op.parent[stop]
    chain[np.searchsorted(first, hung[hung >= 0], side="right") - 1] = False
    return list(zip(first[chain].tolist(), rows[chain].tolist()))


def component_eigenvalues(op: SymOperator) -> list[np.ndarray]:
    """Ascending eigenvalues of each component of a SymOperator (a forest), in the order of their roots.

    A component that is a chain of more than CLASS_COUNT_ROWS rows,
    numbered in order (a long block, or a tree that does not branch inside
    the truncation), is bisected (_bisect) alone on the stretch count,
    _count_stretches, whose work, rows times runs, is refused above
    WORK_GUARD (_runs).  Its closed forms call libm (arctan, arctan2, tan,
    arccosh, exp, expm1), so those bits are the platform's.  To first
    order, with libm within 2 units in the last place, each of its counts
    is the exact count of a matrix whose entries differ from the chain's
    by at most about 50 * 2**-53 * B; every eigenvalue is stated to be
    within h + 2**-46 * B of the exact one, a bound the tests check
    against 40-digit counts.  Every other component goes through one
    forest_eigenvalues sweep: the same bits on every platform.  Each
    component is solved on its own grid, so its bits are those of solving
    it alone, and all work is refused before any count.  An operator of
    one row is its own eigenvalue.
    """
    if op.size <= 1:
        return [op.diag.copy()]
    chains = _long_chains(op)
    runs = [_runs(op.diag[a : a + n], op.weight[a : a + n]) for a, n in chains]
    solved = forest_eigenvalues(op, chains)
    for (a, n), chain_runs in zip(chains, runs):
        diag, weight = op.diag[a : a + n], op.weight[a : a + n]
        radius = np.abs(diag) + np.abs(weight)  # Gershgorin: own coupling, then the child's
        radius[:-1] += np.abs(weight[1:])
        count = partial(_stretch_count, chain_runs)
        (solved[a],) = _bisect([n], [float(radius.max())], count)
    return [solved[root] for root in sorted(solved)]


def eigenvalues_sym(op: SymOperator) -> np.ndarray:
    """All eigenvalues of a SymOperator (a forest), ascending: those of component_eigenvalues."""
    parts = component_eigenvalues(op)
    return parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
