"""Slow reference routes that the tests hold the package to.

Nothing here is collected as a test.  The package crosses a free stretch in
one closed form, the phase flow `transfer.efgp_run`; this module keeps the
routes that check it from outside:

* 2x2 matrices with a tracked determinant and log scale (`Mat2`), and the
  least-stretched direction of one (`min_singular_direction`);
* the coefficients read site by site (`SiteCoefficients`), the one-step
  transfer matrix, the recursion solved site by site and the phase map of
  a solution (`step_matrix`, `solve_u`, `efgp_transform`, `phase_to_pair`);
* the site-by-site inverse-square transfer sum of Simon and Stolz;
* the per-bump kick evaluated from its coefficients, from the bump
  matrix itself, and as log |G v| at 400 digits (`kick_error_units`);
* the transfer matrix at every checkpoint from two phase-flow runs
  (`checkpoint_transfers`);
* the stretch count's run crossing written as plain array expressions,
  each step a fresh array (`plain_cross`), which the in-place crossing
  must match bit for bit;
* the bisection with one bracket per eigenvalue (`per_eigenvalue_bisect`),
  which the bisection of clusters must match bit for bit, and the split of
  cluster rows after a pass taken one target at a time (`per_row_split`).

Site indexing follows `sparsetrees.transfer`: u(0) is the boundary ghost
value, and a transfer matrix at step j maps (u(j), u(j-1)) to
(u(j+1), u(j)).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import mpmath as mp
import numpy as np

from sparsetrees.errors import ValidationError
from sparsetrees.jacobi import ADJACENCY, DEGREE, check_rho, check_variant
from sparsetrees.operators import GRID_BITS, SECTION_BITS
from sparsetrees.phase import PhaseReducer
from sparsetrees.transfer import (
    bump_coefficients,
    bump_matrix,
    check_phi,
    efgp_run,
    stretch_gaps,
)

_TWO_PI = 2.0 * math.pi
_RENORM_LIMIT = 1e100
# A matrix whose QR split has r <= ISOTROPY_TOL * q has singular values too
# close together for a least-stretched direction to mean anything.
ISOTROPY_TOL = 1e-8


# ---------------------------------------------------------------------------
# 2x2 matrices with tracked determinant and log scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix stored as exp(log_scale) * [[m11, m12], [m21, m22]].

    `det` is the determinant of the mantissa entries.  For products it is
    accumulated factor by factor rather than recomputed from the product
    entries, because the entries of a long product lose the determinant to
    cancellation while the factor-wise value stays exact.  The determinant
    of the full matrix is det * exp(2 * log_scale).
    """

    m11: float
    m12: float
    m21: float
    m22: float
    log_scale: float = 0.0
    det: float | None = None

    def __post_init__(self) -> None:
        if self.det is None:
            object.__setattr__(self, "det", self.m11 * self.m22 - self.m12 * self.m21)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)

    @property
    def entries(self) -> np.ndarray:
        """Mantissa entries as a 2x2 array (scale not applied)."""
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @property
    def det_from_entries(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def det_residual(self) -> float:
        """Relative disagreement between tracked and recomputed determinant."""
        scale = max(abs(self.det), abs(self.det_from_entries), 1e-300)
        return abs(self.det - self.det_from_entries) / scale

    def __matmul__(self, other: Mat2) -> Mat2:
        p11 = self.m11 * other.m11 + self.m12 * other.m21
        p12 = self.m11 * other.m12 + self.m12 * other.m22
        p21 = self.m21 * other.m11 + self.m22 * other.m21
        p22 = self.m21 * other.m12 + self.m22 * other.m22
        det = self.det * other.det
        scale = self.log_scale + other.log_scale
        peak = max(abs(p11), abs(p12), abs(p21), abs(p22))
        if peak > _RENORM_LIMIT:
            p11 /= peak
            p12 /= peak
            p21 /= peak
            p22 /= peak
            det /= peak * peak
            scale += math.log(peak)
        return Mat2(p11, p12, p21, p22, scale, det)

    def apply(self, v: Sequence[float]) -> tuple[float, float]:
        """Mantissa times v; the caller is responsible for log_scale."""
        return (
            self.m11 * v[0] + self.m12 * v[1],
            self.m21 * v[0] + self.m22 * v[1],
        )

    def _qr_split(self) -> tuple[float, float]:
        e = (self.m11 + self.m22) / 2.0
        f = (self.m11 - self.m22) / 2.0
        g = (self.m21 + self.m12) / 2.0
        h = (self.m21 - self.m12) / 2.0
        return math.hypot(e, h), math.hypot(f, g)

    def singular_values(self) -> tuple[float, float]:
        """(sigma_max, sigma_min) of the mantissa entries."""
        q, r = self._qr_split()
        return q + r, abs(q - r)

    def log_singular_values(self) -> tuple[float, float]:
        """(log sigma_max, log sigma_min) of the full scaled matrix."""
        smax, smin = self.singular_values()
        log_max = math.log(smax) + self.log_scale if smax > 0.0 else -math.inf
        log_min = math.log(smin) + self.log_scale if smin > 0.0 else -math.inf
        return log_max, log_min

    def log_norm(self) -> float:
        """log of the spectral norm of the full scaled matrix."""
        return self.log_singular_values()[0]


@dataclass(frozen=True)
class MinSingularDirection:
    """Least-stretched input direction of a transfer matrix.

    `vector` is the unit right singular vector for the smallest singular
    value, i.e. the initial datum (u(1), u(0)) whose solution the matrix
    amplifies least.  When the two singular values coincide to within the
    isotropy tolerance (ISOTROPY_TOL) the direction is meaningless and
    `isotropic` is set.
    """

    vector: tuple[float, float]
    sigma_max: float
    sigma_min: float
    log_sigma_max: float
    log_sigma_min: float
    isotropic: bool

    @property
    def sigma_product(self) -> float:
        return math.exp(self.log_sigma_max + self.log_sigma_min)


def min_singular_direction(mat: Mat2) -> MinSingularDirection:
    """Smallest-singular-value right direction of `mat`, with both sigmas.

    The direction is taken perpendicular to the dominant right singular
    vector (an eigenvector of M^T M for the larger eigenvalue), which is the
    numerically well-conditioned one when the matrix is far from isotropic.
    """
    a, b, c, d = mat.m11, mat.m12, mat.m21, mat.m22
    b11 = a * a + c * c
    b22 = b * b + d * d
    b12 = a * b + c * d
    disc = math.hypot((b11 - b22) / 2.0, b12)
    lam_max = (b11 + b22) / 2.0 + disc

    cand1 = (b12, lam_max - b11)
    cand2 = (lam_max - b22, b12)
    n1 = math.hypot(*cand1)
    n2 = math.hypot(*cand2)
    if max(n1, n2) == 0.0:
        v_max = (1.0, 0.0)
    elif n1 >= n2:
        v_max = (cand1[0] / n1, cand1[1] / n1)
    else:
        v_max = (cand2[0] / n2, cand2[1] / n2)
    v_min = (-v_max[1], v_max[0])

    q, r = mat._qr_split()
    log_max, log_min = mat.log_singular_values()
    return MinSingularDirection(
        vector=v_min,
        sigma_max=math.exp(log_max),
        sigma_min=math.exp(log_min),
        log_sigma_max=log_max,
        log_sigma_min=log_min,
        isotropic=r <= ISOTROPY_TOL * q,
    )


# ---------------------------------------------------------------------------
# Site-by-site coefficients, steps and solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteCoefficients:
    """Jacobi coefficients a(j), b(j) read site by site, with a boundary rho.

    positions: strictly increasing bump sites (a(position) != 1).
    values: a at each bump.
    diag_bumps: b at each bump in the degree variant, where b is -2 off the
    bumps (ignored in the adjacency variant, where b is zero).
    rho adds -tan(rho) to b(1), as `operators.apply_root_boundary` does to
    a cut block's first row.
    """

    positions: tuple[int, ...]
    values: tuple[float, ...]
    variant: str = ADJACENCY
    diag_bumps: tuple[float, ...] = ()
    rho: float = 0.0

    def __post_init__(self) -> None:
        check_variant(self.variant)
        check_rho(self.rho)

    @classmethod
    def free(cls, rho: float = 0.0) -> SiteCoefficients:
        """The free half-line operator: a = 1, b = 0 (plus the boundary)."""
        return cls((), (), rho=rho)

    @classmethod
    def for_tree_block(cls, spec, variant: str = ADJACENCY, rho: float = 0.0) -> SiteCoefficients:
        """The root block of a tree, in the paper's closed form.

        Site j sits at generation j - 1, so branching m puts a bump at
        j = L_m + 1 with weight sqrt(k_m).  In the degree variant the
        diagonal is -2 off the bumps and -(k_m + 1) on them: minus the
        degree of a site that has a parent.
        """
        positions = tuple(lv + 1 for lv in spec.branch_levels)
        values = tuple(math.sqrt(k) for k in spec.branch_factors)
        diag = tuple(-float(k + 1) for k in spec.branch_factors) if variant == DEGREE else ()
        return cls(positions, values, variant, diag, rho)

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


def step_matrix(coeffs: SiteCoefficients, energy: float, j: int) -> Mat2:
    """One-step transfer matrix at site j: (u(j), u(j-1)) -> (u(j+1), u(j))."""
    if j < 1:
        raise ValidationError("j: transfer steps start at site 1")
    aj = coeffs.a(j)
    return Mat2(
        (energy - coeffs.b(j)) / aj,
        -coeffs.a(j - 1) / aj,
        1.0,
        0.0,
        0.0,
        coeffs.a(j - 1) / aj,
    )


def transfer_product(coeffs: SiteCoefficients, energy: float, j_hi: int, j_lo: int = 0) -> Mat2:
    """The product S(j_hi) ... S(j_lo + 1) of one-step matrices, in O(j_hi - j_lo).

    Maps data at j_lo to data at j_hi; with j_lo = 0 it is the full transfer
    matrix from the boundary, whose determinant is 1 / a(j_hi).
    """
    mat = Mat2.identity()
    for j in range(j_lo + 1, j_hi + 1):
        mat = step_matrix(coeffs, energy, j) @ mat
    return mat


def solve_u(
    coeffs: SiteCoefficients,
    energy: float,
    length: int,
    init: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Solve the three-term recursion site by site.

    Returns the array u(0..length) for the generalized eigenvalue equation
    at `energy`, starting from init = (u(0), u(1)).
    """
    if length < 1:
        raise ValidationError("length: must be at least 1")
    u = np.empty(length + 1)
    u[0], u[1] = init
    for j in range(1, length):
        u[j + 1] = ((energy - coeffs.b(j)) * u[j] - coeffs.a(j - 1) * u[j - 1]) / coeffs.a(j)
    return u


def efgp_transform(u: Sequence[float], phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Map a solution array to polar phase coordinates at E = 2 cos(phi).

    Entry i of the returned (radius, angle) arrays describes site j = i + 1
    via r cos(theta) = u(j) - cos(phi) u(j-1) and r sin(theta) =
    sin(phi) u(j-1).  On free stretches the radius is constant and the
    angle advances by exactly phi per site.
    """
    check_phi(phi)
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("u: need a one-dimensional array with at least 2 entries")
    x = arr[1:] - math.cos(phi) * arr[:-1]
    y = math.sin(phi) * arr[:-1]
    radius = np.hypot(x, y)
    angle = np.mod(np.arctan2(y, x), _TWO_PI)
    return radius, angle


def phase_to_pair(theta: float, phi: float, radius: float = 1.0) -> tuple[float, float]:
    """Invert the phase map: returns (u(j), u(j-1)) for the given angle."""
    check_phi(phi)
    s = math.sin(phi)
    return (radius * math.sin(phi + theta) / s, radius * math.sin(theta) / s)


# ---------------------------------------------------------------------------
# Simon-Stolz sum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimonStolzProfile:
    """Partial sums of 1 / ||T_j||^2 over the determinant-one step indices."""

    indices: np.ndarray
    partial_sums: np.ndarray

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if self.partial_sums.size else 0.0


def simon_stolz_profile(coeffs: SiteCoefficients, energy: float, j_max: int) -> SimonStolzProfile:
    """Accumulate the inverse-square transfer sum site by site up to j_max.

    Only sites with a(j) = 1 contribute, because those are exactly the
    indices where the transfer matrix from the boundary is unimodular.
    Divergence of the total as j_max grows rules out point masses at the
    energy; the profile exposes the growth for slope fitting.
    """
    if j_max < 1:
        raise ValidationError("j_max: must be at least 1")
    mat = Mat2.identity()
    indices: list[int] = []
    sums: list[float] = []
    acc = 0.0
    for j in range(1, j_max + 1):
        mat = step_matrix(coeffs, energy, j) @ mat
        if coeffs.a(j) == 1.0:
            acc += math.exp(-2.0 * mat.log_norm())
            indices.append(j)
            sums.append(acc)
    return SimonStolzProfile(
        indices=np.asarray(indices, dtype=np.int64),
        partial_sums=np.asarray(sums, dtype=float),
    )


# ---------------------------------------------------------------------------
# The per-bump kick
# ---------------------------------------------------------------------------


def ratio_squared(kick: tuple[float, float, float], theta: float) -> float:
    """r_out^2 / r_in^2 at entry angle theta, from the closed-form coefficients."""
    a, b, c = kick
    return a + b * math.cos(2.0 * theta) + c * math.sin(2.0 * theta)


def unimodularity_residual(kick: tuple[float, float, float]) -> float:
    """|a^2 - b^2 - c^2 - 1|; zero because the bump matrix has det 1."""
    a, b, c = kick
    return abs(a * a - b * b - c * c - 1.0)


def f_theta(theta: float, k: int, phi: float) -> float:
    """Log amplification of one bump at entry angle theta (before averaging)."""
    arg = ratio_squared(bump_coefficients(k, phi), theta)
    assert arg > 0.0, "amplification argument must be positive by unimodularity"
    return 0.5 * math.log(arg)


def bump_r_squared_ratio(k: int, phi: float, theta: float) -> float:
    """The kick from the bump matrix: squared radius amplification at entry theta."""
    bump = Mat2(*bump_matrix(math.sqrt(k), 2.0 * math.cos(phi)))
    w0, w1 = bump.apply(phase_to_pair(theta, phi))
    x = w0 - math.cos(phi) * w1
    y = math.sin(phi) * w1
    return x * x + y * y


def kick_error_units(y: float, k: int, phi: float, theta: float) -> float:
    """The distance of a float kick y at entry angle theta from log |G v| at
    400 digits, in units of 2^-53 (1 + |y| + 2 pi |dy/dtheta|): the rounding
    of y itself, and of an angle below 2 pi that the phase map rounds.

    G = Q B P as in `bump_coefficients`, v = (cos theta, sin theta).  G's
    condition number is about k / sin^2(phi), below about 1e310 for the
    k <= 1e9 at phi >= 1e-150 and k = 100 at 1e-154 pi that the tests
    hold to it, so 400 digits keep the smallest |G v| to about 90.
    """
    with mp.workdps(400):
        s, c = mp.sin(mp.mpf(phi)), mp.cos(mp.mpf(phi))
        m11, m12, m21, m22 = bump_matrix(mp.sqrt(k), 2 * c)
        g = mp.matrix([[1, -c], [0, s]]) * mp.matrix([[m11, m12], [m21, m22]]) * mp.matrix([[1, c / s], [0, 1 / s]])
        gv = g * mp.matrix([mp.cos(theta), mp.sin(theta)])
        turned = g * mp.matrix([-mp.sin(theta), mp.cos(theta)])
        length2 = gv[0] ** 2 + gv[1] ** 2
        exact = mp.log(length2) / 2
        slope = (gv[0] * turned[0] + gv[1] * turned[1]) / length2
        return float(abs(y - exact) / (1 + abs(exact) + 2 * mp.pi * abs(slope)) * 2**53)


# ---------------------------------------------------------------------------
# Transfer matrices from two phase-flow runs
# ---------------------------------------------------------------------------


def checkpoint_transfers(spec, phi: float, n_bumps: int | None = None) -> list[Mat2]:
    """Transfer matrices to two sites past bumps 1..n_bumps, from two `efgp_run` runs.

    Entry n of the runs from theta0 = 0 and theta0 = pi/2 are the columns
    exp(log_r) (cos theta, sin theta) of the phase-coordinate matrix G_n,
    so the transfer matrix on pairs (u(j), u(j-1)) at E = 2 cos(phi) is
    P G_n P^-1 with P = [[1, cot(phi)], [0, 1 / sin(phi)]].  Entry n - 1
    of the list maps (u(1), u(0)) to (u(L_n + 3), u(L_n + 2)).  The two
    runs share one list of stretch rotations.
    """
    phases = PhaseReducer(phi).phases(spec.gamma or 1, stretch_gaps(spec.branch_levels[:n_bumps]))
    runs = [efgp_run(spec, phi, theta0, n_bumps, phases) for theta0 in (0.0, math.pi / 2)]
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    to_pair = Mat2(1.0, cos_phi / sin_phi, 0.0, 1.0 / sin_phi)
    from_pair = Mat2(1.0, -cos_phi, 0.0, sin_phi)
    mats = []
    for log_r0, theta0, log_r1, theta1 in zip(
        runs[0].log_r[1:], runs[0].theta[1:], runs[1].log_r[1:], runs[1].theta[1:]
    ):
        r0, r1 = math.exp(log_r0), math.exp(log_r1)
        g = Mat2(
            r0 * math.cos(theta0), r1 * math.cos(theta1), r0 * math.sin(theta0), r1 * math.sin(theta1)
        )
        mats.append(to_pair @ g @ from_pair)
    return mats


# ---------------------------------------------------------------------------
# The stretch count's run crossing in plain expressions
# ---------------------------------------------------------------------------


def plain_cross(angles, q: np.ndarray, w: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Negative pivots and last pivot of a run of m >= 2 rows entered with pivot q.

    `sparsetrees.operators._Stretch.cross` with the same operations in the
    same order, each step allocating its result; angles is a `_Stretch`.
    """
    r = np.clip(w / q, -2.0**1000, 2.0**1000)
    beta = np.pi / 2 - np.arctan((angles.cos - r) / angles.sin)
    theta = beta + m * angles.phi
    turns = np.floor(theta * (1 / np.pi))
    rest = theta - turns * np.pi
    crossed = turns - 1.0 + np.ceil(rest * (1 / np.pi))
    last = w / (angles.cos - angles.sin / np.tan(rest))
    if angles.out.size:
        o, mu, g, sign = angles.out, angles.mu, angles.g, angles.sign
        t = sign * r[o] - 1.0 / g
        s_prev = np.divide(
            -np.expm1(-2.0 * (m - 1) * mu), angles.sinh2, out=np.full(o.size, m - 1.0), where=mu > 0.0
        )
        w_prev = 1.0 - t * s_prev
        w_last = w_prev - t * np.exp((1 - 2 * m) * mu)
        crossed[o] = np.where(sign > 0.0, w_last < 0.0, m - (w_last <= 0.0))
        ratio = np.divide(w_last, w_prev, out=np.ones(o.size), where=(w_prev != 0.0) | (w_last != 0.0))
        last[o] = sign * w * g * ratio
    return crossed, last + 0.0


# ---------------------------------------------------------------------------
# Bisection with one bracket per eigenvalue
# ---------------------------------------------------------------------------


def per_eigenvalue_bisect(sizes: list[int], bounds: list[float], count) -> list[np.ndarray]:
    """`sparsetrees.operators._bisect` with one bracket row per eigenvalue.

    The same grids, passes and choice of part: each pass splits the bracket
    [lo, hi) of component i's k-th eigenvalue into 2**SECTION_BITS equal
    parts and keeps the part that ends at the first inner point whose count
    exceeds k (the last part if none does).  Component i's brackets are the
    rows offsets[i] to offsets[i + 1] - 1 in every pass, and count gets them
    as its edges.
    """
    parts = 1 << SECTION_BITS
    inner = np.arange(1, parts)
    steps = [math.ldexp(1.0, math.frexp(b)[1] + 1 - GRID_BITS) for b in bounds]
    h = np.repeat(steps, sizes)
    offsets = np.cumsum([0, *sizes])
    target = np.concatenate([np.arange(n) for n in sizes])  # index in its component
    lo = np.full(len(target), -(1 << GRID_BITS), dtype=np.int64)
    width = 1 << (GRID_BITS + 1)
    with np.errstate(divide="ignore", over="ignore"):
        while width > 1:
            width //= parts
            x = (lo + width * inner[:, None]) * h  # one column per bracket
            above = count(x, offsets) > target
            first = np.where(above.any(axis=0), above.argmax(axis=0), parts - 1)
            lo += first * width
    return [np.sort(v) for v in np.split(lo * h, offsets[1:-1])]


def per_row_split(lo, first, counts, offsets, width) -> tuple[np.ndarray, np.ndarray]:
    """`sparsetrees.operators._split_rows` one row and one target at a time.

    Row r of component i holds the targets first[r] up to the next row's
    first (offsets[i + 1] after its last row), and counts[j, r] is the
    count at its inner point j + 1.  Target k keeps the part after every
    inner point whose running maximum, shifted by offsets[i], is at most
    k; the targets of a row that keep one part make one new row, which
    starts at the left end of that part and at its first target.
    """
    new_lo, new_first = [], []
    stops = [*first[1:].tolist(), int(offsets[-1])]
    for r, (start, stop) in enumerate(zip(first.tolist(), stops)):
        offset = int(offsets[np.searchsorted(offsets, start, side="right") - 1])
        running = [offset + m for m in accumulate(counts[:, r].tolist(), max)]
        kept = None
        for k in range(start, stop):
            part = sum(m <= k for m in running)
            if part != kept:
                new_lo.append(int(lo[r]) + part * width)
                new_first.append(k)
                kept = part
    return np.array(new_lo, dtype=np.int64), np.array(new_first, dtype=np.int64)
