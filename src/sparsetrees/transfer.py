"""Transfer matrices and the modified Pruefer phase flow for bump operators.

Everything here works with the half-line Jacobi coefficients produced by
`jacobi.JacobiCoefficients`: a handful of off-diagonal bumps on an otherwise
free background.  The module provides

* exact 2x2 transfer-matrix products with a tracked determinant and a
  floating log scale, so norms of astronomically long products stay usable;
* the energy/phase change of variables that turns free propagation into a
  rigid rotation, plus the per-bump radial kick written as
  r_out^2 / r_in^2 = a + b cos(2 theta) + c sin(2 theta);
* a checkpoint runner that crosses the geometrically long free stretches in
  O(1) time per stretch using `phase.PhaseReducer`;
* the site-by-site inverse-square transfer sum of Simon and Stolz.

Site indexing follows the coefficient convention: u(0) is the boundary
ghost value, the recursion a(j)u(j+1) + b(j)u(j) + a(j-1)u(j-1) = E u(j)
runs over j >= 1, and a transfer matrix at step j maps the column vector
(u(j), u(j-1)) to (u(j+1), u(j)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .jacobi import JacobiCoefficients, check_rho
from .phase import PhaseReducer
from .trees import check_k

_TWO_PI = 2.0 * math.pi
_RENORM_LIMIT = 1e100


def check_phi(phi: float, field: str = "phi") -> None:
    """Refuse a phase step outside (0, pi), naming the config `field` it came from."""
    if not (0.0 < phi < math.pi):
        raise ValidationError(f"{field}: the angle must lie strictly between 0 and pi")


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
    isotropy tolerance the direction is meaningless and `isotropic` is set.
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


def min_singular_direction(mat: Mat2, isotropy_tol: float = 1e-8) -> MinSingularDirection:
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
        isotropic=r <= isotropy_tol * q,
    )


# ---------------------------------------------------------------------------
# Elementary transfer steps
# ---------------------------------------------------------------------------


def step_matrix(coeffs: JacobiCoefficients, energy: float, j: int) -> Mat2:
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


def bump_matrix(rho: float, energy: float) -> Mat2:
    """Two-step transfer across one off-diagonal bump of weight rho.

    Collapses the pair of steps that touch a bump coefficient a(pos) = rho
    (free background on either side) into a single unimodular matrix.
    """
    if rho <= 0.0:
        raise ValidationError("rho: bump weight must be positive")
    return Mat2(
        energy * energy / rho - rho,
        -energy / rho,
        energy / rho,
        -1.0 / rho,
        0.0,
        1.0,
    )


def solve_u(
    coeffs: JacobiCoefficients,
    energy: float,
    length: int,
    init: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Solve the three-term recursion site by site.

    Returns the array u(0..length) for the generalized eigenvalue equation
    at `energy`, starting from init = (u(0), u(1)).  This is the slow
    reference route; the checkpoint runner must agree with it wherever both
    apply.
    """
    if length < 1:
        raise ValidationError("length: must be at least 1")
    u = np.empty(length + 1)
    u[0], u[1] = init
    for j in range(1, length):
        u[j + 1] = ((energy - coeffs.b(j)) * u[j] - coeffs.a(j - 1) * u[j - 1]) / coeffs.a(j)
    return u


# ---------------------------------------------------------------------------
# Phase variables
# ---------------------------------------------------------------------------


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


def boundary_theta0(rho: float, phi: float) -> float:
    """Initial phase encoding the boundary-coupling parameter rho.

    The boundary term subtracted at site 1 is equivalent to running the
    free recursion from (u(0), u(1)) = (-tan(rho), 1); this is the angle of
    that initial pair.  rho = 0 gives the Dirichlet angle 0.
    """
    check_phi(phi)
    check_rho(rho)
    t = math.tan(rho)
    return math.atan2(-math.sin(phi) * t, 1.0 + math.cos(phi) * t) % _TWO_PI


# ---------------------------------------------------------------------------
# Per-bump radial kick
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpCoefficients:
    """Coefficients of r_out^2 / r_in^2 = a + b cos(2 theta) + c sin(2 theta)."""

    a: float
    b: float
    c: float

    def unimodularity_residual(self) -> float:
        """|a^2 - b^2 - c^2 - 1|; zero because the bump matrix has det 1."""
        return abs(self.a * self.a - self.b * self.b - self.c * self.c - 1.0)

    def ratio_squared(self, theta: float) -> float:
        return self.a + self.b * math.cos(2.0 * theta) + self.c * math.sin(2.0 * theta)


def mean_kick(k: int, phi: float) -> float:
    """Angle average a = ((1 + k^2) / (2k) - cos^2(phi)) / sin^2(phi) of r_out^2 / r_in^2."""
    check_k(k)
    check_phi(phi)
    sin2 = math.sin(phi) ** 2
    return ((1.0 + k * k) / (2.0 * k) - math.cos(phi) ** 2) / sin2


@lru_cache(maxsize=1024)
def bump_coefficients(k: int, phi: float) -> BumpCoefficients:
    """Radial kick coefficients for a branching factor k at phase step phi.

    The kick is |G v|^2 for the unit vector v = (cos theta, sin theta) and
    G = Q B P: the phase map P taking (r cos theta, r sin theta) to the
    pair (u(j), u(j-1)) (`phase_to_pair`), the bump B (`bump_matrix` with
    weight sqrt(k) at E = 2 cos(phi)), and its inverse Q, which reads the
    phase coordinates back off the outgoing pair.  Hence
    (a, b, c) = (tr G^T G / 2, ((G^T G)_11 - (G^T G)_22) / 2, (G^T G)_12),
    which with C = cos^2(phi) and S = sin^2(phi) is

        a = ((1 + k^2) / (2k) - C) / S                       (mean_kick)
        b = (k - 1) (8 C^2 - 2k C - 8 C + k + 1) / (2k S)
        c = (k - 1) cos(phi) (k + 2 - 4 C) / (k sin(phi)).
    """
    a = mean_kick(k, phi)
    cos_phi = math.cos(phi)
    sin_phi = math.sin(phi)
    cos2 = cos_phi * cos_phi
    sin2 = sin_phi * sin_phi
    b = (k - 1) * (8.0 * cos2 * cos2 - 2.0 * k * cos2 - 8.0 * cos2 + k + 1) / (2.0 * k * sin2)
    c = (k - 1) * cos_phi * (k + 2 - 4.0 * cos2) / (k * sin_phi)
    return BumpCoefficients(a, b, c)


# ---------------------------------------------------------------------------
# Checkpoint phase flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EFGPTrajectory:
    """Phase-flow state after each bump, one column per quantity.

    Entry n of each column is the state just past bump n, and entry 0 the
    initial state.  theta is the outgoing angle (two sites past the
    branching level), y the log radial kick of bump n alone and
    theta_entry the incoming angle the kick was evaluated at; at n = 0,
    y is 0 and theta_entry is theta.  log_r[n] = log_r[n - 1] + y[n].
    Bump n sits at level spec.branch_levels[n - 1].
    """

    log_r: tuple[float, ...]
    theta: tuple[float, ...]
    y: tuple[float, ...]
    theta_entry: tuple[float, ...]

    def mean_y(self) -> float:
        """Average radial kick per bump."""
        return float(np.mean(self.y[1:]))


def efgp_run(
    spec,
    phi: float,
    theta0: float = 0.0,
    n_bumps: int | None = None,
    reducer: PhaseReducer | None = None,
    memo: dict | None = None,
) -> EFGPTrajectory:
    """Run the phase flow across the first n_bumps branchings of a tree.

    Free stretches between branchings are crossed in one step: the angle
    advances by (gap * phi) mod 2 pi via the high-precision reducer, and
    the radius is untouched.  Each branching then applies the exact
    two-step bump map to the angle and adds its radial kick
    y_n = log(r_out / r_in) to the running log radius.

    The wall-clock cost is O(n_bumps) regardless of how deep the branching
    levels sit, so geometric trees with thousands of branchings are cheap.
    theta0 is the phase at site 1; use `boundary_theta0` to encode a
    boundary coupling.  A reducer, such as an exact one from
    `PhaseReducer.from_pi_multiple`, must hold the angle phi itself.

    memo is for runs at one phi over the same floors (`mc_exponent`'s
    trials): on an omega spec each gap then goes to the reducer split as
    the gap of the floors plus the jitter difference omega_n - omega_{n-1},
    and the memo keeps a 128-bit window of each floor gap's phase product.
    A later run rounds its gap's phase from that window, with no mpmath
    work and the same double as the exact product, which it computes only
    when the window's error interval straddles a rounding boundary (see
    `PhaseReducer.reduce`).  Without a memo, or on a gamma or explicit
    spec, gaps are reduced whole and nothing is kept.
    """
    check_phi(phi)
    levels = spec.branch_levels
    factors = spec.branch_factors
    if n_bumps is None:
        n_bumps = len(levels)
    if not 1 <= n_bumps <= len(levels):
        raise ValidationError("n_bumps: must be between 1 and the number of branchings")
    for i in range(1, n_bumps):
        if levels[i] - levels[i - 1] < 2:
            raise ValidationError(
                "branch_levels: phase checkpoints need gaps of at least 2 sites"
            )
    if reducer is None:
        reducer = PhaseReducer.from_angle(phi)
    elif reducer.angle != phi:
        raise ValidationError(f"reducer: its angle {reducer.angle!r} is not phi = {phi!r}")

    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    energy = 2.0 * cos_phi
    # Per branching factor: the kick coefficients (a, b, c) and the bump
    # matrix entries.  The loop below inlines BumpCoefficients.ratio_squared,
    # phase_to_pair and Mat2.apply in their exact operation order.
    kick_cache: dict[int, tuple[float, ...]] = {}
    reduce = reducer.reduce
    log, sin, cos, atan2 = math.log, math.sin, math.cos, math.atan2

    omega = spec.omega
    if memo is not None and omega:
        offsets = [w - v for v, w in zip((0,) + omega, omega[:n_bumps])]
    else:
        offsets, memo = [0] * n_bumps, None

    theta = theta0 % _TWO_PI
    log_r = 0.0
    log_rs, thetas, ys, entries = [log_r], [theta], [0.0], [theta]
    previous = None
    for level, k, offset in zip(levels[:n_bumps], factors, offsets):
        gap = level if previous is None else level - previous - 2
        previous = level
        theta_entry = (theta + reduce(gap, offset, memo)) % _TWO_PI
        cached = kick_cache.get(k)
        if cached is None:
            kick = bump_coefficients(k, phi)
            bump = bump_matrix(math.sqrt(k), energy)
            cached = (kick.a, kick.b, kick.c, bump.m11, bump.m12, bump.m21, bump.m22)
            kick_cache[k] = cached
        a, b, c, m11, m12, m21, m22 = cached
        y = 0.5 * log(a + b * cos(2.0 * theta_entry) + c * sin(2.0 * theta_entry))
        u1 = sin(phi + theta_entry) / sin_phi
        u0 = sin(theta_entry) / sin_phi
        w0 = m11 * u1 + m12 * u0
        w1 = m21 * u1 + m22 * u0
        theta = atan2(sin_phi * w1, w0 - cos_phi * w1) % _TWO_PI
        log_r += y
        log_rs.append(log_r)
        thetas.append(theta)
        ys.append(y)
        entries.append(theta_entry)
    return EFGPTrajectory(tuple(log_rs), tuple(thetas), tuple(ys), tuple(entries))


# ---------------------------------------------------------------------------
# Fast checkpoint transfer matrices
# ---------------------------------------------------------------------------


def _free_block(phi: float, sin_phi: float, reducer: PhaseReducer, steps: int) -> Mat2:
    """Closed form for `steps` consecutive free transfer steps at E = 2 cos(phi)."""
    x = reducer.reduce(steps)
    return Mat2(
        math.sin(x + phi) / sin_phi,
        -math.sin(x) / sin_phi,
        math.sin(x) / sin_phi,
        -math.sin(x - phi) / sin_phi,
        0.0,
        1.0,
    )


def checkpoint_transfer(
    coeffs: JacobiCoefficients,
    energy: float,
    n: int,
    reducer: PhaseReducer | None = None,
) -> Mat2:
    """Transfer matrix to two sites past bump n, in O(n) matrix products.

    Valid for adjacency-variant coefficients at energies strictly inside
    (-2, 2), where free stretches have the rotation closed form.  The
    result is T at site pos_n + 1 (one step past the second bump site), a
    unimodular matrix whose least-stretched direction is the subordinacy
    candidate.  Agrees with the site-by-site product of `step_matrix`
    factors (the O(L) oracle in the tests) wherever that is affordable.
    """
    if not coeffs.is_adjacency:
        raise ValidationError("variant: checkpoint transfer needs the adjacency variant")
    if not -2.0 < energy < 2.0:
        raise ValidationError("energy: checkpoint transfer needs |E| < 2")
    if not 1 <= n <= coeffs.bump_count:
        raise ValidationError("n: must be between 1 and the number of bumps")
    positions = coeffs.positions[:n]
    for i in range(1, len(positions)):
        if positions[i] - positions[i - 1] < 2:
            raise ValidationError("positions: bumps must sit at least 2 sites apart")
    phi = math.acos(energy / 2.0)
    if reducer is None:
        reducer = PhaseReducer.from_angle(phi)
    sin_phi = math.sin(phi)

    mat = Mat2.identity()
    done = 0
    if coeffs.rho != 0.0 and positions[0] > 1:
        mat = step_matrix(coeffs, energy, 1)
        done = 1
    for pos in positions:
        free = pos - 1 - done
        if free:
            mat = _free_block(phi, sin_phi, reducer, free) @ mat
        mat = step_matrix(coeffs, energy, pos + 1) @ (step_matrix(coeffs, energy, pos) @ mat)
        done = pos + 1
    return mat


def subordinate_direction(
    coeffs: JacobiCoefficients,
    energy: float,
    n: int,
    reducer: PhaseReducer | None = None,
) -> MinSingularDirection:
    """Candidate subordinate initial datum read off the checkpoint matrix.

    Returns the least-stretched right direction of the transfer matrix two
    sites past bump n together with both singular values.  Since the
    matrix is unimodular the two sigmas are reciprocal; their product is a
    built-in accuracy check, and the isotropy flag marks energies where
    the matrix is a rotation and no direction is distinguished.
    """
    return min_singular_direction(checkpoint_transfer(coeffs, energy, n, reducer))


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


def simon_stolz_profile(
    coeffs: JacobiCoefficients, energy: float, j_max: int
) -> SimonStolzProfile:
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
