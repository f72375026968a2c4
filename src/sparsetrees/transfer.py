"""The modified Pruefer phase flow for bump operators, and its bump step.

Everything here describes the half-line root block of a tree (the model
in `jacobi`): off-diagonal bumps of weight sqrt(k_n), read from the spec's
branch pairs, on an otherwise free background.  The module provides

* the two-step transfer matrix across one bump, and the coefficients of its
  radial kick, r_out^2 / r_in^2 = a + b cos(2 theta) + c sin(2 theta);
* the phase flow `efgp_run`, the one closed-form crossing of the free
  stretches: each stretch is a rotation by (gap * phi) mod 2 pi, reduced
  by `phase.PhaseReducer`, so a run costs O(1) per branching however deep
  the branchings sit, and each kick is the length of the outgoing vector.

The flow is linear in the solution, so two runs give the whole transfer
matrix: entry n of the runs from theta0 = 0 and theta0 = pi/2 are the
columns exp(log_r) (cos theta, sin theta) of the phase-coordinate matrix
G_n, and the transfer matrix from the boundary to two sites past bump n is
P G_n P^-1 with P = [[1, cot(phi)], [0, 1 / sin(phi)]].

Site indexing follows the coefficient convention: u(0) is the boundary
ghost value, the recursion a(j)u(j+1) + b(j)u(j) + a(j-1)u(j-1) = E u(j)
runs over j >= 1, and a transfer matrix at step j maps the column vector
(u(j), u(j-1)) to (u(j+1), u(j)).  The phase coordinates at E = 2 cos(phi)
are r cos(theta) = u(j) - cos(phi) u(j-1) and r sin(theta) = sin(phi) u(j-1).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain

from .errors import ValidationError
from .jacobi import check_rho
from .phase import PhaseReducer, resolve_angle
from .trees import check_k, in_float_range

_TWO_PI = 2.0 * math.pi


def check_phi(phi: float | PhaseReducer) -> None:
    """Refuse a phase step outside (0, pi), given as a float or as its
    PhaseReducer, naming the config field of its kind (`resolve_angle`).

    Also refused: an angle whose sin^2 underflows (below the smallest
    normal double), which the phase map divides by.  What k needs of the
    angle is checked where k is used (`efgp_run`, `spectral.mc_exponent`).
    """
    angle, _, field = resolve_angle(phi)
    if not (0.0 < angle < math.pi):
        raise ValidationError(f"{field}: the angle must lie strictly between 0 and pi")
    if math.sin(angle) ** 2 < sys.float_info.min:
        raise ValidationError(f"{field}: sin(angle)^2 underflows; the angle lies too close to 0 or pi")


# ---------------------------------------------------------------------------
# The bump and the phase variables
# ---------------------------------------------------------------------------


def bump_matrix(rho: float, energy: float) -> tuple[float, float, float, float]:
    """Two-step transfer across one off-diagonal bump of weight rho.

    Collapses the pair of steps that touch a bump coefficient a(pos) = rho
    (free background on either side) into one unimodular matrix, returned
    row by row as (m11, m12, m21, m22).
    """
    if rho <= 0.0:
        raise ValidationError("rho: bump weight must be positive")
    return (energy * energy / rho - rho, -energy / rho, energy / rho, -1.0 / rho)


def boundary_theta0(rho: float, phi: float | PhaseReducer) -> float:
    """Initial phase encoding the boundary-coupling parameter rho.

    The boundary term subtracted at site 1 is equivalent to running the
    free recursion from (u(0), u(1)) = (-tan(rho), 1) at phi, a float or
    its PhaseReducer; this is that pair's angle, 0 (Dirichlet) at rho = 0.
    """
    check_phi(phi)
    check_rho(rho)
    angle = resolve_angle(phi)[0]
    t = math.tan(rho)
    return math.atan2(-math.sin(angle) * t, 1.0 + math.cos(angle) * t) % _TWO_PI


# ---------------------------------------------------------------------------
# Per-bump radial kick
# ---------------------------------------------------------------------------


def mean_kick(k: int, phi: float) -> float:
    """Angle average a = ((1 + k^2) / (2k) - cos^2(phi)) / sin^2(phi) of r_out^2 / r_in^2."""
    check_k(k)
    check_phi(phi)
    sin2 = math.sin(phi) ** 2
    with in_float_range("k"):
        return ((1.0 + k * k) / (2.0 * k) - math.cos(phi) ** 2) / sin2


@lru_cache(maxsize=1024)
def bump_coefficients(k: int, phi: float) -> tuple[float, float, float]:
    """Radial kick coefficients (a, b, c) of
    r_out^2 / r_in^2 = a + b cos(2 theta) + c sin(2 theta), for a branching
    factor k at phase step phi.

    The kick is |G v|^2 for the unit vector v = (cos theta, sin theta) and
    G = Q B P: the phase map P = [[1, cot(phi)], [0, 1 / sin(phi)]] taking
    (r cos theta, r sin theta) to the pair (u(j), u(j-1)), the bump B
    (`bump_matrix` with weight sqrt(k) at E = 2 cos(phi)), and
    Q = P^-1 = [[1, -cos(phi)], [0, sin(phi)]], which reads the phase
    coordinates back off the outgoing pair.  Hence
    (a, b, c) = (tr G^T G / 2, ((G^T G)_11 - (G^T G)_22) / 2, (G^T G)_12),
    which with C = cos^2(phi) and S = sin^2(phi) is

        a = ((1 + k^2) / (2k) - C) / S                       (mean_kick)
        b = (k - 1) (8 C^2 - 2k C - 8 C + k + 1) / (2k S)
        c = (k - 1) cos(phi) (k + 2 - 4 C) / (k sin(phi)).
    `efgp_run` reads |G v| itself; (a, b, c) serve `spectral.mc_exponent`'s
    refusal of an angle, and a the growth exponent `spectral.Z`.
    """
    a = mean_kick(k, phi)
    cos_phi = math.cos(phi)
    sin_phi = math.sin(phi)
    cos2 = cos_phi * cos_phi
    sin2 = sin_phi * sin_phi
    b = (k - 1) * (8.0 * cos2 * cos2 - 2.0 * k * cos2 - 8.0 * cos2 + k + 1) / (2.0 * k * sin2)
    c = (k - 1) * cos_phi * (k + 2 - 4.0 * cos2) / (k * sin_phi)
    return a, b, c


# ---------------------------------------------------------------------------
# Checkpoint phase flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EFGPTrajectory:
    """Phase-flow state after each bump, one column per quantity.

    Entry n of each column is the state just past bump n, and entry 0 the
    initial state.  theta is the outgoing angle (two sites past the
    branching level) and y the log radial kick of bump n alone; at n = 0,
    y is 0.  The log radius log_r is the running sum of the kicks, log_r[n] =
    log_r[n - 1] + y[n].  Bump n sits at level spec.branch_levels[n - 1].
    """

    theta: tuple[float, ...]
    y: tuple[float, ...]

    @cached_property
    def log_r(self) -> tuple[float, ...]:
        return tuple(accumulate(self.y))

    def mean_y(self) -> float:
        """Average radial kick per bump: the correctly rounded sum of the
        kicks (`math.fsum`), divided by their count."""
        return math.fsum(self.y[1:]) / (len(self.y) - 1)


def stretch_gaps(levels: Sequence[int]) -> list[int]:
    """The free stretches before branchings at `levels`: L_1 sites, then
    L_n - L_(n-1) - 2, each bump taking two sites.  Refused: levels less
    than 2 sites apart, which leave a negative gap."""
    gaps = [b - a - 2 for a, b in zip(chain((-2,), levels), levels)]
    if min(gaps, default=0) < 0:
        raise ValidationError("L: phase checkpoints need gaps of at least 2 sites")
    return gaps


def efgp_run(
    spec,
    phi: float | PhaseReducer,
    theta0: float = 0.0,
    n_bumps: int | None = None,
    phases: Sequence[float] | None = None,
) -> EFGPTrajectory:
    """Run the phase flow across the first n_bumps branchings of a tree.

    Free stretches between branchings are crossed in one step: the angle
    advances by (gap * phi) mod 2 pi via the high-precision reducer, and
    the radius is untouched.  Each branching then applies the exact
    two-step bump map G = Q B P (B from `bump_matrix`) to the unit vector v
    at the entry angle: the new angle is that of G v, and the radial kick
    y_n = log(r_out / r_in) is log |G v|, a sum of squares that does not
    cancel near the band edges.

    The wall-clock cost is O(n_bumps) regardless of how deep the branching
    levels sit, so geometric trees with thousands of branchings are cheap.
    theta0 is the phase at site 1; use `boundary_theta0` to encode a
    boundary coupling.  phi is a float angle or a PhaseReducer, whose
    `angle` the run takes: an exact one from
    `PhaseReducer.from_pi_multiple` keeps a rational multiple of pi exact.

    The stretch rotations are `phases`, one per bump and at least
    n_bumps of them, else `PhaseReducer.phases` of the run's gaps
    (`stretch_gaps`; an explicit spec's at ratio 1, which only sets the
    speed): the doubles of reducing each gap whole.  Runs at one phi can
    so share one list, such as the two runs of a transfer matrix, and
    `spectral.mc_exponent`'s trials pass theirs.  Entry n does not
    depend on n_bumps: the first n entries of a run are those of the run
    stopped at bump n, so two full runs give the transfer matrix at every
    checkpoint (module docstring).  The loop cannot overflow: `check_phi`
    keeps |u| <= 1 / sin(phi) < 1e154, and each new k, refused naming `k`
    unless k * k is a float, keeps the bump entries below ~sqrt(k) < 1.2e77.
    """
    check_phi(phi)
    angle, reducer, _ = resolve_angle(phi)
    levels = spec.branch_levels
    factors = spec.branch_factors
    if n_bumps is None:
        n_bumps = len(levels)
    if not 1 <= n_bumps <= len(levels):
        raise ValidationError("n_bumps: must be between 1 and the number of branchings")
    if phases is None:
        phases = (reducer or PhaseReducer(angle)).phases(spec.gamma or 1, stretch_gaps(levels[:n_bumps]))
    elif len(phases) < n_bumps:
        raise ValidationError(f"phases: {len(phases)} phases for {n_bumps} bumps")

    sin_phi = math.sin(angle)
    cos_phi = math.cos(angle)
    energy = 2.0 * cos_phi
    # Per branching factor: the bump matrix entries.  Per bump, the loop
    # below maps the entry angle to the pair (u(j), u(j-1)) by P, applies
    # the bump and reads (x, z) = r_out (cos theta, sin theta) back by Q,
    # each in one fixed operation order.
    bumps: dict[int, tuple[float, float, float, float]] = {}
    log, sin, atan2, hypot = math.log, math.sin, math.atan2, math.hypot

    theta = theta0 % _TWO_PI
    thetas, ys = [theta], [0.0]
    add_theta, add_y = thetas.append, ys.append
    last_k = None
    for phase, k in zip(phases[:n_bumps], factors):
        theta_entry = (theta + phase) % _TWO_PI
        if k != last_k:
            bump = bumps.get(k)
            if bump is None:
                with in_float_range("k"):
                    float(k * k)
                bump = bumps[k] = bump_matrix(math.sqrt(k), energy)
            m11, m12, m21, m22 = bump
            last_k = k
        u1 = sin(angle + theta_entry) / sin_phi
        u0 = sin(theta_entry) / sin_phi
        w0 = m11 * u1 + m12 * u0
        w1 = m21 * u1 + m22 * u0
        x = w0 - cos_phi * w1
        z = sin_phi * w1
        theta = atan2(z, x) % _TWO_PI
        add_theta(theta)
        add_y(log(hypot(x, z)))
    return EFGPTrajectory(tuple(thetas), tuple(ys))
