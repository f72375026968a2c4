"""Closed-form spectral predictions, phase classification, and Monte Carlo checks.

For the geometric tree families this module evaluates the predicted phase
picture on the essential spectrum [-2, 2]: the threshold V(k), the open
window where the spectral measure is expected singular continuous, and the
exact local scaling exponent alpha(E) inside it.  The three closed forms
are one consistent chain

    V(k) = (1 + k)^2 / (4 k),
    alpha(E) = 1 - log((4 V - E^2) / (4 - E^2)) / log(gamma),
    window endpoint^2 = 4 (gamma - V) / (gamma - 1),

tied to the phase-average growth rate Z = (1/2) log((A + 1)/2) of the
per-bump amplification: alpha(E) = 1 - 2 Z(phi)/log(gamma) at E = 2 cos(phi),
and alpha vanishes exactly at the window endpoints.  The same Z is what the
Monte Carlo exponent estimator converges to for jittered random trees, so
the chain is checked twice: algebraically on grids and statistically
against simulated trajectories.

The remaining pieces are finite-horizon classifiers for the unbounded-
branching regime and an essential-spectrum coverage metric for truncations.

numpy, and the `decomposition` and `operators` modules that import it, are
imported inside the functions that build arrays (`mc_exponent`,
`covered_fraction` and `essential_spectrum_coverage`), so the closed forms,
the classifiers and the energy grids load none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import GuardError, ValidationError
from .jacobi import ADJACENCY
from .phase import PhaseReducer, resolve_angle
from .trees import (
    TreeSpec,
    check_floor_bits,
    check_jitter_gamma,
    check_k,
    growing,
    in_float_range,
    make_gamma_tree,
    parse_gamma,
    sample_omega_tree,
    theoretical_dimension,
)
from .transfer import bump_coefficients, check_phi, efgp_run, mean_kick, stretch_gaps

# An energy this close to a window endpoint, relative to max(1, endpoint),
# is classified as the endpoint itself.
BOUNDARY_RTOL = 1e-12

# Most points of an energy grid (the phase-diagram energies) or a coverage
# grid, refused before the grid is allocated (`energy_grid`).
GRID_POINTS_GUARD = 1_000_000

# Most samples, trials times (n_bumps + 1), that mc_exponent holds.  It keeps
# four arrays of that many doubles at once (the trials' log r curves, their
# stack, the residuals and their squares), 32 bytes a sample: 2**24 samples
# are 512 MiB.  AC4 and the mc-angles benchmark run 20 trials of 2,001
# points, 40,020 samples.
MC_SAMPLES_GUARD = 2**24


def _as_float_gamma(gamma) -> float:
    g = parse_gamma(gamma)
    check_jitter_gamma(g)
    with in_float_range("gamma"):
        return float(g)


def V(k: int) -> float:
    """Threshold value (1 + k)^2 / (4 k) separating the two phases in gamma."""
    check_k(k)
    with in_float_range("k"):
        return (1 + k) ** 2 / (4 * k)


def Z(phi: float, k: int) -> float:
    """Phase-averaged log amplification per bump at phase step phi.

    Equals the average of the log kick 0.5 log(r_out^2 / r_in^2) over a
    uniform entry angle, which is the growth exponent the Monte Carlo
    trajectories realize per bump.
    """
    return 0.5 * math.log((mean_kick(k, phi) + 1.0) / 2.0)


@dataclass(frozen=True)
class EnergyInterval:
    """Open symmetric energy window (-endpoint, endpoint)."""

    endpoint: float

    def contains(self, energy: float) -> bool:
        return -self.endpoint < energy < self.endpoint

    def is_boundary(self, energy: float) -> bool:
        return abs(abs(energy) - self.endpoint) <= BOUNDARY_RTOL * max(1.0, self.endpoint)


def interval_I(k: int, gamma) -> EnergyInterval | None:
    """Predicted singular-continuous energy window, or None when it is empty.

    The endpoint is where the local exponent crosses zero:
    endpoint^2 = 4 (gamma - V(k)) / (gamma - 1).  The window is empty
    exactly when gamma <= V(k).
    """
    g = _as_float_gamma(gamma)
    v = V(k)
    if g <= v:
        return None
    return EnergyInterval(endpoint=math.sqrt(4.0 * (g - v) / (g - 1.0)))


def local_dimension(energy: float, k: int, gamma) -> float:
    """Exact local scaling exponent of the spectral measure at `energy`.

    alpha(E) = 1 - log((4V - E^2)/(4 - E^2)) / log(gamma), defined for
    |E| < 2.  Positive inside the predicted window, zero at its endpoints,
    negative values outside the window signal the pure point regime.
    """
    g = _as_float_gamma(gamma)
    v = V(k)
    if not abs(energy) < 2.0:
        raise ValidationError("energy: local dimension needs |E| < 2")
    return _alpha(energy, v, math.log(g))


def _alpha(energy: float, v: float, log_gamma: float) -> float:
    ratio = (4.0 * v - energy * energy) / (4.0 - energy * energy)
    return 1.0 - math.log(ratio) / log_gamma


@dataclass(frozen=True)
class PhasePoint:
    """Classification of one energy for a (k, gamma) family.

    label is one of "sc" (inside the singular-continuous window, alpha
    set), "pp" (in [-2, 2] outside the closed window), "boundary" (at an
    endpoint, no prediction), or "outside" (|E| > 2).
    """

    energy: float
    k: int
    gamma: float
    label: str
    alpha: float | None


def _classifier(k: int, gamma) -> Callable[[float], PhasePoint]:
    """The classification of one energy for (k, gamma): gamma, V(k), the
    window and log(gamma) are computed once, for every energy."""
    g = _as_float_gamma(gamma)
    v = V(k)
    window = interval_I(k, g)
    log_gamma = math.log(g)

    def place(energy: float) -> PhasePoint:
        if math.isnan(energy):
            raise ValidationError("energy: must not be NaN")
        if abs(energy) > 2.0:
            return PhasePoint(energy, k, g, "outside", None)
        if window is None:
            return PhasePoint(energy, k, g, "pp", None)
        if window.is_boundary(energy):
            return PhasePoint(energy, k, g, "boundary", None)
        if window.contains(energy):
            return PhasePoint(energy, k, g, "sc", _alpha(energy, v, log_gamma))
        return PhasePoint(energy, k, g, "pp", None)

    return place


def classify(energy: float, k: int, gamma) -> PhasePoint:
    """Place one energy in the predicted phase diagram; a NaN is refused."""
    return _classifier(k, gamma)(energy)


def phase_diagram(k: int, gamma, energies: Sequence[float]) -> tuple[PhasePoint, ...]:
    return tuple(map(_classifier(k, gamma), energies))


def corollary_check(k: int, gamma) -> bool:
    """Whether dimension >= 3 implies an empty singular-continuous window.

    Vacuously true when the theoretical dimension is below 3; otherwise
    requires interval_I to be empty.  Expected to hold on the whole
    gamma >= 4 grid.
    """
    g = _as_float_gamma(gamma)
    if g < 4.0:
        raise ValidationError("gamma: corollary check applies to gamma >= 4")
    if theoretical_dimension(k, g) < 3.0:
        return True
    return interval_I(k, g) is None


@dataclass(frozen=True)
class ExponentReport:
    """Monte Carlo estimate of the per-bump growth exponent.

    mean_y averages the per-bump kicks over all trials; std_error is the
    standard error of the per-trial means (None for fewer than 2 trials).
    slope is the pooled regression of accumulated log r against
    n * log(gamma), targeting Z / log(gamma); rms_residual measures the
    scatter around that line.
    """

    k: int
    gamma: float
    phi: float
    n_bumps: int
    trials: int
    seed: int
    z_predicted: float
    mean_y: float
    std_error: float | None
    deviation_sigmas: float | None
    slope: float
    slope_target: float
    slope_rel_error: float
    rms_residual: float
    trial_means: tuple[float, ...]


def mc_exponent(
    k: int,
    gamma,
    phi: float | PhaseReducer,
    n_bumps: int = 2000,
    trials: int = 20,
    seed: int = 0,
) -> ExponentReport:
    """Estimate the growth exponent from jittered random trees.

    Draws `trials` independent level-jittered trees (counter-split from
    `seed`), runs the phase flow across n_bumps branchings of each, and
    reports both estimators of the exponent: the sample mean of the
    per-bump kicks against the predicted Z, and the pooled regression
    slope of log r against n * log(gamma) against Z / log(gamma).

    phi is a float angle, or the exact reducer of a rational multiple of
    pi (`PhaseReducer.from_pi_multiple("1/2")` for a right angle), at
    whose `angle` the trials then run: its phase advances are reduced
    exactly, which preserves resonance effects a float angle would wash
    out at geometric depths.

    The trials share what does not depend on the jitter: gamma is parsed
    and checked once, the floors floor(gamma**n) are built once (each
    trial draws its jitter on them), and at a float angle so is the phase
    table of the floors' gaps (`PhaseReducer.table`).  A jittered gap is
    the floors' gap plus a few sites, so each trial takes its phases from
    that table (`PhaseTable.phases`) and passes them to `efgp_run`, which
    reduces an exact angle's gaps whole.  A float phi gets a fresh
    PhaseReducer per trial, which computes no fixed-point angle unless a
    gap falls back to its exact residue.  An angle where k's kick
    coefficients (`bump_coefficients`) are not finite is refused.
    n_bumps is refused with a GuardError when its floors would exceed
    trees.FLOOR_BITS_GUARD, and trials when trials * (n_bumps + 1)
    exceeds MC_SAMPLES_GUARD, before the floors are built.
    """
    gamma = parse_gamma(gamma)
    g = _as_float_gamma(gamma)
    check_k(k)
    check_phi(phi)
    phi, shared, field = resolve_angle(phi)
    if not all(map(math.isfinite, bump_coefficients(k, phi))):
        raise ValidationError(f"{field}: the kick coefficients of k = {k} are not finite at this angle")
    if n_bumps < 1:
        raise ValidationError("n_bumps: must be at least 1")
    if trials < 1:
        raise ValidationError("trials: must be at least 1")
    check_floor_bits(gamma, n_bumps, "n_bumps")
    samples = trials * (n_bumps + 1)
    if samples > MC_SAMPLES_GUARD:
        raise GuardError(
            f"trials: {trials} trials of {n_bumps + 1} points hold {samples} samples, "
            f"guard is {MC_SAMPLES_GUARD}"
        )
    base = make_gamma_tree(k, gamma, n_bumps)

    import numpy as np

    z = Z(phi, k)
    log_g = math.log(g)
    x = np.arange(n_bumps + 1, dtype=float) * log_g
    xc = x - x.mean()
    # np.sum, not BLAS's np.dot, whose summation order depends on the CPU
    den = float(np.sum(xc * xc))
    trial_means: list[float] = []
    curves: list[np.ndarray] = []
    num = 0.0
    table = phases = None
    for trial in range(trials):
        spec = sample_omega_tree(base, seed, trial)
        reducer = shared or PhaseReducer(phi)
        if reducer.turn is None:
            if table is None:
                table = reducer.table(base.gamma, stretch_gaps(base.branch_levels), base.branch_levels[-1])
            phases = table.phases(reducer, stretch_gaps(spec.branch_levels))
        trajectory = efgp_run(spec, reducer, phases=phases)
        trial_means.append(trajectory.mean_y())
        curve = np.array(trajectory.log_r)
        curves.append(curve)
        num += float(np.sum(xc * curve))

    slope = num / (den * trials)
    stacked = np.vstack(curves)
    intercept = float(stacked.mean()) - slope * float(x.mean())
    residuals = stacked - (intercept + slope * x)
    rms_residual = float(np.sqrt(np.mean(residuals**2)))

    means = np.asarray(trial_means)
    mean_y = float(means.mean())
    if trials >= 2:
        std_error = float(means.std(ddof=1) / math.sqrt(trials))
        deviation_sigmas = abs(mean_y - z) / std_error if std_error > 0.0 else math.inf
    else:
        std_error = None
        deviation_sigmas = None
    slope_target = z / log_g
    return ExponentReport(
        k=k,
        gamma=g,
        phi=phi,
        n_bumps=n_bumps,
        trials=trials,
        seed=seed,
        z_predicted=z,
        mean_y=mean_y,
        std_error=std_error,
        deviation_sigmas=deviation_sigmas,
        slope=slope,
        slope_target=slope_target,
        slope_rel_error=(slope - slope_target) / slope_target,
        rms_residual=rms_residual,
        trial_means=tuple(trial_means),
    )


@dataclass(frozen=True)
class TheoremReport:
    """Finite-horizon check of the unbounded-branching classification.

    factors_unbounded reports whether the branching factors trend upward
    over the horizon (nondecreasing with a net increase); epsilon_witness
    is the largest exponent margin epsilon such that the level gaps still
    dominate (product of factors)^(1 + epsilon) somewhere in the tail
    window (None when no gap exists).  When both conditions hold the
    prediction is purely singular continuous spectrum on (-2, 2);
    otherwise the classifier defers to the geometric-family phase
    predictions.  The dominating sequence is fixed to the branching
    factors themselves, the minimal admissible choice.
    """

    factors_unbounded: bool
    epsilon_witness: float | None
    gap_condition_holds: bool
    window_start: int
    prediction: str

    @property
    def holds(self) -> bool:
        return self.factors_unbounded and self.gap_condition_holds


PREDICTION_PURE_SC = "purely singular continuous on (-2, 2)"
PREDICTION_DEFERRED = "deferred to the geometric-family phase predictions"


def theorem_classifier(spec: TreeSpec) -> TheoremReport:
    """Check the two unbounded-branching conditions over the spec's horizon."""
    levels = spec.branch_levels
    factors = spec.branch_factors
    unbounded = growing(factors)

    n_gaps = len(levels) - 1
    if n_gaps == 0:
        return TheoremReport(
            factors_unbounded=unbounded,
            epsilon_witness=None,
            gap_condition_holds=False,
            window_start=0,
            prediction=PREDICTION_DEFERRED,
        )
    window_start = max(1, n_gaps // 2)
    witness = -math.inf
    log_product = 0.0
    for n in range(1, n_gaps + 1):
        log_product += math.log(factors[n - 1])
        if n < window_start:
            continue
        gap = levels[n] - levels[n - 1]
        witness = max(witness, math.log(gap) / log_product - 1.0)
    gap_condition = witness > 0.0
    return TheoremReport(
        factors_unbounded=unbounded,
        epsilon_witness=witness,
        gap_condition_holds=gap_condition,
        window_start=window_start,
        prediction=PREDICTION_PURE_SC if (unbounded and gap_condition) else PREDICTION_DEFERRED,
    )


def energy_grid(lo: float, hi: float, points: int, field: str) -> list[float]:
    """`points` evenly spaced values from lo to hi, the doubles of numpy's
    linspace: i * step + lo, then hi, or i / (points - 1) * (hi - lo) + lo
    where step = (hi - lo) / (points - 1) underflows to 0.

    A span hi - lo that is not positive and finite is refused, naming
    `min`.  Fewer than 2 points, or more than GRID_POINTS_GUARD, are refused
    before anything is allocated, naming the config `field` they came from.
    """
    if not 0.0 < hi - lo < math.inf:
        raise ValidationError("min: energy grid needs min < max, max - min finite")
    if points < 2:
        raise ValidationError(f"{field}: a grid needs at least 2 points")
    if points > GRID_POINTS_GUARD:
        raise GuardError(f"{field}: {points} points, guard is {GRID_POINTS_GUARD}")
    span, div = hi - lo, points - 1
    step = span / div
    if step:
        return [i * step + lo for i in range(div)] + [hi]
    return [i / div * span + lo for i in range(div)] + [hi]


def coverage_grid(eps: float, grid_points: int) -> list[float]:
    """The [-2, 2] grid of essential_spectrum_coverage, after checking its inputs."""
    if eps <= 0.0:
        raise ValidationError("eps: must be positive")
    return energy_grid(-2.0, 2.0, grid_points, "grid_points")


def covered_fraction(eigenvalues: np.ndarray, grid: list[float], eps: float) -> float:
    """Fraction of the grid points within eps of an ascending eigenvalue list."""
    import numpy as np

    idx = np.searchsorted(eigenvalues, grid)
    left = eigenvalues[np.clip(idx - 1, 0, eigenvalues.size - 1)]
    right = eigenvalues[np.clip(idx, 0, eigenvalues.size - 1)]
    distance = np.minimum(np.abs(grid - left), np.abs(grid - right))
    return float(np.mean(distance <= eps))


def essential_spectrum_coverage(
    spec: TreeSpec,
    depth: int,
    eps: float,
    grid_points: int = 1000,
) -> float:
    """Fraction of a [-2, 2] grid within eps of the root block's spectrum.

    Diagonalizes the depth-truncated root Jacobi block (adjacency variant)
    and reports how much of the interval its eigenvalues cover at
    resolution eps.  Approaches 1 as the depth grows, which is the
    finite-size shadow of the essential spectrum being all of [-2, 2].
    """
    from .decomposition import truncated_block
    from .operators import eigenvalues_sym

    points = coverage_grid(eps, grid_points)
    eigenvalues = eigenvalues_sym(truncated_block(spec, 0, depth, variant=ADJACENCY))
    return covered_fraction(eigenvalues, points, eps)
