"""Tests for the closed-form spectral predictions and their Monte Carlo checks."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import f_theta

from sparsetrees.errors import GuardError, ValidationError
from sparsetrees.phase import PhaseReducer
from sparsetrees.spectral import (
    GRID_POINTS_GUARD,
    MC_SAMPLES_GUARD,
    PREDICTION_DEFERRED,
    PREDICTION_PURE_SC,
    V,
    Z,
    ExponentReport,
    corollary_check,
    energy_grid,
    essential_spectrum_coverage,
    interval_I,
    local_dimension,
    mc_exponent,
    phase_diagram,
    theorem_classifier,
)
from sparsetrees.transfer import efgp_run
from sparsetrees.trees import TreeSpec, make_gamma_tree, sample_omega_tree, theoretical_dimension


# ---------------------------------------------------------------------------
# V and Z closed forms
# ---------------------------------------------------------------------------


def test_V_pinned_values_and_growth():
    assert V(2) == pytest.approx(1.125, abs=1e-15)
    assert V(3) == pytest.approx(4.0 / 3.0, abs=1e-15)
    for k in range(2, 12):
        assert V(k + 1) > V(k)
    with pytest.raises(ValidationError):
        V(1)


def test_Z_pinned_values():
    assert Z(math.pi / 2, 2) == pytest.approx(0.5 * math.log(9.0 / 8.0), abs=1e-15)
    assert Z(math.pi / 4, 2) == pytest.approx(0.5 * math.log(1.25), abs=1e-15)


def test_Z_positive_and_increasing_in_k():
    for phi in np.linspace(0.1, math.pi - 0.1, 25):
        assert Z(float(phi), 2) > 0.0
        assert Z(float(phi), 3) > Z(float(phi), 2)


def test_Z_is_the_phase_average_of_f():
    thetas = np.linspace(0.0, math.pi, 8192, endpoint=False)
    for k, phi in ((2, 1.0), (3, 0.7), (5, 2.4)):
        mean = float(np.mean([f_theta(float(t), k, phi) for t in thetas]))
        assert mean == pytest.approx(Z(phi, k), abs=1e-8)


def test_f_theta_value_and_period():
    assert f_theta(0.0, 2, math.pi / 2) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    rng = random.Random(3)
    for _ in range(20):
        theta = rng.uniform(0.0, math.pi)
        assert f_theta(theta + math.pi, 2, 1.1) == pytest.approx(
            f_theta(theta, 2, 1.1), abs=1e-12
        )


# ---------------------------------------------------------------------------
# The singular-continuous window and the local dimension
# ---------------------------------------------------------------------------


def test_interval_pinned_endpoint():
    window = interval_I(2, 4)
    assert window is not None
    assert window.endpoint**2 == pytest.approx(23.0 / 6.0, abs=1e-14)


def test_interval_empty_iff_gamma_at_most_V():
    assert interval_I(7, "11/5") is None
    assert interval_I(7, "16/7") is None  # gamma exactly V(7)
    assert interval_I(7, "7/3") is not None
    assert interval_I(2, "5/2") is not None


def test_interval_endpoint_stays_inside_band():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randrange(2, 10)
        gamma = V(k) + rng.uniform(0.01, 30.0)
        if gamma <= 2.0:
            continue
        window = interval_I(k, gamma)
        assert window is not None
        assert 0.0 < window.endpoint < 2.0


def test_local_dimension_vanishes_at_the_endpoint():
    for k, gamma in ((2, 4.0), (2, 2.5), (3, 3.0), (5, 9.0)):
        window = interval_I(k, gamma)
        assert abs(local_dimension(window.endpoint, k, gamma)) < 1e-12
        assert window.is_boundary(window.endpoint)
        assert not window.contains(window.endpoint)


def test_local_dimension_pinned_value_and_formula():
    assert local_dimension(0.0, 2, 4) == pytest.approx(0.9150374992788438, abs=1e-13)
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randrange(2, 7)
        gamma = rng.uniform(2.1, 12.0)
        energy = rng.uniform(-1.9, 1.9)
        phi = math.acos(energy / 2.0)
        expected = 1.0 - 2.0 * Z(phi, k) / math.log(gamma)
        assert local_dimension(energy, k, gamma) == pytest.approx(expected, abs=1e-10)


def test_local_dimension_symmetric_with_peak_at_zero():
    for energy in (0.3, 0.9, 1.5):
        assert local_dimension(energy, 2, 4) == pytest.approx(
            local_dimension(-energy, 2, 4), abs=1e-13
        )
        assert local_dimension(energy, 2, 4) < local_dimension(0.0, 2, 4)
    with pytest.raises(ValidationError):
        local_dimension(2.0, 2, 4)
    with pytest.raises(ValidationError):
        local_dimension(-2.4, 2, 4)


# ---------------------------------------------------------------------------
# Phase diagram
# ---------------------------------------------------------------------------


def test_classify_labels():
    endpoint = interval_I(2, 4).endpoint
    assert phase_diagram(2, 4, [0.0])[0].label == "sc"
    assert phase_diagram(2, 4, [1.97])[0].label == "pp"
    assert phase_diagram(2, 4, [endpoint])[0].label == "boundary"
    assert phase_diagram(2, 4, [2.5])[0].label == "outside"
    assert phase_diagram(2, 4, [2.0])[0].label == "pp"
    # Empty window: everything inside the band is pp.
    for energy in np.linspace(-1.9, 1.9, 11):
        assert phase_diagram(7, "11/5", [float(energy)])[0].label == "pp"


def test_classify_symmetry_and_alpha_range():
    for energy in np.linspace(-1.95, 1.95, 27):
        point = phase_diagram(2, 4, [float(energy)])[0]
        mirror = phase_diagram(2, 4, [float(-energy)])[0]
        assert point.label == mirror.label
        if point.label == "sc":
            assert 0.0 < point.alpha <= 1.0
        else:
            assert point.alpha is None


def test_phase_diagram_transition_structure():
    energies = [float(e) for e in np.linspace(-2.0, 2.0, 401)]
    points = phase_diagram(2, 4, energies)
    labels = [p.label for p in points]
    # pp shoulders around a single sc core; grid points miss the exact boundary.
    changes = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    assert len(changes) == 2
    assert labels[0] == "pp" and labels[200] == "sc" and labels[-1] == "pp"
    assert points[200].alpha is not None and points[0].alpha is None


def test_corollary_on_the_high_gamma_grid():
    for gamma in (4.0, 5.0, 6.0, 8.0):
        for k in range(2, 40):
            assert corollary_check(k, gamma)
    with pytest.raises(ValidationError):
        corollary_check(2, 3.9)


def test_corollary_agrees_with_dimension_threshold():
    # k large enough that the dimension passes 3 forces V(k) >= gamma.
    gamma = 5.0
    k = 25
    assert theoretical_dimension(k, gamma) >= 3.0
    assert V(k) > gamma
    assert corollary_check(k, gamma)


# ---------------------------------------------------------------------------
# Monte Carlo exponent
# ---------------------------------------------------------------------------


def test_mc_exponent_matches_Z_within_error_bars():
    report = mc_exponent(2, 3, 1.0, n_bumps=300, trials=5, seed=12)
    assert report.z_predicted == pytest.approx(Z(1.0, 2), abs=1e-15)
    assert report.std_error is not None
    assert abs(report.mean_y - report.z_predicted) <= 5.0 * report.std_error
    assert report.slope_target == pytest.approx(Z(1.0, 2) / math.log(3.0), abs=1e-15)
    assert abs(report.slope_rel_error) < 0.15
    assert len(report.trial_means) == 5


def test_mc_exponent_is_deterministic_in_the_seed():
    first = mc_exponent(2, 3, 1.0, n_bumps=120, trials=3, seed=7)
    second = mc_exponent(2, 3, 1.0, n_bumps=120, trials=3, seed=7)
    assert first == second
    shifted = mc_exponent(2, 3, 1.0, n_bumps=120, trials=3, seed=8)
    assert shifted.mean_y != first.mean_y


def test_mc_exponent_single_trial_has_no_error_bar():
    report = mc_exponent(2, 3, 1.0, n_bumps=60, trials=1, seed=0)
    assert report.std_error is None
    assert report.deviation_sigmas is None


def test_mc_exponent_exact_right_angle_input():
    report = mc_exponent(2, 3, PhaseReducer.from_pi_multiple("1/2"), n_bumps=60, trials=2, seed=1)
    assert report.phi == math.pi / 2
    with pytest.raises(ValidationError, match="^phi: the angle must lie"):
        mc_exponent(2, 3, 4.0)
    # a multiple outside (0, 1), or one whose kick coefficients are not
    # finite, is refused under the field of an exact angle
    for outside in ("1", "0", "3/2"):
        with pytest.raises(ValidationError, match="^phi_pi_multiple: the angle must lie"):
            mc_exponent(2, 3, PhaseReducer.from_pi_multiple(outside), n_bumps=10, trials=2)
    with pytest.raises(ValidationError, match="^phi_pi_multiple: the kick coefficients of k = 100"):
        mc_exponent(100, 3, PhaseReducer.from_pi_multiple("1e-154"), n_bumps=10, trials=2)


def test_mc_exponent_shared_work_changes_nothing():
    # 400 bumps take the gaps through three or four precision steps (256
    # to 1,024 bits at gamma = 3), so the one table at the top precision
    # rounds gaps of every lower one, walked forward for an odd q (3, 7/3)
    # and backward for an even one (5/2).
    for gamma in (3, "7/3", "5/2"):
        check_shared_work_changes_nothing(gamma)


def check_shared_work_changes_nothing(gamma):
    k, phi, n_bumps, trials, seed = 2, 1.0, 400, 3, 11
    report = mc_exponent(k, gamma, phi, n_bumps=n_bumps, trials=trials, seed=seed)

    # One op without sharing: fresh floors, a fresh reducer and every gap
    # reduced whole per trial.
    runs = []
    for trial in range(trials):
        spec = sample_omega_tree(make_gamma_tree(k, gamma, n_bumps), seed, trial)
        runs.append(efgp_run(TreeSpec(spec.branch_levels, spec.branch_factors), phi))
    g = float(Fraction(gamma))
    log_g = math.log(g)
    x = np.arange(n_bumps + 1, dtype=float) * log_g
    xc = x - x.mean()
    num = 0.0
    for run in runs:
        num += float(np.sum(xc * np.array(run.log_r)))
    slope = num / (float(np.sum(xc * xc)) * trials)
    stacked = np.vstack([np.array(run.log_r) for run in runs])
    intercept = float(stacked.mean()) - slope * float(x.mean())
    means = np.asarray([run.mean_y() for run in runs])
    mean_y = float(means.mean())
    std_error = float(means.std(ddof=1) / math.sqrt(trials))
    z = Z(phi, k)
    # a float reducer given as phi serves every trial through the same table
    assert mc_exponent(k, gamma, PhaseReducer(phi), n_bumps=n_bumps, trials=trials, seed=seed) == report
    assert report == ExponentReport(
        k=k,
        gamma=g,
        phi=phi,
        n_bumps=n_bumps,
        trials=trials,
        seed=seed,
        z_predicted=z,
        mean_y=mean_y,
        std_error=std_error,
        deviation_sigmas=abs(mean_y - z) / std_error,
        slope=slope,
        slope_target=z / log_g,
        slope_rel_error=(slope - z / log_g) / (z / log_g),
        rms_residual=float(np.sqrt(np.mean((stacked - (intercept + slope * x)) ** 2))),
        trial_means=tuple(run.mean_y() for run in runs),
    )


def test_mc_exponent_builds_floors_and_one_phase_table_per_op(monkeypatch):
    floors, tables = [], []
    monkeypatch.setattr(
        "sparsetrees.spectral.make_gamma_tree",
        lambda *args: floors.append(args) or make_gamma_tree(*args),
    )
    table = PhaseReducer.table

    def recording_table(reducer, ratio, gaps, largest):
        tables.append(table(reducer, ratio, gaps, largest))
        return tables[-1]

    monkeypatch.setattr(PhaseReducer, "table", recording_table)
    for gamma in (3, "5/2"):
        mc_exponent(2, gamma, 1.0, n_bumps=50, trials=4, seed=3)
    assert len(floors) == 2 and len(tables) == 2
    # each op's table holds the gaps of its unjittered floors
    for (k, gamma, n_bumps), built in zip(floors, tables):
        levels = make_gamma_tree(k, gamma, n_bumps).branch_levels
        assert list(built.floors) == [b - a - 2 for a, b in zip((-2, *levels), levels)]
    # an exact op tables nothing: each trial reduces its gaps whole
    mc_exponent(2, 3, PhaseReducer.from_pi_multiple("1/3"), n_bumps=50, trials=4, seed=3)
    assert len(floors) == 3
    assert len(tables) == 2
    # a float reducer given as phi shares one table among its trials too
    mc_exponent(2, 3, PhaseReducer(1.0), n_bumps=50, trials=4, seed=3)
    assert len(floors) == 4
    assert len(tables) == 3


def test_mc_exponent_takes_no_blas_dot_product(monkeypatch):
    # BLAS picks its dot product kernel by CPU, and each kernel sums in its
    # own order, so the report's bits would depend on the host
    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", no_dot)
    report = mc_exponent(2, 3, 1.0, n_bumps=50, trials=3, seed=3)
    assert math.isfinite(report.slope)


def test_mc_exponent_computes_one_fixed_point_angle_per_op(monkeypatch):
    # A float phi builds one reducer per trial, but only the first one's
    # table computes a fixed-point angle, at the precision of the last level:
    # at gamma = 3 no jittered gap falls back to its exact residue, so the
    # later trials' reducers compute none (400 bumps meet four precisions).
    built, computing = [], []
    init, fixed = PhaseReducer.__init__, PhaseReducer._fixed

    def recording_init(reducer, *args, **kwargs):
        built.append(reducer)
        init(reducer, *args, **kwargs)

    def recording_fixed(reducer, bits):
        if bits not in reducer._fixed_cache:
            computing.append((id(reducer), bits))
        return fixed(reducer, bits)

    monkeypatch.setattr(PhaseReducer, "__init__", recording_init)
    monkeypatch.setattr(PhaseReducer, "_fixed", recording_fixed)
    mc_exponent(2, 3, 1.0, n_bumps=400, trials=4)
    assert len(built) == 4
    assert computing == [(id(built[0]), 1024)]


def test_mc_exponent_builds_no_generation_size_table(monkeypatch):
    # the phase flow reads levels and factors only, so the per-trial omega
    # specs never pay for the table of generation sizes
    built = []
    products = TreeSpec.prefix_products.func
    monkeypatch.setattr(
        TreeSpec, "prefix_products", property(lambda spec: built.append(spec) or products(spec))
    )
    mc_exponent(2, 3, 1.0, n_bumps=50, trials=4, seed=3)
    mc_exponent(2, 3, PhaseReducer.from_pi_multiple("1/3"), n_bumps=50, trials=4, seed=3)
    assert not built


def test_mc_exponent_guards_trials_before_building(monkeypatch):
    # trials * (n_bumps + 1) samples above the guard are refused before the
    # floors or any trial are built; at the guard, the floors are built
    def no_build(*args, **kwargs):
        raise AssertionError("floors or trial built")

    monkeypatch.setattr("sparsetrees.spectral.make_gamma_tree", no_build)
    monkeypatch.setattr("sparsetrees.spectral.sample_omega_tree", no_build)
    over = MC_SAMPLES_GUARD // 2001 + 1
    with pytest.raises(GuardError, match=f"^trials: {over} trials of 2001 points hold {over * 2001} samples"):
        mc_exponent(2, 3, 1.0, n_bumps=2000, trials=over)
    with pytest.raises(AssertionError, match="floors or trial built"):
        mc_exponent(2, 3, 1.0, n_bumps=2000, trials=over - 1)
    assert 20 * 2001 * 400 < MC_SAMPLES_GUARD  # AC4's runs sit far inside it


def test_mc_exponent_holds_about_one_array_of_samples():
    # MC_SAMPLES_GUARD bounds trials * (n_bumps + 1) samples of 8 bytes; an
    # op's peak stays within 3 times that, so the guard bounds its memory.
    # The first op warms the caches that every later op shares.
    trials, n_bumps = 300, 30
    mc_exponent(2, 3, 1.0, n_bumps=n_bumps, trials=1)
    tracemalloc.start()
    try:
        mc_exponent(2, 3, 1.0, n_bumps=n_bumps, trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * trials * (n_bumps + 1) * 8


def test_energy_grid_refuses_a_span_not_positive_and_finite():
    # past float range the span is inf, and numpy's linspace gave [nan, inf, 1e308]
    for lo, hi in ((-1e308, 1e308), (1.0, 1.0), (2.0, -2.0), (math.nan, 1.0), (-math.inf, 0.0)):
        with pytest.raises(ValidationError, match="^min: energy grid needs min < max, max - min finite$"):
            energy_grid(lo, hi, 3, "points")


def test_classify_refuses_a_nan_energy():
    with pytest.raises(ValidationError, match="^energy: must not be NaN$"):
        phase_diagram(2, 4, [math.nan])
    with pytest.raises(ValidationError, match="^energy: must not be NaN$"):
        phase_diagram(2, 4, [0.0, math.nan])
    assert phase_diagram(2, 4, [-math.inf])[0].label == "outside"


def test_energy_grid_refuses_points_naming_the_field():
    assert energy_grid(-1.0, 0.3, 2, "points") == [-1.0, 0.3]
    with pytest.raises(ValidationError, match="^grid_points: a grid needs at least 2 points$"):
        energy_grid(-2.0, 2.0, 1, "grid_points")
    with pytest.raises(GuardError, match=f"^points: {GRID_POINTS_GUARD + 1} points, guard is"):
        energy_grid(-2.0, 2.0, GRID_POINTS_GUARD + 1, "points")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(2, 10_000),
)
@example(-2.0, 2.0, 41)  # the phase-diagram fixture
@example(-2.0, 2.0, 1000)  # the default coverage grid
@example(0.0, 5e-324, 3)  # steps that underflow to 0
@example(-1e-320, 1e-320, 10_000)
@example(-1e300, 1e300, 7)
def test_energy_grid_is_numpys_linspace_bit_for_bit(lo, hi, points):
    assume(0.0 < hi - lo < math.inf)
    grid = energy_grid(lo, hi, points, "points")
    # numpy also multiplies out the last point, which it then sets to hi,
    # and may overflow there
    with np.errstate(over="ignore"):
        expected = np.linspace(lo, hi, points).tolist()
    assert [x.hex() for x in grid] == [x.hex() for x in expected]


def test_mc_exponent_guards_n_bumps_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="^n_bumps: 13100 floors"):
            mc_exponent(2, 3, 1.0, n_bumps=13_100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(ValidationError, match="^gamma: must be > 2, got 2$"):
        mc_exponent(2, 2, 1.0, n_bumps=10)


# ---------------------------------------------------------------------------
# Theorem classifier
# ---------------------------------------------------------------------------


def test_classifier_unbounded_factors_with_fast_gaps():
    levels = tuple(2 ** (n * n) for n in range(1, 7))
    factors = tuple(n + 1 for n in range(1, 7))
    report = theorem_classifier(TreeSpec(branch_levels=levels, branch_factors=factors))
    assert report.factors_unbounded
    assert report.gap_condition_holds
    assert report.holds
    assert report.prediction == PREDICTION_PURE_SC
    # Largest margin over the tail window, attained at the last gap:
    # log(2**36 - 2**25) / log(2*3*4*5*6) - 1.
    expected = math.log(2**36 - 2**25) / math.log(720) - 1.0
    assert report.epsilon_witness == pytest.approx(expected, abs=1e-12)


def test_classifier_defers_for_constant_factors():
    report = theorem_classifier(make_gamma_tree(2, 3, 10))
    assert not report.factors_unbounded
    assert report.prediction == PREDICTION_DEFERRED
    assert not report.holds


def test_classifier_defers_for_slow_gap_growth():
    levels = tuple(n * n for n in range(2, 12))
    factors = tuple(range(2, 12))
    report = theorem_classifier(TreeSpec(branch_levels=levels, branch_factors=factors))
    assert report.factors_unbounded
    assert not report.gap_condition_holds
    assert report.epsilon_witness < 0.0
    assert report.prediction == PREDICTION_DEFERRED


def test_classifier_single_level_spec():
    report = theorem_classifier(TreeSpec(branch_levels=(5,), branch_factors=(3,)))
    assert report.epsilon_witness is None
    assert not report.holds


# ---------------------------------------------------------------------------
# Essential spectrum coverage
# ---------------------------------------------------------------------------


def test_essential_spectrum_coverage_grows_with_depth():
    spec = TreeSpec(branch_levels=(600,), branch_factors=(2,))
    deep = essential_spectrum_coverage(spec, 500, 0.02)
    shallow = essential_spectrum_coverage(spec, 12, 0.02)
    assert deep >= 0.99
    assert shallow < deep
    assert essential_spectrum_coverage(spec, 3, 2.5) == pytest.approx(1.0)


def test_essential_spectrum_depth_guard():
    spec = TreeSpec(branch_levels=(600,), branch_factors=(2,))
    with pytest.raises(GuardError):
        essential_spectrum_coverage(spec, 200_000, 0.02)
