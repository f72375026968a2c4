"""Tests for the bump step, the phase flow and the transfer matrices it gives."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    Mat2,
    SiteCoefficients,
    bump_r_squared_ratio,
    checkpoint_transfers,
    efgp_transform,
    min_singular_direction,
    phase_to_pair,
    ratio_squared,
    simon_stolz_profile,
    solve_u,
    step_matrix,
    transfer_product,
    unimodularity_residual,
)

from sparsetrees.errors import ValidationError
from sparsetrees.phase import PhaseReducer
from sparsetrees.spectral import mc_exponent
from sparsetrees.transfer import boundary_theta0, bump_coefficients, bump_matrix, efgp_run, stretch_gaps
from sparsetrees.trees import TreeSpec, make_gamma_tree, sample_omega_tree

TWO_PI = 2.0 * math.pi


def full_entries(mat):
    """Scaled entries of a Mat2 as a plain array (small matrices only)."""
    return mat.entries * math.exp(mat.log_scale)


def circular_gap(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def small_tree():
    return TreeSpec(branch_levels=(2, 5, 9, 14), branch_factors=(2, 3, 2, 4))


# ---------------------------------------------------------------------------
# Mat2
# ---------------------------------------------------------------------------


def test_tracked_det_matches_numpy_for_random_products():
    rng = random.Random(7)
    for _ in range(25):
        mats = [
            Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(6)
        ]
        product = Mat2.identity()
        expected = np.eye(2)
        for m in mats:
            product = m @ product
            expected = m.entries @ expected
        assert product.det == pytest.approx(np.linalg.det(expected), rel=1e-10, abs=1e-12)
        assert product.det_residual() < 1e-10


def test_log_scale_renormalization_keeps_growth_finite():
    coeffs = SiteCoefficients.free()
    energy = 3.0
    mat = transfer_product(coeffs, energy, 500)
    # Outside [-2, 2] the free product grows like the larger root of
    # x^2 - E x + 1 = 0; the log norm must track that without overflow.
    rate = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert mat.log_scale > 0.0
    assert math.isfinite(mat.entries.max())
    assert mat.log_norm() == pytest.approx(500 * rate, rel=1e-2)
    assert mat.det == pytest.approx(math.exp(-2.0 * mat.log_scale), rel=1e-9)


def test_singular_values_match_numpy():
    rng = random.Random(21)
    for _ in range(40):
        m = Mat2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        smax, smin = m.singular_values()
        expected = np.linalg.svd(m.entries, compute_uv=False)
        assert smax == pytest.approx(expected[0], rel=1e-12, abs=1e-12)
        assert smin == pytest.approx(expected[1], rel=1e-9, abs=1e-12)


def test_min_singular_direction_matches_numpy():
    rng = random.Random(22)
    for _ in range(40):
        m = Mat2(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        report = min_singular_direction(m)
        _, _, vh = np.linalg.svd(m.entries)
        alignment = abs(report.vector[0] * vh[-1, 0] + report.vector[1] * vh[-1, 1])
        assert alignment == pytest.approx(1.0, abs=1e-8)
        assert math.hypot(*report.vector) == pytest.approx(1.0, abs=1e-12)


def test_isotropic_matrix_is_flagged():
    report = min_singular_direction(Mat2.identity())
    assert report.isotropic
    assert report.sigma_max == pytest.approx(1.0)
    assert report.sigma_min == pytest.approx(1.0)
    rotation = Mat2(math.cos(0.8), -math.sin(0.8), math.sin(0.8), math.cos(0.8))
    assert min_singular_direction(rotation).isotropic


# ---------------------------------------------------------------------------
# Steps, products, bumps
# ---------------------------------------------------------------------------


def test_transfer_product_columns_are_solutions():
    coeffs = SiteCoefficients.for_tree_block(small_tree())
    energy = 0.8
    u_first = solve_u(coeffs, energy, 20, init=(0.0, 1.0))
    u_second = solve_u(coeffs, energy, 20, init=(1.0, 0.0))
    for j in (1, 3, 7, 12, 19):
        mat = full_entries(transfer_product(coeffs, energy, j))
        assert mat[0, 0] == pytest.approx(u_first[j + 1], rel=1e-12, abs=1e-12)
        assert mat[1, 0] == pytest.approx(u_first[j], rel=1e-12, abs=1e-12)
        assert mat[0, 1] == pytest.approx(u_second[j + 1], rel=1e-12, abs=1e-12)
        assert mat[1, 1] == pytest.approx(u_second[j], rel=1e-12, abs=1e-12)


def test_transfer_determinant_telescopes():
    coeffs = SiteCoefficients.for_tree_block(small_tree())
    for j in range(1, 18):
        mat = transfer_product(coeffs, 0.4, j)
        assert mat.det == pytest.approx(1.0 / coeffs.a(j), rel=1e-10)


def test_bump_matrix_equals_its_two_steps():
    coeffs = SiteCoefficients((4, 9), (2.0, math.sqrt(3.0)))
    for energy in (0.0, 0.7, -1.3):
        for pos, rho in ((4, 2.0), (9, math.sqrt(3.0))):
            direct = full_entries(transfer_product(coeffs, energy, pos + 1, pos - 1))
            closed = Mat2(*bump_matrix(rho, energy))
            assert np.allclose(direct, closed.entries, atol=1e-12)
            assert closed.det == pytest.approx(1.0)


def test_bump_matrix_pinned_entries():
    assert bump_matrix(2.0, 1.0) == (-1.5, -0.5, 0.5, -0.5)


def test_bump_inverse_norm_lower_bound():
    # The two-step bump matrix is unimodular, so the norm of its inverse
    # equals its own norm, bounded below by max(1, rho - E^2).
    for rho in np.linspace(1.2, 6.0, 12):
        for energy in np.linspace(-1.9, 1.9, 13):
            smax, _ = Mat2(*bump_matrix(float(rho), float(energy))).singular_values()
            assert smax >= max(1.0, rho - energy * energy) - 1e-9


def test_free_solution_is_chebyshev():
    coeffs = SiteCoefficients.free()
    phi = 1.1
    u = solve_u(coeffs, 2.0 * math.cos(phi), 30)
    for j in range(31):
        assert u[j] == pytest.approx(math.sin(j * phi) / math.sin(phi), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Phase coordinates
# ---------------------------------------------------------------------------


def test_phase_pair_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        phi = rng.uniform(0.1, math.pi - 0.1)
        theta = rng.uniform(0.0, TWO_PI)
        radius = rng.uniform(0.2, 3.0)
        u_j, u_prev = phase_to_pair(theta, phi, radius)
        r_back, t_back = efgp_transform([u_prev, u_j], phi)
        assert r_back[0] == pytest.approx(radius, rel=1e-12)
        assert circular_gap(t_back[0], theta) < 1e-10


def test_free_propagation_is_a_rotation():
    phi = 0.9
    u = solve_u(SiteCoefficients.free(), 2.0 * math.cos(phi), 40)
    radius, angle = efgp_transform(u, phi)
    assert np.allclose(radius, radius[0], atol=1e-12)
    for i in range(1, radius.size):
        assert circular_gap(angle[i], angle[i - 1] + phi) < 1e-10


def test_boundary_theta0_matches_pair_angle():
    phi = 1.3
    assert boundary_theta0(0.0, phi) == 0.0
    rho = 0.6
    # The boundary term is the free recursion started from (-tan(rho), 1).
    _, angle = efgp_transform([-math.tan(rho), 1.0], phi)
    assert circular_gap(boundary_theta0(rho, phi), angle[0]) < 1e-12
    with pytest.raises(ValidationError):
        boundary_theta0(math.pi / 2, phi)


# ---------------------------------------------------------------------------
# Bump kick coefficients
# ---------------------------------------------------------------------------


def test_bump_coefficients_pinned_values():
    a, b, c = bump_coefficients(2, math.pi / 2)
    assert a == pytest.approx(1.25, abs=1e-12)
    assert b == pytest.approx(0.75, abs=1e-12)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert bump_coefficients(2, math.pi / 4)[0] == pytest.approx(1.5, abs=1e-12)


def test_bump_coefficients_unimodularity_grid():
    rng = random.Random(33)
    for _ in range(100):
        k = rng.randrange(2, 13)
        phi = rng.uniform(0.05, math.pi - 0.05)
        kick = bump_coefficients(k, phi)
        assert kick[0] >= 1.0
        # Forming A^2 - B^2 - C^2 cancels at magnitude A^2, which blows up
        # like 1/sin^4(phi) near the band edges, so scale the tolerance.
        assert unimodularity_residual(kick) < 1e-10 * max(1.0, kick[0] ** 2)


def test_bump_kick_matches_direct_ratio_everywhere():
    rng = random.Random(34)
    for _ in range(50):
        k = rng.randrange(2, 8)
        phi = rng.uniform(0.2, math.pi - 0.2)
        theta = rng.uniform(0.0, TWO_PI)
        kick = bump_coefficients(k, phi)
        assert ratio_squared(kick, theta) == pytest.approx(
            bump_r_squared_ratio(k, phi, theta), rel=1e-10
        )
        # Period pi in theta.
        assert ratio_squared(kick, theta + math.pi) == pytest.approx(
            ratio_squared(kick, theta), rel=1e-10
        )


def test_bump_coefficients_match_the_matrix_product_at_50_digits():
    # Oracle: G = Q B P at 50 digits, from the bump matrix and the two phase
    # maps written as matrices; r_out^2 / r_in^2 = v^T G^T G v for the unit
    # vector v at the entry angle.  The closed forms cancel terms of size
    # up to 2k + 8 near the band edges, a few ulps of a each; a wrong term
    # misses by O(a).
    edges = [0.05, 0.051, math.pi - 0.051, math.pi - 0.05]
    angles = edges + [float(phi) for phi in np.linspace(0.1, math.pi - 0.1, 23)]
    with mp.workdps(50):
        for k in range(2, 13):
            for phi in angles:
                s, c = mp.sin(mp.mpf(phi)), mp.cos(mp.mpf(phi))
                m11, m12, m21, m22 = bump_matrix(mp.sqrt(k), 2 * c)
                to_pair = mp.matrix([[1, c / s], [0, 1 / s]])
                from_pair = mp.matrix([[1, -c], [0, s]])
                g = from_pair * mp.matrix([[m11, m12], [m21, m22]]) * to_pair
                gtg = g.T * g
                exact = ((gtg[0, 0] + gtg[1, 1]) / 2, (gtg[0, 0] - gtg[1, 1]) / 2, gtg[0, 1])
                kick = bump_coefficients(k, phi)
                for got, want in zip(kick, exact):
                    assert abs(got - want) <= 1e-14 * kick[0], (k, phi)


def test_bump_coefficients_cache_is_bounded():
    for i in range(1100):
        bump_coefficients(2, 0.5 + i * 1e-4)
    assert bump_coefficients.cache_info().currsize <= 1024


def test_bump_coefficients_validation():
    with pytest.raises(ValidationError):
        bump_coefficients(1, 1.0)
    with pytest.raises(ValidationError):
        bump_coefficients(2, 0.0)
    with pytest.raises(ValidationError):
        bump_coefficients(2, math.pi)


# ---------------------------------------------------------------------------
# Checkpoint phase flow vs the site-by-site oracle
# ---------------------------------------------------------------------------


def run_sitewise_oracle(spec, phi, rho=0.0):
    """Slow reference: solve the recursion and read phases at checkpoints."""
    coeffs = SiteCoefficients.for_tree_block(spec, rho=rho)
    length = spec.branch_levels[-1] + 4
    u = solve_u(coeffs, 2.0 * math.cos(phi), length)
    radius, angle = efgp_transform(u, phi)
    rows = []
    for n, level in enumerate(spec.branch_levels, 1):
        exit_site = level + 3
        entry_site = level + 1
        rows.append(
            (
                n,
                math.log(radius[exit_site - 1]),
                angle[exit_site - 1],
                angle[entry_site - 1],
            )
        )
    return rows


def entry_angles(spec, phi, trajectory):
    """The incoming angle of each bump n >= 1, at which its kick is
    evaluated: (theta[n - 1] + reduce(gap before bump n)) mod 2 pi."""
    reducer = PhaseReducer(phi)
    levels = spec.branch_levels[: len(trajectory.theta) - 1]
    gaps = [b - a - 2 for a, b in zip((-2, *levels), levels)]
    return [(theta + reducer.reduce(gap)) % TWO_PI for theta, gap in zip(trajectory.theta, gaps)]


@pytest.mark.parametrize("phi", [1.0, 2.2, math.pi / 2])
def test_efgp_run_matches_sitewise_oracle(phi):
    spec = small_tree()
    trajectory = efgp_run(spec, phi)
    oracle = run_sitewise_oracle(spec, phi)
    assert len(trajectory.log_r) == len(oracle) + 1
    entries = entry_angles(spec, phi, trajectory)
    for n, log_r, theta, theta_entry in oracle:
        assert trajectory.log_r[n] == pytest.approx(log_r, abs=1e-10)
        assert circular_gap(trajectory.theta[n], theta) < 1e-10
        assert circular_gap(entries[n - 1], theta_entry) < 1e-10


def test_efgp_run_with_boundary_coupling_matches_oracle():
    spec = small_tree()
    phi, rho = 1.4, 0.5
    trajectory = efgp_run(spec, phi, theta0=boundary_theta0(rho, phi))
    oracle = run_sitewise_oracle(spec, phi, rho=rho)
    # The oracle radius carries the boundary frame's r(1) != 1 normalization.
    u0 = [-math.tan(rho), 1.0]
    r1 = math.hypot(u0[1] - math.cos(phi) * u0[0], math.sin(phi) * u0[0])
    for n, log_r, theta, _ in oracle:
        assert trajectory.log_r[n] == pytest.approx(log_r - math.log(r1), abs=1e-10)
        assert circular_gap(trajectory.theta[n], theta) < 1e-10


def test_efgp_run_is_bit_identical_to_the_helper_composition():
    # The per-bump body inlines the kick, the phase map and the bump matrix;
    # composing the oracle helpers must give the same bits.
    spec = TreeSpec(branch_levels=(3, 7, 40, 95, 10**30), branch_factors=(2, 5, 3, 2, 7))
    for phi, theta0 in ((0.37, 0.0), (1.0, 2.5), (2.9, 6.0)):
        reducer = PhaseReducer(phi)
        theta = theta0 % TWO_PI
        log_r = 0.0
        previous = None
        expected = []
        for level, k in zip(spec.branch_levels, spec.branch_factors):
            gap = level if previous is None else level - previous - 2
            previous = level
            entry = (theta + reducer.reduce(gap)) % TWO_PI
            y = 0.5 * math.log(ratio_squared(bump_coefficients(k, phi), entry))
            bump = Mat2(*bump_matrix(math.sqrt(k), 2.0 * math.cos(phi)))
            w0, w1 = bump.apply(phase_to_pair(entry, phi))
            theta = math.atan2(math.sin(phi) * w1, w0 - math.cos(phi) * w1) % TWO_PI
            log_r += y
            expected.append((log_r, theta, y, entry))
        trajectory = efgp_run(spec, phi, theta0=theta0)
        entries = entry_angles(spec, phi, trajectory)
        assert list(zip(trajectory.log_r[1:], trajectory.theta[1:], trajectory.y[1:], entries)) == expected


def test_efgp_run_row_zero_and_levels():
    spec = small_tree()
    trajectory = efgp_run(spec, 1.0, theta0=0.3)
    assert (trajectory.log_r[0], trajectory.y[0]) == (0.0, 0.0)
    assert trajectory.theta[0] == pytest.approx(0.3)
    for n_bumps in (1, 2, 4):
        trajectory = efgp_run(spec, 1.0, theta0=0.3, n_bumps=n_bumps)
        columns = (trajectory.log_r, trajectory.theta, trajectory.y)
        assert [len(column) for column in columns] == [n_bumps + 1] * 3
        for n in range(1, n_bumps + 1):
            assert trajectory.log_r[n] == trajectory.log_r[n - 1] + trajectory.y[n]


def test_mean_y_averages_every_bump():
    # the correctly rounded sum of the kicks, divided by their count
    for spec in (make_gamma_tree(2, 3, 50), make_gamma_tree(2, 3, 300), small_tree()):
        trajectory = efgp_run(spec, 1.0)
        ys = trajectory.y[1:]
        assert trajectory.mean_y() == float(sum(map(Fraction, ys))) / len(ys)


def test_efgp_run_refuses_a_reducer_at_another_angle():
    spec = make_gamma_tree(2, 3, 20)
    with pytest.raises(ValidationError, match="reducer"):
        efgp_run(spec, 1.0, reducer=PhaseReducer(2.0))
    assert efgp_run(spec, 1.0, reducer=PhaseReducer(1.0)) == efgp_run(spec, 1.0)
    multiple = Fraction(2, 7)
    efgp_run(spec, float(multiple) * math.pi, reducer=PhaseReducer.from_pi_multiple(multiple))


@given(st.fractions(0, 1).filter(lambda multiple: 0 < multiple < 1))
def test_an_exact_reducer_holds_phi_bit_for_bit(multiple):
    # an exact multiple m of pi holds the angle float(m) * pi bit for bit,
    # the phi the CLI passes with it and mc_exponent runs at
    assert PhaseReducer.from_pi_multiple(multiple).angle == float(multiple) * math.pi


def levels_table(reducer, spec, n_bumps=None):
    """The phase table of a spec's first n_bumps gaps, as `efgp_run` builds it."""
    levels = spec.branch_levels[:n_bumps]
    return reducer.table(spec.gamma or 1, stretch_gaps(levels), levels[-1])


def test_efgp_run_refuses_a_table_for_another_reducer_or_a_shorter_run():
    spec = make_gamma_tree(2, 3, 20)
    table = levels_table(PhaseReducer(1.0), spec)
    with pytest.raises(ValidationError, match="^table: "):
        efgp_run(spec, 1.1, table=table)
    third = PhaseReducer.from_pi_multiple("1/3")
    float_third = levels_table(PhaseReducer(third.angle), spec)
    with pytest.raises(ValidationError, match="^table: "):
        efgp_run(spec, third.angle, reducer=third, table=float_third)
    with pytest.raises(ValidationError, match="^table: 10 gaps for 20 bumps"):
        efgp_run(spec, 1.0, table=levels_table(PhaseReducer(1.0), spec, 10))
    assert levels_table(third, spec) is None
    # the recurrence is exact for any gaps: walked at ratio 1, the same
    # levels as an explicit spec give the very same table
    assert levels_table(PhaseReducer(1.0), TreeSpec(spec.branch_levels, spec.branch_factors)) == table
    # a table of other gaps at the same angle gives the same run
    other = levels_table(PhaseReducer(1.0), sample_omega_tree(spec, seed=2))
    assert efgp_run(spec, 1.0, table=other) == efgp_run(spec, 1.0, table=table) == efgp_run(spec, 1.0)


def test_stretch_gaps_refuses_levels_closer_than_two_sites():
    assert stretch_gaps((3, 5, 9)) == [3, 0, 2]
    with pytest.raises(ValidationError, match="^L: phase checkpoints need gaps of at least 2 sites"):
        stretch_gaps((3, 4, 9))
    with pytest.raises(ValidationError, match="^L: "):
        efgp_run(TreeSpec((3, 4, 9), (2, 2, 2)), 1.0)


def test_efgp_run_takes_a_table_for_every_spec_at_a_float_angle(monkeypatch):
    tables, cursors, reduced = [], [], []
    build, reduce = PhaseReducer.table, PhaseReducer.reduce

    def recorded_table(self, ratio, gaps, largest):
        tables.append(build(self, ratio, gaps, largest))
        return tables[-1]

    def recorded(self, steps, walk=None):
        cursors.append(walk)
        reduced.append((steps, reduce(self, steps, walk)))
        return reduced[-1][1]

    monkeypatch.setattr(PhaseReducer, "table", recorded_table)
    monkeypatch.setattr(PhaseReducer, "reduce", recorded)
    gamma = make_gamma_tree(2, 3, 60)
    omega = sample_omega_tree(make_gamma_tree(2, "7/3", 60), seed=9)
    for spec in (gamma, omega, make_gamma_tree(2, "5/2", 60)):
        # the same levels as an explicit spec, tabled at ratio 1
        explicit = TreeSpec(spec.branch_levels, spec.branch_factors)
        assert efgp_run(spec, 1.0, n_bumps=40) == efgp_run(explicit, 1.0, n_bumps=40)
    # a table of the run's own 40 gaps, one cursor for the reduce of each gap
    assert [len(table.floors) for table in tables] == [40] * 6
    assert None not in cursors and len(cursors) == 240
    # and each entry angle is the double of its gap reduced whole
    whole = PhaseReducer(1.0)
    assert [angle for _, angle in reduced] == [reduce(whole, gap) for gap, _ in reduced]
    tables.clear()
    cursors.clear()
    efgp_run(gamma, 1 / 3 * math.pi, reducer=PhaseReducer.from_pi_multiple("1/3"))
    assert tables == [None] and cursors == [None] * 60
    tables.clear()
    cursors.clear()
    # mc_exponent's float trials share one table of the floors' gaps, each
    # through a cursor of its own
    for gamma in ("7/3", "5/2"):
        mc_exponent(2, gamma, 1.0, n_bumps=30, trials=2, seed=4)
        floors = make_gamma_tree(2, gamma, 30).branch_levels
        assert len(tables) == 1 and tables[0].floors[-1] == floors[-1] - floors[-2] - 2
        assert len(cursors) == 60 and None not in cursors and len(set(map(id, cursors))) == 2
        tables.clear()
        cursors.clear()
    mc_exponent(2, 3, None, n_bumps=30, trials=2, seed=4, pi_multiple="1/3")
    assert tables == [None] * 2 and cursors == [None] * 60


def test_efgp_run_validation():
    spec = small_tree()
    with pytest.raises(ValidationError):
        efgp_run(spec, 0.0)
    with pytest.raises(ValidationError):
        efgp_run(spec, 1.0, n_bumps=9)
    with pytest.raises(ValidationError):
        efgp_run(TreeSpec(branch_levels=(2, 3), branch_factors=(2, 2)), 1.0)


# ---------------------------------------------------------------------------
# Truncated norms
# ---------------------------------------------------------------------------


def test_bounded_free_solution_norm_scales_like_sqrt_window():
    phi = 1.2
    u = solve_u(SiteCoefficients.free(), 2.0 * math.cos(phi), 4000)
    for window in (500, 1500, 3500):
        squared = float(np.dot(u[1 : window + 1], u[1 : window + 1]))
        assert 0.2 < squared / window < 2.0


# ---------------------------------------------------------------------------
# Transfer matrices from two phase-flow runs, and the subordinate direction
# ---------------------------------------------------------------------------


@st.composite
def bump_specs(draw):
    """Explicit specs: levels from 1, gaps from 2 (no free site between bumps), k in 2..6."""
    n = draw(st.integers(1, 4))
    first = draw(st.integers(1, 24))
    gaps = draw(st.lists(st.integers(2, 24), min_size=n - 1, max_size=n - 1))
    factors = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    return TreeSpec(tuple(accumulate([first, *gaps])), tuple(factors))


# The tolerance was fixed before the first run.  The site-by-site product
# turns each free site by the angle of the rounded energy 2 cos(phi), which
# differs from phi by up to about 1e-16 / sin(phi) <= 2.2e-15 here; over at
# most 100 sites that is a phase error below 3e-13.  A bump stretches a
# phase error by at most its largest kick r_out^2 / r_in^2 < 2a, below 1700
# at sin(phi) >= 0.05 and k <= 6, so two such bumps in a row keep it under
# 1e-6 of the largest entry.  A misplaced site or a swapped column turns a
# column by phi >= 0.05 and misses by 1e-2 or more.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(bump_specs(), st.floats(0.05, math.pi - 0.05, exclude_min=True, exclude_max=True))
@example(TreeSpec((1, 3, 5), (2, 6, 3)), 0.4)  # a bump at site 2, then no free sites between bumps
@example(TreeSpec((2, 5, 9, 14), (2, 3, 2, 4)), math.acos(-0.6))
def test_two_run_transfer_matches_the_site_by_site_product(spec, phi):
    coeffs = SiteCoefficients.for_tree_block(spec)
    energy = 2.0 * math.cos(phi)
    for n, fast in enumerate(checkpoint_transfers(spec, phi), 1):
        slow = full_entries(transfer_product(coeffs, energy, coeffs.positions[n - 1] + 1))
        assert np.max(np.abs(full_entries(fast) - slow)) <= 1e-6 * np.max(np.abs(slow)), n


def test_checkpoint_transfer_matches_direct_product():
    spec = small_tree()
    for rho in (0.0, 0.5):
        coeffs = SiteCoefficients.for_tree_block(spec, rho=rho)
        for energy in (0.0, 0.9, -1.2):
            # The runs start on the free boundary; undo its first step and
            # take the coupled one, so u(0) is replaced by u(0) - tan(rho) u(1).
            free_step_inverse = Mat2(0.0, 1.0, -1.0, energy)
            coupling = free_step_inverse @ step_matrix(coeffs, energy, 1)
            fast_by_bump = checkpoint_transfers(spec, math.acos(energy / 2.0))
            for n in (1, 2, 4):
                fast = fast_by_bump[n - 1] @ coupling
                slow = transfer_product(coeffs, energy, coeffs.positions[n - 1] + 1)
                assert np.allclose(full_entries(fast), full_entries(slow), atol=1e-10)
                assert fast.det == pytest.approx(1.0, abs=1e-12)


def test_checkpoint_transfer_handles_tight_and_leading_bumps():
    # Gap of exactly 2 between bumps, and a bump at the very first site.
    spec = TreeSpec((1, 3, 9), (4, 2, 9))
    coeffs = SiteCoefficients.for_tree_block(spec)
    for energy in (0.4, -0.8):
        fast_by_bump = checkpoint_transfers(spec, math.acos(energy / 2.0))
        for n in (1, 2, 3):
            slow = transfer_product(coeffs, energy, coeffs.positions[n - 1] + 1)
            assert np.allclose(full_entries(fast_by_bump[n - 1]), full_entries(slow), atol=1e-10)


def test_checkpoint_transfer_geometric_depth_runs_fast():
    levels = tuple(3**n for n in range(1, 41))
    spec = TreeSpec(branch_levels=levels, branch_factors=(2,) * 40)
    mat = checkpoint_transfers(spec, 1.0)[-1]
    assert mat.det == pytest.approx(1.0, abs=1e-9)
    log_max, log_min = mat.log_singular_values()
    assert log_max > 0.0
    assert log_max + log_min == pytest.approx(0.0, abs=1e-9)


def test_subordinate_direction_reciprocal_sigmas():
    for mat in checkpoint_transfers(small_tree(), math.acos(0.45)):
        report = min_singular_direction(mat)
        assert report.sigma_product == pytest.approx(1.0, abs=1e-9)
        assert math.hypot(*report.vector) == pytest.approx(1.0, abs=1e-12)


def test_subordinate_direction_matches_numpy_on_small_case():
    spec = small_tree()
    coeffs = SiteCoefficients.for_tree_block(spec)
    energy = 0.9
    n = 3
    report = min_singular_direction(checkpoint_transfers(spec, math.acos(energy / 2.0), n)[n - 1])
    slow = full_entries(transfer_product(coeffs, energy, coeffs.positions[n - 1] + 1))
    _, _, vh = np.linalg.svd(slow)
    alignment = abs(report.vector[0] * vh[-1, 0] + report.vector[1] * vh[-1, 1])
    assert alignment == pytest.approx(1.0, abs=1e-7)


def test_free_full_turn_checkpoint_is_isotropic():
    # At E = 0 four free steps make a full turn: the transfer matrix is a
    # rotation and no subordinate direction is distinguished.
    reducer = PhaseReducer.from_pi_multiple(Fraction(1, 2))
    free = transfer_product(SiteCoefficients.free(), 0.0, 8)
    report = min_singular_direction(free)
    assert report.isotropic
    assert reducer.reduce(8) == 0.0


# ---------------------------------------------------------------------------
# Simon-Stolz sum
# ---------------------------------------------------------------------------


def test_simon_stolz_free_energy_zero_counts_steps():
    coeffs = SiteCoefficients.free()
    profile = simon_stolz_profile(coeffs, 0.0, 64)
    assert profile.indices.tolist() == list(range(1, 65))
    assert profile.total == pytest.approx(64.0, abs=1e-9)
    assert simon_stolz_profile(coeffs, 0.0, 1).total == pytest.approx(1.0)


def test_simon_stolz_converges_outside_the_band():
    coeffs = SiteCoefficients.free()
    early = simon_stolz_profile(coeffs, 3.0, 200).total
    late = simon_stolz_profile(coeffs, 3.0, 400).total
    assert late - early < 1e-6


def test_simon_stolz_skips_bump_indices():
    spec = small_tree()
    coeffs = SiteCoefficients.for_tree_block(spec)
    profile = simon_stolz_profile(coeffs, 0.5, 17)
    skipped = set(coeffs.positions)
    assert skipped.isdisjoint(profile.indices.tolist())
    assert np.all(np.diff(profile.partial_sums) > 0.0)
