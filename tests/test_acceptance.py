"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so the verdict and the evidence stay together in the log.
Criteria 4 and 8 contain cases that fail for documented structural
reasons (exact-resonance phases, finite-radius dimension bias); they are
asserted faithfully rather than weakened, so a red line there is the
recorded outcome, not a regression.
"""

import math
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    Mat2,
    SiteCoefficients,
    checkpoint_transfers,
    efgp_transform,
    min_singular_direction,
    simon_stolz_profile,
    solve_u,
    unimodularity_residual,
)

from sparsetrees.cli import run as cli_run
from sparsetrees.decomposition import plan_decomposition, verify_decomposition
from sparsetrees.spectral import (
    Z,
    essential_spectrum_coverage,
    interval_I,
    local_dimension,
    mc_exponent,
    theoretical_dimension,
)
from sparsetrees.transfer import bump_coefficients, bump_matrix, efgp_run
from sparsetrees.trees import (
    TreeSpec,
    ball_constant,
    ball_count,
    estimate_dimension,
    make_gamma_tree,
)

TWO_PI = 2.0 * math.pi
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _circular_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def _random_specs(count: int, seed: int = 2026):
    """Random sparse specs with a truncation depth keeping them modest."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(3, 6)
        levels = []
        level = rng.randint(2, 6)
        for i in range(n):
            levels.append(level)
            level += rng.randint(2, 4 + 3 * i)
        factors = [rng.randint(2, 5) for _ in range(n)]
        spec = TreeSpec(branch_levels=tuple(levels), branch_factors=tuple(factors))
        depth = levels[-1] + rng.randint(1, 10)
        while ball_count(spec, depth) > 1200 and depth > levels[0] + 1:
            depth -= 1
        cases.append((spec, depth))
    return cases


def _acceptance_specs():
    cases = _random_specs(18)
    cases.append((make_gamma_tree(2, "5/2", 9), 150))   # 2863 vertices
    cases.append((make_gamma_tree(3, 3, 5), 97))        # 2938 vertices
    return cases


def test_ac01_decomposition_equivalence():
    started = time.perf_counter()
    cases = _acceptance_specs()
    worst = 0.0
    biggest = 0
    for spec, depth in cases:
        for variant in ("adjacency", "degree"):
            report = verify_decomposition(spec, depth, variant)
            worst = max(worst, report.max_deviation / report.tolerance)
            biggest = max(biggest, report.tree_size)
            assert report.passed, (spec, depth, variant, report.max_deviation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed < 60.0
    _verdict(
        "AC1 decomposition equivalence",
        ok,
        f"{len(cases)} specs, both variants, max vertices {biggest}, "
        f"worst dev/tol {worst:.2e}, tol 1e-9*(1+max|lambda|), {elapsed:.1f}s",
    )
    assert ok


def test_ac02_counting_identity():
    checked = 0
    for spec, depth in _acceptance_specs():
        for d in range(depth + 1):
            plan = plan_decomposition(spec, d)
            total = sum(
                mult * (d - offset + 1)
                for offset, mult in zip(plan.offsets, plan.multiplicities)
            )
            assert total == ball_count(spec, d), (spec, d)
            checked += 1
    _verdict("AC2 counting identity", True, f"{checked} (spec, depth) pairs, exact integer equality")


def test_ac03_closed_form_consistency():
    alpha_worst = 0.0
    for k, gamma in ((2, 4.0), (3, 3.0), (2, 2.5)):
        for energy in np.linspace(-1.99, 1.99, 200):
            phi = math.acos(float(energy) / 2.0)
            reference = 1.0 - math.log((bump_coefficients(k, phi)[0] + 1.0) / 2.0) / math.log(gamma)
            alpha_worst = max(alpha_worst, abs(local_dimension(float(energy), k, gamma) - reference))

    boundary_worst = 0.0
    for k, gamma in ((2, 3.0), (2, 4.0), (2, 2.5), (3, 3.0), (5, 9.0)):
        endpoint = interval_I(k, gamma).endpoint
        boundary_worst = max(boundary_worst, abs(local_dimension(endpoint, k, gamma)))

    identity_worst = 0.0
    for k in range(2, 12):
        for phi in np.linspace(0.3, math.pi - 0.3, 10):
            kick = bump_coefficients(k, float(phi))
            identity_worst = max(identity_worst, unimodularity_residual(kick))

    ok = alpha_worst <= 1e-10 and boundary_worst <= 1e-12 and identity_worst <= 1e-10
    _verdict(
        "AC3 closed-form consistency",
        ok,
        f"alpha dev {alpha_worst:.2e} <= 1e-10 on 3x200 E-grid, "
        f"alpha at window edge {boundary_worst:.2e} <= 1e-12, "
        f"kick identity dev {identity_worst:.2e} <= 1e-10 on 100-pt (k,phi) grid",
    )
    assert ok


def test_ac04_monte_carlo_exponent():
    started = time.perf_counter()
    results = []
    for label, phi, multiple in (("pi/2", None, "1/2"), ("1.0", 1.0, None), ("2.0", 2.0, None)):
        report = mc_exponent(2, 3, phi, n_bumps=2000, trials=20, seed=20260822, pi_multiple=multiple)
        results.append((label, report))
    elapsed = time.perf_counter() - started

    parts = []
    ok = elapsed < 30.0
    for label, report in results:
        mean_ok = report.deviation_sigmas <= 5.0
        slope_ok = abs(report.slope_rel_error) <= 0.05
        ok = ok and mean_ok and slope_ok
        parts.append(
            f"phi={label}: mean dev {report.deviation_sigmas:.2f} sigma"
            f"{'' if mean_ok else ' [>5]'}, slope err {report.slope_rel_error:+.2%}"
            f"{'' if slope_ok else ' [>5%]'}"
        )
    _verdict(
        "AC4 Monte Carlo exponent",
        ok,
        f"k=2 gamma=3 N=2000 x20 trials, {'; '.join(parts)}, {elapsed:.1f}s",
    )
    assert ok, "exact pi/2 sits on the excluded resonant set; see the phase-angle notes in README"


def test_ac05_efgp_cross_validation():
    spec = make_gamma_tree(2, "5/2", 10)  # L_max = 9536 <= 1e4
    length = spec.branch_levels[-1] + 4
    coeffs = SiteCoefficients.for_tree_block(spec)
    worst_log_r = 0.0
    worst_theta = 0.0
    for phi in (0.7, 1.3, 2.9):
        trajectory = efgp_run(spec, phi)
        u = solve_u(coeffs, 2.0 * math.cos(phi), length)
        radius, angle = efgp_transform(u, phi)
        columns = zip(spec.branch_levels, trajectory.log_r[1:], trajectory.theta[1:])
        for level, log_r, theta in columns:
            site = level + 3
            worst_log_r = max(worst_log_r, abs(log_r - math.log(radius[site - 1])))
            worst_theta = max(worst_theta, _circular_gap(theta, angle[site - 1]))
    ok = worst_log_r <= 1e-9 and worst_theta <= 1e-9
    _verdict(
        "AC5 phase-flow cross-validation",
        ok,
        f"L_max 9536, 3 angles x 10 checkpoints, log r dev {worst_log_r:.2e} <= 1e-9, "
        f"theta dev {worst_theta:.2e} <= 1e-9",
    )
    assert ok


def test_ac06_subordinate_reciprocity():
    spec = make_gamma_tree(2, 3, 50)
    phi = 1.0
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    c = ((1.0 + abs(cos_phi)) / sin_phi) ** 2

    def log_efgp_radius(mat, vector):
        w = mat.apply(vector)
        return mat.log_scale + 0.5 * math.log(
            (w[0] - cos_phi * w[1]) ** 2 + (sin_phi * w[1]) ** 2
        )

    sigma_worst = 0.0
    product_worst = 0.0
    # all 50 checkpoints from two efgp_run runs, at theta0 = 0 and pi/2
    for mat in checkpoint_transfers(spec, phi):
        direction = min_singular_direction(mat)
        sigma_worst = max(sigma_worst, abs(direction.sigma_product - 1.0))
        v_min = direction.vector
        v_max = (-v_min[1], v_min[0])
        log_pr = log_efgp_radius(mat, v_min) + log_efgp_radius(mat, v_max)
        product_worst = max(product_worst, abs(log_pr))
    ok = sigma_worst <= 1e-9 and product_worst <= math.log(c) + 1e-9
    _verdict(
        "AC6 subordinate reciprocity",
        ok,
        f"50 checkpoints k=2 gamma=3, |sigma_min*sigma_max - 1| {sigma_worst:.2e} <= 1e-9, "
        f"p*r in [1/c, c] with c = {c:.6f}, worst |log(p*r)| {product_worst:.3f} <= log c {math.log(c):.3f}",
    )
    assert ok


def test_ac07_transfer_bounds():
    bound_margin = math.inf
    for rho in np.linspace(0.5, 10.0, 50):
        for energy in np.linspace(-1.96, 1.96, 50):
            smax, _ = Mat2(*bump_matrix(float(rho), float(energy))).singular_values()
            bound_margin = min(bound_margin, smax - max(1.0, float(rho) - float(energy) ** 2))
    bound_ok = bound_margin >= -1e-12

    coeffs = SiteCoefficients.free()
    slope_min = math.inf
    for energy in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
        profile = simon_stolz_profile(coeffs, energy, 2000)
        x = profile.indices / profile.indices[-1]
        y = profile.partial_sums / profile.partial_sums[-1]
        xc = x - x.mean()
        slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
        slope_min = min(slope_min, slope)
    slope_ok = slope_min > 0.9

    ok = bound_ok and slope_ok
    _verdict(
        "AC7 transfer bounds",
        ok,
        f"two-step norm bound margin {bound_margin:.2e} >= 0 on 50x50 (rho,E) grid, "
        f"normalized free partial-sum slope min {slope_min:.4f} > 0.9",
    )
    assert ok


def test_ac08_dimension_estimates():
    started = time.perf_counter()
    parts = []
    ok = True
    for k, gamma in ((2, 2), (2, 4), (3, 3)):
        spec = make_gamma_tree(k, gamma, 12)
        estimate = estimate_dimension(spec, gamma**12)
        target = theoretical_dimension(k, gamma)
        rel = abs(estimate - target) / target
        case_ok = rel <= 0.05
        ok = ok and case_ok
        parts.append(f"(k={k},gamma={gamma}): {rel:.2%}{'' if case_ok else ' [>5%]'}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _verdict(
        "AC8 dimension estimates",
        ok,
        f"radius gamma^12, {'; '.join(parts)}, {elapsed * 1000:.0f}ms",
    )
    assert ok, "finite-radius bias at gamma^12; see the dimension notes in README"


def test_ac12_dimension_bias_law():
    # Criterion 8's miss as a law: at r = gamma**n, integer gamma, the ball
    # holds C (k gamma)**n + delta vertices with C = ball_constant(k, gamma)
    # and delta = gamma + 1 - C k gamma, so
    #   estimate_dimension = d + log C / log r + log(1 + x) / log r,
    #   x = (delta / C) (k gamma)**-n > 0.
    # The last term lies in (0, x / log r), and (delta / C) / log r is
    # 0.60, 0.22 and 0.53 for the three families at n = 12, so it stays
    # below (k gamma)**-n: 6.0e-8, 1.5e-11 and 3.5e-12.  The floats of both
    # sides are off by a few ulps of about 2, near 1e-15, so the tolerance
    # (k gamma)**-n keeps a margin of 1e-12 over both.
    n = 12
    parts = []
    ok = True
    for k, gamma in ((2, 2), (2, 4), (3, 3)):
        radius = gamma**n
        estimate = estimate_dimension(make_gamma_tree(k, gamma, n), radius)
        law = theoretical_dimension(k, gamma) + math.log(ball_constant(k, gamma)) / math.log(radius)
        tolerance = float(k * gamma) ** -n
        case_ok = abs(estimate - law) <= tolerance
        ok = ok and case_ok
        parts.append(
            f"(k={k},gamma={gamma}): |estimate - law| {abs(estimate - law):.2e} "
            f"{'<=' if case_ok else '>'} {tolerance:.2e}"
        )
    _verdict("AC12 dimension bias law", ok, f"radius gamma^{n}, {'; '.join(parts)}")
    assert ok


def test_ac09_corollary_grid():
    counterexamples = 0
    checked = 0
    for gamma in (4, 5, 6, 8):
        k_lo = math.ceil(gamma**2)
        k_hi = 4 * gamma**2
        for k in sorted({int(round(v)) for v in np.linspace(k_lo, k_hi, 10)}):
            checked += 1
            if theoretical_dimension(k, gamma) >= 3.0 and interval_I(k, gamma) is not None:
                counterexamples += 1
    ok = counterexamples == 0
    _verdict(
        "AC9 high-dimension window emptiness",
        ok,
        f"gamma in {{4,5,6,8}}, k in [ceil(gamma^2), 4 gamma^2] x 10, "
        f"{checked} points, {counterexamples} counterexamples",
    )
    assert ok


def test_ac10_essential_spectrum_coverage():
    coverage = essential_spectrum_coverage(make_gamma_tree(2, "5/2", 9), 2000, 0.02)
    ok = coverage >= 0.99
    _verdict(
        "AC10 essential spectrum coverage",
        ok,
        f"depth 2000, eps 0.02, covered fraction {coverage:.4f} >= 0.99",
    )
    assert ok


def test_ac11_cli_determinism(tmp_path):
    cases = [
        ("tree-stats", "tree_stats"),
        ("decompose", "decompose"),
        ("spectrum", "spectrum"),
        ("efgp-run", "efgp_run"),
        ("phase-diagram", "phase_diagram"),
        ("mc-exponent", "mc_exponent"),
        ("classify-theorems", "classify_theorems"),
    ]
    identical = 0
    for subcommand, stem in cases:
        config = str(FIXTURES / f"{stem}.json")
        first = tmp_path / f"{stem}.a"
        second = tmp_path / f"{stem}.b"
        assert cli_run([subcommand, "--config", config, "--out", str(first)]) == 0
        assert cli_run([subcommand, "--config", config, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), subcommand
        identical += 1
    _verdict(
        "AC11 CLI determinism",
        True,
        f"{identical}/7 fixtures byte-identical across repeated runs",
    )
