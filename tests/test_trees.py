"""Tree spec construction, counting, and family sampling."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_decomposition import generation_size, kappa

from sparsetrees.decomposition import plan_decomposition
from sparsetrees.errors import GuardError, ValidationError
from sparsetrees.operators import SymOperator, apply_root_boundary
from sparsetrees.reports import stable_json
from sparsetrees.spectral import mc_exponent
from sparsetrees.transfer import bump_matrix
from sparsetrees.trees import (
    FLOOR_BITS_GUARD,
    TreeSpec,
    ball_constant,
    ball_count,
    check_floor_bits,
    estimate_dimension,
    growing,
    make_gamma_tree,
    parse_gamma,
    sample_omega_tree,
    spec_from_record,
    spec_to_record,
    theoretical_dimension,
    validate,
)


def naive_generation_size(spec: TreeSpec, j: int) -> int:
    out = 1
    for level, k in zip(spec.branch_levels, spec.branch_factors):
        if level < j:
            out *= k
    return out


def naive_ball_count(spec: TreeSpec, radius: int) -> int:
    return sum(naive_generation_size(spec, j) for j in range(radius + 1))


def test_generation_size_examples():
    spec = TreeSpec((1,), (2,))
    assert generation_size(spec, 2) == 2
    assert generation_size(spec, 0) == 1
    spec2 = TreeSpec((2, 4), (2, 3))
    assert generation_size(spec2, 5) == 6


def test_generation_size_matches_naive_enumeration():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        levels = []
        cur = 0
        for _ in range(n):
            cur += rng.randint(1, 6)
            levels.append(cur)
        factors = [rng.randint(2, 5) for _ in range(n)]
        spec = TreeSpec(tuple(levels), tuple(factors))
        for j in range(0, levels[-1] + 3):
            assert generation_size(spec, j) == naive_generation_size(spec, j)


def test_generation_size_multiplicative_step():
    rng = random.Random(11)
    for _ in range(30):
        levels = tuple(sorted(rng.sample(range(1, 40), 4)))
        factors = tuple(rng.randint(2, 6) for _ in range(4))
        spec = TreeSpec(levels, factors)
        for j in range(0, 45):
            assert generation_size(spec, j + 1) == generation_size(spec, j) * kappa(spec, j)


def test_ball_count_examples():
    doubling = TreeSpec((2, 4, 8, 16), (2, 2, 2, 2))
    assert ball_count(doubling, 4) == 7
    spec = TreeSpec((1,), (3,))
    assert ball_count(spec, 2) == 5
    assert ball_count(spec, 0) == 1


def test_ball_count_matches_naive_sum():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        levels = []
        cur = 0
        for _ in range(n):
            cur += rng.randint(1, 8)
            levels.append(cur)
        factors = [rng.randint(2, 4) for _ in range(n)]
        spec = TreeSpec(tuple(levels), tuple(factors))
        for r in range(0, levels[-1] + 4):
            assert ball_count(spec, r) == naive_ball_count(spec, r)


def test_ball_count_monotone_and_contains_ray():
    spec = make_gamma_tree(3, "5/2", 6)
    prev = 0
    for r in range(0, 40):
        c = ball_count(spec, r)
        assert c >= r + 1
        assert c > prev
        prev = c


def test_free_spec_is_a_ray():
    free = TreeSpec((), ())
    assert ball_count(free, 10) == 11
    assert generation_size(free, 10) == 1


def test_theoretical_dimension_values():
    assert theoretical_dimension(2, 2) == pytest.approx(2.0, abs=1e-15)
    assert theoretical_dimension(2, 4) == pytest.approx(1.5, abs=1e-15)
    assert theoretical_dimension(3, 3) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValidationError):
        theoretical_dimension(2, 1)


def test_estimate_dimension_matches_log_ratio_oracle():
    spec = make_gamma_tree(2, 2, 12)
    r = 2**10
    expected = math.log(naive_ball_count(spec, r)) / math.log(r)
    assert estimate_dimension(spec, r) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError):
        estimate_dimension(spec, 1)


def test_estimate_dimension_converges_toward_theoretical():
    # the bias shrinks like 1/n along radii gamma**n
    spec = make_gamma_tree(2, 4, 13)
    dim = theoretical_dimension(2, 4)
    errors = [abs(estimate_dimension(spec, 4**n) - dim) for n in range(6, 13)]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_make_gamma_tree_examples():
    assert make_gamma_tree(2, 3.0, 4).branch_levels == (3, 9, 27, 81)
    assert make_gamma_tree(2, "5/2", 3).branch_levels == (2, 6, 15)
    with pytest.raises(ValidationError):
        make_gamma_tree(2, 1.01, 2)


def test_make_gamma_tree_exact_large_powers():
    spec = make_gamma_tree(2, "5/2", 60)
    assert spec.branch_levels[59] == 5**60 // 2**60
    # decimal string parses to the same exact rational
    assert make_gamma_tree(2, "2.5", 8).branch_levels == spec.branch_levels[:8]


def test_parse_gamma_forms():
    assert parse_gamma("5/2") == Fraction(5, 2)
    assert parse_gamma("2.5") == Fraction(5, 2)
    assert parse_gamma(3) == Fraction(3)
    with pytest.raises(ValidationError):
        parse_gamma("abc")


def omega_offsets(spec, base):
    """omega_n = L_n - floor(gamma**n) of an omega spec drawn on base."""
    return tuple(level - floor for level, floor in zip(spec.branch_levels, base.branch_levels))


def test_sample_omega_tree_deterministic_and_valid():
    base = make_gamma_tree(2, 3, 10)
    spec1 = sample_omega_tree(base, seed=42)
    spec2 = sample_omega_tree(base, seed=42)
    assert spec1 == spec2
    assert all(abs(w) <= n + 1 for n, w in enumerate(omega_offsets(spec1, base)))
    gaps = [b - a for a, b in zip(spec1.branch_levels, spec1.branch_levels[1:])]
    assert all(g >= 2 for g in gaps)
    spec3 = sample_omega_tree(base, seed=43)
    assert spec3 != spec1


def test_sample_omega_tree_offsets_within_range():
    base = make_gamma_tree(2, 3, 12)
    spec = sample_omega_tree(base, seed=7)
    omega = omega_offsets(spec, base)
    assert len(omega) == 12
    for n in range(12):
        assert -(n + 1) <= omega[n] <= n + 1


def test_sample_omega_tree_rejects_small_gamma():
    with pytest.raises(ValidationError):
        sample_omega_tree(make_gamma_tree(2, 2, 5), seed=1)


def scalar_omega_sample(k, gamma, n_levels, seed, trial):
    """(levels, omega, redraws) from one scalar draw per level, with repair."""
    floors = make_gamma_tree(k, gamma, n_levels).branch_levels
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | trial))
    levels, omegas, redraws = [], [], 0
    for n in range(1, n_levels + 1):
        lower = 1 if n == 1 else levels[-1] + 2
        while True:
            w = int(rng.integers(-n, n + 1))
            if floors[n - 1] + w >= lower:
                break
            redraws += 1
        levels.append(floors[n - 1] + w)
        omegas.append(w)
    return tuple(levels), tuple(omegas), redraws


_OMEGA_GAMMAS = ("2.01", "21/10", "5/2", "3", "7")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    gamma=st.sampled_from(_OMEGA_GAMMAS),
    n_levels=st.integers(1, 60),
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 7),
)
@example(gamma="2.01", n_levels=60, seed=0, trial=0)
def test_sample_omega_tree_matches_scalar_draws(gamma, n_levels, seed, trial):
    base = make_gamma_tree(2, gamma, n_levels)
    spec = sample_omega_tree(base, seed=seed, trial=trial)
    levels, omegas, _ = scalar_omega_sample(2, gamma, n_levels, seed, trial)
    assert spec.branch_levels == levels
    assert omega_offsets(spec, base) == omegas


def test_sample_omega_tree_matches_scalar_draws_through_repairs():
    redraws = 0
    for gamma in ("2.01", "21/10"):
        for seed in range(8):
            levels, omegas, fired = scalar_omega_sample(3, gamma, 60, seed, 1)
            base = make_gamma_tree(3, gamma, 60)
            spec = sample_omega_tree(base, seed=seed, trial=1)
            assert (spec.branch_levels, omega_offsets(spec, base)) == (levels, omegas)
            redraws += fired
    assert redraws > 0


def test_omega_marginal_is_uniform():
    # frequency of each omega_3 value over many trials, three-sigma band
    trials = 20000
    counts = {w: 0 for w in range(-3, 4)}
    base = make_gamma_tree(2, 3, 4)
    for t in range(trials):
        spec = sample_omega_tree(base, seed=2024, trial=t)
        counts[spec.branch_levels[2] - base.branch_levels[2]] += 1
    expect = trials / 7
    sigma = math.sqrt(trials * (1 / 7) * (6 / 7))
    for w, c in counts.items():
        assert abs(c - expect) < 3.5 * sigma, (w, c)


@pytest.mark.parametrize(
    "values,expected",
    [((), False), ((3,), False), ((2, 2, 2), False), ((2, 3), True), ((1, 3, 2, 4), False), ((1, 1, 2), True)],
)
def test_growing_is_nondecreasing_and_ends_higher(values, expected):
    assert growing(values) is expected
    assert growing(list(values)) is expected


def test_validate_flags():
    assert validate(make_gamma_tree(2, 3, 10)) == {
        "monotone": True,
        "sparse": True,
        "normal": True,
    }
    linear = TreeSpec(tuple(2 * n for n in range(1, 8)), (2,) * 7)
    assert validate(linear)["sparse"] is False
    two = TreeSpec((1, 2), (2, 2))
    assert validate(two)["normal"] is True
    rising = TreeSpec((2, 6, 18, 60), (2, 3, 4, 5))
    flags = validate(rising)
    assert flags["normal"] is True and flags["sparse"] is True


def test_spec_record_round_trip():
    gamma_spec = make_gamma_tree(2, "5/2", 6)
    assert spec_from_record(spec_to_record(gamma_spec)) == gamma_spec

    omega_spec = sample_omega_tree(make_gamma_tree(2, 3, 6), seed=5)
    rec = spec_to_record(omega_spec)
    assert rec["seed"] == 5
    assert spec_from_record(rec) == omega_spec

    explicit = TreeSpec((1, 4, 9), (2, 3, 2))
    assert spec_from_record(spec_to_record(explicit)) == explicit

    with pytest.raises(ValidationError):
        spec_from_record({"family": "gamma", "k": 2, "gamma": "x", "N": 3})


def test_omega_record_round_trips_its_trial():
    base = make_gamma_tree(2, 3, 30)
    spec = sample_omega_tree(base, seed=5, trial=3)
    record = spec_to_record(spec)
    assert record["trial"] == 3
    assert spec_from_record(record) == spec
    assert omega_offsets(spec_from_record(record), base)[:3] == (0, -2, 0)
    # trial 0 writes no trial field, so reports of earlier versions keep their bytes
    first = spec_to_record(sample_omega_tree(make_gamma_tree(2, 3, 30), seed=5))
    assert "trial" not in first
    with pytest.raises(ValidationError, match="^trial: must be an integer"):
        spec_from_record({**record, "trial": "3"})


def test_sample_omega_tree_needs_a_gamma_base():
    with pytest.raises(ValidationError, match="^family:"):
        sample_omega_tree(TreeSpec((3, 9), (2, 2)), seed=1)
    with pytest.raises(ValidationError, match="^gamma: must be > 2, got 2$"):
        sample_omega_tree(make_gamma_tree(2, 2, 5), seed=1)


def test_floor_bits_guard_refuses_before_building():
    # N (N + 1) / 2 * log2(3) bits against 2**27: 13,000 floors of gamma = 3
    # fit and 13,100 do not.  The refused sizes stay just over the guard, so
    # a guard that stopped firing would cost seconds, not all memory.
    assert 13_000 * 13_001 / 2 * math.log2(3) < FLOOR_BITS_GUARD < 13_100 * 13_101 / 2 * math.log2(3)
    check_floor_bits(Fraction(3), 13_000, "N")
    with pytest.raises(GuardError, match="^n_bumps: 2000 floors"):
        check_floor_bits(Fraction(10**100), 2_000, "n_bumps")
    # the bits are counted exactly: no float holds N (N + 1) / 2 here
    with pytest.raises(GuardError, match=r"^N: 10{400} floors of gamma = 3/2 hold over 2\^1000 bits"):
        check_floor_bits(Fraction(3, 2), 10**400, "N")
    tracemalloc.start()
    try:
        for build in (
            lambda: make_gamma_tree(2, 3, 13_100),
            lambda: spec_from_record({"family": "omega", "k": 2, "gamma": 3, "N": 13_100, "seed": 1}),
        ):
            with pytest.raises(GuardError, match="^N: 13100 floors of gamma = 3 hold about"):
                build()
        # Floors of gamma near 1 are few bits each, so the guard admits many;
        # their first repeat refuses the spec before the rest are built.
        with pytest.raises(ValidationError, match="^gamma: floor.gamma..n. not strictly"):
            make_gamma_tree(2, "1.0001", 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_spec_validation_errors():
    with pytest.raises(ValidationError):
        TreeSpec((3, 2), (2, 2))
    with pytest.raises(ValidationError):
        TreeSpec((1, 2), (2, 1))
    with pytest.raises(ValidationError):
        TreeSpec((0,), (2,))
    with pytest.raises(ValidationError):
        TreeSpec((1,), (2, 3))


BASE = make_gamma_tree(2, 3, 4)
EMPTY = SymOperator(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))


@pytest.mark.parametrize("refused,field", [
    (lambda: plan_decomposition(BASE, -1), "depth"),
    (lambda: TreeSpec((1, 3), (2, 2), family="bogus"), "family"),
    (lambda: TreeSpec((1, 3), (2, 2), family="gamma"), "gamma"),
    (lambda: ball_constant(2, 1), "gamma"),
    (lambda: sample_omega_tree(BASE, -1), "seed"),
    (lambda: sample_omega_tree(BASE, 2**64), "seed"),
    (lambda: sample_omega_tree(BASE, 0, 2**64), "trial"),
    (lambda: mc_exponent(2, 3, 1.0, 10, 0), "trials"),
    (lambda: bump_matrix(0.0, 1.0), "rho"),
    (lambda: apply_root_boundary(EMPTY, 0.0), "op"),
    (lambda: stable_json({"x": object()}), "payload"),
], ids=[
    "plan-depth", "unknown-family", "gamma-family-without-gamma", "ball-constant-gamma-1",
    "negative-seed", "seed-past-64-bits", "trial-past-64-bits", "no-trials", "zero-bump-weight",
    "empty-operator", "unserializable-payload",
])
def test_public_refusals_name_their_field(refused, field):
    with pytest.raises(ValidationError, match=f"^{field}: "):
        refused()
