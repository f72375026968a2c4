"""Tests for the high-precision phase reduction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrees import phase
from sparsetrees.errors import ValidationError
from sparsetrees.phase import PhaseReducer, parse_pi_multiple
from sparsetrees.trees import make_gamma_tree, sample_omega_tree

TWO_PI = 2.0 * math.pi


def fixed_point_residue(reducer, steps):
    """(numerator, 2**bits) of the fractional turn of steps * angle from the
    fixed-point angle at reduce's precision, also for a rational angle."""
    bits = reducer._bits_for(steps)
    return (steps * reducer._fixed(bits)) % (1 << bits), 1 << bits


def residue_fraction(reducer, steps, use_exact=True):
    """Fractional part of steps * angle / (2*pi) as an exact rational.

    Exact when the angle is a rational multiple of pi; otherwise, or with
    use_exact=False, the fixed-point value, within 2**-(bits -
    steps.bit_length()) of the truth.  The reference that reduce's float
    and its error bound are checked against.
    """
    if reducer.circle_fraction is not None and use_exact:
        return steps * reducer.circle_fraction % 1
    return Fraction(*fixed_point_residue(reducer, steps))


def circular_gap(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def test_reduce_small_steps_matches_fmod():
    for angle in (0.3, 1.0, math.pi / 2, 2.9):
        reducer = PhaseReducer.from_angle(angle)
        for steps in (0, 1, 2, 7, 100, 1000):
            expected = math.fmod(steps * angle, TWO_PI)
            assert circular_gap(reducer.reduce(steps), expected) < 1e-11


def test_reduce_matches_repeated_addition():
    angle = 1.2345678901234
    reducer = PhaseReducer.from_angle(angle)
    acc = 0.0
    for steps in range(1, 500):
        acc = math.fmod(acc + angle, TWO_PI)
        assert circular_gap(reducer.reduce(steps), acc) < 1e-9


def test_rational_multiple_is_exact():
    reducer = PhaseReducer.from_pi_multiple(Fraction(1, 2))
    assert reducer.reduce(4) == 0.0
    assert reducer.reduce(3) == pytest.approx(3 * math.pi / 2, abs=0.0)
    # 10**30 is divisible by 4, so one extra quarter turn remains.
    assert reducer.reduce(10**30 + 1) == pytest.approx(math.pi / 2, abs=0.0)
    assert residue_fraction(reducer, 10**30 + 2) == Fraction(1, 2)


def test_fixed_point_engine_matches_exact_rationals():
    # The documented precision bound: the fixed-point path agrees with
    # exact rational arithmetic to far better than 1e-30 of a turn for
    # step counts up to 1e30.
    rng = random.Random(4242)
    for _ in range(20):
        p = rng.randrange(1, 64)
        q = rng.randrange(p + 1, 128)
        reducer = PhaseReducer.from_pi_multiple(Fraction(p, q))
        steps = rng.randrange(10**29, 10**30)
        exact = residue_fraction(reducer, steps)
        fixed = residue_fraction(reducer, steps, use_exact=False)
        difference = abs(fixed - exact)
        # Wrap-around: the two representations may sit on opposite sides of 0.
        difference = min(difference, 1 - difference)
        assert float(difference) * TWO_PI < 1e-30


def test_adaptive_precision_handles_geometric_step_counts():
    steps = 3**2000
    reducer = PhaseReducer.from_pi_multiple(Fraction(1, 3))
    # 3**2000 * (1/3) pi mod 2 pi: the multiplier mod 6 is 3, giving pi.
    assert reducer.reduce(steps) == pytest.approx(math.pi, abs=0.0)
    fixed = residue_fraction(reducer, steps, use_exact=False)
    exact = residue_fraction(reducer, steps)
    difference = abs(fixed - exact)
    difference = min(difference, 1 - difference)
    assert float(difference) * TWO_PI < 1e-30


def test_reduce_output_range():
    rng = random.Random(99)
    for _ in range(50):
        reducer = PhaseReducer.from_angle(rng.uniform(-10.0, 10.0))
        value = reducer.reduce(rng.randrange(0, 10**18))
        assert 0.0 <= value < TWO_PI


def test_construction_and_step_validation():
    with pytest.raises(ValidationError):
        PhaseReducer()
    with pytest.raises(ValidationError):
        PhaseReducer(angle=1.0, circle_fraction=Fraction(1, 4))
    with pytest.raises(ValidationError):
        PhaseReducer.from_angle(math.inf)
    with pytest.raises(ValidationError):
        PhaseReducer.from_angle(1.0).reduce(-1)


def test_negative_angle_reduces_into_range():
    reducer = PhaseReducer.from_angle(-0.7)
    assert reducer.reduce(1) == pytest.approx(TWO_PI - 0.7, rel=1e-15)
    assert reducer.reduce(13) == pytest.approx(math.fmod(-0.7 * 13, TWO_PI) + TWO_PI, rel=1e-12)


def test_parse_pi_multiple_names_the_field():
    assert parse_pi_multiple("3/4") == Fraction(3, 4)
    assert parse_pi_multiple(Fraction(1, 3)) == Fraction(1, 3)
    for bad in ("1/0", "abc", "inf", None):
        with pytest.raises(ValidationError, match="^phi_pi_multiple: cannot parse"):
            parse_pi_multiple(bad, "phi_pi_multiple")
    with pytest.raises(ValidationError, match="^pi_multiple: "):
        PhaseReducer.from_pi_multiple("1/0")


def test_fixed_point_bound_holds_for_huge_angles():
    # The integer part of angle / 2pi, up to about 1,000 bits at 1e300,
    # must not eat the working precision of the fixed-point angle: the
    # residue stays within the documented 2**-180 of a turn of mpmath's
    # at 5,000 bits.
    import mpmath as mp

    rng = random.Random(5)
    angles = [3.0, -3.0, 1e10, 1e60, -1e60, 1e100, -1e100, 1e300, -1e300]
    angles += [rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(0.5, 1.0), rng.randrange(2, 997)) for _ in range(20)]
    cases = []
    with mp.workprec(5000):
        for angle in angles:
            cases.append((PhaseReducer.from_angle(angle), mp.mpf(angle) / (2 * mp.pi)))
        for multiple in (Fraction(10**80 + 1, 3), Fraction(-(10**200) - 7, 11)):
            cases.append((PhaseReducer.from_pi_multiple(multiple), mp.mpf(multiple.numerator) / (2 * multiple.denominator)))
        for reducer, turn in cases:
            for steps in (1, 12345, 3**100):
                got = residue_fraction(reducer, steps, use_exact=False)
                gap = mp.mpf(got.numerator) / got.denominator - steps * turn
                assert abs(gap - mp.nint(gap)) < mp.mpf(2) ** -180, (reducer.angle, steps)


# ---------------------------------------------------------------------------
# reduce is bit for bit the float of the exact residue
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

_steps = st.one_of(
    st.integers(0, 2**64),
    st.integers(0, 3**2500),
    st.integers(0, 2500).map(lambda n: 3**n),
)
_reducers = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(PhaseReducer.from_angle),
    st.fractions(-4, 4, max_denominator=10**6).map(PhaseReducer.from_pi_multiple),
)


def fraction_reduce(reducer, steps):
    """reduce as the float of the gcd-reduced Fraction, folded to 0 at 2*pi."""
    value = float(residue_fraction(reducer, steps)) * TWO_PI
    return value if value < TWO_PI else 0.0


@_PROPERTY
@given(reducer=_reducers, steps=_steps)
def test_reduce_is_the_float_of_the_exact_fraction(reducer, steps):
    assert reducer.reduce(steps).hex() == fraction_reduce(reducer, steps).hex()


@_PROPERTY
@given(multiple=st.fractions(-4, 4, max_denominator=10**6), steps=_steps)
def test_fixed_point_residue_division_is_the_fraction_float(multiple, steps):
    # The fixed-point engine of a rational angle: its correctly rounded
    # integer division gives the float of the reduced Fraction.
    reducer = PhaseReducer.from_pi_multiple(multiple)
    num, den = fixed_point_residue(reducer, steps)
    assert den & (den - 1) == 0
    assert (num / den).hex() == float(residue_fraction(reducer, steps, use_exact=False)).hex()


# ---------------------------------------------------------------------------
# reduce with a walk: gaps by the floors' exact recurrence
# ---------------------------------------------------------------------------


def floor_gaps(levels):
    """efgp_run's free stretches: L_1, then L_n - L_(n-1) - 2."""
    return [levels[0]] + [b - a - 2 for a, b in zip(levels, levels[1:])]


_odd_ratios = st.tuples(st.sampled_from((1, 1, 3, 5, 7, 9)), st.integers(1, 12)).map(
    lambda qm: Fraction(2 * qm[0] + qm[1], qm[0])
)
_gap_ints = st.one_of(
    st.just(0),
    st.integers(0, 2**64),
    st.integers(0, 3**1500),
    st.integers(0, 1500).map(lambda n: 3**n),
)


@st.composite
def _walk_runs(draw):
    """(angle, gaps, ratio, largest): a prefix of a gamma or omega spec's
    gaps, gamma = p/q > 2 with q odd, or any non-negative ints with zeros
    and huge ones, walked by the spec's ratio or another odd-q one, at an
    angle up to 1e300 in size."""
    ratio = draw(_odd_ratios)
    if draw(st.booleans()):
        n_levels = draw(st.integers(1, 400))
        spec = make_gamma_tree(2, ratio, n_levels)
        if draw(st.booleans()):
            spec = sample_omega_tree(spec, draw(st.integers(0, 2**64 - 1)))
        gaps = floor_gaps(spec.branch_levels[: draw(st.integers(1, n_levels))])
        ratio = draw(st.one_of(st.just(ratio), _odd_ratios))
    else:
        gaps = draw(st.lists(_gap_ints, min_size=1, max_size=30))
    angle = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)).filter(math.isfinite))
    # a bound below some gaps leaves them past the precision's range
    largest = draw(st.one_of(st.just(max(gaps)), st.sampled_from(gaps), st.integers(0, 2**300)))
    return angle, gaps, ratio, largest


@_PROPERTY
@given(run=_walk_runs())
def test_walk_is_reduce_of_every_gap(run):
    angle, gaps, ratio, largest = run
    reducer = PhaseReducer.from_angle(angle)
    walk = reducer.walk(ratio, largest)
    assert walk is not None
    got = [reducer.reduce(g, walk).hex() for g in gaps]
    assert got == [PhaseReducer.from_angle(angle).reduce(g).hex() for g in gaps]


def test_walk_falls_back_to_the_exact_residue(monkeypatch):
    # gamma = 11/5: floors 2, 4, 10, ..., so the second gap 4 - 2 - 2 is 0
    # and takes the exact residue; the others are rounded from their windows.
    gaps = floor_gaps(make_gamma_tree(2, "11/5", 40).branch_levels)
    assert gaps[1] == 0 and min(gaps[2:]) > 0
    expected = [PhaseReducer.from_angle(1.0).reduce(g) for g in gaps]
    exact = []
    residue = PhaseReducer._residue

    def recorded(self, steps):
        exact.append(steps)
        return residue(self, steps)

    def walked():
        reducer = PhaseReducer.from_angle(1.0)
        walk = reducer.walk(Fraction(11, 5), gaps[-1])
        return [reducer.reduce(g, walk) for g in gaps]

    monkeypatch.setattr(PhaseReducer, "_residue", recorded)
    assert walked() == expected
    assert exact == [0]
    # an unsure rounding test sends every gap to the exact residue, with the same values
    monkeypatch.setattr(phase, "_round_window", lambda window, a: None)
    exact.clear()
    assert walked() == expected
    assert exact == gaps


def test_split_reduce_refuses_negative_steps():
    reducer = PhaseReducer.from_angle(1.0)
    walk = reducer.walk(Fraction(3), 10**6)
    reducer.reduce(5, walk)
    with pytest.raises(ValidationError, match="^steps: "):
        reducer.reduce(-1, walk)
    exact = PhaseReducer.from_pi_multiple("1/3")
    with pytest.raises(ValidationError, match="^steps: "):
        exact.reduce(-2, exact.walk(Fraction(3), 10**6))


def test_round_window_refuses_wraps_and_rounding_boundaries():
    top = 1 << 127
    assert phase._round_window(top, 1) == 0.5 * TWO_PI
    # near 0 and near a full turn the interval may wrap around the circle
    assert phase._round_window(0, 1) is None
    assert phase._round_window(phase._WINDOW_MASK - 1, 1) is None
    # doubles near 2**127 lie 2**75 apart: 2**127 + 2**74 sits on a tie
    assert phase._round_window(top + (1 << 74), 1) is None
    assert phase._round_window(top + (1 << 74), 0) is None
    assert phase._round_window(top + (1 << 73), 1) == 0.5 * TWO_PI


def test_walk_is_none_for_an_even_ratio_or_an_exact_angle():
    assert PhaseReducer.from_angle(1.0).walk(Fraction(5, 2), 9) is None
    assert PhaseReducer.from_pi_multiple("1/3").walk(Fraction(3), 9) is None
    assert PhaseReducer.from_angle(1.0).walk(Fraction(7, 3), 9) is not None
