"""Tests for the high-precision phase reduction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrees import phase
from sparsetrees.errors import ValidationError
from sparsetrees.phase import MEMO_ENTRIES, PhaseReducer, parse_pi_multiple
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
# reduce with a split base + offset, memoised per (base, precision)
# ---------------------------------------------------------------------------


@st.composite
def _splits(draw):
    """(base, offset) with base + offset >= 0, clustered where it matters.

    Offsets up to 300 take the memo's 128-bit window; offsets of 2**80 to
    2**90 are wider than a double's rounding cell in the window (2**75
    near its top) and force the exact product.
    """
    huge = st.integers(2**80, 2**90)
    offset = draw(st.one_of(st.integers(-300, 300), huge, huge.map(int.__neg__)))
    base = draw(
        st.one_of(
            st.integers(0, 3**2500),
            st.integers(0, 2500).map(lambda n: 3**n),
            # steps across bit-length 64 + 256 j, where the precision steps up
            st.tuples(st.integers(0, 12), st.integers(-300, 300)).map(
                lambda jd: 2 ** (64 + 256 * jd[0]) + jd[1]
            ),
            st.just(-offset),
        )
    )
    return max(base, -offset), offset


@_PROPERTY
@given(reducer=_reducers, split=_splits(), second=st.integers(-300, 300))
def test_split_reduce_is_the_float_of_the_exact_fraction(reducer, split, second):
    base, offset = split
    steps = base + offset
    expected = fraction_reduce(reducer, steps).hex()
    memo = {}
    assert reducer.reduce(steps, offset, memo).hex() == expected
    # once more from the memo, and with another offset on the same base
    assert reducer.reduce(steps, offset, memo).hex() == expected
    if base + second >= 0:
        again = reducer.reduce(base + second, second, memo).hex()
        assert again == fraction_reduce(reducer, base + second).hex()


def test_split_reduce_refuses_negative_steps():
    reducer = PhaseReducer.from_angle(1.0)
    with pytest.raises(ValidationError, match="^steps: "):
        reducer.reduce(-1, 3, {})
    with pytest.raises(ValidationError, match="^steps: "):
        PhaseReducer.from_pi_multiple("1/3").reduce(-2, -2, {})


def test_split_memo_is_bounded():
    reducer = PhaseReducer.from_angle(1.0)
    memo = {}
    for base in range(MEMO_ENTRIES + 100):
        reducer.reduce(base + 1, 1, memo)
    assert len(memo) == MEMO_ENTRIES
    # past the cap a new base is computed, not stored, and still exact
    assert reducer.reduce(10**40 + 1, 1, memo).hex() == fraction_reduce(reducer, 10**40 + 1).hex()
    assert len(memo) == MEMO_ENTRIES
    exact, memo = PhaseReducer.from_pi_multiple("1/3"), {}
    exact.reduce(10**40 + 1, 1, memo)
    assert not memo


# ---------------------------------------------------------------------------
# reduce_gaps: the gaps of geometric floors by their exact recurrence
# ---------------------------------------------------------------------------


def floor_gaps(levels):
    """efgp_run's free stretches: L_1, then L_n - L_(n-1) - 2."""
    return [levels[0]] + [b - a - 2 for a, b in zip(levels, levels[1:])]


@st.composite
def _gap_runs(draw):
    """(reducer, gaps, ratio, largest): a prefix of a gamma or omega spec's
    gaps, gamma = p/q > 2 with q odd, at an angle up to 1e300 in size."""
    q = draw(st.sampled_from((1, 1, 3, 5, 7, 9)))
    p = draw(st.integers(2 * q + 1, 12 * q))
    n_levels = draw(st.integers(1, 400))
    spec = make_gamma_tree(2, Fraction(p, q), n_levels)
    if draw(st.booleans()):
        spec = sample_omega_tree(spec, draw(st.integers(0, 2**64 - 1)))
    prefix = draw(st.integers(1, n_levels))
    angle = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)).filter(math.isfinite))
    gaps = floor_gaps(spec.branch_levels[:prefix])
    # a bound below some gaps leaves them past the precision's range
    largest = draw(st.one_of(st.just(gaps[-1]), st.sampled_from(gaps)))
    return PhaseReducer.from_angle(angle), gaps, spec.gamma, largest


@_PROPERTY
@given(run=_gap_runs())
def test_reduce_gaps_is_reduce_of_every_gap(run):
    reducer, gaps, ratio, largest = run
    got = PhaseReducer.from_angle(reducer.angle).reduce_gaps(gaps, ratio, largest)
    assert [x.hex() for x in got] == [reducer.reduce(g).hex() for g in gaps]


def test_reduce_gaps_falls_back_to_reduce(monkeypatch):
    # gamma = 11/5: floors 2, 4, 10, ..., so the second gap 4 - 2 - 2 is 0
    # and takes reduce; the others are rounded from their windows.
    gaps = floor_gaps(make_gamma_tree(2, "11/5", 40).branch_levels)
    assert gaps[1] == 0 and min(gaps[2:]) > 0
    expected = [PhaseReducer.from_angle(1.0).reduce(g) for g in gaps]
    reduced = []
    reduce = PhaseReducer.reduce

    def recorded(self, steps, *args):
        reduced.append(steps)
        return reduce(self, steps, *args)

    monkeypatch.setattr(PhaseReducer, "reduce", recorded)
    assert PhaseReducer.from_angle(1.0).reduce_gaps(gaps, Fraction(11, 5), gaps[-1]) == expected
    assert reduced == [0]
    # an unsure rounding test sends every gap to reduce, with the same values
    monkeypatch.setattr(phase, "_round_window", lambda window, a: None)
    reduced.clear()
    assert PhaseReducer.from_angle(1.0).reduce_gaps(gaps, Fraction(11, 5), gaps[-1]) == expected
    assert reduced == gaps


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


def test_reduce_gaps_needs_an_odd_denominator():
    with pytest.raises(ValidationError, match="^gamma: "):
        PhaseReducer.from_angle(1.0).reduce_gaps([2, 3, 9], Fraction(5, 2), 9)
