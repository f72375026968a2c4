"""Tests for the high-precision phase reduction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsetrees import phase
from sparsetrees.errors import ValidationError
from sparsetrees.phase import PhaseReducer, parse_pi_multiple
from sparsetrees.trees import make_gamma_tree, sample_omega_tree

TWO_PI = 2.0 * math.pi


def fixed_point_residue(reducer, steps):
    """(numerator, 2**bits) of the fractional turn of steps * angle from the
    fixed-point angle at reduce's precision; for a rational angle num/den
    of a turn, that angle is floor(num * 2**bits / den) mod 2**bits."""
    bits = reducer._bits_for(steps)
    if reducer.turn is None:
        fixed = reducer._fixed(bits)
    else:
        num, den = reducer.turn
        fixed = (num << bits) // den % (1 << bits)
    return (steps * fixed) % (1 << bits), 1 << bits


def residue_fraction(reducer, steps, use_exact=True):
    """Fractional part of steps * angle / (2*pi) as an exact rational.

    Exact when the angle is a rational multiple of pi; otherwise, or with
    use_exact=False, the fixed-point value, within 2**-(bits -
    steps.bit_length()) of the truth.  The reference that reduce's float
    and its error bound are checked against.
    """
    if reducer.turn is not None and use_exact:
        return steps * Fraction(*reducer.turn) % 1
    return Fraction(*fixed_point_residue(reducer, steps))


def circular_gap(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def test_reduce_small_steps_matches_fmod():
    for angle in (0.3, 1.0, math.pi / 2, 2.9):
        reducer = PhaseReducer(angle)
        for steps in (0, 1, 2, 7, 100, 1000):
            expected = math.fmod(steps * angle, TWO_PI)
            assert circular_gap(reducer.reduce(steps), expected) < 1e-11


def test_reduce_matches_repeated_addition():
    angle = 1.2345678901234
    reducer = PhaseReducer(angle)
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
        reducer = PhaseReducer(rng.uniform(-10.0, 10.0))
        value = reducer.reduce(rng.randrange(0, 10**18))
        assert 0.0 <= value < TWO_PI


def test_construction_and_step_validation():
    with pytest.raises(ValidationError):
        PhaseReducer(math.inf)
    with pytest.raises(ValidationError):
        PhaseReducer(1.0).reduce(-1)


def test_negative_angle_reduces_into_range():
    reducer = PhaseReducer(-0.7)
    assert reducer.reduce(1) == pytest.approx(TWO_PI - 0.7, rel=1e-15)
    assert reducer.reduce(13) == pytest.approx(math.fmod(-0.7 * 13, TWO_PI) + TWO_PI, rel=1e-12)


def test_parse_pi_multiple_names_the_field():
    assert parse_pi_multiple("3/4") == Fraction(3, 4)
    assert parse_pi_multiple(Fraction(1, 3)) == Fraction(1, 3)
    for bad in ("1/0", "abc", "inf", None):
        with pytest.raises(ValidationError, match="^phi_pi_multiple: cannot parse"):
            parse_pi_multiple(bad, "phi_pi_multiple")
    # a multiple whose angle m * pi is past float range
    for bad in ("1e400", "-1e400", 10**308):
        with pytest.raises(ValidationError, match="^phi_pi_multiple: .* times pi is past float range"):
            parse_pi_multiple(bad, "phi_pi_multiple")
    for bad in ("1/0", "1e400"):
        with pytest.raises(ValidationError, match="^pi_multiple: "):
            PhaseReducer.from_pi_multiple(bad)


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
            cases.append((PhaseReducer(angle), mp.mpf(angle) / (2 * mp.pi)))
        for multiple in (Fraction(10**80 + 1, 3), Fraction(-(10**200) - 7, 11)):
            cases.append((PhaseReducer.from_pi_multiple(multiple), mp.mpf(multiple.numerator) / (2 * multiple.denominator)))
        for reducer, turn in cases:
            for steps in (1, 12345, 3**100):
                got = residue_fraction(reducer, steps, use_exact=False)
                gap = mp.mpf(got.numerator) / got.denominator - steps * turn
                assert abs(gap - mp.nint(gap)) < mp.mpf(2) ** -180, (reducer.angle, steps)


# ---------------------------------------------------------------------------
# the fixed-point angle is the exact floor, from pi by the Chudnovsky series
# ---------------------------------------------------------------------------


def exact_floor(angle, bits):
    """floor(frac(angle / 2pi) * 2**bits) from mpmath at bits + 200 bits
    past the angle's exponent, or None where that value lies too near an
    integer for its rounding error to leave the floor certain."""
    import mpmath as mp

    precision = bits + 200 + max(0, math.frexp(angle)[1])
    with mp.workprec(precision):
        # rounded twice, by the 2pi and the division: within 2**(3 - precision) of it
        x = mp.ldexp(mp.mpf(angle) / (2 * mp.pi), bits)
        floor = int(mp.floor(x))
        if x != 0 and min(x - floor, floor + 1 - x) <= abs(x) * mp.ldexp(1, 3 - precision):
            return None
    return floor % (1 << bits)


_fixed_angles = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),  # with subnormals
    st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(-1074, 1023)).map(lambda se: math.ldexp(*se)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(angle=_fixed_angles, bits=st.integers(256, 8192))
@example(angle=-5e-324, bits=256)  # frac is 1 - 2**-1074 / 2pi: 2**256 - 1
@example(angle=0.0, bits=256)
@example(angle=1e300, bits=8192)
def test_fixed_is_the_exact_floor(angle, bits):
    floor = exact_floor(angle, bits)
    assume(floor is not None)
    assert PhaseReducer(angle)._fixed(bits) == floor


def test_fixed_widens_pi_where_ziv_test_is_unsure(monkeypatch):
    # With 1 guard bit instead of 64 the test is often unsure; each retry
    # widens pi by one more bit, and the floor stays exact.
    rng = random.Random(25)
    cases = [(rng.uniform(-10.0, 10.0), rng.randrange(256, 2048)) for _ in range(200)]
    cases += [(math.ldexp(rng.choice((-1.0, 1.0)), rng.randrange(-1074, 1024)), 256) for _ in range(50)]
    expected = [PhaseReducer(angle)._fixed(bits) for angle, bits in cases]
    widths = []
    pi_fixed = phase._pi_fixed

    def recorded(w):
        widths.append(w)
        return pi_fixed(w)

    monkeypatch.setattr(phase, "_ZIV_BITS", 1)
    monkeypatch.setattr(phase, "_pi_fixed", recorded)
    retries = 0
    for (angle, bits), value in zip(cases, expected):
        widths.clear()
        assert PhaseReducer(angle)._fixed(bits) == value, (angle, bits)
        assert widths == list(range(widths[0], widths[0] + len(widths)))
        retries += len(widths) - 1
    assert retries > 20


@pytest.mark.parametrize("w", [0, 1, 2, 47, 53, 64, 100, 1000, 4097, 10007, 65536])
def test_pi_fixed_is_within_two_units_also_shifted_from_the_cache(w, monkeypatch):
    import mpmath as mp

    with mp.workprec(w + 100):
        exact = mp.ldexp(mp.pi, w)
    monkeypatch.setattr(phase, "_pi_cache", (0, 3))
    assert abs(phase._pi_fixed(w) - exact) < 2
    assert phase._pi_cache[0] == w
    # one entry, at the largest precision so far: a smaller one is its shift
    for larger in (w + 1, w + 333):
        phase._pi_fixed(larger)
        assert phase._pi_cache[0] == larger
        assert abs(phase._pi_fixed(w) - exact) < 2
    assert phase._pi_cache[0] == w + 333


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
    st.floats(-1e6, 1e6, allow_nan=False).map(PhaseReducer),
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
# reduce with a table cursor: gaps near the table's, by the floors' recurrence
# ---------------------------------------------------------------------------


def floor_gaps(levels):
    """efgp_run's free stretches: L_1, then L_n - L_(n-1) - 2."""
    return [levels[0]] + [b - a - 2 for a, b in zip(levels, levels[1:])]


def tabled(angle, table_gaps, ratio, largest, gaps):
    """reduce of each gap through one cursor into the table of table_gaps,
    next to reduce of each gap whole, as hex strings."""
    reducer = PhaseReducer(angle)
    cursor = reducer.table(ratio, table_gaps, largest).cursor()
    # a later reducer of the same angle, as in mc_exponent's trials
    trial = PhaseReducer(angle)
    got = [trial.reduce(g, cursor).hex() for g in gaps]
    return got, [PhaseReducer(angle).reduce(g).hex() for g in gaps]


_ratios = st.tuples(st.sampled_from((1, 1, 2, 3, 4, 5, 7, 8, 9)), st.integers(1, 12)).map(
    lambda qm: Fraction(2 * qm[0] + qm[1], qm[0])
)
_gap_ints = st.one_of(
    st.just(0),
    st.integers(-(2**64), 2**64),
    st.integers(0, 3**1500),
    st.integers(0, 1500).map(lambda n: 3**n),
)
_angles = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)).filter(math.isfinite)


@st.composite
def _table_runs(draw):
    """(angle, gaps, ratio, largest): a prefix of a gamma or omega spec's
    gaps, gamma = p/q > 2 with q odd or even, or any ints with zeros,
    negative and huge ones, tabled by the spec's ratio or another one, at
    an angle up to 1e300 in size."""
    ratio = draw(_ratios)
    if draw(st.booleans()):
        n_levels = draw(st.integers(1, 400))
        spec = make_gamma_tree(2, ratio, n_levels)
        if draw(st.booleans()):
            spec = sample_omega_tree(spec, draw(st.integers(0, 2**64 - 1)))
        gaps = floor_gaps(spec.branch_levels[: draw(st.integers(1, n_levels))])
        ratio = draw(st.one_of(st.just(ratio), _ratios))
    else:
        gaps = draw(st.lists(_gap_ints, min_size=1, max_size=30))
    # a bound below some gaps leaves them past the precision's range
    largest = draw(st.one_of(st.just(max(gaps)), st.sampled_from(gaps), st.integers(0, 2**300)))
    return draw(_angles), gaps, ratio, largest


@_PROPERTY
@given(run=_table_runs())
def test_walk_is_reduce_of_every_gap(run):
    angle, gaps, ratio, largest = run
    got, whole = tabled(angle, gaps, ratio, largest, [max(g, 0) for g in gaps])
    assert got == whole


_deltas = st.one_of(
    st.integers(-3, 3),  # the jitter of mc_exponent's trials
    st.integers(-(2**62) + 1, 2**62 - 1),  # inside the proven range
    st.sampled_from((-(2**62), 2**62)),  # the range's ends, outside it
    st.integers(2**62, 2**200).flatmap(lambda d: st.sampled_from((-d, d))),  # past it
)


@st.composite
def _jittered_runs(draw):
    """(angle, floors' gaps, ratio, largest, gaps): the floors of gamma =
    3, 7/3 or 5/2, and gaps near them: the floor gap plus a delta inside
    or past the table's fast range, or 0 where that would go below 0, with
    the table's precision at the last floor gap or below some gaps."""
    ratio = draw(st.sampled_from((Fraction(3), Fraction(7, 3), Fraction(5, 2))))
    floors = floor_gaps(make_gamma_tree(2, ratio, draw(st.integers(1, 150))).branch_levels)
    gaps = [max(0, g + draw(_deltas)) for g in floors]
    largest = draw(st.one_of(st.just(floors[-1]), st.sampled_from(floors)))
    return draw(_angles), floors, ratio, largest, gaps


@_PROPERTY
@given(run=_jittered_runs())
def test_table_of_the_floors_is_reduce_of_jittered_gaps(run):
    angle, floors, ratio, largest, gaps = run
    got, whole = tabled(angle, floors, ratio, largest, gaps)
    assert got == whole


def residue_float(angle, steps):
    return PhaseReducer(angle).reduce(steps)


def test_walk_falls_back_to_the_exact_residue(monkeypatch):
    # gamma = 11/5: floors 2, 4, 10, ..., so the second gap 4 - 2 - 2 is 0
    # and takes the exact residue; the others are rounded from the windows,
    # also one site off, and a jump past the proven range is reduced whole.
    floors = floor_gaps(make_gamma_tree(2, "11/5", 40).branch_levels)
    assert floors[1] == 0 and min(floors[2:]) > 0
    exact = []
    residue = PhaseReducer._residue

    def recorded(self, steps):
        exact.append(steps)
        return residue(self, steps)

    monkeypatch.setattr(PhaseReducer, "_residue", recorded)
    table = PhaseReducer(1.0).table(Fraction(11, 5), floors, floors[-1])
    for gaps, whole in (
        (floors, [0]),
        ([g + 1 for g in floors], []),
        ([g + (1 << 62) for g in floors], [g + (1 << 62) for g in floors]),
    ):
        expected = [residue_float(1.0, g) for g in gaps]
        exact.clear()
        cursor = table.cursor()
        assert [PhaseReducer(1.0).reduce(g, cursor) for g in gaps] == expected
        assert exact == whole


def window_reduce(window, steps=5):
    """reduce of steps through a cursor whose one entry holds a 128-bit
    window for it with delta = 0, as a table at another angle would."""
    return PhaseReducer(1.0).reduce(steps, iter([(steps, window << 64, 0, 1 << 300)]))


def test_round_window_refuses_wraps_and_rounding_boundaries():
    top = 1 << 127
    whole = residue_float(1.0, 5)
    assert window_reduce(top) == 0.5 * TWO_PI
    # near 0 and near a full turn the interval may wrap around the circle
    assert window_reduce(0) == window_reduce(phase._WINDOW_LAST + 1) == whole
    assert window_reduce(phase._WINDOW_LAST) == 0.0
    # doubles near 2**127 lie 2**75 apart: 2**127 + 2**74 sits on a tie
    assert window_reduce(top + (1 << 74)) == whole
    assert window_reduce(top + (1 << 73)) == 0.5 * TWO_PI
    # steps past the precision's 300 bits, and zero steps, take the exact residue
    assert window_reduce(top, 1 << 299) == 0.5 * TWO_PI
    assert window_reduce(top, 1 << 300) == residue_float(1.0, 1 << 300) != 0.5 * TWO_PI
    assert window_reduce(top, 0) == 0.0


def test_split_reduce_refuses_negative_steps():
    reducer = PhaseReducer(1.0)
    cursor = reducer.table(Fraction(3), [5, 13, 37], 10**6).cursor()
    reducer.reduce(5, cursor)
    with pytest.raises(ValidationError, match="^steps: "):
        reducer.reduce(-1, cursor)
    with pytest.raises(ValidationError, match="^steps: "):
        window_reduce(1 << 127, -1)
    with pytest.raises(ValidationError, match="^steps: "):
        PhaseReducer.from_pi_multiple("1/3").reduce(-2)


def test_table_is_none_for_an_exact_angle():
    assert PhaseReducer.from_pi_multiple("1/3").table(Fraction(3), [1, 2], 9) is None
    table = PhaseReducer(1.0).table(Fraction(5, 2), [1, 2], 9)
    assert (table.angle, table.bits, table.floors) == (1.0, 256, (1, 2))
