"""High-precision reduction of huge phase advances modulo a full turn.

Free propagation between branchings rotates the Pruefer phase by one fixed
angle per site, and the number of sites in a stretch grows geometrically,
far beyond anything a double can track.  The reducer stores the angle as a
fraction of the full circle in fixed point, with enough bits that
multiplying by the step count and keeping the fractional part loses less
than 2**-180 of a turn.  The working precision adapts to the step count,
so step counts with thousands of bits are handled; when the angle is an
exact rational multiple of pi the reduction is exact integer arithmetic.
The fixed-point angle is the exact floor of its fraction of a turn, from
Python ints alone: pi by the Chudnovsky series with binary splitting
(`_pi_fixed`), then one division checked by Ziv's rounding test.
Either way the residue is an integer fraction of the turn, and its float
comes from Python's correctly rounded int/int division: the same double
as converting the exact rational, without reducing it by a gcd first.

A reducer holds no state beyond its angle: for a rational multiple of pi
its exact fraction of a turn (`turn`), else its fixed-point values, one
per precision.  The gaps between the geometric family's floors, jittered
or not, grow by a ratio p/q, and `PhaseReducer.table` reduces a whole gap
sequence in one loop by an exact recurrence at the precision of its
largest gap, a few linear-time operations per gap instead of one product
of thousands of bits.  It keeps each gap G and the top 192 bits of its
residue.  A gap near a tabled one, g = G + delta, has the residue
G * F + delta * F for the fixed-point angle F, so `PhaseReducer.reduce`,
given a cursor into the table, rounds g from a 128-bit window of that sum
with a proven error interval.  It takes the exact residue only where the
interval straddles a rounding boundary (Ziv's rounding test) or delta is
not small, so a table gives the very doubles of reduce without one.
`PhaseTable.phases` turns one run's gaps into its rotations through one
cursor into a table: `PhaseReducer.phases` gives a `transfer.efgp_run`
the table of its own gaps, and `spectral.mc_exponent` tables the
unjittered floors' gaps once for its trials, whose jitter moves each gap
by a few sites.  Both take an angle as one value, a float or its reducer,
such as the exact one of `PhaseReducer.from_pi_multiple`; `resolve_angle`
tells the kinds apart and names the config field of each in a refusal.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi
_MIN_BITS = 256
_GUARD_BITS = 192
_WINDOW_BITS = 128
_WINDOW_SCALE = 2.0**-_WINDOW_BITS
# the largest window W whose interval (W - 1, W + 2) stays inside the turn
_WINDOW_LAST = (1 << _WINDOW_BITS) - 3
_TABLE_BITS = 192
_TABLE_MASK = (1 << _TABLE_BITS) - 1
_TABLE_SHIFT = _TABLE_BITS - _WINDOW_BITS
_DELTA_LIMIT = 1 << 62
# bits of pi past those the floor of angle / 2pi needs, and the step by
# which a fixed-point angle widens them where Ziv's test is unsure
_ZIV_BITS = 64
# 640320**3 / 24, the Chudnovsky series' term ratio
_CHUDNOVSKY_Q = 640320**3 // 24
# the config field that names an exact angle in its refusals
_EXACT_FIELD = "phi_pi_multiple"
# the largest precision w of pi computed so far, and pi * 2**w (`_pi_fixed`),
# from floor(pi) at w = 0
_pi_cache = (0, 3)


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the Chudnovsky series' terms a to b - 1: the
    (P, Q, T) with pi = 426880 * sqrt(10005) * Q(0, n) / T(0, n) up to the
    tail after n terms, each term 47 bits smaller than the one before."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _CHUDNOVSKY_Q
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_fixed(w: int) -> int:
    """pi * 2**w within 2 units, from Python ints.

    w // 47 + 2 terms leave a tail below 2**-40 units.  T is cut to
    w + 64 bits and Q by as many, about w + 40 bits left, before their
    quotient, which moves it by less than 2**-30 units.  isqrt's floor
    takes less than 1 unit off sqrt(10005) * 2**w, which the quotient
    scales by pi / sqrt(10005) < 0.04, and the floor division less than
    1 unit.  The module keeps one value, at the largest w computed so
    far, and shifts it down for a smaller w, which halves its error at
    least and takes off less than 1 more unit.  That int is the cache's
    whole size: w is a fixed-point angle's precision, the bits of a step
    count plus the angle's binary exponent plus a few hundred, and the
    CLI's step counts are gaps between floors that `trees.FLOOR_BITS_GUARD`
    bounds, so there it holds about 2**27 bits (16 MiB) at most.
    """
    global _pi_cache
    top, value = _pi_cache
    if w <= top:
        return value >> (top - w)
    _, q, t = _chudnovsky(0, w // 47 + 2)
    cut = max(0, t.bit_length() - w - 64)
    value = (q >> cut) * 426880 * math.isqrt(10005 << 2 * w) // (t >> cut)
    _pi_cache = (w, value)
    return value


class PhaseReducer:
    """Reduce steps * angle modulo 2*pi without walking the sites.

    `turn` is None for a float angle.  For an exact one
    (`from_pi_multiple`) it is the (numerator, denominator) of the angle's
    fraction of a turn, and the residues come from it alone.
    """

    def __init__(self, angle: float) -> None:
        if not abs(angle) <= sys.float_info.max:  # an int past float range too
            raise ValidationError("angle: must be finite")
        self.angle = float(angle)
        self.turn: tuple[int, int] | None = None
        self._fixed_cache: dict[int, int] = {}

    @classmethod
    def from_pi_multiple(cls, value: Fraction | str | int) -> PhaseReducer:
        """Reducer for the angle m * pi of an exact rational m, kept exact;
        its float `angle` is float(m) * pi.  Refused, naming `phi_pi_multiple`:
        a value that is not a rational, and an m whose float(m) * pi overflows."""
        try:
            multiple = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValidationError(f"{_EXACT_FIELD}: cannot parse {value!r} as a rational") from exc
        try:
            reducer = cls(float(multiple) * math.pi)
        except (OverflowError, ValidationError) as exc:
            raise ValidationError(f"{_EXACT_FIELD}: {value!r} times pi is past float range") from exc
        half = multiple / 2
        reducer.turn = (half.numerator, half.denominator)
        return reducer

    def _bits_for(self, steps: int) -> int:
        need = steps.bit_length() + _GUARD_BITS
        return max(_MIN_BITS, ((need + 255) // 256) * 256)

    def _fixed(self, bits: int) -> int:
        """floor(frac(angle / 2pi) * 2**bits), exactly, cached per precision.

        With angle = num / den and P = pi * 2**w, the floor sought is that
        of x = N / (den * P) for N = num * 2**(bits + w - 1), modulo
        2**bits.  One divmod of N by D = den * pi_w, with pi_w =
        `_pi_fixed(w)` for P, gives the floor q and the remainder r of
        y = N / D.  As |pi_w - P| < 2 and P > 2**(w + 1),
        |x - y| * D < 2|N| / P < m for m = |num| * 2**bits, so
        floor(x) = q where m <= r < D - m (Ziv's rounding test).  w is bits
        plus the angle's binary exponent, the most bits the integer part of
        angle / 2pi takes, plus 64, which leaves the test unsure with a
        chance near 2**-64; there w widens by 64 bits and the division is
        taken again.  So the value is exact, and nothing is imported.
        """
        cached = self._fixed_cache.get(bits)
        if cached is not None:
            return cached
        num, den = self.angle.as_integer_ratio()
        margin = abs(num) << bits
        w = bits + max(0, math.frexp(self.angle)[1])
        while True:
            w += _ZIV_BITS
            divisor = den * _pi_fixed(w)
            quotient, rest = divmod(num << (bits + w - 1), divisor)
            if margin <= rest < divisor - margin:
                break
        value = quotient & ((1 << bits) - 1)
        self._fixed_cache[bits] = value
        return value

    def _residue(self, steps: int) -> tuple[int, int]:
        """(numerator, denominator) of the fractional turn of steps * angle."""
        if steps < 0:
            raise ValidationError("steps: must be >= 0")
        if self.turn is not None:
            num, den = self.turn
            return (steps * num) % den, den
        bits = self._bits_for(steps)
        return (steps * self._fixed(bits)) & ((1 << bits) - 1), 1 << bits

    def table(self, ratio: Fraction, gaps: Iterable[int], largest: int) -> PhaseTable | None:
        """The table of `gaps`, each about ratio p/q times the one before,
        at the precision P of `largest`, for `reduce`'s cursors; None for an
        exact angle.

        By the floors' recurrence q * L_n = p * L_(n-1) + e_n, stated at
        `trees.make_gamma_tree`, their gaps g_n = L_n - L_(n-1) - 2 obey
        q * g_n = p * g_(n-1) + f_n with f_n = 2(p - q) + e_n - e_(n-1), a
        few sites.  With the fixed-point angle F at P, the residues
        R_n = g_n * F mod 2**P then follow exactly from each other:
        q * R_n = p * R_(n-1) + f_n * F (mod 2**P).  When q is odd, dividing
        by it is exact once the multiple j * 2**P, j < q, that makes the
        right side divisible by q is added, and the loop walks forward from
        R_0 = 0.  When q is even, p is odd, and the loop walks backward,
        p * R_(n-1) = q * R_n - f_n * F (mod 2**P), from one whole product
        for the last gap.  A step costs a few operations linear in P.  This
        is modular arithmetic, exact for any ints g_n, so any gap sequence
        gets its true residues; the ratio only decides the speed.
        """
        if self.turn is not None:
            return None
        p, q = ratio.numerator, ratio.denominator
        bits = self._bits_for(largest)
        fixed = self._fixed(bits)
        mask = (1 << bits) - 1
        shift = bits - _TABLE_BITS
        floors = list(gaps)
        # d * R_new = c * R_old + (d * g_new - c * g_old) * F, with d odd
        c, d, order = (p, q, floors) if q % 2 else (q, p, reversed(floors))
        # (2**bits)**-1 mod d: j = -y * inverse mod d makes y + j * 2**bits divisible by d
        inverse = pow(1 << bits, -1, d)
        windows = []
        previous = residue = 0
        for gap in order:
            y = c * residue + (d * gap - c * previous) * fixed
            if d != 1:
                y = (y + ((-(y % d) * inverse) % d << bits)) // d
            residue = y & mask
            previous = gap
            windows.append(residue >> shift)
        if not q % 2:
            windows.reverse()
        return PhaseTable(bits, tuple(floors), tuple(windows), fixed >> shift)

    def phases(self, ratio: Fraction, gaps: Sequence[int]) -> list[float]:
        """`reduce` of each gap, the gaps about ratio p/q times each other:
        at a float angle through their own table at the precision of the
        largest (`PhaseTable.phases`), at an exact one each gap whole."""
        if self.turn is not None:
            return list(map(self.reduce, gaps))
        return self.table(ratio, gaps, max(gaps)).phases(self, gaps)

    def reduce(self, steps: int, walk: Iterator[tuple[int, int, int, int]] | None = None) -> float:
        """steps * angle modulo 2*pi, in [0, 2*pi).

        The residue's float is its correctly rounded integer division,
        bit for bit the float of the residue as a reduced Fraction, with
        no gcd taken.  Given a cursor into a table of this angle
        (`PhaseTable.phases`), steps is the run's next gap g, near the
        table's next gap G, and the same double comes from the table.

        With s = P - 192, the table holds B = (G * F mod 2**P) >> s and
        T = F >> s.  Since g * F = G * F + delta * F for delta = g - G,
        g * F / 2**s lies in
        B + delta * T + [min(0, delta), 1 + max(0, delta)), modulo 2**192.
        With W the top 128 of the 192 bits of B + delta * T, g * F mod 2**P
        thus lies in [W - |delta| / 2**64, W + 1 + |delta| / 2**64) window
        units of 2**(P - 128).  reduce(g) works at its own precision
        b <= P, where g < 2**(b - 192).  Both fixed-point angles are exact
        floors, within 2**-b of the angle's true fraction of a turn, so g
        times their difference moves the residue by less than
        2**-63 window units.  For |delta| < 2**62, reduce(g)'s residue
        therefore lies in (W - 1, W + 2) window units, which does not wrap
        around the turn where 1 <= W and W + 2 < 2**128.  int to
        float is correctly rounded and monotone, and scaling by 2**-128 is
        exact, so when W - 1 and W + 2 round to the same double, that
        double is the correctly rounded residue's (Ziv's rounding test).
        Where the test is unsure, and for any other gap (zero, negative,
        past P's range, or |delta| >= 2**62), reduce takes the exact
        residue.
        """
        if walk is not None:
            floor, window, top, bound = next(walk)
            delta = steps - floor
            if 0 < steps < bound and -_DELTA_LIMIT < delta < _DELTA_LIMIT:
                window = ((window + delta * top) & _TABLE_MASK) >> _TABLE_SHIFT
                if 0 < window <= _WINDOW_LAST:
                    low = float(window - 1)
                    if low == float(window + 2):
                        value = low * _WINDOW_SCALE * _TWO_PI
                        return value if value < _TWO_PI else 0.0
        num, den = self._residue(steps)
        value = num / den * _TWO_PI
        return value if value < _TWO_PI else 0.0


def resolve_angle(phi: float | PhaseReducer) -> tuple[float, PhaseReducer | None, str]:
    """An angle given as a float or as a PhaseReducer holding it: its float
    value, its reducer (None for a float), and the config field that names
    it in a refusal, `phi_pi_multiple` for an exact reducer, else `phi`."""
    if isinstance(phi, PhaseReducer):
        return phi.angle, phi, "phi" if phi.turn is None else _EXACT_FIELD
    return phi, None, "phi"


@dataclass(frozen=True, slots=True)
class PhaseTable:
    """A gap sequence's residues at one float angle (`PhaseReducer.table`):
    the precision `bits`, the gaps G_n (`floors`), the top 192 bits of each
    G_n * F mod 2**bits (`windows`), and those of F (`top`)."""

    bits: int
    floors: tuple[int, ...]
    windows: tuple[int, ...]
    top: int

    def phases(self, reducer: PhaseReducer, gaps: Iterable[int]) -> list[float]:
        """`reducer.reduce`, at the table's angle, of each gap of a run near
        the table's through one cursor: per gap, (G_n, its window, top,
        2**(bits - 192), the bound below which the precision covers a gap)."""
        cursor = zip(self.floors, self.windows, repeat(self.top), repeat(1 << (self.bits - _GUARD_BITS)))
        return list(map(reducer.reduce, gaps, repeat(cursor)))
