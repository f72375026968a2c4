"""High-precision reduction of huge phase advances modulo a full turn.

Free propagation between branchings rotates the Pruefer phase by one fixed
angle per site, and the number of sites in a stretch grows geometrically,
far beyond anything a double can track.  The reducer stores the angle as a
fraction of the full circle in fixed point, with enough bits that
multiplying by the step count and keeping the fractional part loses less
than 2**-180 of a turn.  The working precision adapts to the step count,
so step counts with thousands of bits are handled; when the angle is an
exact rational multiple of pi the reduction is exact integer arithmetic.
Either way the residue is an integer fraction of the turn, and its float
comes from Python's correctly rounded int/int division: the same double
as converting the exact rational, without reducing it by a gcd first.

A reducer holds no state beyond its angle's fixed-point values, one per
precision.  Callers whose step counts recur as the same large base plus
a small offset, like the Monte Carlo trials of one `spectral.mc_exponent`
op on shared floors, may hand `PhaseReducer.reduce` a memo: a dict the
caller owns, for one angle, that never holds more than MEMO_ENTRIES
entries.  An entry keeps a 128-bit window of the base's product with the
angle and of the angle itself.  A memo hit rounds the window plus the
offset's product, with a proven error interval, and takes the exact
product only when that interval straddles a rounding boundary (Ziv's
rounding test), so it returns the same double and does no mpmath work.

The gaps between the geometric family's floors grow by a ratio p/q, and
when q is odd `PhaseReducer.reduce_gaps` walks their residues at one
precision by an exact recurrence, a few linear-time steps per gap
instead of one product of thousands of bits.  It rounds each gap from a
128-bit window of its residue with the same test, `_round_window`, and
reduces the gap whole where the test is unsure, so it returns the very
doubles of `reduce`.  `transfer.efgp_run` takes it for gamma and omega
specs with an odd q at a float angle when no memo is given.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi
_MIN_BITS = 256
_GUARD_BITS = 192
_WINDOW_BITS = 128
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_WINDOW_SCALE = 2.0**-_WINDOW_BITS

# Most entries one memo keeps.  The Monte Carlo trials of one op share a
# floor gap per bump, so an op of up to this many bumps finds every window
# after its first trial.  At 2,000 bumps of gamma = 3 a memo holds
# 0.88 MiB, about half of it the keys.
MEMO_ENTRIES = 4096


def parse_pi_multiple(value: Fraction | str | int, field: str = "pi_multiple") -> Fraction:
    """Parse an exact rational multiple of pi, naming `field` on failure."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"{field}: cannot parse {value!r} as a rational") from exc


class PhaseReducer:
    """Reduce steps * angle modulo 2*pi without walking the sites."""

    def __init__(
        self,
        angle: float | None = None,
        circle_fraction: Fraction | None = None,
    ) -> None:
        if (angle is None) == (circle_fraction is None):
            raise ValidationError("angle: give exactly one of angle, circle_fraction")
        if angle is not None and not math.isfinite(angle):
            raise ValidationError("angle: must be finite")
        self.circle_fraction = circle_fraction
        if circle_fraction is not None:
            self.angle = float(circle_fraction) * _TWO_PI
        else:
            self.angle = float(angle)
        self._fixed_cache: dict[int, int] = {}

    @classmethod
    def from_angle(cls, angle: float) -> PhaseReducer:
        return cls(angle=angle)

    @classmethod
    def from_pi_multiple(cls, multiple: Fraction | str | int) -> PhaseReducer:
        """Reducer for the angle multiple * pi, kept exact."""
        return cls(circle_fraction=parse_pi_multiple(multiple) / 2)

    def _bits_for(self, steps: int) -> int:
        need = steps.bit_length() + _GUARD_BITS
        return max(_MIN_BITS, ((need + 255) // 256) * 256)

    def _fixed(self, bits: int) -> int:
        """floor(frac(angle / 2pi) * 2**bits), cached per precision.

        The working precision adds the angle's binary exponent, the most
        bits the integer part of angle / 2pi takes.  mpmath is imported
        here, its only use, so the subcommands that never reduce a phase do
        not load it.
        """
        cached = self._fixed_cache.get(bits)
        if cached is not None:
            return cached
        import mpmath as mp

        with mp.workprec(bits + 64 + max(0, math.frexp(self.angle)[1])):
            if self.circle_fraction is not None:
                x = mp.mpf(self.circle_fraction.numerator) / self.circle_fraction.denominator
            else:
                x = mp.mpf(self.angle) / (2 * mp.pi)
            x = x - mp.floor(x)
            value = int(mp.floor(mp.ldexp(x, bits)))
        self._fixed_cache[bits] = value
        return value

    def _residue(self, steps: int) -> tuple[int, int]:
        """(numerator, denominator) of the fractional turn of steps * angle."""
        if steps < 0:
            raise ValidationError("steps: must be >= 0")
        if self.circle_fraction is not None:
            f = self.circle_fraction
            return (steps * f.numerator) % f.denominator, f.denominator
        bits = self._bits_for(steps)
        return (steps * self._fixed(bits)) & ((1 << bits) - 1), 1 << bits

    def _window(self, base: int) -> tuple[int, int, int]:
        """The memo entry (bits, H, G) of base: its precision, and the top
        128 of those bits of (base * fixed) mod 2**bits and of fixed."""
        bits = self._bits_for(base)
        fixed, shift = self._fixed(bits), bits - _WINDOW_BITS
        return bits, ((base * fixed) >> shift) & _WINDOW_MASK, fixed >> shift

    def reduce(self, steps: int, offset: int = 0, memo: dict | None = None) -> float:
        """steps * angle modulo 2*pi, in [0, 2*pi).

        The residue's float is its correctly rounded integer division,
        bit for bit the float of the residue as a reduced Fraction, with
        no gcd taken.

        A memo splits steps as base + offset, for callers whose steps
        recur as the same large base plus a small offset: the gaps of
        omega trees drawn on the same floors.  It keeps per base the
        entry (bits, H, G) of `_window`, so a hit costs the 128-bit sum
        W = (H + offset * G) mod 2**128 and no mpmath work.  With
        a = |offset|, the bits below the window put the exact residue at
        (W + d) * 2**(bits - 128) for some d in (-a, a + 1), and
        `_round_window` rounds it.  When that is unsure, or where the
        offset carries steps to another precision than base's, the exact
        product is taken.  The result is the same float with or without
        a memo.  The memo belongs to the caller and to this angle; it
        takes at most MEMO_ENTRIES entries.  The exact-rational path
        ignores offset and memo.
        """
        if memo is not None and self.circle_fraction is None and steps >= 0:
            base = steps - offset
            entry = memo.get(base)
            if entry is None:
                entry = self._window(base)
                if len(memo) < MEMO_ENTRIES:
                    memo[base] = entry
            bits, product_top, angle_top = entry
            if bits == self._bits_for(steps):
                a = abs(offset)
                value = _round_window((product_top + offset * angle_top) & _WINDOW_MASK, a)
                if value is not None:
                    return value
        num, den = self._residue(steps)
        value = num / den * _TWO_PI
        return value if value < _TWO_PI else 0.0

    def reduce_gaps(self, gaps: Iterable[int], ratio: Fraction, largest: int) -> list[float]:
        """[reduce(gap) for gap in gaps], bit for bit, for gaps that grow
        about geometrically with ratio p/q, q odd, up to about `largest`.

        By the floors' recurrence q * L_n = p * L_(n-1) + e_n, stated at
        `trees.make_gamma_tree`, their gaps g_n = L_n - L_(n-1) - 2 obey
        q * g_n = p * g_(n-1) + f_n with f_n = 2(p - q) + e_n - e_(n-1),
        and jitter of n sites keeps f_n small.  With the fixed-point angle F
        at the one precision P of `largest`, the residues
        R_n = g_n * F mod 2**P then follow exactly from each other:
        q * R_n = p * R_(n-1) + f_n * F (mod 2**P), and q is odd, so
        dividing by it is exact once the multiple j * 2**P, j < q, that
        makes the right side divisible by q is added.  A step costs a few
        operations linear in P, where `reduce` multiplies two numbers of
        P bits at a precision of their own.

        Each positive gap g up to P's range is rounded from the top 128
        bits W of R_n.  reduce(g) works at its own precision b <= P, where
        g < 2**(b - 192).  Both fixed-point angles lie within 2**-b (plus
        mpmath's 2**-(b + 60)) of the angle's true fraction of a turn, so
        g times their difference moves the residue by less than 2**-63
        window units.  reduce(g)'s residue thus lies in (W - 1, W + 2) window
        units, and `_round_window` rounds it with a = 1.  Where that is
        unsure, and for any other gap (zero, negative, or past P's range),
        reduce(g) is called.
        """
        p, q = ratio.numerator, ratio.denominator
        if q % 2 == 0:
            raise ValidationError(f"gamma: the gap recurrence needs an odd denominator, got {ratio}")
        bits = self._bits_for(largest)
        fixed, mask, shift = self._fixed(bits), (1 << bits) - 1, bits - _WINDOW_BITS
        # (2**bits)**-1 mod q: j = -y * inverse mod q makes y + j * 2**bits divisible by q
        inverse = pow(1 << bits, -1, q)
        values = []
        previous, residue = 0, 0
        for gap in gaps:
            y = p * residue + (q * gap - p * previous) * fixed
            if q != 1:
                y = (y + ((-(y % q) * inverse) % q << bits)) // q
            previous, residue = gap, y & mask
            value = None
            if 0 < gap and gap.bit_length() + _GUARD_BITS <= bits:
                value = _round_window(residue >> shift, 1)
            values.append(self.reduce(gap) if value is None else value)
        return values


def _round_window(window: int, a: int) -> float | None:
    """The phase of a residue known to lie in (window - a, window + a + 1)
    units of 2**-128 of a turn, or None when that is unsure (Ziv's test).

    Provided a <= window and window + a + 1 < 2**128, the interval does
    not wrap around the turn.  int to float is correctly rounded and
    monotone, and scaling by 2**-128 is exact, so when window - a and
    window + a + 1 round to the same double, that double is the
    correctly rounded residue's, whatever it is within the interval.
    """
    if a <= window and window + a < _WINDOW_MASK:
        low = float(window - a)
        if low == float(window + a + 1):
            value = low * _WINDOW_SCALE * _TWO_PI
            return value if value < _TWO_PI else 0.0
    return None
