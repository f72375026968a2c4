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
precision.  The gaps between the geometric family's floors, jittered or
not, grow by a ratio p/q, and when q is odd a run's `PhaseReducer.walk`
lets `PhaseReducer.reduce` step their residues at one precision by an
exact recurrence, a few linear-time operations per gap instead of one
product of thousands of bits.  reduce rounds each gap from a 128-bit
window of its residue with a proven error interval, and takes the exact
residue only where that interval straddles a rounding boundary (Ziv's
rounding test, `_round_window`), so a walk returns the very doubles of
reduce without one.  A walk lives for one run; nothing is kept across
runs.  `transfer.efgp_run` walks every gamma or omega spec with an odd q
at a float angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi
_MIN_BITS = 256
_GUARD_BITS = 192
_WINDOW_BITS = 128
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_WINDOW_SCALE = 2.0**-_WINDOW_BITS


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

    def walk(self, ratio: Fraction, largest: int) -> GapWalk | None:
        """A walk for `reduce` over gaps that grow about geometrically with
        ratio p/q, up to about `largest`; None for an exact angle or an
        even q.

        By the floors' recurrence q * L_n = p * L_(n-1) + e_n, stated at
        `trees.make_gamma_tree`, their gaps g_n = L_n - L_(n-1) - 2 obey
        q * g_n = p * g_(n-1) + f_n with f_n = 2(p - q) + e_n - e_(n-1),
        and jitter of n sites keeps f_n small.  With the fixed-point angle F
        at the one precision P of `largest`, the residues
        R_n = g_n * F mod 2**P then follow exactly from each other:
        q * R_n = p * R_(n-1) + f_n * F (mod 2**P), and q is odd, so
        dividing by it is exact once the multiple j * 2**P, j < q, that
        makes the right side divisible by q is added.  A step costs a few
        operations linear in P, where the exact residue multiplies two
        numbers of P bits at a precision of their own.  This is modular
        arithmetic, exact for any ints g_n, so a walk gives `reduce`'s own
        doubles for any gap sequence; the ratio only decides the speed.

        Each positive gap g up to P's range is rounded from the top 128
        bits W of R_n.  reduce(g) works at its own precision b <= P, where
        g < 2**(b - 192).  Both fixed-point angles lie within 2**-b (plus
        mpmath's 2**-(b + 60)) of the angle's true fraction of a turn, so
        g times their difference moves the residue by less than 2**-63
        window units.  reduce(g)'s residue thus lies in (W - 1, W + 2) window
        units, and `_round_window` rounds it with a = 1.  Where that is
        unsure, and for any other gap (zero, negative, or past P's range),
        reduce takes the exact residue.
        """
        p, q = ratio.numerator, ratio.denominator
        if self.circle_fraction is not None or q % 2 == 0:
            return None
        bits = self._bits_for(largest)
        # (2**bits)**-1 mod q: j = -y * inverse mod q makes y + j * 2**bits divisible by q
        return GapWalk(p, q, bits, self._fixed(bits), pow(1 << bits, -1, q), (1 << bits) - 1)

    def reduce(self, steps: int, walk: GapWalk | None = None) -> float:
        """steps * angle modulo 2*pi, in [0, 2*pi).

        The residue's float is its correctly rounded integer division,
        bit for bit the float of the residue as a reduced Fraction, with
        no gcd taken.  Given a run's walk (`walk`), steps is the walk's
        next gap: the walk steps its residue by the recurrence and the gap
        is rounded from it, which gives the same double.
        """
        if walk is not None:
            p, q, bits = walk.p, walk.q, walk.bits
            y = p * walk.residue + (q * steps - p * walk.previous) * walk.fixed
            if q != 1:
                y = (y + ((-(y % q) * walk.inverse) % q << bits)) // q
            residue = y & walk.mask
            walk.previous, walk.residue = steps, residue
            if 0 < steps and steps.bit_length() + _GUARD_BITS <= bits:
                value = _round_window(residue >> (bits - _WINDOW_BITS), 1)
                if value is not None:
                    return value
        num, den = self._residue(steps)
        value = num / den * _TWO_PI
        return value if value < _TWO_PI else 0.0


@dataclass(slots=True)
class GapWalk:
    """The state of one run's walk (`PhaseReducer.walk`): the ratio p/q,
    the precision `bits`, the fixed-point angle there, 2**-bits mod q,
    the mask 2**bits - 1, and the previous gap with its residue, both 0
    before the first gap."""

    p: int
    q: int
    bits: int
    fixed: int
    inverse: int
    mask: int
    previous: int = 0
    residue: int = 0


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
