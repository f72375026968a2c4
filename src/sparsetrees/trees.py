"""Spherically homogeneous tree specifications and counting.

A rooted tree is spherically homogeneous when every vertex at generation j
has the same number of forward neighbours kappa_j.  The trees handled here
branch only at a sparse set of generations: kappa_j equals a branching
factor k_n at generation L_n and 1 everywhere else.  A spec is therefore
just the pair of sequences (L_n, k_n) up to a finite horizon, plus the
recipe that produced them (explicit lists, a geometric family with ratio
gamma, or the randomly jittered variant of that family).

Every generation size is a prefix product k_1 * ... * k_m, the size of
each generation past m branchings: a spec computes the table of these
products once, when it is first read (TreeSpec.prefix_products), and
generation sizes, ball counts and the block multiplicities of
decomposition.py are all read from it.  All counts are exact
arbitrary-precision integers; generation levels may exceed 64-bit range
(the geometric family reaches gamma**n for n in the thousands), so nothing
here assumes levels fit machine words.

numpy is imported only by the omega sampler (`_trial_rng` and the tail
draw of `sample_omega_tree`), for its Philox streams: building, reading
and counting a gamma or explicit spec loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import GuardError, ValidationError

_MAX_SEED = 2**64
_MISSING = object()

# Largest total size, in bits, of the exact floors floor(gamma**n), n <= N,
# that a generated spec may hold: about N**2 / 2 * log2(gamma) bits, so
# memory grows as N**2 (about 100 GB at N = 10**6, gamma = 3).  2**27 bits
# are 16 MiB of floors, N = 13,000 at gamma = 3; the largest configs in
# use (N = 2,000 at gamma = 3) hold 3.2 million bits.
FLOOR_BITS_GUARD = 2**27


def record_field(record: dict, name: str, default=_MISSING):
    """Field `name` of a config or spec record; a missing required field is a ValidationError."""
    if name in record:
        return record[name]
    if default is _MISSING:
        raise ValidationError(f"{name}: required config field is missing")
    return default


def check_int(value, name: str) -> int:
    """`value` itself if it is an int; bools, floats and strings are ValidationErrors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name}: must be an integer")
    return value


def int_field(record: dict, name: str, default=_MISSING) -> int:
    return check_int(record_field(record, name, default), name)


def check_floor_bits(gamma: Fraction, n_levels: int, name: str) -> None:
    """Refuse n_levels floors of gamma > 1 above FLOOR_BITS_GUARD, naming field `name`
    (the bits are an exact Fraction, so any n_levels compares)."""
    bits = n_levels * (n_levels + 1) // 2 * Fraction(math.log2(gamma.numerator) - math.log2(gamma.denominator))
    if bits > FLOOR_BITS_GUARD:
        about = f"about {float(bits):.3g}" if bits < 2**1000 else "over 2^1000"
        raise GuardError(
            f"{name}: {n_levels} floors of gamma = {gamma} hold {about} bits, "
            f"guard is {FLOOR_BITS_GUARD}"
        )


def check_jitter_gamma(gamma: Fraction) -> None:
    """The jittered family, and the phase predictions made for it, need gamma > 2."""
    if gamma <= 2:
        raise ValidationError(f"gamma: must be > 2, got {gamma}")


def check_k(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValidationError("k: branching factor must be an integer >= 2")


_FLOAT_FIELDS = {"k": "branching factor", "gamma": "growth ratio"}


class in_float_range:
    """Refuse, naming `field` (k or gamma), a value whose float arithmetic overflows.

    Counting and the floors are exact at any k and gamma, but a bump weight
    sqrt(k), a kick, a threshold or a dimension takes a float of them: its
    OverflowError becomes a ValidationError.  A class, like
    contextlib.suppress, as a phase diagram enters it five times per energy
    and a generator's context manager costs three times as much to enter.
    """

    def __init__(self, field: str) -> None:
        self.field = field

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, OverflowError):
            message = f"{self.field}: {_FLOAT_FIELDS[self.field]} too large for float arithmetic"
            raise ValidationError(message) from exc


def parse_gamma(value: str | float | int | Fraction) -> Fraction:
    """Parse a growth ratio into an exact rational.

    Accepts "p/q" strings, decimal strings, ints, floats (taken at their
    exact binary value) and Fractions.  The result is exact, so integer
    powers and floors computed from it are reproducible bit for bit.
    """
    try:
        if isinstance(value, str) and "/" in value:
            num, den = value.split("/")
            gamma = Fraction(int(num), int(den))
        else:
            gamma = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"gamma: cannot parse {value!r} as a rational") from exc
    if gamma <= 0:
        raise ValidationError(f"gamma: must be positive, got {gamma}")
    return gamma


@dataclass(frozen=True)
class TreeSpec:
    """Branching data of a spherically homogeneous tree up to a horizon.

    branch_levels holds the generations L_n at which branching happens
    (strictly increasing, starting at 1 or later) and branch_factors the
    corresponding k_n >= 2.  family records how the spec was produced;
    gamma is only set for the generated families, and seed and trial only
    for the jittered one, whose offsets omega_n are its levels less the
    floors floor(gamma**n).  A refusal names the levels L and the factors
    k, as a spec record does.
    """

    branch_levels: tuple[int, ...]
    branch_factors: tuple[int, ...]
    family: str = "explicit"
    gamma: Fraction | None = None
    seed: int | None = None
    trial: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("explicit", "gamma", "omega"):
            raise ValidationError(f"family: unknown family {self.family!r}")
        if len(self.branch_levels) != len(self.branch_factors):
            raise ValidationError("k: as many branching factors as levels L")
        prev = 0
        for lv in self.branch_levels:
            if not isinstance(lv, int) or lv <= prev:
                raise ValidationError("L: must be strictly increasing integers >= 1")
            prev = lv
        for k in self.branch_factors:
            if not isinstance(k, int) or k < 2:
                raise ValidationError("k: every factor must be an integer >= 2")
        if self.family in ("gamma", "omega") and self.gamma is None:
            raise ValidationError("gamma: required for gamma and omega families")

    @property
    def n_branchings(self) -> int:
        return len(self.branch_levels)

    @cached_property
    def prefix_products(self) -> tuple[int, ...]:
        """products[m] = k_1 * ... * k_m (products[0] = 1): the size of every
        generation past m branchings, computed on first read."""
        return tuple(accumulate(self.branch_factors, mul, initial=1))


def ball_count(spec: TreeSpec, depth: int) -> int:
    """Exact number of vertices within distance depth of the root.

    The generation size is constant between branchings, so the sum over
    generations collapses to one term per branching and stays cheap even
    when depth is astronomically large.
    """
    if depth < 0:
        raise ValidationError("depth: must be >= 0")
    levels = spec.branch_levels
    products = spec.prefix_products
    first = levels[0] if levels else depth
    total = min(first, depth) + 1  # generations 0..min(L_1, depth), size 1
    for m in range(len(levels)):
        lo = levels[m] + 1
        if lo > depth:
            break
        hi = min(levels[m + 1], depth) if m + 1 < len(levels) else depth
        total += products[m + 1] * (hi - lo + 1)
    return total


def theoretical_dimension(k: int, gamma: Fraction | float) -> float:
    """Growth dimension log(gamma*k)/log(gamma) of the geometric family."""
    with in_float_range("gamma"):
        g = float(gamma)
    if g <= 1:
        raise ValidationError("gamma: dimension defined for gamma > 1")
    check_k(k)
    return 1.0 + math.log(k) / math.log(g)


def ball_constant(k: int, gamma: Fraction | int) -> float:
    """C = (gamma - 1) / (k gamma - 1): the ball of radius r grows like C * r**d.

    For integer gamma and r = gamma**n, the geometric family's ball holds
    exactly C (k gamma)**n + (gamma + 1 - C k gamma) vertices, so
    estimate_dimension(spec, r) = d + log C / log r, up to a term of order
    (k gamma)**-n: the finite-radius bias of acceptance criterion 8.
    """
    g = Fraction(gamma)
    if g <= 1:
        raise ValidationError("gamma: the ball constant is defined for gamma > 1")
    check_k(k)
    return float((g - 1) / (k * g - 1))


def estimate_dimension(spec: TreeSpec, depth: int) -> float:
    """Empirical dimension log(ball_count)/log(depth) of the ball of radius depth."""
    if depth < 2:
        raise ValidationError("depth: must be >= 2 so log(depth) > 0")
    count = ball_count(spec, depth)
    return math.log(count) / math.log(depth)


def make_gamma_tree(k: int, gamma: str | float | Fraction, n_levels: int) -> TreeSpec:
    """Build the geometric family spec with L_n = floor(gamma**n), exactly.

    gamma is parsed to an exact rational so the floor is computed by integer
    division; no floating-point rounding is involved at any size.

    The floors' recurrence: for gamma = p/q in lowest terms, with
    gamma**(n-1) = L_(n-1) + b and gamma**n = L_n + a, a and b in [0, 1),
    q * L_n = p * L_(n-1) + e_n with e_n = p*b - q*a in (-q, p).
    A jittered level L_n + omega_n obeys it with e_n + q*omega_n -
    p*omega_(n-1) in place of e_n.

    Parameters
    ----------
    k : constant branching factor, >= 2
    gamma : growth ratio > 1 (rational "p/q", decimal string, or number)
    n_levels : number of branching generations to materialise (N of a
        spec record, the name a refusal gives it)

    Floors holding more than FLOOR_BITS_GUARD bits in all are refused
    with a GuardError naming N, before any is built.
    """
    g = parse_gamma(gamma)
    if g <= 1:
        raise ValidationError(f"gamma: geometric family needs gamma > 1, got {g}")
    if n_levels < 1:
        raise ValidationError("N: need at least one branching level")
    check_k(k)
    check_floor_bits(g, n_levels, "N")
    p, q = g.numerator, g.denominator
    levels = []
    pn, qn = 1, 1
    for _ in range(n_levels):
        pn *= p
        qn *= q
        level = pn // qn
        # refused at the first repeat, not after all n_levels powers
        if levels and level <= levels[-1]:
            raise ValidationError(
                f"gamma: floor(gamma**n) not strictly increasing at this horizon (gamma={g})"
            )
        levels.append(level)
    return TreeSpec(tuple(levels), (k,) * n_levels, family="gamma", gamma=g)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-style stream splitting: disjoint 128-bit Philox keys per trial."""
    if not 0 <= seed < _MAX_SEED:
        raise ValidationError("seed: must fit in 64 bits")
    if not 0 <= trial < _MAX_SEED:
        raise ValidationError("trial: must fit in 64 bits")
    import numpy as np

    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def sample_omega_tree(base: TreeSpec, seed: int, trial: int = 0) -> TreeSpec:
    """Draw the jittered geometric spec L_n = floor(gamma**n) + omega_n.

    base is the gamma-family spec (`make_gamma_tree`) whose levels are the
    floors; they are read, not rebuilt, so the trials of one Monte Carlo
    op draw their jitter on the floors built once for the op.
    omega_n is uniform on {-n, ..., n}.  When a draw would break the tree
    (level below 1, or a gap smaller than 2) only that omega_n is redrawn;
    for gamma > 2 a valid value always exists, so the repair terminates.
    Identical (seed, trial) pairs reproduce the sample exactly.
    """
    if base.family != "gamma":
        raise ValidationError("family: omega trees are drawn on a gamma-family spec")
    g = base.gamma
    check_jitter_gamma(g)
    floors = base.branch_levels
    n_levels = base.n_branchings
    # Level m is safe when its lowest value floor_m - m clears the highest
    # value floor_{m-1} + (m - 1) of the level before by 2, that is when
    # gap_m = floor_m - floor_{m-1} > 2m (level 1: when floor_1 > 1): no draw
    # there needs a repair.  Levels up to the last unsafe one are drawn one
    # by one; every later level comes from one array draw, which bounds each
    # element like a scalar draw and so reads the same Philox stream.
    # From level 2 on, the unsafe levels are a prefix, so the scan stops at
    # the first safe one: with b = gamma**m, gap_m > 2m gives
    # b - b/gamma > gap_m - 1 >= 2m, and so
    # gap_{m+1} > (gamma - 1) * b - 1 > 2 * gamma * m - 1 >= 2(m + 1),
    # as gamma > 2 and m >= 2.
    repairable = 0 if floors[0] > 1 else 1
    for m in range(2, n_levels + 1):
        if floors[m - 1] - floors[m - 2] > 2 * m:
            break
        repairable = m
    rng = _trial_rng(seed, trial)
    levels: list[int] = []
    for n in range(1, repairable + 1):
        floor_n = floors[n - 1]
        lower = 1 if n == 1 else levels[-1] + 2
        for _ in range(1000):
            w = int(rng.integers(-n, n + 1))
            if floor_n + w >= lower:
                break
        else:  # pragma: no cover - unreachable for gamma > 2
            raise ValidationError(f"gamma: repair failed at level {n}")
        levels.append(floor_n + w)
    import numpy as np

    n = np.arange(repairable + 1, n_levels + 1)
    tail = rng.integers(-n, n + 1).tolist()
    levels.extend(f + w for f, w in zip(floors[repairable:], tail))
    return TreeSpec(
        tuple(levels),
        base.branch_factors,
        family="omega",
        gamma=g,
        seed=seed,
        trial=trial,
    )


def growing(values) -> bool:
    """Nondecreasing and ending strictly above where it started: the finite
    witness of a sequence growing without bound."""
    return (
        len(values) >= 2
        and all(b >= a for a, b in zip(values, values[1:]))
        and values[-1] > values[0]
    )


def validate(spec: TreeSpec) -> dict[str, bool]:
    """Finite-horizon structure flags.

    monotone: levels strictly increasing (true by construction, reported
    for externally built records).  sparse: the gap sequence is growing.
    normal: if the branching factors are growing, at least one gap
    exceeding 1 must exist; other factors satisfy the condition vacuously.
    """
    levels = spec.branch_levels
    factors = spec.branch_factors
    monotone = all(b > a for a, b in zip(levels, levels[1:]))
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    normal = (not growing(factors)) or any(g > 1 for g in gaps)
    return {"monotone": monotone, "sparse": growing(gaps), "normal": normal}


def _format_gamma(g: Fraction) -> str:
    return str(g.numerator) if g.denominator == 1 else f"{g.numerator}/{g.denominator}"


def spec_to_record(spec: TreeSpec) -> dict:
    """Serializable record of a spec; explicit levels are listed only for
    the explicit family, generated families carry their parameters."""
    if spec.family == "explicit":
        return {
            "family": "explicit",
            "k": list(spec.branch_factors),
            "L": list(spec.branch_levels),
        }
    record: dict = {
        "family": spec.family,
        "k": spec.branch_factors[0],
        "gamma": _format_gamma(spec.gamma),
        "N": spec.n_branchings,
    }
    if spec.family == "omega":
        record["seed"] = spec.seed
        if spec.trial:
            record["trial"] = spec.trial
    return record


def spec_from_record(record: dict) -> TreeSpec:
    """Rebuild a TreeSpec from its serialized record."""
    if not isinstance(record, dict) or "family" not in record:
        raise ValidationError("family: record must be a mapping with a family field")
    family = record["family"]
    if family == "explicit":
        levels = record.get("L")
        factors = record.get("k")
        if not isinstance(levels, list) or not isinstance(factors, list):
            raise ValidationError("L: explicit family needs list fields L and k")
        return TreeSpec(
            tuple(check_int(x, "L") for x in levels), tuple(check_int(x, "k") for x in factors)
        )
    if family in ("gamma", "omega"):
        k = int_field(record, "k")
        gamma = record_field(record, "gamma")
        n_levels = int_field(record, "N")
        if family == "gamma":
            return make_gamma_tree(k, gamma, n_levels)
        seed = int_field(record, "seed")
        trial = int_field(record, "trial", 0)
        return sample_omega_tree(make_gamma_tree(k, gamma, n_levels), seed, trial)
    raise ValidationError(f"family: unknown family {family!r}")
