"""Exact arithmetic in the golden-ratio ring.

gamma = (1+sqrt(5))/2 satisfies gamma**2 = gamma + 1, so the ring
Z + Z*(1/gamma) is a free Z-module with basis {1, 1/gamma}.  Elements are
stored as integer coordinate pairs (m, n) meaning m + n/gamma.  Every
predicate (sign, ordering, comparison against rationals) is decided by
integer arithmetic alone; floating point never enters a decision.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from ._value import Value, set_field

__all__ = [
    "fib",
    "golden_power",
    "GoldenInt",
    "BiDegree",
    "GoldenRational",
    "sqrt5_bounds",
]

_fib_pos = [1, 1]  # f(0), f(1), ...
_fib_neg = [1, 0]  # f(0), f(-1), ...
_fib_lock = threading.Lock()


def fib(i: int) -> int:
    """Two-sided Fibonacci function: f(0) = f(1) = 1, f(i+2) = f(i+1) + f(i).

    The recurrence is run in both directions, e.g. f(-1) = 0, f(-2) = 1,
    f(-3) = -1, f(-4) = 2.  Values are cached; results do not depend on
    cache state.
    """
    if i >= 0:
        if i >= len(_fib_pos):
            with _fib_lock:
                while i >= len(_fib_pos):
                    _fib_pos.append(_fib_pos[-1] + _fib_pos[-2])
        return _fib_pos[i]
    j = -i
    if j >= len(_fib_neg):
        with _fib_lock:
            while j >= len(_fib_neg):
                _fib_neg.append(_fib_neg[-2] - _fib_neg[-1])
    return _fib_neg[j]


def _sqrt5_sign(u: int, v: int) -> int:
    # Exact sign of u + v*sqrt(5).  u*u == 5*v*v is impossible unless both
    # vanish, since 5 is not a perfect square.
    if u == 0 and v == 0:
        return 0
    if u >= 0 and v >= 0:
        return 1
    if u <= 0 and v <= 0:
        return -1
    if u > 0:  # v < 0
        return 1 if u * u > 5 * v * v else -1
    return 1 if 5 * v * v > u * u else -1


def _coordinates_json(m: int, n: int) -> dict:
    """The JSON form of m + n/gamma, `GoldenInt.to_json`'s, also for an
    element kept as its coordinate pair."""
    return {"m": m, "n": n}


def _coordinates_text(m: int, n: int) -> str:
    """The text form of m + n/gamma, `GoldenInt.__str__`'s, also for an
    element kept as its coordinate pair."""
    return f"{m}{n:+d}/g"


def sqrt5_bounds(bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(5) with width 2**-bits."""
    return GoldenInt(1, 2).bounds(bits)  # sqrt(5) = 1 + 2/gamma


class BiDegree(Value):
    """A pair of nonnegative weights with the componentwise partial order."""

    __slots__ = ("d1", "d2")

    def __init__(self, d1: int, d2: int):
        set_field(self, "d1", d1)
        set_field(self, "d2", d2)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.d1, self.d2) == (other.d1, other.d2)
        return NotImplemented

    def __hash__(self):
        return hash((self.d1, self.d2))

    def __le__(self, other: "BiDegree") -> bool:
        return self.d1 <= other.d1 and self.d2 <= other.d2

    @property
    def total(self) -> int:
        return self.d1 + self.d2


class GoldenInt(Value):
    """m + n/gamma with exact integer coordinates.

    Instances are immutable values; arithmetic returns new instances.
    The comparison operators implement the order of the real line, which
    is consistent with coordinate equality because {1, 1/gamma} is a basis.
    """

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        set_field(self, "m", m)
        set_field(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.n) == (other.m, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.n))

    # -- predicates ------------------------------------------------------

    def sign(self) -> int:
        # m + n/gamma = ((2m - n) + n*sqrt(5)) / 2
        return _sqrt5_sign(2 * self.m - self.n, self.n)

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0

    def compare(self, other: "GoldenInt") -> int:
        return (self - other).sign()

    def compare_rational(self, p: int, q: int = 1) -> int:
        """Exact sign of self - p/q for integers p, q with q > 0."""
        if q <= 0:
            raise ValueError("denominator must be positive")
        return GoldenInt(q * self.m - p, q * self.n).sign()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.m - other.m, self.n - other.n)

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.m, -self.n)

    def __mul__(self, other):
        if isinstance(other, GoldenInt):
            # (1/gamma)**2 = 1 - 1/gamma
            m1, n1, m2, n2 = self.m, self.n, other.m, other.n
            return GoldenInt(m1 * m2 + n1 * n2, m1 * n2 + n1 * m2 - n1 * n2)
        if isinstance(other, int):
            return GoldenInt(self.m * other, self.n * other)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> "GoldenInt":
        return -self if self.sign() < 0 else self

    # -- order -----------------------------------------------------------

    def __lt__(self, other: "GoldenInt") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "GoldenInt") -> bool:
        return self.compare(other) <= 0

    # -- degrees ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return abs(self.m) + abs(self.n)

    @property
    def bidegree(self) -> BiDegree:
        return BiDegree(abs(self.m), abs(self.n))

    # -- conversions -----------------------------------------------------

    def bounds(self, bits: int = 128) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the real value."""
        return GoldenRational(self, 1).bounds(bits)

    def __float__(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)

    def __str__(self) -> str:
        return _coordinates_text(self.m, self.n)

    def to_json(self) -> dict:
        return _coordinates_json(self.m, self.n)

    @classmethod
    def zero(cls) -> "GoldenInt":
        return cls(0, 0)


def golden_power(i: int) -> GoldenInt:
    """gamma**i as an exact ring element: f(i) + f(i-1)/gamma, any i."""
    return GoldenInt(fib(i), fib(i - 1))


class GoldenRational(Value):
    """(m + n/gamma)/den with den > 0: exact cutoffs for comparisons.

    Covers ordinary rationals (n = 0) and rational multiples of gamma,
    which is what dimension grids need.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GoldenInt, den: int):
        set_field(self, "num", num)
        set_field(self, "den", den)
        if den <= 0:
            raise ValueError("denominator must be positive")

    @classmethod
    def from_rational(cls, x) -> "GoldenRational":
        if isinstance(x, GoldenRational):
            return x
        f = Fraction(x)
        return cls(GoldenInt(f.numerator, 0), f.denominator)

    @classmethod
    def golden_multiple(cls, x) -> "GoldenRational":
        """x * gamma for a rational x."""
        f = Fraction(x)
        return cls(GoldenInt(f.numerator, f.numerator), f.denominator)

    def compare(self, a: GoldenInt) -> int:
        """Exact sign of self - a."""
        return (self.num - a * self.den).sign()

    def sign(self) -> int:
        return self.num.sign()

    def is_rational(self) -> bool:
        return self.num.n == 0

    def bounds(self, bits: int = 128) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the real value, each endpoint one Fraction.

        With r = floor(sqrt(5) * 2**bits), the only place sqrt(5) is formed,
        (m + n/gamma)/den = ((2m - n) 2**bits + n sqrt(5) 2**bits) / (2**(bits+1) den),
        and r or r + 1 in place of sqrt(5) 2**bits bounds the value from the
        side the sign of n picks.  The enclosure is |n| / (2**(bits+1) den) wide.
        """
        m, n = self.num.m, self.num.n
        root = math.isqrt(5 << 2 * bits)
        den = self.den << bits + 1
        below = ((2 * m - n) << bits) + n * root
        above = below + n
        if n < 0:
            below, above = above, below
        return Fraction(below, den), Fraction(above, den)

    def __str__(self) -> str:
        if self.is_rational():
            return f"{self.num.m}/{self.den}"
        return f"({self.num.m}{self.num.n:+d}/g)/{self.den}"
