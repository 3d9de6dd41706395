"""Closed rational intervals for certified enclosures.

Endpoints are Fractions, and every operation returns an interval that
contains the exact result.  Tightness is not promised, only soundness.

Construction (`RationalInterval(lo, hi)`, `point`, `from_json`) keeps the
endpoints exactly as given.  Arithmetic (`+`, `-`, `*`, `inverse`, and so
`/` and `**`) keeps bounded size instead: a result endpoint whose
numerator or denominator has more than ENDPOINT_BITS bits is rounded
outward to a dyadic m / 2**s with |m| <= 2**ENDPOINT_BITS, down (floor)
for `lo` and up (ceiling) for `hi`.  `*` rounds its interval
operands the same way before forming the products.  Rounding outward only
widens an interval, and each operation is inclusion-isotone (a wider
operand gives a wider exact result), so the rounded result still contains
the exact result of the exact operands.  A rounding moves an endpoint by
less than 2**(2 - ENDPOINT_BITS) of its magnitude; endpoints that fit are
left exact, so small computations give the same answers as plain
Fraction arithmetic.  This is the outward-rounded dyadic arithmetic of
ball and interval libraries (van der Hoeven, "Ball arithmetic", 2009;
Johansson, "Arb", IEEE TC 2017).

Integers cross to and from decimal text through `decimal_text` and
`parse_decimal`, at any size and under any int-digit limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt

from .golden import GoldenInt, GoldenRational

__all__ = ["RationalInterval", "decimal_text", "parse_decimal", "sqrt_interval",
           "three_halves_interval"]

ENDPOINT_BITS = 512

# Digits in one str()/int() conversion: below 640, the least int-digit limit
# CPython accepts (sys.int_info.str_digits_check_threshold), so no conversion
# depends on the limit in force.
_PIECE = 600

_FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")


@cache
def _pow5(k: int) -> int:
    """5**k, so that x * 10**k is (x * 5**k) << k: a product a third narrower.

    decimal_text asks for k = _PIECE * 2**j and parse_decimal for k with
    at most three significant bits, so few powers are ever cached.
    """
    return 5**k


def decimal_text(n: int) -> str:
    """str(n), converted in pieces of at most _PIECE digits."""
    if n < 0:
        return "-" + decimal_text(-n)
    k = _PIECE
    if n < _pow5(k) << k:
        return str(n)
    while _pow5(2 * k) << 2 * k <= n:
        k *= 2
    hi, rest = divmod(n >> k, _pow5(k))  # hi < 10**k
    return decimal_text(hi) + decimal_text((rest << k) | (n & ((1 << k) - 1))).zfill(k)


def parse_decimal(s: str) -> int:
    """int(s) for s matching -?[0-9]+, converted in pieces of at most _PIECE digits."""
    return -_parse_digits(s[1:]) if s.startswith("-") else _parse_digits(s)


def _parse_digits(s: str) -> int:
    """int(s) for s matching [0-9]+: split near half its length, recursively.

    The low part has k digits, half the length rounded down to three
    significant bits: the high part has at most 5/8 of the digits, and
    there are at most four distinct k between each power of 2 and the next.
    """
    n = len(s)
    if n <= _PIECE:
        return int(s)
    k = n // 2
    drop = k.bit_length() - 3  # n > _PIECE, so k has at least 9 bits
    k = k >> drop << drop
    return (_parse_digits(s[:-k]) * _pow5(k) << k) + _parse_digits(s[-k:])


def _fraction_text(x: Fraction) -> str:
    """str(x) at any size."""
    num = decimal_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{decimal_text(x.denominator)}"


def _parse_fraction(s: str) -> Fraction:
    """The Fraction `_fraction_text` writes as s; ValueError for any other text."""
    if not _FRACTION.fullmatch(s):
        raise ValueError(f"not a fraction: {s!r}")
    num, _, den = s.partition("/")
    return Fraction(parse_decimal(num), parse_decimal(den or "1"))


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def round_dyadic(n: int, d: int, up: bool = False) -> Fraction:
    """The greatest m / 2**s at most n/d (d > 0); the least at least n/d if `up`.

    s = ENDPOINT_BITS - 1 - bitlen(n) + bitlen(d), and m comes from one
    integer division.  Then 2**(ENDPOINT_BITS-2) < |n/d| * 2**s <
    2**ENDPOINT_BITS, so |m| <= 2**ENDPOINT_BITS and the result is within
    2**(2 - ENDPOINT_BITS) of n/d relatively.
    """
    s = ENDPOINT_BITS - 1 - n.bit_length() + d.bit_length()
    if s >= 0:
        n <<= s
    else:
        d <<= -s
    m = -(-n // d) if up else n // d
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


def _fits(x: Fraction) -> bool:
    return (
        x.numerator.bit_length() <= ENDPOINT_BITS
        and x.denominator.bit_length() <= ENDPOINT_BITS
    )


def _down(x: Fraction) -> Fraction:
    return x if _fits(x) else round_dyadic(x.numerator, x.denominator)


def _up(x: Fraction) -> Fraction:
    return x if _fits(x) else round_dyadic(x.numerator, x.denominator, up=True)


def _product(
    alo: Fraction, ahi: Fraction, blo: Fraction, bhi: Fraction
) -> tuple[Fraction, Fraction]:
    """Least and greatest x*y over x in [alo, ahi], y in [blo, bhi].

    The endpoint signs pick the two products that bound the range; only
    when both intervals straddle zero are all four needed.
    """
    if alo.numerator >= 0:
        if blo.numerator >= 0:
            return alo * blo, ahi * bhi
        if bhi.numerator <= 0:
            return ahi * blo, alo * bhi
        return ahi * blo, ahi * bhi
    if ahi.numerator <= 0:
        if blo.numerator >= 0:
            return alo * bhi, ahi * blo
        if bhi.numerator <= 0:
            return ahi * bhi, alo * blo
        return alo * bhi, alo * blo
    if blo.numerator >= 0:
        return alo * bhi, ahi * bhi
    if bhi.numerator <= 0:
        return ahi * blo, alo * blo
    return min(alo * bhi, ahi * blo), max(alo * blo, ahi * bhi)


def _outward(lo: Fraction, hi: Fraction) -> "RationalInterval":
    return RationalInterval(_down(lo), _up(hi))


@dataclass(frozen=True, slots=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = _frac(x)
        return cls(x, x)

    @classmethod
    def of_golden(cls, a: GoldenInt | GoldenRational, bits: int = 128) -> "RationalInterval":
        return cls(*a.bounds(bits))

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = _frac(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def strictly_negative(self) -> bool:
        return self.hi < 0

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def abs_upper(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))

    def abs_lower(self) -> Fraction:
        if self.contains(0):
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def within(self, center, tol) -> bool:
        """True when every point of the interval is within tol of center."""
        center, tol = _frac(center), _frac(tol)
        return abs(self.lo - center) <= tol and abs(self.hi - center) <= tol

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalInterval):
            return _outward(self.lo + other.lo, self.hi + other.hi)
        other = _frac(other)
        return _outward(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, RationalInterval):
            return self + (-other)
        return self + (-_frac(other))

    def __rsub__(self, other):
        return (-self) + _frac(other)

    def __mul__(self, other):
        if isinstance(other, RationalInterval):
            blo, bhi = _down(other.lo), _up(other.hi)
        else:
            blo = bhi = _frac(other)
        return _outward(*_product(_down(self.lo), _up(self.hi), blo, bhi))

    __rmul__ = __mul__

    def inverse(self) -> "RationalInterval":
        if not self.excludes_zero():
            raise ZeroDivisionError("interval contains zero")
        return _outward(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if isinstance(other, RationalInterval):
            return self * other.inverse()
        return self * (1 / _frac(other))

    def __rtruediv__(self, other):
        return self.inverse() * _frac(other)

    def __pow__(self, k: int) -> "RationalInterval":
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalInterval.point(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_json(self) -> dict:
        return {"lo": _fraction_text(self.lo), "hi": _fraction_text(self.hi)}

    @classmethod
    def from_json(cls, obj: dict) -> "RationalInterval":
        return cls(_parse_fraction(obj["lo"]), _parse_fraction(obj["hi"]))

    def __str__(self) -> str:
        return f"[{_fraction_text(self.lo)}, {_fraction_text(self.hi)}]"


def _sqrt(x: Fraction, bits: int, up: bool) -> Fraction:
    """sqrt(x) rounded down (or up) to a multiple of 1 / (q * 2**bits)."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    scale = 1 << bits
    r = isqrt(p * q * scale * scale)
    if up and r * r < p * q * scale * scale:
        r += 1
    return Fraction(r, q * scale)


def sqrt_interval(x, bits: int = 96) -> RationalInterval:
    """Sound enclosure of sqrt over a nonnegative interval or rational."""
    if not isinstance(x, RationalInterval):
        x = RationalInterval.point(x)
    return RationalInterval(_sqrt(x.lo, bits, False), _sqrt(x.hi, bits, True))


def three_halves_interval(x, bits: int = 96) -> RationalInterval:
    """Sound enclosure of x**(3/2) for nonnegative x."""
    if not isinstance(x, RationalInterval):
        x = RationalInterval.point(x)
    return sqrt_interval(x * x * x, bits)
