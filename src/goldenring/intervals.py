"""Closed rational intervals for certified enclosures.

Endpoints are Fractions, and every operation returns an interval that
contains the exact result.  Tightness is not promised, only soundness.

Construction (`RationalInterval(lo, hi)`, `point`) keeps the
endpoints exactly as given.  Arithmetic (`+`, `-`, `*`, `inverse`, and so
`/` and `**`) keeps bounded size instead: a result endpoint whose
numerator or denominator has more than ENDPOINT_BITS bits is rounded
outward to a dyadic m / 2**s with |m| <= 2**ENDPOINT_BITS, down (floor)
for `lo` and up (ceiling) for `hi`.  A scalar operand counts as its point
interval, and `*` rounds its operands the same way before forming the
products: when neither operand straddles zero, the endpoint signs pick the
two products that bound the range; otherwise it takes the least and the
greatest of all four.  Rounding outward only widens an interval, and each
operation is inclusion-isotone (a wider operand gives a wider exact
result), so the rounded result still contains the exact result of the
exact operands.  A rounding moves an endpoint by less than
2**(2 - ENDPOINT_BITS) of its magnitude; endpoints that fit are left
exact, so small computations give the same answers as plain Fraction
arithmetic.  This is the outward-rounded dyadic arithmetic of ball and
interval libraries (van der Hoeven, "Ball arithmetic", 2009;
Johansson, "Arb", IEEE TC 2017).

ENDPOINT_BITS bounds an endpoint's significant bits, not its magnitude: a
rounded endpoint is m * 2**e for any e.  Like those libraries, the one
kernel that rounds and multiplies endpoints keeps the exponent apart: it
reads an endpoint as n * 2**e / d with n and d odd (`_split`), so rounding
(`_round`) and products (`_times`) cost a function of ENDPOINT_BITS and of
the bits of n and d, never of |e|.  Only reading a Fraction in and writing
one out, a shift each, grows with its size.

Integers cross to and from decimal text through `decimal_text` and
`parse_decimal`, at any size and under any int-digit limit.  An interval
prints as decimal text through `RationalInterval.decimals`, rounded
outward, so the printed interval contains it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from ._value import Value, set_field
from .golden import GoldenInt, GoldenRational

__all__ = ["RationalInterval", "decimal_text", "parse_decimal", "sqrt_interval",
           "three_halves_interval"]

ENDPOINT_BITS = 512

# Bits of precision of `of_golden` and the roots, whose one caller is the
# dimension scale (d * delta)^(3/2), printed to six digits.  The root of an
# exact cube p/q is a multiple of 1 / (q * 2**_ROOT_BITS): on the `--grid`
# cells the scale and ratio endpoints have at most 402 bits and nothing
# rounds, while a rational cutoff whose denominator has about 42 digits or
# more gives roots over ENDPOINT_BITS, which `three_halves_interval` rounds.
_ROOT_BITS = 96

# Digits in one str()/int() conversion: below 640, the least int-digit limit
# CPython accepts (sys.int_info.str_digits_check_threshold), so no conversion
# depends on the limit in force.
_PIECE = 600


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


def _fixed(x: Fraction, places: int, up: bool) -> str:
    """x rounded down (or up, if `up`) to a multiple of 10**-places (places >= 1),
    as decimal text; integer arithmetic only."""
    n = x.numerator * 10**places
    m = -(-n // x.denominator) if up else n // x.denominator
    digits = decimal_text(abs(m)).zfill(places + 1)
    return f"{'-' if m < 0 else ''}{digits[:-places]}.{digits[-places:]}"


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _split(x: Fraction) -> tuple[int, int, int]:
    """(n, e, d) with x = n * 2**e / d, d > 0 and n, d odd: the endpoint as
    the kernel sees it.  Zero is (0, 0, 1)."""
    n, d = x.numerator, x.denominator
    if n & 1 or not n:
        z = (d & -d).bit_length() - 1
        return n, -z, d >> z
    z = (n & -n).bit_length() - 1
    return n >> z, z, d


def _join(n: int, e: int, d: int) -> Fraction:
    """n * 2**e / d as a Fraction, for coprime odd n and d > 0.

    These terms are in lowest terms, so the Fraction is made without the
    gcd that `Fraction(num, den)` takes at full size: its two slots are set
    directly, as `Fraction._from_coprime_ints` does from Python 3.12 on.
    """
    x = object.__new__(Fraction)
    if e >= 0:
        x._numerator, x._denominator = n << e, d
    else:
        x._numerator, x._denominator = n, d << -e
    return x


def _round(x: Fraction, up: bool) -> Fraction:
    """x when its numerator and denominator each have at most ENDPOINT_BITS
    bits; else the greatest m / 2**s at most x, or the least at least x if `up`.

    For x = n/d in lowest terms, s = ENDPOINT_BITS - 1 - bitlen(n) +
    bitlen(d).  Then 2**(ENDPOINT_BITS-2) < |x| * 2**s < 2**ENDPOINT_BITS,
    so |m| <= 2**ENDPOINT_BITS and the result is within 2**(2 -
    ENDPOINT_BITS) of x relatively.  m comes from the odd parts of n and d
    alone: with x = n' 2**e / d' (`_split`), x * 2**s = n' 2**t / d' for
    t = ENDPOINT_BITS - 1 - bitlen(n') + bitlen(d'), whatever e is.  A
    shift and one division by d' of at most ENDPOINT_BITS + bitlen(d') bits
    give m, since floor(floor(y / 2**k) / d') = floor(y / (2**k d')).  So
    the cost follows the bits of n' and d', not the magnitude 2**e.
    """
    n, d = x.numerator, x.denominator
    if n.bit_length() <= ENDPOINT_BITS and d.bit_length() <= ENDPOINT_BITS:
        return x
    n, e, d = _split(x)
    t = ENDPOINT_BITS - 1 - n.bit_length() + d.bit_length()
    if up:
        n = -n  # ceil(y) = -floor(-y)
    m = (n << t) // d if t >= 0 else (n >> -t) // d
    if up:
        m = -m
    z = (m & -m).bit_length() - 1  # m != 0, as |m| >= 2**(ENDPOINT_BITS - 2)
    return _join(m >> z, e - t + z, 1)


def _times(x: Fraction, y: Fraction) -> Fraction:
    """x * y, formed from the odd parts of x and y (`_split`).

    Fraction's own product takes the gcd of each numerator with the other
    denominator at full size; a power of 2 shares no factor with an odd
    part, so here the gcds and the products are of the odd parts alone,
    and the exponents add.
    """
    if not (x and y):
        return Fraction(0)
    n1, e1, d1 = _split(x)
    n2, e2, d2 = _split(y)
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return _join((n1 // g1) * (n2 // g2), e1 + e2, (d1 // g2) * (d2 // g1))


def _product(
    alo: Fraction, ahi: Fraction, blo: Fraction, bhi: Fraction
) -> tuple[Fraction, Fraction]:
    """Least and greatest x*y over x in [alo, ahi], y in [blo, bhi].

    When neither interval straddles zero, the endpoint signs pick the two
    products that bound the range; otherwise all four are formed.  The
    fixed-sign cases are the ones that run in practice, and two products
    there are measurably faster than four.
    """
    if alo.numerator >= 0:
        if blo.numerator >= 0:
            return _times(alo, blo), _times(ahi, bhi)
        if bhi.numerator <= 0:
            return _times(ahi, blo), _times(alo, bhi)
    elif ahi.numerator <= 0:
        if blo.numerator >= 0:
            return _times(alo, bhi), _times(ahi, blo)
        if bhi.numerator <= 0:
            return _times(ahi, bhi), _times(alo, blo)
    products = (_times(alo, blo), _times(alo, bhi), _times(ahi, blo), _times(ahi, bhi))
    return min(products), max(products)


def _outward(lo: Fraction, hi: Fraction) -> "RationalInterval":
    """[lo, hi] rounded outward, for Fractions lo <= hi.

    Every caller orders its endpoints by construction, and rounding lo down
    and hi up keeps them ordered, so the interval is made here without the
    constructor's conversion and order check.  Everywhere else an interval
    is made by the checked `RationalInterval(lo, hi)`.
    """
    x = object.__new__(RationalInterval)
    set_field(x, "lo", _round(lo, False))
    set_field(x, "hi", _round(hi, True))
    return x


def _interval(x) -> "RationalInterval":
    """x, or the point interval at x for a scalar: the arithmetic's one operand
    rule.  A scalar within ENDPOINT_BITS passes `_round` exact."""
    return x if isinstance(x, RationalInterval) else RationalInterval.point(x)


class RationalInterval(Value):
    """The closed interval [lo, hi] with Fraction endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = _frac(x)
        return cls(x, x)

    @classmethod
    def of_golden(cls, a: GoldenInt | GoldenRational) -> "RationalInterval":
        return cls(*a.bounds(_ROOT_BITS))

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
        other = _interval(other)
        return _outward(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_interval(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = _interval(other)
        return _outward(*_product(_round(self.lo, False), _round(self.hi, True),
                                  _round(b.lo, False), _round(b.hi, True)))

    __rmul__ = __mul__

    def inverse(self) -> "RationalInterval":
        if not self.excludes_zero():
            raise ZeroDivisionError("interval contains zero")
        return _outward(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _interval(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "RationalInterval":
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalInterval.point(1)
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:  # the top bit is used: no square past it
                return out
            base = base * base

    def to_json(self) -> dict:
        return {"lo": _fraction_text(self.lo), "hi": _fraction_text(self.hi)}

    def decimals(self, places: int) -> tuple[str, str]:
        """lo rounded down and hi rounded up to `places` decimals (places an
        int >= 1; any other value, a bool too, is refused before any work).

        The printed interval contains this one, however narrow: a point
        interval at a non-terminating decimal prints as two endpoints.
        """
        if type(places) is not int or places < 1:
            raise ValueError("places must be an int of at least 1")
        return _fixed(self.lo, places, False), _fixed(self.hi, places, True)

    def __str__(self) -> str:
        return f"[{_fraction_text(self.lo)}, {_fraction_text(self.hi)}]"

    def __repr__(self) -> str:
        """`Value`'s repr, at any size (`decimal_text`)."""
        lo, hi = (f"Fraction({decimal_text(x.numerator)}, {decimal_text(x.denominator)})"
                  for x in (self.lo, self.hi))
        return f"RationalInterval(lo={lo}, hi={hi})"


def _sqrt(x: Fraction, up: bool) -> Fraction:
    """sqrt(x) rounded down (or up) to a multiple of 1 / (q * 2**_ROOT_BITS)."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    scale = 1 << _ROOT_BITS
    r = isqrt(p * q * scale * scale)
    if up and r * r < p * q * scale * scale:
        r += 1
    return Fraction(r, q * scale)


def sqrt_interval(x) -> RationalInterval:
    """Sound enclosure of sqrt over a nonnegative interval or rational."""
    x = _interval(x)
    return RationalInterval(_sqrt(x.lo, False), _sqrt(x.hi, True))


def three_halves_interval(x) -> RationalInterval:
    """Sound enclosure of x**(3/2) for nonnegative x.

    One integer square root per endpoint, of its exact cube (the power of a
    reduced Fraction is reduced, so it takes no gcd), rounded outward.
    """
    x = _interval(x)
    return _outward(_sqrt(x.lo**3, False), _sqrt(x.hi**3, True))
