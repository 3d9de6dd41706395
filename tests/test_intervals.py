import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from goldenring import (
    GoldenInt,
    GoldenRational,
    RationalInterval,
    sqrt_interval,
    three_halves_interval,
)
from goldenring.intervals import ENDPOINT_BITS, decimal_text, parse_decimal

rational = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=16
)


def interval(lo, hi):
    return RationalInterval(Fraction(lo), Fraction(hi))


@st.composite
def intervals(draw):
    a = draw(rational)
    b = draw(rational)
    return RationalInterval(min(a, b), max(a, b))


def test_construction_and_accessors():
    iv = interval(1, 2)
    assert iv.width == 1
    assert iv.mid == Fraction(3, 2)
    assert iv.contains(Fraction(3, 2))
    assert not iv.contains(3)
    with pytest.raises(ValueError):
        interval(2, 1)


def test_point_interval():
    p = RationalInterval.point(Fraction(5, 7))
    assert p.lo == p.hi == Fraction(5, 7)
    assert p.width == 0


@given(intervals(), intervals())
def test_addition_contains_endpoint_sums(a, b):
    s = a + b
    for x in (a.lo, a.hi, a.mid):
        for y in (b.lo, b.hi, b.mid):
            assert s.contains(x + y)


@given(intervals(), intervals())
def test_multiplication_contains_endpoint_products(a, b):
    p = a * b
    for x in (a.lo, a.hi, a.mid):
        for y in (b.lo, b.hi, b.mid):
            assert p.contains(x * y)


@given(intervals())
def test_negation_and_subtraction(a):
    z = a - a
    assert z.contains(0)
    assert (-a).lo == -a.hi


def test_scalar_mixing():
    iv = interval(1, 2)
    assert (iv + 1).lo == 2
    assert (3 * iv).hi == 6
    assert (1 - iv).lo == -1
    assert (iv / 2).hi == 1


def test_inverse_requires_zero_free():
    with pytest.raises(ZeroDivisionError):
        interval(-1, 1).inverse()
    inv = interval(2, 4).inverse()
    assert inv.lo == Fraction(1, 4) and inv.hi == Fraction(1, 2)
    neg = interval(-4, -2).inverse()
    assert neg.contains(Fraction(-1, 3))


def test_power_both_signs():
    iv = interval(2, 3)
    cube = iv**3
    assert cube.lo == 8 and cube.hi == 27
    back = iv**-2
    assert back.contains(Fraction(1, 5))
    assert (interval(-2, 2) ** 2).contains(4)


def test_sign_predicates():
    assert interval(1, 2).strictly_positive()
    assert interval(-2, -1).strictly_negative()
    assert not interval(-1, 1).excludes_zero()
    assert interval(-2, -1).abs_lower() == 1
    assert interval(-2, 3).abs_upper() == 3


def test_within_is_exact():
    iv = interval(Fraction(999, 1000), Fraction(1001, 1000))
    assert iv.within(1, Fraction(1, 1000))
    assert not iv.within(1, Fraction(1, 1001))


def test_of_golden_brackets_value():
    a = GoldenInt(2, 3)  # 2 + 3/gamma, about 3.854
    iv = RationalInterval.of_golden(a)
    assert iv.contains_interval(RationalInterval(*a.bounds(140)))
    assert iv.width < Fraction(1, 2**100)
    g = GoldenRational.golden_multiple(Fraction(1, 2))
    gv = RationalInterval.of_golden(g)
    assert gv.contains_interval(RationalInterval(*g.bounds(140)))
    assert Fraction(8, 10) < gv.lo < gv.hi < Fraction(81, 100)


def test_sqrt_interval():
    for x in (Fraction(2), Fraction(9, 4), Fraction(10)):
        r = sqrt_interval(x)
        assert r.lo**2 <= x <= r.hi**2
        assert r.width < Fraction(1, 2**80)
    z = sqrt_interval(0)
    assert z.lo == z.hi == 0
    with pytest.raises(ValueError):
        sqrt_interval(-1)


def test_three_halves_interval():
    for x in (Fraction(2), Fraction(7, 3), Fraction(25)):
        t = three_halves_interval(x)
        assert t.lo**2 <= x**3 <= t.hi**2
        assert t.strictly_positive()


def test_division_by_interval():
    q = interval(4, 6) / interval(2, 2)
    assert q.lo == 2 and q.hi == 3
    assert (1 / interval(2, 4)).contains(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        interval(1, 2) / interval(0, 1)


def test_json_roundtrip():
    iv = interval(Fraction(-3, 7), Fraction(22, 7))
    assert RationalInterval.from_json(iv.to_json()) == iv


# -- bounded endpoints -------------------------------------------------------


def mantissa_bits(x: Fraction) -> int:
    """Bits of the odd part of a dyadic, else of the larger of num and den."""
    n, d = x.numerator, x.denominator
    if d & (d - 1) == 0:
        return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0
    return max(n.bit_length(), d.bit_length())


@st.composite
def big_fractions(draw):
    num = draw(st.integers(min_value=2**599, max_value=2**4000))
    den = draw(st.integers(min_value=2**599, max_value=2**4000))
    return draw(st.sampled_from([1, -1])) * Fraction(num, den)


@st.composite
def big_intervals(draw):
    a, b = draw(big_fractions()), draw(big_fractions())
    return RationalInterval(min(a, b), max(a, b))


def assert_bounded(iv: RationalInterval) -> None:
    assert mantissa_bits(iv.lo) <= ENDPOINT_BITS + 1
    assert mantissa_bits(iv.hi) <= ENDPOINT_BITS + 1


def assert_encloses(iv: RationalInterval, exact) -> None:
    assert all(iv.contains(v) for v in exact)
    assert_bounded(iv)


@settings(deadline=None)
@given(big_intervals(), big_intervals(), big_fractions(), st.integers(0, 6))
def test_rounded_results_enclose_exact_combinations(a, b, c, k):
    ends_a, ends_b = (a.lo, a.hi), (b.lo, b.hi)
    assert_encloses(a * b, [x * y for x in ends_a for y in ends_b])
    assert_encloses(a + b, [x + y for x in ends_a for y in ends_b])
    assert_encloses(a - b, [x - y for x in ends_a for y in ends_b])
    assert_encloses(a * c, [x * c for x in ends_a])
    assert_encloses(c * a, [x * c for x in ends_a])
    assert_encloses(a + c, [x + c for x in ends_a])
    assert_encloses(a**k, [x**k for x in ends_a])
    if a.excludes_zero():
        assert_encloses(a.inverse(), [1 / x for x in ends_a])
        assert_encloses(b / a, [y / x for x in ends_a for y in ends_b])


def exact_product(a, b):
    cands = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return RationalInterval(min(cands), max(cands))


@given(intervals(), intervals(), rational, st.integers(0, 6))
def test_small_results_equal_fraction_arithmetic(a, b, c, k):
    assert a + b == RationalInterval(a.lo + b.lo, a.hi + b.hi)
    assert a - b == RationalInterval(a.lo - b.hi, a.hi - b.lo)
    assert a * b == exact_product(a, b)
    assert a * c == RationalInterval(min(a.lo * c, a.hi * c), max(a.lo * c, a.hi * c))
    power = RationalInterval.point(1)
    for _ in range(k):
        power = exact_product(power, a)
    assert a**k == power
    if a.excludes_zero():
        assert a.inverse() == RationalInterval(1 / a.hi, 1 / a.lo)


def test_construction_keeps_wide_endpoints_exact():
    lo, hi = Fraction(3**700, 7**300), Fraction(3**700 + 1, 7**300)
    iv = RationalInterval(lo, hi)
    assert (iv.lo, iv.hi) == (lo, hi)
    assert RationalInterval.point(lo).lo == lo
    assert RationalInterval.from_json(iv.to_json()) == iv
    assert -iv == RationalInterval(-hi, -lo)
    rounded = iv + 0
    assert rounded.contains_interval(iv) and rounded != iv
    assert_bounded(rounded)


# -- decimal text at any size ---------------------------------------------

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int-digit limit"
)


@contextmanager
def int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_signs = st.sampled_from([1, -1])
_big_ints = st.one_of(
    st.integers(-(10**700), 10**700),
    st.builds(lambda b, seed, sign: sign * random.Random(seed).getrandbits(b),
              st.integers(1, 10**5), st.integers(0, 2**32), _signs),
    st.builds(lambda k, off, sign: sign * (10**k - off),
              st.integers(0, 30_103), st.integers(0, 1), _signs),
)


@needs_digit_limit
@settings(deadline=None, max_examples=150)
@given(_big_ints)
@example(0)
@example(10**600 - 1)
@example(10**600)
@example(-(10**1200))
@example(10**30_103 - 1)
def test_decimal_text_round_trip_under_least_limit(n):
    with int_digit_limit(0):
        expected = str(n)
    with int_digit_limit(sys.int_info.str_digits_check_threshold):
        text = decimal_text(n)
        back = parse_decimal(expected)
    assert text == expected
    assert back == n


def _parse_split_lengths(limit):
    """Every length up to 1,300, and beyond it each length at or next to a
    point where parse_decimal's split moves (twice a value of three
    significant bits), plus a stride of 97, up to limit digits."""
    points = {2 * (m << j) for j in range(15) for m in (4, 5, 6, 7)}
    lengths = set(range(1, 1301)) | set(range(1, limit + 1, 97)) | {limit}
    lengths |= {n + e for n in points for e in (-1, 0, 1)}
    return sorted(n for n in lengths if 1 <= n <= limit)


@needs_digit_limit
def test_parse_decimal_equals_int_across_split_points():
    rng = random.Random(20260101)
    lengths = _parse_split_lengths(20_000)
    assert len(lengths) > 1300 + 150
    for n in lengths:
        s = "".join(rng.choices("0123456789", k=n))
        with int_digit_limit(0):
            expected = int(s)
        with int_digit_limit(sys.int_info.str_digits_check_threshold):
            assert parse_decimal(s) == expected, n
            assert parse_decimal("-" + s) == -expected, n


@needs_digit_limit
def test_xi_text_round_trips_under_default_limit(first_system, full_width_xi):
    xi = full_width_xi(first_system)
    with int_digit_limit(sys.int_info.default_max_str_digits):
        text, dumped = str(xi), xi.to_json()
        back = RationalInterval.from_json(dumped)
    assert back == xi
    assert len(dumped["hi"]) > sys.int_info.default_max_str_digits
    with int_digit_limit(0):
        assert text == f"[{xi.lo}, {xi.hi}]"
        assert dumped == {"lo": str(xi.lo), "hi": str(xi.hi)}
