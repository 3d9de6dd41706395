import operator
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import goldenring as gr
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


def _old_power(iv, k):
    """Square-and-multiply as `__pow__` ran it before, with one square past
    the top bit of k that it never used."""
    out, base = RationalInterval.point(1), iv
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def test_power_equals_the_old_loop_without_its_last_square(monkeypatch):
    # a point, an interval that straddles zero, and one with endpoints over
    # ENDPOINT_BITS bits, which every product rounds outward
    wide = RationalInterval(Fraction(3**700, 7**300), Fraction(3**700 + 1, 7**300))
    assert wide.lo.numerator.bit_length() > ENDPOINT_BITS
    products = []
    real = RationalInterval.__mul__

    def counting(self, other):
        products.append(0)
        return real(self, other)

    for iv in (RationalInterval.point(Fraction(-7, 3)), interval(Fraction(-2, 5), 1), wide):
        for k in range(10):
            expected = _old_power(iv, k)
            monkeypatch.setattr(RationalInterval, "__mul__", counting)
            del products[:]
            assert iv**k == expected, (iv, k)
            monkeypatch.undo()
            # one square per bit of k below its top one, one product per set bit
            assert len(products) == max(k.bit_length() - 1, 0) + k.bit_count(), k


def test_sign_predicates():
    assert interval(1, 2).strictly_positive()
    assert interval(-2, -1).strictly_negative()
    assert not interval(-1, 1).excludes_zero()
    assert interval(-2, -1).abs_lower() == 1
    assert interval(-2, 3).abs_upper() == 3
    assert interval(-1, 2).abs_lower() == 0


def test_within_is_exact():
    iv = interval(Fraction(999, 1000), Fraction(1001, 1000))
    assert iv.within(1, Fraction(1, 1000))
    assert not iv.within(1, Fraction(1, 1001))


def test_of_golden_brackets_value():
    a = GoldenInt(2, 3)  # 2 + 3/gamma, about 3.854
    iv = RationalInterval.of_golden(a)
    assert iv.contains_interval(RationalInterval(*a.bounds(140)))
    # sqrt(5) to 96 bits, times the 3/2 of 2 + 3/gamma = (1 + 3 sqrt(5)) / 2
    assert iv.width == Fraction(3, 2**97)
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


def _sign_classes(p):
    """One interval of each sign class of the product at scale p: nonnegative
    and nonpositive, each with and without a zero endpoint, and straddling zero."""
    return [interval(0, p), interval(p, 3 * p / 2), interval(-p, 0), interval(-2 * p, -p),
            interval(-p, 2 * p)]


def every_sign_pair(p, c, k):
    """Hypothesis examples with a and b in every pair of sign classes at scale
    p, so that each branch of the product runs on every test run."""
    def add(test):
        for a in _sign_classes(p):
            for b in _sign_classes(p):
                test = example(a, b, c, k)(test)
        return test
    return add


@settings(deadline=None)
@given(big_intervals(), big_intervals(), big_fractions(), st.integers(0, 6))
@every_sign_pair(Fraction(3**400, 7**200), Fraction(-(5**300), 3**350), 3)
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


# a scalar of at most ENDPOINT_BITS bits, as an int or as a Fraction
_scalar_int = st.integers(min_value=1 - 2**ENDPOINT_BITS, max_value=2**ENDPOINT_BITS - 1)
scalars = _scalar_int | st.builds(
    Fraction, _scalar_int, st.integers(min_value=1, max_value=2**ENDPOINT_BITS - 1))


def _same_outcome(got, expected):
    """got() == expected(), or both raise ZeroDivisionError."""
    try:
        want = expected()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
        return
    assert got() == want


@settings(deadline=None)
@given(intervals() | big_intervals(), scalars)
@example(interval(-1, 2), 0)
@example(interval(1, 2), Fraction(-3, 7))
def test_scalar_operand_is_its_point_interval(iv, c):
    point = RationalInterval.point(c)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _same_outcome(lambda: op(iv, c), lambda: op(iv, point))
        _same_outcome(lambda: op(c, iv), lambda: op(point, iv))


def exact_product(a, b):
    cands = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return RationalInterval(min(cands), max(cands))


@given(intervals(), intervals(), rational, st.integers(0, 6))
@every_sign_pair(Fraction(5, 3), Fraction(-3, 7), 3)
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
    assert -iv == RationalInterval(-hi, -lo)
    rounded = iv + 0
    assert rounded.contains_interval(iv) and rounded != iv
    assert_bounded(rounded)


def _sized(n, d, bits):
    """Fraction(n, d), checked to be in lowest terms with `bits` as the larger bit length."""
    x = Fraction(n, d)
    assert (x.numerator, x.denominator) == (n, d)
    assert max(abs(n).bit_length(), d.bit_length()) == bits
    return x


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("wide", ["numerator", "denominator", "dyadic"])
def test_rounding_starts_past_endpoint_bits(sign, wide):
    for bits in (ENDPOINT_BITS, ENDPOINT_BITS + 1):
        big = 2 ** (bits - 1) + 1  # odd and prime to 7, so the denominator case is not dyadic
        num, den = {"numerator": (sign * big, 7), "denominator": (sign * 7, big),
                    "dyadic": (sign * big, 2**7)}[wide]
        x = _sized(num, den, bits)
        point = RationalInterval.point(x)
        for rounded in (point + 0, point * 1):
            if bits == ENDPOINT_BITS:
                assert rounded == point
            else:
                assert rounded.lo < x < rounded.hi
                for end in (rounded.lo, rounded.hi):
                    assert end.denominator & (end.denominator - 1) == 0
                assert_bounded(rounded)


# -- the kernel against the Fraction formula ------------------------------------


def _oracle_round(x: Fraction, up: bool) -> Fraction:
    """`_round` as Fraction arithmetic: one division of the whole numerator
    and denominator, whatever the magnitude of x."""
    n, d = x.numerator, x.denominator
    if n.bit_length() <= ENDPOINT_BITS and d.bit_length() <= ENDPOINT_BITS:
        return x
    s = ENDPOINT_BITS - 1 - n.bit_length() + d.bit_length()
    if s >= 0:
        n <<= s
    else:
        d <<= -s
    m = -(-n // d) if up else n // d
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


def _oracle_outward(lo, hi):
    return RationalInterval(_oracle_round(lo, False), _oracle_round(hi, True))


def _oracle_mul(a, b):
    """`*` with Fraction products, the least and the greatest of all four."""
    ends_a = (_oracle_round(a.lo, False), _oracle_round(a.hi, True))
    ends_b = (_oracle_round(b.lo, False), _oracle_round(b.hi, True))
    products = [x * y for x in ends_a for y in ends_b]
    return _oracle_outward(min(products), max(products))


def _oracle_inverse(a):
    return _oracle_outward(1 / a.hi, 1 / a.lo)


def _oracle_pow(a, k):
    """`**` with `_oracle_mul`: the same squares and products, in the same order."""
    if k < 0:
        return _oracle_pow(_oracle_inverse(a), -k)
    out, base = RationalInterval.point(1), a
    while True:
        if k & 1:
            out = _oracle_mul(out, base)
        k >>= 1
        if not k:
            return out
        base = _oracle_mul(base, base)


_MAGNITUDE = 40_000


@st.composite
def extreme_fractions(draw):
    """m * 2**e / q with |e| <= 40,000: zero, either sign, mantissas of a few
    bits and of ENDPOINT_BITS - 1 to ENDPOINT_BITS + 1 bits and more, with q
    = 1 (a dyadic) or odd, so that q * 2**96 denominators like those of the
    `dim` roots and endpoints such as 1/3 come up too."""
    if draw(st.integers(0, 15)) == 0:
        return Fraction(0)
    bits = draw(st.sampled_from([1, 2, 40, ENDPOINT_BITS - 1, ENDPOINT_BITS,
                                 ENDPOINT_BITS + 1, 2 * ENDPOINT_BITS + 2]))
    m = 2 ** (bits - 1) + draw(st.integers(0, 2 ** (bits - 1) - 1))
    e = draw(st.sampled_from([0, -96, _MAGNITUDE, -_MAGNITUDE])
             | st.integers(-_MAGNITUDE, _MAGNITUDE))
    q = draw(st.sampled_from([1, 1, 1, 3, 25, 3**200]))
    sign = draw(st.sampled_from([1, -1]))
    return Fraction(sign * m << max(e, 0), q << max(-e, 0))


@st.composite
def extreme_intervals(draw):
    a = draw(extreme_fractions())
    b = a if draw(st.booleans()) else draw(extreme_fractions())
    return RationalInterval(min(a, b), max(a, b))


def _dyadic(m, e):
    return Fraction(m) * Fraction(2) ** e


@settings(deadline=None, max_examples=150)
@given(extreme_intervals(), extreme_intervals(), st.integers(-2, 4))
@example(RationalInterval.point(_dyadic(-(2**ENDPOINT_BITS + 1), _MAGNITUDE)),
         RationalInterval(_dyadic(-(2**ENDPOINT_BITS + 3), -_MAGNITUDE), Fraction(1, 3)), 3)
@example(RationalInterval(Fraction(-1, 3), _dyadic(2**ENDPOINT_BITS - 1, _MAGNITUDE)),
         RationalInterval.point(_dyadic(3**330, -_MAGNITUDE)), -2)
def test_kernel_equals_the_fraction_oracle(a, b, k):
    # endpoints equal as Fractions are equal in numerator and denominator
    # both, so each comparison is one of representations too
    for x in (a.lo, a.hi, b.lo, b.hi):
        for up in (False, True):
            rounded = gr.intervals._round(x, up)
            assert rounded == _oracle_round(x, up)
            assert mantissa_bits(rounded) <= ENDPOINT_BITS + 1
    results = [(a * b, _oracle_mul(a, b)), (b * a, _oracle_mul(b, a))]
    if b.excludes_zero():
        results += [(b.inverse(), _oracle_inverse(b)),
                    (a / b, _oracle_mul(a, _oracle_inverse(b)))]
    if k >= 0 or a.excludes_zero():
        results.append((a**k, _oracle_pow(a, k)))
    for got, expected in results:
        assert got == expected
        assert_bounded(got)


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
    assert len(dumped["hi"]) > sys.int_info.default_max_str_digits
    with int_digit_limit(0):
        assert text == f"[{xi.lo}, {xi.hi}]"
        assert dumped == {"lo": str(xi.lo), "hi": str(xi.hi)}


@given(intervals() | big_intervals(), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_decimals_round_outward_by_less_than_a_unit(iv, places):
    lo, hi = map(Fraction, iv.decimals(places))
    unit = Fraction(1, 10**places)
    assert lo <= iv.lo < lo + unit and hi - unit < iv.hi <= hi
    assert all(len(v.split(".")[1]) == places for v in iv.decimals(places))


@pytest.mark.parametrize("places", [0, -1, True, False, 2.0, "3", None, -(10**700)])
def test_decimals_refuse_places_other_than_a_positive_int(places, monkeypatch):
    # before any work: the rounding is not reached
    monkeypatch.setattr(gr.intervals, "_fixed", None)
    with pytest.raises(ValueError, match="^places must be an int of at least 1$"):
        interval(Fraction(5, 2), Fraction(7, 2)).decimals(places)


def test_decimals_print_exact_endpoints_unchanged():
    assert interval(Fraction(-1, 8), Fraction(5, 2)).decimals(3) == ("-0.125", "2.500")
    assert RationalInterval.point(Fraction(-1, 3)).decimals(2) == ("-0.34", "-0.33")
    assert interval(Fraction(-1, 10**7), 0).decimals(6) == ("-0.000001", "0.000000")
    # an endpoint past any int-digit limit, as decimal_text prints it
    big = 10**5000 + Fraction(1, 3)
    assert interval(big, big).decimals(1) == (decimal_text(10**5000) + ".3",
                                               decimal_text(10**5000) + ".4")
