from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from goldenring import BiDegree, GoldenInt, GoldenRational, fib, golden_power, sqrt5_bounds

coord = st.integers(min_value=-50, max_value=50)


def test_fib_frozen_window():
    assert [fib(i) for i in range(-8, 9)] == [
        13, -8, 5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34,
    ]


def test_fib_recurrence_both_directions():
    for i in range(-40, 40):
        assert fib(i + 1) == fib(i) + fib(i - 1)


def test_golden_power_coordinates():
    for i in range(-12, 13):
        assert golden_power(i) == GoldenInt(fib(i), fib(i - 1))
    assert golden_power(0) == GoldenInt(1, 0)
    assert golden_power(-1) == GoldenInt(0, 1)


def test_golden_power_is_multiplicative():
    for i in range(-8, 9):
        for j in range(-8, 9):
            assert golden_power(i) * golden_power(j) == golden_power(i + j)


def test_sqrt5_bounds_bracket():
    lo, hi = sqrt5_bounds(128)
    assert lo * lo < 5 < hi * hi
    assert hi - lo < Fraction(1, 2**120)


def _float_value(a: GoldenInt) -> float:
    return a.m + a.n * (5**0.5 - 1) / 2


@given(coord, coord)
def test_sign_matches_rational_bracket(m, n):
    a = GoldenInt(m, n)
    lo, hi = a.bounds(128)
    assert lo <= hi
    if a.sign() > 0:
        assert hi > 0
    elif a.sign() < 0:
        assert lo < 0
    else:
        assert m == 0 and n == 0


@given(coord, coord)
def test_sign_matches_float(m, n):
    a = GoldenInt(m, n)
    approx = _float_value(a)
    if abs(approx) > 1e-9:
        assert a.sign() == (1 if approx > 0 else -1)


@given(coord, coord, coord, coord)
def test_order_is_translation_invariant(m1, n1, m2, n2):
    a, b = GoldenInt(m1, n1), GoldenInt(m2, n2)
    shift = GoldenInt(3, -7)
    assert (a < b) == (a + shift < b + shift)
    assert (a < b) == (not b <= a)


@given(coord, coord, coord, coord)
def test_multiplication_commutes_and_matches_float(m1, n1, m2, n2):
    a, b = GoldenInt(m1, n1), GoldenInt(m2, n2)
    p = a * b
    assert p == b * a
    assert abs(_float_value(p) - _float_value(a) * _float_value(b)) < 1e-6


def test_golden_unit_relation():
    # 1/gamma squared is 1 - 1/gamma
    g = GoldenInt(0, 1)
    assert g * g == GoldenInt(1, -1)
    assert golden_power(1) * golden_power(-1) == GoldenInt(1, 0)


def test_compare_rational():
    gamma = GoldenInt(1, 1)  # 1 + 1/gamma = gamma
    assert gamma.compare_rational(13, 8) < 0
    assert gamma.compare_rational(8, 5) > 0
    assert GoldenInt(3, 0).compare_rational(3) == 0
    with pytest.raises(ValueError):
        gamma.compare_rational(1, 0)


def test_degree_and_bidegree():
    a = GoldenInt(-2, 3)
    assert a.degree == 5
    assert a.bidegree == BiDegree(2, 3)
    assert a.sign() < 0  # -2 + 3/gamma is about -0.146
    assert abs(a) == GoldenInt(2, -3)
    assert abs(GoldenInt(1, 1)) == GoldenInt(1, 1)


def test_bidegree_partial_order():
    assert BiDegree(1, 2) <= BiDegree(2, 2)
    assert not BiDegree(3, 0) <= BiDegree(2, 2)
    assert BiDegree(1, 2).total == 3


def test_float_inside_bounds():
    a = GoldenInt(5, -3)
    lo, hi = a.bounds(40)  # wider than double precision error
    assert lo <= Fraction(float(a)) <= hi


def test_golden_rational_cutoffs():
    half_gamma = GoldenRational.golden_multiple(Fraction(1, 2))
    assert half_gamma.compare(GoldenInt(1, 0)) < 0  # gamma/2 < 1
    assert half_gamma.compare(GoldenInt(0, 1)) > 0  # gamma/2 > 1/gamma
    assert half_gamma.sign() > 0
    assert not half_gamma.is_rational()


def test_golden_rational_plain_values():
    x = GoldenRational.from_rational(Fraction(5, 3))
    assert x.is_rational()
    assert (x.num, x.den) == (GoldenInt(5, 0), 3)
    assert x.compare(GoldenInt(2, 0)) < 0
    with pytest.raises(ValueError):
        GoldenRational(GoldenInt(1, 0), 0)
