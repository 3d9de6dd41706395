from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from goldenring import MPoly, VARS_BASE, monomials_of_degree
from goldenring.mpoly import count_monomials, monomials_up_to_degree


def var(name, names=VARS_BASE):
    return MPoly.variable(names, name)


X0, X1, X2 = var("X0"), var("X1"), var("X2")
S0, S1, S2 = var("X0*"), var("X1*"), var("X2*")

values = st.lists(
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
    min_size=6,
    max_size=6,
)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = MPoly.zero(VARS_BASE)
    for _ in range(n_terms):
        c = draw(st.integers(min_value=-4, max_value=4))
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(6))
        p = p + MPoly(VARS_BASE, {exps: Fraction(c)})
    return p


def test_constructors():
    assert MPoly.zero(VARS_BASE).is_zero()
    assert not MPoly.const(VARS_BASE, 3).is_zero()
    assert MPoly.const(VARS_BASE, 0).is_zero()
    assert len((X0 + X1).terms) == 2
    with pytest.raises(ValueError):
        MPoly.variable(VARS_BASE, "U")


def test_mixed_contexts_rejected():
    with pytest.raises(ValueError):
        X0 + MPoly.variable(VARS_BASE + ("U",), "U")


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == MPoly.zero(VARS_BASE)
    assert p * MPoly.const(VARS_BASE, 1) == p


@given(polys(), polys(), values)
def test_evaluate_is_a_homomorphism(p, q, vals):
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


def test_evaluate_order_matches_names():
    p = X0 + 2 * X2 + 3 * S1
    assert p.evaluate([1, 0, 10, 0, 100, 0]) == 1 + 20 + 300


def test_scalar_coefficients():
    p = Fraction(1, 2) * X0 - X1
    assert p.evaluate([2, 1, 0, 0, 0, 0]) == 0
    assert (p * 2).evaluate([2, 0, 0, 0, 0, 0]) == 2


def test_power():
    p = X0 + X1
    assert p**0 == MPoly.const(VARS_BASE, 1)
    assert p**2 == p * p
    assert (p**3).total_degree() == 3
    with pytest.raises(ValueError):
        p**-1


def test_degrees():
    p = X0 * X1 * X2 + S0
    assert p.total_degree() == 3


def test_block_degrees():
    p = X0 * S1 + X1 * S2
    bidegree, homogeneous = p.block_degrees((0, 1, 2), (3, 4, 5))
    assert bidegree == (1, 1)
    assert homogeneous
    q = X0 + X0 * S1
    _, homogeneous = q.block_degrees((0, 1, 2), (3, 4, 5))
    assert not homogeneous


def test_sorted_terms_and_str():
    p = X1 + X0
    terms = p.sorted_terms()
    assert len(terms) == 2
    assert "X0" in str(p)
    assert str(MPoly.zero(VARS_BASE)) == "0"


def test_monomials_of_degree():
    for n, d in ((3, 2), (6, 3), (2, 5)):
        monos = monomials_of_degree(n, d)
        assert len(monos) == count_monomials(n, d)
        assert len(set(monos)) == len(monos)
        assert all(sum(m) == d and len(m) == n for m in monos)
        assert monos == sorted(monos)
    # degree at most d: every such tuple once, in lexicographic order
    for n, d in ((3, 2), (6, 3), (1, 4), (0, 2)):
        monos = list(monomials_up_to_degree(n, d))
        assert monos == sorted(m for m in product(range(d + 1), repeat=n) if sum(m) <= d)
    assert list(monomials_up_to_degree(3, -1)) == []
    assert monomials_of_degree(1, -1) == [] and monomials_of_degree(0, 0) == [()]
    from math import comb

    assert count_monomials(6, 3) == comb(8, 3)
