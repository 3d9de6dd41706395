import operator
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


# an int, or a Fraction with denominator up to 6 (at times an integral one)
scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = MPoly.zero(VARS_BASE)
    for _ in range(n_terms):
        c = draw(scalars)
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(6))
        p = p + MPoly(VARS_BASE, {exps: c})
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


def canonical(p):
    """Every coefficient is a nonzero int, or a Fraction that is not integral."""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for c in p.terms.values()
    )


# reference arithmetic on term dicts whose coefficients are all Fractions


def ref(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_scale(a, s):
    return ref_clean({e: c * Fraction(s) for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_const(s):
    return ref_clean({(0,) * 6: Fraction(s)})


def ref_pow(a, k):
    out = ref_const(1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_evaluate(a, vals):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(vals, e):
            c *= Fraction(v) ** k
        total += c
    return total


@given(polys(), polys(), scalars, st.integers(min_value=0, max_value=3), values)
def test_results_are_canonical_and_match_fraction_arithmetic(p, q, s, k, vals):
    P, Q = ref(p), ref(q)
    cases = {
        "+": (p + q, ref_add(P, Q)),
        "+ scalar": (p + s, ref_add(P, ref_const(s))),
        "-": (p - q, ref_add(P, ref_scale(Q, -1))),
        "scalar -": (s - p, ref_add(ref_const(s), ref_scale(P, -1))),
        "*": (p * q, ref_mul(P, Q)),
        "**": (p**k, ref_pow(P, k)),
        "* scalar": (p * s, ref_scale(P, s)),
        "scalar *": (s * p, ref_scale(P, s)),
        "const": (MPoly.const(VARS_BASE, s), ref_const(s)),
    }
    for op, (got, want) in cases.items():
        assert canonical(got), (op, got.terms)
        assert got.terms == want, op
        assert got.evaluate(vals) == ref_evaluate(want, vals), op


def test_constructor_normalises_each_coefficient():
    p = MPoly(VARS_BASE, {(1, 0, 0, 0, 0, 0): Fraction(4, 2), (0,) * 6: Fraction(1, 2)})
    assert p.terms == {(1, 0, 0, 0, 0, 0): 2, (0,) * 6: Fraction(1, 2)}
    assert type(p.terms[1, 0, 0, 0, 0, 0]) is int and canonical(p)
    assert canonical(X0) and type(X0.terms[1, 0, 0, 0, 0, 0]) is int
    assert type(MPoly.const(VARS_BASE, Fraction(3)).terms[(0,) * 6]) is int
    # half plus half is the int 1, and the sum prints as before
    half = Fraction(1, 2) * X0
    assert (half + half).terms == {(1, 0, 0, 0, 0, 0): 1} and canonical(half + half)
    assert str(half + X1) == "1/2 * X0 + 1 * X1"


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
