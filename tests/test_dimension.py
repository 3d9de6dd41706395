import math
import random
from fractions import Fraction

import pytest

import goldenring as gr
from goldenring import (
    BoundExceeded,
    GoldenInt,
    GoldenRational,
    RationalInterval,
    VerificationError,
    dimension,
    intervals,
)
from goldenring.dimension import GROWTH_DEGREE_BOUND
from goldenring.intervals import ENDPOINT_BITS, sqrt_interval


def gamma_multiple(x):
    return GoldenRational.golden_multiple(Fraction(x))


def test_dimension_at_full_cutoff_matches_hilbert():
    for d in (1, 2, 3, 5, 7):
        rep = gr.growth_dimension(d, gamma_multiple(d))
        assert rep.dim == gr.hilbert_total_closed(d)


def test_dimension_frozen_values():
    assert gr.growth_dimension(3, 3).dim == 63
    assert gr.growth_dimension(3, Fraction(1, 8)).dim == 1
    assert gr.growth_dimension(3, Fraction(1)).dim == 15
    assert gr.growth_dimension(2, gamma_multiple(1)).dim == 20


def test_contributions_sum_to_dimension():
    rep = gr.growth_dimension(4, gamma_multiple(2))
    total = 1 + sum(weight for _, weight in rep.contributing)
    assert rep.dim == total
    for quad, weight in rep.contributing:
        assert weight == 2 * quad.size + 1
        assert quad.degree <= 4


def test_cutoff_filters_by_value():
    rep = gr.growth_dimension(3, Fraction(1))
    cutoff = GoldenRational.from_rational(Fraction(1))
    for quad, _ in rep.contributing:
        assert cutoff.compare(quad.value()) >= 0


def test_scale_and_ratio_intervals():
    rep = gr.growth_dimension(3, Fraction(2))
    assert rep.scale.strictly_positive()
    assert abs(float(rep.scale.mid) - 6.0**1.5) < 1e-9
    assert rep.ratio.contains(Fraction(rep.dim) / rep.scale.mid)
    # the upper variant drops the zero element
    assert float(rep.ratio_upper.mid) < float(rep.ratio.mid)


def test_dimension_argument_errors():
    with pytest.raises(ValueError):
        gr.growth_dimension(0, Fraction(1))
    with pytest.raises(BoundExceeded):
        gr.growth_dimension(GROWTH_DEGREE_BOUND + 1, Fraction(1))
    with pytest.raises(ValueError):
        gr.growth_dimension(3, Fraction(0))
    with pytest.raises(ValueError):
        gr.growth_dimension(3, Fraction(-2))
    with pytest.raises(ValueError):
        gr.growth_dimension(3, Fraction(11, 2))  # beyond gamma * d


def test_monotone_in_cutoff():
    dims = [
        gr.growth_dimension(4, gamma_multiple(Fraction(j, 8) * 4)).dim
        for j in range(1, 9)
    ]
    assert dims == sorted(dims)
    assert dims[-1] == gr.hilbert_total_closed(4)


def test_scaling_report_frozen_band():
    rep = gr.scaling_report()
    assert len(rep.rows) == 36
    assert f"{float(rep.ratio_low):.6f}" == "0.758440"
    assert f"{float(rep.ratio_high):.6f}" == "5.496972"
    assert f"{float(rep.upper_low):.6f}" == "0.757955"
    assert f"{float(rep.upper_high):.6f}" == "4.122729"
    for row in rep.rows:
        assert rep.ratio_low <= row.ratio.lo and row.ratio.hi <= rep.ratio_high


@pytest.fixture
def fresh_tables():
    # a test that patches what a table is built from must neither see a
    # table built before it nor leave its own to later tests
    dimension._value_table.cache_clear()
    yield
    dimension._value_table.cache_clear()


def test_cross_check_fault_raises_at_every_cutoff(monkeypatch, fresh_tables):
    real = dimension.max_size_for_degree

    def off_by_one(alpha, d):
        return real(alpha, d) + (alpha == GoldenInt(3, 0))

    monkeypatch.setattr(dimension, "max_size_for_degree", off_by_one)
    # the faulty element 3 lies far above this cutoff
    with pytest.raises(VerificationError):
        gr.growth_dimension(3, Fraction(1, 8))


def test_missing_element_fails_the_cross_check(monkeypatch, fresh_tables):
    real = dimension.elements_up_to_degree
    monkeypatch.setattr(
        dimension, "elements_up_to_degree", lambda d: [a for a in real(d) if a != GoldenInt(1, 1)]
    )
    with pytest.raises(VerificationError):
        gr.growth_dimension(2, Fraction(1, 2))


@pytest.mark.parametrize("d", range(1, 9))
def test_exact_cutoff_boundaries(d):
    # independent count: each element of value <= cutoff adds 2 * size + 1,
    # and its maximal quad within degree d is the one that contributes
    counted = [
        (alpha, gr.maximal_quad_for_degree(alpha, d), 2 * gr.max_size_for_degree(alpha, d) + 1)
        for alpha in gr.elements_up_to_degree(d)
    ]
    top = GoldenRational(GoldenInt(d, d), 1)
    scale = 10**6
    for alpha, _, _ in counted:
        if alpha.is_zero() or top.compare(alpha) < 0:
            continue
        on_value = GoldenRational(alpha, 1)
        just_below = GoldenRational(alpha * scale - GoldenInt(1, 0), scale)
        for cutoff in (on_value, just_below):
            rep = gr.growth_dimension(d, cutoff)
            under = [(q, w) for a, q, w in counted if cutoff.compare(a) >= 0]
            assert rep.dim == sum(w for _, w in under)
            assert list(rep.contributing) == sorted(
                ((q, w) for q, w in under if q is not None),
                key=lambda qw: (qw[0].i, qw[0].a, qw[0].b, qw[0].c),
            )
        # a cutoff on a value includes it, one just below excludes it
        assert alpha in {q.value() for q, _ in gr.growth_dimension(d, on_value).contributing}
        assert alpha not in {q.value() for q, _ in gr.growth_dimension(d, just_below).contributing}


def test_each_value_table_is_built_once(monkeypatch, fresh_tables):
    calls = []
    real = dimension.elements_up_to_degree

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(dimension, "elements_up_to_degree", counted)
    for d in range(2, 11):
        gr.growth_dimension(d, gamma_multiple(d))
    assert calls == list(range(2, 11))
    gr.scaling_report()
    assert calls == list(range(2, 11))


@pytest.mark.parametrize("d", range(1, 41))
def test_window_quads_own_each_nonzero_element_once(d):
    quads = dimension._window_quads(d)
    keys = [(q.i, q.a, q.b, q.c) for q, _ in quads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    values = sorted((v.m, v.n) for v in (q.value() for q, _ in quads))
    elements = sorted((a.m, a.n) for a in gr.elements_up_to_degree(d) if not a.is_zero())
    assert values == elements


def test_duplicate_in_place_of_a_missing_value_fails_the_cross_check(monkeypatch, fresh_tables):
    # both enumerations carry 1 twice and lack 1/gamma: the sets, the counts
    # and every weight agree, and only distinctness is left to refuse them
    d = 3
    kept, lost = GoldenInt(1, 0), GoldenInt(0, 1)
    quads = dimension._window_quads(d)
    kept_quad = next(qw for qw in quads if qw[0].value() == kept)
    elements = gr.elements_up_to_degree(d)
    monkeypatch.setattr(
        dimension,
        "_window_quads",
        lambda d: [kept_quad if q.value() == lost else (q, w) for q, w in quads],
    )
    monkeypatch.setattr(
        dimension, "elements_up_to_degree", lambda d: [kept if a == lost else a for a in elements]
    )
    with pytest.raises(VerificationError):
        gr.growth_dimension(d, Fraction(1, 8))


# The oracle below is the chain the dimension scale ran before it took one
# integer square root per endpoint: the Fraction form of GoldenInt.bounds,
# then generic interval products, sqrt_interval and interval divisions.


def _old_golden_bounds(a: GoldenInt, bits: int) -> tuple:
    scale = 1 << bits
    root = math.isqrt(5 * scale * scale)
    s_lo, s_hi = Fraction(root, scale), Fraction(root + 1, scale)
    u = Fraction(2 * a.m - a.n, 2)
    half_n = Fraction(a.n, 2)
    if a.n >= 0:
        return u + half_n * s_lo, u + half_n * s_hi
    return u + half_n * s_hi, u + half_n * s_lo


def _old_chain(d: int, cutoff: GoldenRational, dim: int, monkeypatch) -> tuple:
    """(scale, ratio, ratio_upper) by the old chain, and whether any of its
    steps rounded an endpoint."""
    rounded = []
    real = intervals._round

    def spy(x, up):
        out = real(x, up)
        if out != x:
            rounded.append(x)
        return out

    with monkeypatch.context() as m:
        m.setattr(intervals, "_round", spy)
        lo, hi = _old_golden_bounds(cutoff.num * d, intervals._ROOT_BITS)
        x = RationalInterval(lo / cutoff.den, hi / cutoff.den)
        scale = sqrt_interval(x * x * x)
        ratio = RationalInterval.point(dim) / scale
        ratio_upper = RationalInterval.point(dim - 1) / scale
    return (scale, ratio, ratio_upper), bool(rounded)


def _cutoff_grid(d: int) -> list:
    """delta = k/q for q in {1, 4, 25, 100} and k = 1..floor(q * gamma * d)."""
    return [
        Fraction(k, q)
        for q in (1, 4, 25, 100)
        for k in range(1, (q * d + math.isqrt(5 * q * q * d * d)) // 2 + 1)
    ]


def _triple(rep) -> tuple:
    return rep.scale, rep.ratio, rep.ratio_upper


def test_grid_matches_the_old_chain_which_never_rounds(monkeypatch):
    rep = gr.scaling_report()
    for row in rep.rows:
        new = _triple(gr.growth_dimension(row.d, row.delta))
        old, rounded = _old_chain(row.d, row.delta, row.dim, monkeypatch)
        assert not rounded
        assert new == old
        assert (row.ratio, row.ratio_upper) == new[1:]


@pytest.mark.parametrize("d", range(1, GROWTH_DEGREE_BOUND + 1))
def test_rational_cutoffs_match_the_old_chain_which_never_rounds(monkeypatch, d):
    # every cutoff of the CLI pins lies on this grid
    for delta in _cutoff_grid(d):
        rep = gr.growth_dimension(d, delta)
        old, rounded = _old_chain(d, rep.delta, rep.dim, monkeypatch)
        assert not rounded, delta
        assert _triple(rep) == old, delta


def test_golden_bounds_match_the_old_fraction_form():
    rng = random.Random(38)
    for bits in range(201):
        for _ in range(8):
            m = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 80))
            n = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 80))
            for a in (GoldenInt(m, n), GoldenInt(n, m), GoldenInt(m, 0), GoldenInt(0, n)):
                assert a.bounds(bits) == _old_golden_bounds(a, bits), (a, bits)
                den = rng.randrange(1, 1 << 40)
                assert GoldenRational(a, den).bounds(bits) == tuple(
                    x / den for x in _old_golden_bounds(a, bits)
                )


def _fits(x: Fraction) -> bool:
    return max(x.numerator.bit_length(), x.denominator.bit_length()) <= ENDPOINT_BITS


@pytest.mark.parametrize("digits", [60, 120, 200, 599])
@pytest.mark.parametrize("d", [5, 12])
def test_long_cutoffs_round_soundly(monkeypatch, d, digits):
    # the old chain rounds here; the new one rounds only its last steps, and
    # must still contain (d * delta)^(3/2) within ENDPOINT_BITS
    q = 10**digits
    delta = Fraction(3 * q + 7, q)
    rep = gr.growth_dimension(d, delta)
    _, rounded = _old_chain(d, rep.delta, rep.dim, monkeypatch)
    assert rounded
    # a 2,000-bit enclosure of sqrt(x**3) = sqrt(p**3 q) / q**2, x = p/q
    x = d * delta
    p, q = x.numerator, x.denominator
    radicand = p**3 * q << 4000
    root = math.isqrt(radicand)
    scale = RationalInterval(
        Fraction(root, q * q << 2000), Fraction(root + (root * root < radicand), q * q << 2000)
    )
    assert rep.scale.contains_interval(scale)
    for k, enclosure in ((rep.dim, rep.ratio), (rep.dim - 1, rep.ratio_upper)):
        assert enclosure.contains_interval(RationalInterval(k / scale.hi, k / scale.lo))
    for enclosure in _triple(rep):
        assert _fits(enclosure.lo) and _fits(enclosure.hi)
