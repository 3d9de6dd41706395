from fractions import Fraction

import pytest

import goldenring as gr
from goldenring import BoundExceeded, GoldenInt, GoldenRational, VerificationError, dimension
from goldenring.dimension import GROWTH_DEGREE_BOUND


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
    assert rep.band_width() > 0
    for row in rep.rows:
        assert rep.ratio_low <= row.ratio.lo and row.ratio.hi <= rep.ratio_high


def test_scaling_report_custom_grid():
    rep = gr.scaling_report(degrees=(2, 3), fractions=(Fraction(1, 2), Fraction(1)))
    assert len(rep.rows) == 4
    assert {row.d for row in rep.rows} == {2, 3}
    with pytest.raises(ValueError):
        gr.scaling_report(degrees=(), fractions=())


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
