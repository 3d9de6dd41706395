import json
from fractions import Fraction

import pytest

import goldenring as gr
from goldenring import (
    RationalInterval,
    SymTriple,
    TransitionMatrix,
    TripleSystem,
    VerificationError,
)


def mat2(rows):
    (a, b), (c, d) = rows
    return ((a, b), (c, d))


def mul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def test_symtriple_matrix_view():
    t = SymTriple(2, 3, 5)
    assert t.det() == 2 * 5 - 9
    assert t.rows() == ((2, 3), (3, 5))
    assert [t.coord(j) for j in range(3)] == [2, 3, 5]


def test_transition_matrix():
    M = TransitionMatrix(3, 1, -1, 0)
    assert M.det() == 1
    assert M.transpose().entries() == (3, -1, 1, 0)
    with pytest.raises(ValueError):
        TransitionMatrix(2, 0, 0, 2)  # determinant must be exactly 1
    with pytest.raises(ValueError):
        TransitionMatrix(1, 1, 1, 2)  # symmetric products would be forced


def test_find_seeds_bound3(seeds3):
    assert len(seeds3) == 32
    for seed in seeds3:
        assert seed.x1.det() == 1 and seed.x2.det() == 1
        assert all(abs(v) <= 3 for v in seed.x1.as_tuple() + seed.x2.as_tuple())
        assert gr.symmetry_defect(seed.M, seed.x2, seed.x1) == 0
    assert gr.find_seeds(3, count=5) == seeds3[:5]


def test_first_seed_frozen(seeds3):
    seed = seeds3[0]
    assert seed.x1.as_tuple() == (-1, -1, -2)
    assert seed.x2.as_tuple() == (-2, -1, -1)
    assert seed.M.entries() == (-3, 1, -1, 0)


def test_generated_window_frozen(first_system):
    assert first_system.K == 22
    assert first_system.x(3).as_tuple() == (-5, -3, -2)
    assert first_system.x(4).as_tuple() == (-29, -17, -10)
    assert first_system.x(5).as_tuple() == (-433, -254, -149)


def test_recurrence_alternates_transpose(first_system):
    # x_{k+2} = x_{k+1} S(k) x_k with S(k) = M at odd k, transposed at even k
    seed = first_system.seed
    M = mat2(seed.M.rows())
    Mt = mat2(seed.M.transpose().rows())
    for k in range(1, first_system.K - 1):
        step = M if k % 2 == 1 else Mt
        prod = mul2(mul2(mat2(first_system.x(k + 1).rows()), step),
                    mat2(first_system.x(k).rows()))
        assert prod[0][1] == prod[1][0]
        assert (prod[0][0], prod[0][1], prod[1][1]) == first_system.x(k + 2).as_tuple()


def test_window_determinants(first_system):
    assert all(first_system.x(k).det() == 1 for k in range(1, first_system.K + 1))


def test_germ_indexing(first_system):
    assert first_system.germ(0, 0, 5) == first_system.x(10).coord(0)
    assert first_system.germ(-1, 2, 4) == first_system.x(7).coord(2)
    ks = first_system.germ_range(-3)
    assert all(1 <= 2 * k - 3 <= first_system.K for k in ks)
    with pytest.raises(ValueError):
        first_system.x(0)
    with pytest.raises(ValueError):
        first_system.x(23)


def test_germ_window_and_ratios(first_system):
    ks = range(3, 8)
    num = gr.germ_window(first_system, 0, 0, ks)
    den = gr.germ_window(first_system, -1, 0, ks)
    ratios = gr.exact_ratios(num, den)
    assert len(ratios) == 5
    with pytest.raises(ValueError):
        gr.germ_window(first_system, 0, 3, ks)
    with pytest.raises(ValueError):
        gr.exact_ratios([1, 2], [1])
    with pytest.raises(ValueError):
        gr.exact_ratios([1], [0])


def test_enclosures_shrink_and_nest(seeds3, first_system):
    seed = seeds3[0]
    short = gr.generate_system(seed, K=16)
    assert short.xi.contains_interval(first_system.xi)
    assert first_system.xi.width < short.xi.width
    # a truncated enclosure from the same window agrees with the short one
    assert gr.ratio_limit_enclosure(first_system, upto=16) == short.xi
    # ratios beyond the window stay inside the certified interval
    longer = gr.generate_system(seed, K=26)
    r26 = Fraction(longer.x(26).coord(1), longer.x(26).coord(0))
    assert first_system.xi.contains(r26)


def test_xi_frozen_digits(first_system):
    assert abs(float(first_system.xi.mid) - 0.5866033029) < 1e-8
    assert first_system.xi.width < Fraction(1, 10**40)


def test_theta_exact_for_first_seed(first_system):
    # M = (-3, 1, -1, 0) makes the xi terms cancel: theta is the point -3
    theta = gr.growth_constant_enclosure(first_system)
    assert theta.lo == theta.hi == -3


def test_enclosure_rejects_oscillating_window(seeds3):
    # a tail whose ratios oscillate can never pass the nested-refinement check
    triples = [SymTriple(1, 0, 1), SymTriple(1, 1, 2)] * 4
    fake = TripleSystem(seeds3[0], tuple(triples))
    with pytest.raises(VerificationError, match="increase K"):
        gr.ratio_limit_enclosure(fake)
    with pytest.raises(ValueError):
        gr.ratio_limit_enclosure(fake, upto=5)


def test_verify_system_report(first_system):
    rep = gr.verify_system(first_system)
    assert rep.dets_ok and rep.recurrence_ok
    assert rep.e4_dets[:6] == [-2, 2, -2, 2, -2, 2]
    assert rep.e4_abs_constant
    assert rep.theta_excludes_zero
    gamma = (1 + 5**0.5) / 2
    tail = [e for _, e in rep.e1_exponents[-4:]]
    assert all(abs(e - gamma) < 0.02 for e in tail)
    summary = rep.summary()
    assert summary["K"] == 22
    assert json.dumps(summary)  # serializable


def test_verify_rejects_tampered_window(first_system):
    bad = list(first_system.window)
    t = bad[7]
    bad[7] = SymTriple(t.x0 + 1, t.x1, t.x2)
    broken = TripleSystem(first_system.seed, tuple(bad))
    with pytest.raises(VerificationError):
        gr.verify_system(broken)


def test_verify_rejects_wrong_seed(seeds3, first_system):
    other = next(s for s in seeds3 if s.x1 != first_system.seed.x1)
    with pytest.raises(VerificationError, match="seed"):
        gr.verify_system(TripleSystem(other, first_system.window))


def test_generate_window_too_short(seeds3):
    with pytest.raises(ValueError):
        gr.generate_system(seeds3[0], K=2)
    assert gr.generate_system(seeds3[0], K=5).xi is None


def test_json_roundtrip(first_system):
    blob = json.dumps(first_system.to_json())
    back = TripleSystem.from_json(json.loads(blob))
    assert back.window == first_system.window
    assert back.seed == first_system.seed
    assert back.xi == first_system.xi
    assert back.theta == first_system.theta


def test_window_end_ratio_certified(first_system):
    K = first_system.K
    num = RationalInterval.point(first_system.x(K).coord(0))
    den = (first_system.theta
           * first_system.x(K - 1).coord(0)
           * first_system.x(K - 2).coord(0))
    assert (num / den).within(1, Fraction(1, 10**6))


def exact_e2(system, xi):
    """Exact maxima of |xi*x0 - x1|*|x0| and |xi2*x0 - x2|*|x0| per k < K."""
    lo, hi = xi.lo, xi.hi
    squares = (lo * lo, lo * hi, hi * hi)
    first, second = [], []
    for k in range(1, system.K):
        x0, x1, x2 = system.x(k).as_tuple()
        first.append(max(abs(lo * x0 - x1), abs(hi * x0 - x1)) * abs(x0))
        second.append(
            max(abs(min(squares) * x0 - x2), abs(max(squares) * x0 - x2)) * abs(x0)
        )
    return first, second


def test_e2_bounds_are_tight_upper_bounds(first_system):
    rep = gr.verify_system(first_system)
    first, second = exact_e2(first_system, rep.xi)
    slack = 1 + Fraction(1, 2**500)
    for reported, exact in ((rep.e2_first, first), (rep.e2_second, second)):
        assert [k for k, _ in reported] == list(range(1, first_system.K))
        for (_, ub), value in zip(reported, exact):
            assert value <= ub <= value * slack
    summary = rep.summary()
    assert summary["e2_first_max"] == float(max(first))
    assert summary["e2_second_max"] == float(max(second))
