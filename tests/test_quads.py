import random
from itertools import starmap

import pytest
from hypothesis import example, given, strategies as st

import goldenring as gr
from goldenring import BoundExceeded, GoldenInt, Quad, golden_power

quad_st = st.builds(
    Quad,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


def test_quad_validation():
    with pytest.raises(ValueError):
        Quad(-1, 1, 0, 0)
    with pytest.raises(ValueError):
        Quad(0, 0, 1, 0)


def test_quad_value_and_degrees():
    q = Quad(0, 1, 0, 0)
    assert q.value() == GoldenInt(1, 0)
    assert q.degree == 1
    assert q.bidegree == gr.BiDegree(1, 0)
    assert q.indices() == (0,)
    assert Quad(1, 1, 0, 0).value() == GoldenInt(0, 1)


@given(quad_st)
def test_quad_value_matches_index_sum(q):
    total = GoldenInt.zero()
    for idx in q.indices():
        total = total + golden_power(-idx)
    assert q.value() == total
    assert q.size == len(q.indices())


@given(quad_st)
def test_expand_preserves_value(q):
    e = gr.expand_quad(q)
    assert e.value() == q.value()
    assert e.size == q.size + 1
    assert e.degree > q.degree
    assert q.bidegree <= e.bidegree and q.bidegree != e.bidegree


@given(quad_st)
def test_contract_preserves_bidegree(q):
    if q.b < 1:
        with pytest.raises(ValueError):
            gr.contract_quad(q)
        return
    c = gr.contract_quad(q)
    assert c.bidegree == q.bidegree
    assert c.size == q.size - 1
    assert c.value() < q.value()


def _random_nonnegative(count, seed):
    rng = random.Random(seed)
    return [
        abs(GoldenInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)))
        for _ in range(count)
    ]


# every element of degree <= 30, random ones with |m|, |n| <= 10**6, and
# multiples of deep inverse powers, whose bands random elements seldom reach
_CLASSIFIED = (
    gr.elements_up_to_degree(30)
    + _random_nonnegative(2000, seed=27)
    + [k * golden_power(-j) for j in range(29) for k in (1, 2, 3)]
)


def _band_at(alpha, j):
    """(m', n') with alpha = m' gamma**-j + n' gamma**-(j+2), m' >= 1 and
    n' >= 0, or None: alpha gamma**j = m' + n' gamma**-2 = (m' + n') - n'/gamma."""
    scaled = alpha * golden_power(j)
    mp, np_ = scaled.m + scaled.n, -scaled.n
    if mp < 1 or np_ < 0:
        return None
    assert mp * golden_power(-j) + np_ * golden_power(-j - 2) == alpha
    return mp, np_


def test_canonical_quad():
    assert gr.canonical_quad(GoldenInt.zero()) is None
    for alpha in _CLASSIFIED:
        q = gr.canonical_quad(alpha)
        if q is None:
            assert alpha.is_zero()
            continue
        assert q.value() == alpha


def test_classify_strata():
    assert gr.classify(GoldenInt.zero()).kind == "zero"
    assert gr.classify(GoldenInt(1, 1)).kind == "plus"
    band = gr.classify(GoldenInt(1, -1))  # 1 - 1/gamma = gamma**-2
    assert band.kind == "band"
    with pytest.raises(ValueError, match="^element must be nonnegative$"):
        gr.classify(GoldenInt(-1, 0))
    for alpha in _CLASSIFIED:
        cls = gr.classify(alpha)
        # the band pattern holds at exactly one index for a band element,
        # and at none for zero or a plus element.  At index j the conjugate
        # (m - n gamma) (-gamma)**-j of alpha gamma**j is m' + n' gamma**2 >= 1,
        # and |m - n gamma| <= 2.7 * 10**6 < gamma**31, so no band lies past 30
        bands = {j: c for j in range(31) if (c := _band_at(alpha, j)) is not None}
        if cls.kind == "band":
            assert list(bands) == [cls.band]
            mp, np_ = bands[cls.band]
            assert gr.canonical_quad(alpha) == Quad(cls.band, mp, 0, np_)
        else:
            assert bands == {}
            assert cls.kind == ("zero" if alpha.is_zero() else "plus")
            assert alpha.is_zero() or (alpha.m >= 1 and alpha.n >= 1)


def test_value_chain_consecutive_sizes():
    for alpha in gr.elements_up_to_degree(5):
        if alpha.is_zero():
            assert gr.quads_for_value(alpha, 6) == []
            continue
        chain = gr.quads_for_value(alpha, 6)
        assert len(chain) == 6
        assert all(q.value() == alpha for q in chain)
        sizes = [q.size for q in chain]
        assert sizes == list(range(sizes[0], sizes[0] + 6))
        degrees = [q.degree for q in chain]
        assert all(x < y for x, y in zip(degrees, degrees[1:]))


def _power_sum(q: Quad) -> GoldenInt:
    return (
        q.a * golden_power(-q.i)
        + q.b * golden_power(-q.i - 1)
        + q.c * golden_power(-q.i - 2)
    )


def test_value_is_the_golden_power_sum():
    from goldenring.dimension import _window_quads

    for d in range(1, 13):
        for q, _ in _window_quads(d):
            assert q.value() == _power_sum(q)
    # a 200-step chain runs through the indices where f(-i) alternates in sign
    chain = gr.quads_for_value(GoldenInt(3, -1), 200)
    assert len(chain) == 200 and chain[-1].i == 8
    for q in chain:
        assert q.value() == _power_sum(q) == GoldenInt(3, -1)


def test_value_chain_needs_a_positive_count():
    for alpha in (GoldenInt.zero(), GoldenInt(1, 1)):
        for count in (0, -3):
            with pytest.raises(ValueError, match="count must be at least 1"):
                gr.quads_for_value(alpha, count)
    assert gr.quads_for_value(GoldenInt(1, 1), 1) == [gr.canonical_quad(GoldenInt(1, 1))]


def test_bidegree_chain_endpoints():
    for d1 in range(4):
        for d2 in range(4):
            if d1 == 0 and d2 == 0:
                with pytest.raises(ValueError):
                    gr.quads_with_bidegree(0, 0)
                continue
            chain = gr.quads_with_bidegree(d1, d2)
            assert all(q.bidegree == gr.BiDegree(d1, d2) for q in chain)
            sizes = [q.size for q in chain]
            assert sizes[0] == d1 + d2
            assert sizes == list(range(d1 + d2, d1 + d2 - len(chain), -1))
            assert chain[0].value() == GoldenInt(d1, d2)
            assert chain[-1].value() == abs(GoldenInt(d1, -d2))
            assert chain[-1].b == 0


def test_maximal_quad_degree_window():
    for alpha in gr.elements_up_to_degree(6):
        if alpha.is_zero():
            assert gr.maximal_quad_for_degree(alpha, 6) is None
            continue
        q = gr.maximal_quad_for_degree(alpha, 6)
        assert q.value() == alpha
        assert q.degree <= 6
        assert gr.expand_quad(q).degree > 6
    with pytest.raises(ValueError, match="^element degree exceeds the bound$"):
        gr.maximal_quad_for_degree(GoldenInt(3, 0), 2)
    with pytest.raises(ValueError, match="^element bidegree exceeds the bound$"):
        gr.maximal_quad_for_bidegree(GoldenInt(1, 3), 2, 2)


# The walks, the element rows and the refusals as they were when each
# grading had its own body, kept here as the reference for the caps rule.


def _walk_by_degree(alpha, d):
    if alpha.degree > d:
        raise ValueError("element degree exceeds the bound")
    q = gr.canonical_quad(alpha)
    while q is not None and (nxt := gr.expand_quad(q)).degree <= d:
        q = nxt
    return q


def _walk_by_bidegree(alpha, d1, d2):
    bound = gr.BiDegree(d1, d2)
    if not alpha.bidegree <= bound:
        raise ValueError("element bidegree exceeds the bound")
    q = gr.canonical_quad(alpha)
    while q is not None and (nxt := gr.expand_quad(q)).bidegree <= bound:
        q = nxt
    return q


def _check_degree(d, bound=None):
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if bound is not None and d > bound:
        raise BoundExceeded(f"d = {d} exceeds bound {bound}")


def _check_bidegree(d1, d2, bound=None):
    if d1 < 0 or d2 < 0:
        raise ValueError("bi-degree must be nonnegative")
    if bound is not None and d1 + d2 > bound:
        raise BoundExceeded(f"d1 + d2 = {d1 + d2} exceeds bound {bound}")


def _census_check(*degrees):
    (_check_degree if len(degrees) == 1 else _check_bidegree)(*degrees)
    top = gr.quads.BRUTE_FORCE_MAX_DEGREE
    if sum(degrees) > top:
        limit = f"d1 + d2 <= {top}" if len(degrees) == 2 else f"degree {top}"
        raise BoundExceeded(f"brute force census limited to {limit}")


def _outcome(call, *args):
    """What the call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except (ValueError, BoundExceeded) as exc:
        return type(exc), str(exc)


def _old_body(degrees):
    """The element rows and the walk of the degrees' grading as they were,
    and the public walk of that grading."""
    if len(degrees) == 1:
        (d,) = degrees
        rows = [(m, abs(m) - d, d - abs(m)) for m in range(-d, d + 1)]
        return rows, _walk_by_degree, gr.maximal_quad_for_degree
    d1, d2 = degrees
    rows = [(m, -d2, d2) for m in range(-d1, d1 + 1)]
    return rows, _walk_by_bidegree, gr.maximal_quad_for_bidegree


def test_caps_rule_equals_the_walks_by_degree_and_by_bidegree():
    # every nonnegative element of the bound, and of the bound one larger in
    # each block, whose extra elements both refuse alike
    bounds = [(d,) for d in range(31)]
    bounds += [(d1, d2) for d1 in range(25) for d2 in range(25 - d1)]
    for degrees in bounds:
        rows, walk, maximal_quad = _old_body(degrees)
        pairs = list(gr.quads._nonnegative(rows))
        assert list(gr.quads._element_pairs(*degrees)) == pairs, degrees
        wider = gr.quads._element_pairs(*(d + 1 for d in degrees))
        for alpha in starmap(GoldenInt, wider):
            expected = _outcome(walk, alpha, *degrees)
            assert _outcome(maximal_quad, alpha, *degrees) == expected, (degrees, alpha)
            assert _outcome(gr.quads._maximal_quad, alpha, degrees) == expected, (degrees, alpha)


def test_one_check_refuses_as_each_grading_did():
    bounds = [None, 0, 3, 10]
    for d in (-5, -1, 0, 3, 4, 10, 11):
        for bound in bounds:
            expected = _outcome(_check_degree, d, bound)
            assert _outcome(gr.quads._check, (d,), bound) == expected, (d, bound)
    for d1 in (-2, -1, 0, 1, 3, 11):
        for d2 in (-3, -1, 0, 2, 9):
            for bound in bounds:
                expected = _outcome(_check_bidegree, d1, d2, bound)
                assert _outcome(gr.quads._check, (d1, d2), bound) == expected, (d1, d2, bound)
    # the census refusals, each before the census
    top = gr.quads.BRUTE_FORCE_MAX_DEGREE
    for degrees in [(-1,), (top + 1,), (-1, 0), (0, -2), (top, 1), (top + 1, 0), (1, top),
                    (-1, top + 1)]:
        assert _outcome(gr.quads._census_sizes, *degrees) == _outcome(_census_check, *degrees)


def test_max_size_against_brute_force():
    for d in range(1, 7):
        table = gr.brute_force_sizes(d)
        for alpha, size in table.items():
            assert gr.max_size_for_degree(alpha, d) == size


def test_max_size_bi_against_brute_force():
    for d1 in range(9):
        for d2 in range(9 - d1):
            table = gr.brute_force_sizes_bi(d1, d2)
            for alpha, size in table.items():
                assert gr.max_size_for_bidegree(alpha, d1, d2) == size, (d1, d2, alpha)


def test_profiles_match_brute_force_small():
    for d in range(1, 6):
        assert gr.size_class_profile(d) == gr.sizes_to_profile(gr.brute_force_sizes(d))
    for d1 in range(4):
        for d2 in range(4):
            if d1 == d2 == 0:
                continue
            assert gr.size_class_profile_bi(d1, d2) == gr.sizes_to_profile(
                gr.brute_force_sizes_bi(d1, d2)
            )


def test_profiles_match_brute_force_at_the_bound():
    # the costliest admitted census is the total one at B; the census at
    # d1 + d2 = B enumerates a subset of it
    top = gr.quads.BRUTE_FORCE_MAX_DEGREE
    assert gr.sizes_to_profile(gr.brute_force_sizes(top)) == gr.size_class_profile(top)
    for d1 in (0, 1, top // 2, top - 1, top):
        sizes = gr.brute_force_sizes_bi(d1, top - d1)
        assert gr.sizes_to_profile(sizes) == gr.size_class_profile_bi(d1, top - d1), d1


def _callable_census(admits):
    """The census as it was when it took a callable: the maximal size per
    element over all representations whose bidegree (u1, u2) passes
    admits(u1, u2), kept here as the reference for the one with caps."""
    fib = gr.fib
    best = {(0, 0): 0}
    steps = []
    i = 0
    while i < 2 or admits(fib(i - 2), fib(i - 1)):
        steps.append((fib(i - 2), fib(i - 1), fib(-i), fib(-i - 1)))
        i += 1

    def rec(min_i, u1, u2, m, n, size):
        for i in range(min_i, len(steps)):
            a1, a2, b1, b2 = steps[i]
            w1, w2 = u1 + a1, u2 + a2
            if admits(w1, w2):
                v2 = (m + b1, n + b2)
                s2 = size + 1
                if best.get(v2, -1) < s2:
                    best[v2] = s2
                rec(i, w1, w2, *v2, s2)
            elif i >= 2:
                return

    rec(0, 0, 0, 0, 0, 0)
    return {GoldenInt(m, n): s for (m, n), s in best.items()}


def test_census_with_caps_equals_the_callable_census():
    for d in range(31):
        assert gr.brute_force_sizes(d) == _callable_census(lambda u1, u2: u1 + u2 <= d), d
    for d1 in range(31):
        for d2 in range(31 - d1):
            expected = _callable_census(lambda u1, u2: u1 <= d1 and u2 <= d2)
            assert gr.brute_force_sizes_bi(d1, d2) == expected, (d1, d2)


def _direct_pairs(c1, c2, total):
    """(m, n) with |m| <= c1, |n| <= c2, |m| + |n| <= total and m + n/gamma
    >= 0 by the exact sign, sorted: the enumeration's oracle."""
    return [(m, n) for m in range(-c1, c1 + 1) for n in range(-c2, c2 + 1)
            if abs(m) + abs(n) <= total and GoldenInt(m, n).sign() >= 0]


def test_element_pairs_equal_the_elements():
    # the pairs enum prints are the elements the GoldenInt functions list
    for d in range(41):
        pairs = list(gr.quads._element_pairs(d))
        assert pairs == [(a.m, a.n) for a in gr.elements_up_to_degree(d)], d
        assert pairs == _direct_pairs(d, d, d), d
    for d1 in range(41):
        for d2 in range(41 - d1):
            pairs = list(gr.quads._element_pairs(d1, d2))
            assert pairs == [(a.m, a.n) for a in gr.elements_up_to_bidegree(d1, d2)], (d1, d2)
            assert pairs == _direct_pairs(d1, d2, d1 + d2), (d1, d2)


def test_census_pairs_equal_the_golden_census():
    # chi --oracle reads the census keyed by (m, n); brute_force_sizes(_bi)
    # key the same sizes by GoldenInt
    calls = [((d,), gr.quads._census_sizes, gr.brute_force_sizes) for d in range(25)]
    calls += [((d1, d2), gr.quads._census_sizes, gr.brute_force_sizes_bi)
              for d1 in range(25) for d2 in range(25 - d1)]
    for degree, pairs, golden in calls:
        sizes, elements = pairs(*degree), golden(*degree)
        assert list(sizes) == [(a.m, a.n) for a in elements], degree
        assert list(sizes.values()) == list(elements.values()), degree
        assert gr.sizes_to_profile(sizes) == gr.sizes_to_profile(elements), degree


def test_brute_force_bound_refused_before_any_work(monkeypatch):
    def refuse(c1, c2, total):
        raise AssertionError("the census ran before the bound check")

    # the one census, which chi --oracle reads keyed by (m, n) and the
    # GoldenInt functions wrap: both forms refuse before it runs
    monkeypatch.setattr(gr.quads, "_census", refuse)
    top = gr.quads.BRUTE_FORCE_MAX_DEGREE
    for sizes, sizes_bi in ((gr.brute_force_sizes, gr.brute_force_sizes_bi),
                            (gr.quads._census_sizes, gr.quads._census_sizes)):
        with pytest.raises(BoundExceeded, match=f"^brute force census limited to degree {top}$"):
            sizes(top + 1)
        for d1, d2 in ((top + 1, 0), (0, top + 1), (1, top)):
            with pytest.raises(BoundExceeded,
                               match=rf"^brute force census limited to d1 \+ d2 <= {top}$"):
                sizes_bi(d1, d2)
        # the bound itself is admitted, and the call reaches the census
        for call in (lambda: sizes(top), lambda: sizes_bi(1, top - 1)):
            with pytest.raises(AssertionError, match="census ran"):
                call()


def test_size_class_closed_form_values():
    # 2s+1 below the top class, d+1 at s = d
    assert [gr.size_class_count(3, s) for s in range(4)] == [1, 3, 5, 4]
    assert [gr.size_class_count(5, s) for s in range(6)] == [1, 3, 5, 7, 9, 6]
    assert [gr.size_class_count_bi(2, 1, s) for s in range(4)] == [1, 3, 3, 1]
    assert [gr.size_class_count_bi(2, 2, s) for s in range(5)] == [1, 3, 5, 3, 1]


def test_size_class_count_bi_rejects_negative_bidegree():
    calls = (lambda d1, d2: gr.size_class_count_bi(d1, d2, 0), gr.size_class_profile_bi,
             gr.brute_force_sizes_bi, gr.elements_up_to_bidegree)
    for call in calls:
        for d1, d2 in ((-1, 2), (2, -1), (-1, -1), (-1, 0), (-1, 3)):
            with pytest.raises(ValueError, match="^bi-degree must be nonnegative$"):
                call(d1, d2)


@pytest.mark.parametrize(
    "call",
    [lambda d: gr.size_class_count(d, 0), gr.size_class_profile, gr.brute_force_sizes,
     gr.elements_up_to_degree],
    ids=["size_class_count", "size_class_profile", "brute_force_sizes", "elements_up_to_degree"],
)
@pytest.mark.parametrize("d", [-1, -5])
def test_total_degree_functions_reject_negative_degree(call, d):
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        call(d)


def test_size_class_symmetries():
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            for s in range(d1 + d2 + 1):
                count = gr.size_class_count_bi(d1, d2, s)
                assert count == gr.size_class_count_bi(d2, d1, s)
                assert count == gr.size_class_count_bi(d1, d2, d1 + d2 - s)


def test_cardinalities_small():
    for d in range(11):
        assert len(gr.elements_up_to_degree(d)) == d * d + d + 1
    for d1 in range(6):
        for d2 in range(6):
            expected = 2 * d1 * d2 + d1 + d2 + 1
            assert len(gr.elements_up_to_bidegree(d1, d2)) == expected


def test_element_enumeration_is_consistent():
    # bidegree enumeration at (d, d) refines total-degree enumeration at d
    total = set(gr.elements_up_to_degree(4))
    for alpha in gr.elements_up_to_bidegree(2, 2):
        assert alpha in total


def test_enumeration_equals_sign_filter():
    # the reference: every pair in the box, kept when its sign is >= 0
    for d in range(61):
        box = (GoldenInt(m, n) for m in range(-d, d + 1)
               for n in range(abs(m) - d, d - abs(m) + 1))
        assert gr.elements_up_to_degree(d) == [a for a in box if a.sign() >= 0]
    for d1 in range(21):
        for d2 in range(21):
            box = (GoldenInt(m, n) for m in range(-d1, d1 + 1) for n in range(-d2, d2 + 1))
            assert gr.elements_up_to_bidegree(d1, d2) == [a for a in box if a.sign() >= 0]


@given(st.integers(min_value=-(10**30), max_value=10**30))
@example(0)
@example(1)
@example(-1)
@example(10**30)
@example(-(10**30))
def test_least_n_is_the_sign_boundary(m):
    n = gr.quads._least_n(m)
    assert GoldenInt(m, n).sign() >= 0
    assert GoldenInt(m, n - 1).sign() < 0


def test_degree_is_the_bidegree_total():
    # `cli._quad_json` prints d1 + d2 of `Quad.weights` as the degree
    for total in range(1, 13):
        for d1 in range(total + 1):
            quads = gr.quads_with_bidegree(d1, total - d1)
            assert quads
            for q in quads:
                assert q.bidegree == gr.BiDegree(d1, total - d1)
                assert q.degree == q.d1 + q.d2 == q.bidegree.total == total


def test_quad_weights_are_the_index_sums():
    # the module docstring's definition: the bidegree sums (f(k - 2), f(k - 1))
    # over the indices, and the degree sums f(k)
    from goldenring.cli import _quad_json

    for i in range(13):
        for a in range(1, 7):
            for b in range(7):
                for c in range(7):
                    q = Quad(i, a, b, c)
                    d1 = sum(gr.fib(k - 2) for k in q.indices())
                    d2 = sum(gr.fib(k - 1) for k in q.indices())
                    assert q.weights() == (d1, d2)
                    assert (q.d1, q.d2) == (d1, d2)
                    assert q.bidegree == gr.BiDegree(d1, d2)
                    assert q.degree == d1 + d2 == sum(gr.fib(k) for k in q.indices())
                    # the row as it was built from to_json and a BiDegree
                    row = {**q.to_json(), "size": q.size, "degree": d1 + d2,
                           "bidegree": [d1, d2]}
                    assert list(_quad_json(q).items()) == list(row.items())


class _Reached(Exception):
    """Raised by a patched worker: the call got past its checks."""


def _reach(*args, **kwargs):
    raise _Reached


CHI, ENUM = gr.quads.CHI_DEGREE_BOUND, gr.quads.ENUM_DEGREE_BOUND
COUNT, BIDEGREE = gr.quads.QUADS_COUNT_BOUND, gr.quads.QUADS_BIDEGREE_BOUND
SEEDS = gr.sequences.SEED_BOUND

# (call at n, its bound, the worker behind its checks, the message past the
# bound): the function that does the work refuses its bound, with the
# message the CLI prints after "error: "
BOUND_CALLS = [
    pytest.param(gr.size_class_profile, CHI, (gr.quads, "_size_class_count"),
                 "d = {} exceeds bound {}", id="size_class_profile"),
    pytest.param(lambda n: gr.size_class_profile_bi(1, n - 1), CHI,
                 (gr.quads, "_size_class_count_bi"), "d1 + d2 = {} exceeds bound {}",
                 id="size_class_profile_bi"),
    pytest.param(gr.elements_up_to_degree, ENUM, (gr.quads, "_nonnegative"),
                 "d = {} exceeds bound {}", id="elements_up_to_degree"),
    pytest.param(lambda n: gr.elements_up_to_bidegree(n, 0), ENUM, (gr.quads, "_nonnegative"),
                 "d1 + d2 = {} exceeds bound {}", id="elements_up_to_bidegree"),
    # the pair forms that enum reads, through the same one enumeration
    pytest.param(gr.quads._element_pairs, ENUM, (gr.quads, "_nonnegative"),
                 "d = {} exceeds bound {}", id="element_pairs"),
    pytest.param(lambda n: gr.quads._element_pairs(0, n), ENUM, (gr.quads, "_nonnegative"),
                 "d1 + d2 = {} exceeds bound {}", id="element_pairs_bi"),
    pytest.param(lambda n: gr.quads_for_value(GoldenInt(3, 2), n), COUNT,
                 (gr.quads, "canonical_quad"), "count {} exceeds bound {}", id="quads_for_value"),
    pytest.param(lambda n: gr.quads_with_bidegree(0, n), BIDEGREE, (gr.quads, "Quad"),
                 "d1 + d2 = {} exceeds bound {}", id="quads_with_bidegree"),
    pytest.param(gr.find_seeds, SEEDS, (gr.sequences, "_symmetric_unimodular"),
                 "seed bound {} exceeds bound {}", id="find_seeds"),
]


@pytest.mark.parametrize("call, bound, worker, message", BOUND_CALLS)
def test_each_bound_is_refused_before_the_work_behind_it(monkeypatch, call, bound, worker,
                                                         message):
    monkeypatch.setattr(*worker, _reach)
    with pytest.raises(BoundExceeded) as refused:
        call(bound + 1)
    assert str(refused.value) == message.format(bound + 1, bound)
    # the bound itself is admitted, and the call reaches its worker
    with pytest.raises(_Reached):
        call(bound)


def test_value_chain_checks_alpha_then_count_then_its_bound(monkeypatch):
    monkeypatch.setattr(gr.quads, "canonical_quad", _reach)
    for count in (0, COUNT + 1):
        with pytest.raises(ValueError, match="^element must be nonnegative$"):
            gr.quads_for_value(GoldenInt(-1, 0), count)
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        gr.quads_for_value(GoldenInt(0, 0), 0)
    # a bidegree's parts are checked before their sum is read against the bound
    with pytest.raises(ValueError, match="^bidegree must be nonzero and nonnegative$"):
        gr.quads_with_bidegree(-1, BIDEGREE + 2)
