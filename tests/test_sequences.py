import contextlib
import functools
import inspect
import io
import itertools
import json
import math
import operator
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import goldenring as gr
from goldenring import (
    BoundExceeded,
    RationalInterval,
    SymTriple,
    TransitionMatrix,
    TripleSystem,
    VerificationError,
)
from goldenring.cli import main


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


def test_seed_growth_filter_reads_three_terms(seeds3):
    # symmetric and unimodular within bound 3, but |x_{k,0}| runs 1, 2, 2, 5,
    # 73, ...: it passes two terms and fails the third
    seed = gr.Seed(SymTriple(-1, -1, -2), SymTriple(-2, -1, -1), TransitionMatrix(0, -1, 1, 3))
    firsts = [abs(t.x0) for t in itertools.islice(gr.sequences._terms(seed), 5)]
    assert firsts == [1, 2, 2, 5, 73]
    assert seed not in seeds3
    # the seed counts at every bound that `seq --bound` admits
    counts = [0, 0, 32, 48, 416, 448, 720, 880, 1040, 1888, 2576, 2848, 5392, 6192, 6736, 7280]
    bounds = range(1, gr.sequences.SEED_BOUND + 1)
    assert [len(gr.find_seeds(b)) for b in bounds] == counts


def _filtered_matrices(bound):
    """Entry tuples of the transition matrices: every one of the (2B+1)**4
    with det 1, neither symmetric nor skew-symmetric, in product order."""
    return [
        t for t in itertools.product(range(-bound, bound + 1), repeat=4)
        if t[0] * t[3] - t[1] * t[2] == 1 and t[1] != t[2]
        and not (t[0] == t[3] == 0 and t[1] == -t[2])
    ]


def test_transition_matrices_equal_the_filtered_product():
    # det M = 1 solved for a22, and the two a11 = 0 families, list the same
    # matrices in the same order as filtering every tuple
    for bound in range(1, 13):
        mats = gr.sequences._transition_matrices(bound)
        assert [M.entries() for M in mats] == _filtered_matrices(bound), bound


def _reference_seeds(bound):
    """The seed search as a triple loop: every (x_1, x_2, M) in order with
    `symmetry_defect` zero and |x_{k,0}| increasing over three `_terms`."""
    triples = gr.sequences._symmetric_unimodular(bound)
    mats = [TransitionMatrix(*t) for t in _filtered_matrices(bound)]
    seeds = []
    for x1, x2, M in itertools.product(triples, triples, mats):
        if gr.symmetry_defect(M, x2, x1) == 0:
            seed = gr.Seed(x1, x2, M)
            a, b, c = (abs(t.x0) for t in itertools.islice(gr.sequences._terms(seed), 3))
            if a < b < c:
                seeds.append(seed)
    return seeds


@pytest.mark.parametrize("bound", range(1, 9))
def test_find_seeds_equals_the_triple_loop(bound):
    # the pair pruning and the two linear forms keep exactly the seeds, in
    # the order, of testing every matrix on every pair; so does a count
    # that stops the search early
    expected = _reference_seeds(bound)
    assert gr.find_seeds(bound) == expected
    for n in (1, 2, 7, len(expected), len(expected) + 1):
        if n >= 1:
            assert gr.find_seeds(bound, n) == expected[:n], (bound, n)


def test_find_seeds_equals_an_eight_term_filter():
    # the same candidates, kept when |x_{k,0}| strictly increases for k <= 8
    search = gr.sequences
    expected = []
    for x1, x2, M in itertools.product(search._symmetric_unimodular(4),
                                       search._symmetric_unimodular(4),
                                       search._transition_matrices(4)):
        if gr.symmetry_defect(M, x2, x1) == 0:
            seed = gr.Seed(x1, x2, M)
            firsts = [abs(t.x0) for t in itertools.islice(search._terms(seed), 8)]
            if all(a < b for a, b in zip(firsts, firsts[1:])):
                expected.append(seed)
    assert gr.find_seeds(4) == expected


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


def _checked_window(seed, K):
    """x_1..x_K from the full product x_{n-1} S_n x_{n-2}, every term
    asserted symmetric (p01 == p10) and unimodular."""
    window = [seed.x1, seed.x2]
    for n in range(3, K + 1):
        step = seed.M if n % 2 else seed.M.transpose()
        p00, p01, p10, p11 = gr.sequences._product_entries(window[-1], step, window[-2])
        assert p01 == p10, (seed, n)
        window.append(SymTriple(p00, p01, p11))
        assert window[-1].det() == 1, (seed, n)
    return tuple(window)


def test_generated_terms_are_symmetric_and_unimodular():
    # _terms forms only p00, p01 and p11 and checks nothing, by the
    # induction in its docstring; the full product checks that proof on every
    # bound-4 seed and on every bound-3 candidate, also those find_seeds
    # rejects for growth
    cases = [(seed, 16) for seed in gr.find_seeds(4)]
    triples = gr.sequences._symmetric_unimodular(3)
    cases += [
        (gr.Seed(x1, x2, M), 12)
        for M in gr.sequences._transition_matrices(3) for x1 in triples for x2 in triples
        if gr.symmetry_defect(M, x2, x1) == 0
    ]
    assert len(cases) == 48 + 224
    for seed, K in cases:
        assert gr.generate_system(seed, K).window == _checked_window(seed, K)


def test_window_determinants(first_system):
    assert all(first_system.x(k).det() == 1 for k in range(1, first_system.K + 1))


def test_germ_indexing(first_system):
    assert first_system.germ(0, 0, 5) == first_system.x(10).coord(0)
    assert first_system.germ(-1, 2, 4) == first_system.x(7).coord(2)
    with pytest.raises(ValueError):
        first_system.x(0)
    with pytest.raises(ValueError):
        first_system.x(23)


def test_enclosures_shrink_and_nest(seeds3, first_system, full_width_xi):
    seed = seeds3[0]
    short = gr.generate_system(seed, K=16)
    short_xi, xi = full_width_xi(short), full_width_xi(first_system)
    assert short_xi.contains_interval(xi)
    assert xi.width < short_xi.width
    # ratios beyond the window stay inside the certified interval
    longer = gr.generate_system(seed, K=26)
    r26 = Fraction(longer.x(26).coord(1), longer.x(26).coord(0))
    assert xi.contains(r26)


def test_xi_frozen_digits(first_system):
    assert abs(float(first_system.xi.mid) - 0.5866033029) < 1e-8
    assert first_system.xi.width < Fraction(1, 10**40)


def test_theta_exact_for_first_seed(first_system):
    # M = (-3, 1, -1, 0) makes the xi terms cancel: theta is the point -3
    theta = gr.growth_constant_enclosure(first_system)
    assert theta.lo == theta.hi == -3


def test_enclosure_rejects_oscillating_window():
    # a tail whose ratios oscillate has no limit to enclose; it starts at a
    # seed, but x_3 is not x_2 M x_1, so it is refused on load and never
    # reaches the proof
    seed = gr.Seed(SymTriple(1, 0, 1), SymTriple(1, 1, 2), TransitionMatrix(3, 1, -1, 0))
    rows = [["1", "0", "1"], ["1", "1", "2"]] * 4
    for K in (8, 5):
        with pytest.raises(VerificationError, match="^recurrence fails at term 3$"):
            TripleSystem.from_json({"seed": seed.to_json(), "window": rows[:K]})


def _seed_pair(M, x1, x2):
    """x_1, x_2 and M of a seed: the step that `_xi_certificate` takes past x_2
    is formed with M, and `Seed` checks its premises."""
    seed = gr.Seed(SymTriple(*x1), SymTriple(*x2), TransitionMatrix(*M))
    return seed.x1, seed.x2, seed.M


_UNPROVED_PAIRS = {
    # |x_{2,0}| = 1, so lam = G min(|p_K|, |p_{K+1}|) < 2
    "growth": _seed_pair((-3, -1, 1, 0), (-2, -1, -1), (-1, -1, -2)),
    # the tail bound after the first step exceeds that step
    "tail": _seed_pair((-3, -1, 1, 0), (-1, 2, -5), (-5, -3, -2)),
}

# edits of x_K that would break a premise of `xi_certificate`
_LAST_TERM_EDITS = {
    # x_K scaled by 2: x_{K+1} would be symmetric, but det x_K = 4
    "det": lambda t: SymTriple(*(2 * v for v in t.as_tuple())),
    # x_{K,1} negated: det x_K = 1, but x_{K+1} would not be symmetric
    "symmetry": lambda t: SymTriple(t.x0, -t.x1, t.x2),
}


@pytest.mark.parametrize("case", ["det", "symmetry", "growth", "tail"])
def test_enclosure_rejects_unproved_window(first_system, case):
    if case in _LAST_TERM_EDITS:
        # a broken premise never reaches the proof: a window off its seed's
        # recurrence is refused on load
        last = _LAST_TERM_EDITS[case](first_system.x(22))
        text = [gr.intervals.decimal_text(v) for v in last.as_tuple()]
        with pytest.raises(VerificationError, match="^recurrence fails at term 22$"):
            TripleSystem.from_json(_edited(_dump(first_system), ("window", 21), lambda _: text))
        return
    pair = _UNPROVED_PAIRS[case]
    with pytest.raises(VerificationError, match="increase K"):
        gr.sequences._xi_certificate(*pair)
    # a genuine sequence: a longer window certifies
    assert gr.ratio_limit_enclosure(gr.generate_system(gr.Seed(*pair), K=8)).width > 0


def test_recurrence_windows_form_no_premise(first_system, monkeypatch):
    # a generated or a loaded window is the recurrence's, so xi is proved
    # without det x_{K-1}, det x_K or x_{K+1}'s symmetry defect
    def refuse(*args):
        raise AssertionError("a premise of xi was formed")

    loaded = TripleSystem.from_json(_dump(first_system))  # Seed checks its own premises
    monkeypatch.setattr(gr.sequences, "symmetry_defect", refuse)
    monkeypatch.setattr(SymTriple, "det", refuse)
    generated = gr.generate_system(first_system.seed, K=22)
    proofs = [gr.sequences.xi_certificate(system) for system in (generated, loaded)]
    assert proofs == [first_system.certificate] * 2


_ENTRIES = st.integers(-(1 << 80), 1 << 80)


@given(st.tuples(*[_ENTRIES] * 6), st.sampled_from(gr.sequences._transition_matrices(2)))
def test_symmetry_defect_is_the_off_diagonal_difference(entries, M):
    # grouped by the entries of y, the defect is p10 - p01 of x M y
    x, y = SymTriple(*entries[:3]), SymTriple(*entries[3:])
    _, p01, p10, _ = gr.sequences._product_entries(x, M, y)
    assert gr.symmetry_defect(M, x, y) == p10 - p01


def test_symmetry_defect_poly_is_the_off_diagonal_difference():
    x, y = (SymTriple(*gr.ringalg._base_triple(star=star)) for star in (False, True))
    for M in gr.sequences._transition_matrices(2):
        _, p01, p10, _ = gr.sequences._product_entries(x, M, y)
        assert gr.symmetry_defect_poly(M) == p10 - p01


def test_certificate_products_match_the_full_product():
    # xi_certificate forms p_{K+1} from two wide products and takes x_{K+1}'s
    # symmetry from the recurrence; the full product is the oracle
    product = gr.sequences._product_entries
    for seed in gr.find_seeds(4):
        longer = gr.generate_system(seed, K=17)
        for K in range(6, 17):
            prev, last = longer.x(K - 1), longer.x(K)
            M = gr.sequences._step_matrix(seed.M, K + 1)
            p00, p01, p10, _ = product(last, M, prev)
            assert p01 == p10 and gr.symmetry_defect(M, last, prev) == 0
            certificate = gr.sequences.xi_certificate(gr.generate_system(seed, K))
            assert certificate.p_next == p00 == longer.x(K + 1).x0
        # x_16 perturbed in one entry: the defect is nonzero
        for j in range(3):
            entries = list(last.as_tuple())
            entries[j] += 1
            bad = SymTriple(*entries)
            _, p01, p10, _ = product(bad, M, prev)
            assert gr.symmetry_defect(M, bad, prev) == p10 - p01 != 0


# the scales at which the oracle test compares the rounded enclosures
_BOUND_SCALES = (0, 1, gr.intervals.ENDPOINT_BITS, 2000)


def _last_step(system: TripleSystem):
    """x_{K-1}, x_K and M_{K+1}, from which `xi_certificate` proves xi."""
    K = system.K
    return system.x(K - 1), system.x(K), gr.sequences._step_matrix(system.seed.M, K + 1)


def _product_form(step, F: int):
    """`_xi_certificate` with the products it avoids, as the oracle for them.

    The same proof at the scale 2**-F, with step = |p_K p_{K+1}| dividing
    the radius and the tail check 4 A |p_K| 2**F <= 3 |d| G |p_{K+1}|
    formed on both sides.  Returns the refusal message, or the certificate's
    bounds at each of _BOUND_SCALES.
    """
    prev, last, M = step
    a11, a12, a21, a22 = M.entries()
    p, q = last.x0, last.x1
    p_next = gr.sequences._product_entries(last, M, prev)[0]
    d = a21 * prev.x0 + a22 * prev.x1
    # the premises, which the caller of the proof provides
    assert prev.det() == 1 == last.det() and gr.symmetry_defect(M, last, prev) == 0
    step = abs(p * p_next)
    c = (q << F) // p
    rho = -((-abs(d) << F + 1) // step) + 1
    slopes = [abs((a << F) + a22 * c) for a in (a12, a21)]
    theta = (a11 << 2 * F) + ((a12 + a21) * c << F) + a22 * c * c
    G = abs(theta) - rho * (sum(slopes) + abs(a22) * rho)
    A = max(slopes) + abs(a22) * rho
    if not (
        G * min(abs(p), abs(p_next)) >= 2 << 2 * F
        and 4 * A * abs(p) << F <= 3 * abs(d) * G * abs(p_next)
    ):
        return "enclosure not certified; increase K"
    bounds = {}
    for s in _BOUND_SCALES:
        n = (q << s) // p
        e = -((-abs(d) << s + 1) // step)
        bounds[s] = (n - e, n + 1 + e)
    return bounds


def _proof(prove, *args):
    """The certificate `prove(*args)` makes, or its refusal message."""
    try:
        return prove(*args)
    except VerificationError as exc:
        return str(exc)


def _certificate_outcome(step):
    """What `_xi_certificate` makes of the last step, in `_product_form`'s terms."""
    cert = _proof(gr.sequences._xi_certificate, *step)
    return cert if isinstance(cert, str) else {s: cert.bounds(s) for s in _BOUND_SCALES}


def test_certificate_equals_its_product_form(monkeypatch):
    # the nested divisions and the divided tail check accept and refuse the
    # same windows as the products they replace, and round to the same bounds
    fields = ("p", "q", "p_next", "d")
    assert gr.sequences.XiCertificate._fields == fields
    assert tuple(inspect.signature(gr.sequences.XiCertificate).parameters) == fields
    crafted = list(_UNPROVED_PAIRS.values())
    # certified with the tail check tight: its ceiling equals |d| = 1
    crafted.append(_seed_pair((-3, -1, 1, 0), (-1, 0, -1), (-2, -1, -1)))
    generated = [gr.generate_system(seed, K) for seed in gr.find_seeds(4) for K in range(3, 23)]
    for step in [_last_step(system) for system in generated] + crafted:
        assert _certificate_outcome(step) == _product_form(step, gr.intervals.ENDPOINT_BITS)
    # xi_certificate is that proof of the window's last step
    for system in generated:
        assert (_proof(gr.sequences.xi_certificate, system)
                == _proof(gr.sequences._xi_certificate, *_last_step(system)))
    # at coarse scales the roundings of J's radius and of the tail check
    # decide windows either way
    short = [_last_step(system) for system in generated if system.K <= 10] + crafted
    outcomes = set()
    for F in range(9):
        monkeypatch.setattr(gr.sequences, "ENDPOINT_BITS", F)
        for step in short:
            outcome = _product_form(step, F)
            assert _certificate_outcome(step) == outcome
            outcomes.add(outcome if isinstance(outcome, str) else "certified")
    assert len(outcomes) == 2


@pytest.mark.parametrize("s", [-1, 2.5, True, False, "8", None, -(10**700)])
@pytest.mark.parametrize("method", ["bounds", "enclosure"])
def test_certificate_refuses_a_scale_other_than_a_nonnegative_int(first_system, method, s):
    # before any work: a certificate whose fields are not integers fails
    # on any arithmetic, and the refusal comes first
    cert = first_system.certificate
    unusable = gr.sequences.XiCertificate(None, None, None, None)
    for c in (cert, unusable):
        with pytest.raises(ValueError, match="^scale must be an int of at least 0$"):
            getattr(c, method)(s)
    assert cert.enclosure(0) == RationalInterval(*map(Fraction, cert.bounds(0)))


def _ratio(t: SymTriple) -> Fraction:
    return Fraction(t.x1, t.x0)


def test_enclosure_holds_later_ratios(seeds3, first_system, full_width_xi):
    # the bound-4 seeds include the bound-3 ones
    for seed in gr.find_seeds(4):
        longer = gr.generate_system(seed, K=22)
        for K in range(6, 17):
            xi = full_width_xi(gr.generate_system(seed, K))
            assert all(xi.contains(_ratio(longer.x(j))) for j in range(K, K + 7))
    longer = gr.generate_system(seeds3[0], K=26)
    xi = full_width_xi(first_system)
    assert all(xi.contains(_ratio(longer.x(j))) for j in range(22, 27))


def test_enclosure_sound_for_unfiltered_seeds():
    # Every (x1, x2, M) with entries in [-3, 3] and x2*M*x1 symmetric, also
    # those find_seeds rejects, proved from the seed pair itself and from
    # each window of 3 to 6 terms.  Entries this small keep the tail bound
    # above the rounding, so a radius short of the proved one lets a later
    # ratio escape.
    triples = gr.sequences._symmetric_unimodular(3)
    certified = 0
    for M in gr.sequences._transition_matrices(3):
        for x1 in triples:
            for x2 in triples:
                if gr.symmetry_defect(M, x2, x1) != 0:
                    continue
                seed = gr.Seed(x1, x2, M)
                terms = gr.generate_system(seed, K=12).window
                for K in range(2, 7):
                    try:
                        cert = (gr.sequences._xi_certificate(x1, x2, M) if K == 2
                                else gr.generate_system(seed, K).certificate)
                    except VerificationError:
                        continue
                    # the full window precision, as the full_width_xi fixture takes it
                    xi = cert.enclosure(2 * terms[K - 2].x0.bit_length() + 2)
                    certified += 1
                    assert all(xi.contains(_ratio(t)) for t in terms[K - 1:K + 6])
    assert certified >= 784  # of 1120 windows; the others raise


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


def _bump(v: str) -> str:
    """A window entry plus one, at any size."""
    return gr.intervals.decimal_text(gr.intervals.parse_decimal(v) + 1)


@pytest.mark.parametrize("coord", ["x0", "x2"])
@pytest.mark.parametrize("term", [3, 8, 22])  # first after the seed, middle, last
def test_verify_rejects_tampered_window(first_system, term, coord):
    # a loaded window is matched term by term against its seed's
    bad = _edited(_dump(first_system), ("window", term - 1, ("x0", "x1", "x2").index(coord)), _bump)
    with pytest.raises(VerificationError, match=f"^recurrence fails at term {term}$"):
        TripleSystem.from_json(bad)


def test_verify_rejects_wrong_seed(seeds3, first_system):
    other = next(s for s in seeds3 if s.x1 != first_system.seed.x1)
    with pytest.raises(VerificationError, match="^window does not start at the seed$"):
        TripleSystem.from_json(dict(_dump(first_system), seed=other.to_json()))


def test_generate_window_too_short(seeds3):
    with pytest.raises(ValueError, match="^window length must be at least 3$"):
        gr.generate_system(seeds3[0], K=2)


def test_short_windows_certify_and_verify():
    # every length check_window admits below 9 is proved for these seeds,
    # and the tail bound's margin puts the K = 22 enclosure inside; K = 3
    # has one triple determinant, too few to call constant
    for seed in gr.find_seeds(4):
        xi = gr.generate_system(seed, K=22).xi
        for K in range(3, 9):
            system = gr.generate_system(seed, K=K)
            report = gr.verify_system(system)
            assert report.K == K and report.theta_excludes_zero
            assert report.e4_abs_constant is (K > 3)
            assert report.xi == system.xi and system.xi.contains_interval(xi)


@pytest.mark.parametrize("K, dets, constant", [(3, [-2], False), (4, [-2, 2], True)])
def test_e4_constant_needs_two_determinants(seeds3, K, dets, constant):
    report = gr.verify_system(gr.generate_system(seeds3[0], K=K))
    assert (report.e4_dets, report.e4_abs_constant) == (dets, constant)


def _counting_terms(monkeypatch):
    """Wrap `_terms` so that the returned list counts the terms taken from each stream."""
    taken, real = [], gr.sequences._terms

    def counting(seed):
        taken.append(0)
        for term in real(seed):
            taken[-1] += 1
            yield term

    monkeypatch.setattr(gr.sequences, "_terms", counting)
    return taken


def test_generate_takes_exactly_the_window(seeds3, monkeypatch):
    taken = _counting_terms(monkeypatch)
    for K in (3, 8, 22):
        assert gr.generate_system(seeds3[0], K=K).K == K
    assert taken == [3, 8, 22]


def test_verify_takes_no_term_past_the_window_or_a_wrong_one(first_system, monkeypatch):
    # from_json forms the terms it matches, and verify_system forms none
    dumped = _dump(first_system)
    taken = _counting_terms(monkeypatch)
    gr.verify_system(TripleSystem.from_json(dumped))
    with pytest.raises(VerificationError, match="term 9$"):
        TripleSystem.from_json(_edited(dumped, ("window", 8, 0), _bump))
    assert taken == [22, 9]


def _charge(window) -> int:
    """The bits a window charges against WINDOW_BITS, counted here."""
    return sum(v.bit_length() + 64 for t in window for v in t.as_tuple())


def test_generate_window_bound(bound9_seed, monkeypatch):
    # this seed's first 24 terms charge 2,044,932 bits, its first 25 3,306,289
    budget = gr.sequences.WINDOW_BITS
    assert _charge(gr.generate_system(bound9_seed, K=24).window) <= budget
    taken = _counting_terms(monkeypatch)
    for K in (25, 26):
        with pytest.raises(
            BoundExceeded, match=f"^window of {K} terms crosses WINDOW_BITS = {budget} at term 25$"
        ):
            gr.generate_system(bound9_seed, K=K)
    # the crossing term is the last one formed, whatever K asks for
    assert taken == [25, 25]


def test_window_of_any_int_length_meets_the_budget(seeds3, monkeypatch, capsys):
    # a length past sys.maxsize, or past the int-digit limit, is refused by
    # the budget at the same term as any long window, and no later term is
    # formed, through the library or the CLI
    budget = gr.sequences.WINDOW_BITS
    taken = _counting_terms(monkeypatch)
    for K in (2**63 - 1, 2**63, 10**700):
        with pytest.raises(
            BoundExceeded, match=f"^window of {K} terms crosses WINDOW_BITS = {budget} at term 27$"
        ):
            gr.generate_system(seeds3[0], K)
    assert main(["seq", "--window", str(2**63)]) == 3
    assert capsys.readouterr() == (
        "", f"error: window of {2**63} terms crosses WINDOW_BITS = {budget} at term 27\n")
    assert taken == [27] * 4


def test_triple_system_built_directly_follows_the_window_rule(largest_windows):
    budget = gr.sequences.WINDOW_BITS
    system = largest_windows[0]
    seed, longest = system.seed, system.window
    for K in (0, 1, 2):
        with pytest.raises(ValueError, match="^window length must be at least 3$"):
            TripleSystem(seed, K)
    # one more term passes the budget, though it alone would fit
    x27 = next(itertools.islice(gr.sequences._terms(seed), 26, None))
    assert _charge([x27]) <= budget < _charge(longest + (x27,))
    crossed = f"^window of 27 terms crosses WINDOW_BITS = {budget} at term 27$"
    with pytest.raises(BoundExceeded, match=crossed):
        TripleSystem(seed, 27)
    with pytest.raises(BoundExceeded, match=crossed):
        TripleSystem(seed=system.seed, K=27)
    for K in (3, 26):
        assert TripleSystem(seed, K).window == longest[:K]


def test_json_roundtrip(first_system):
    blob = json.dumps(first_system.to_json())
    back = TripleSystem.from_json(json.loads(blob))
    assert back.window == first_system.window
    assert back.seed == first_system.seed
    assert back.xi == first_system.xi
    assert back.theta == first_system.theta


def test_loaded_window_echoes_its_text(first_system, monkeypatch):
    blob = json.dumps(first_system.to_json())
    back = TripleSystem.from_json(json.loads(blob))
    assert back == first_system and hash(back) == hash(first_system)

    def refuse(n):
        raise AssertionError("a loaded canonical window was converted again")

    monkeypatch.setattr(gr.sequences, "decimal_text", refuse)
    assert json.dumps(back.to_json()) == blob


@pytest.mark.parametrize(
    "spell",
    [lambda v: v if v.startswith("-") else "00" + v,
     lambda v: "-00" + v[1:] if v.startswith("-") else v,
     lambda v: "-0" if v == "0" else v],
    ids=["leading-zeros", "negative-leading-zeros", "negative-zero"],
)
def test_loaded_noncanonical_window_is_refused(seeds3, spell):
    # seed 4 starts at x_1 = (-1, 0, -1): its window has negative and zero
    # entries; a spelling of the same values that decimal_text does not write
    # is refused, so a loaded window's text is always its own
    canonical = _dump(gr.generate_system(seeds3[4], K=12))
    spelled = _edited(canonical, ("window",), lambda w: [[spell(v) for v in t] for t in w])
    assert spelled["window"] != canonical["window"]
    with pytest.raises(ValueError, match=r"^window entries must be canonical decimal integers"):
        TripleSystem.from_json(spelled)


def test_window_text_is_derived_from_the_window(seeds3, first_system):
    # the text is no field, so a system built from a loaded one's fields
    # with another seed, or by the constructor, prints its own window
    assert TripleSystem._fields == ("seed", "K")
    assert tuple(inspect.signature(TripleSystem).parameters) == ("seed", "K")
    decimal_text = gr.intervals.decimal_text
    assert first_system.window_text == tuple(
        tuple(map(decimal_text, t.as_tuple())) for t in first_system.window
    )
    first, second = (gr.generate_system(seed, K=10) for seed in seeds3[:2])
    loaded = TripleSystem.from_json(_dump(first))
    mixed = TripleSystem(second.seed, loaded.K)
    for system in (mixed, TripleSystem(second.seed, 10)):
        assert system == second and _dump(system) == _dump(second)


@contextlib.contextmanager
def _int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-digit limit")
@pytest.mark.parametrize("K", [22, 26])  # 26: the largest bound-3 window WINDOW_BITS admits
def test_repr_at_any_size(seeds3, K):
    # entries have about 11,000 digits at K = 22, and s = 16,000 gives
    # enclosure endpoints of over 4,800; under the least int-digit limit each
    # repr is still the dataclass one, formed here without a limit.  A system
    # is its seed and K, and its repr names only them
    system = gr.generate_system(seeds3[0], K=K)
    cert, last = system.certificate, system.x(K)
    enclosure = cert.enclosure(16_000)
    assert all(x.denominator > 10**4_300 for x in (enclosure.lo, enclosure.hi))
    with _int_digit_limit(0):
        expected = [
            f"TripleSystem(seed={system.seed!r}, K={K})",
            f"SymTriple(x0={last.x0}, x1={last.x1}, x2={last.x2})",
            f"XiCertificate(p={cert.p}, q={cert.q}, p_next={cert.p_next}, d={cert.d})",
            f"RationalInterval(lo={enclosure.lo!r}, hi={enclosure.hi!r})",
        ]
    with _int_digit_limit(sys.int_info.str_digits_check_threshold):
        assert [repr(v) for v in (system, last, cert, enclosure)] == expected


def test_from_json_ignores_stored_enclosures(first_system):
    obj = first_system.to_json()
    obj["xi"] = RationalInterval(Fraction(7), Fraction(8)).to_json()
    obj["theta"] = RationalInterval(Fraction(100), Fraction(101)).to_json()
    back = TripleSystem.from_json(obj)
    assert back.xi == first_system.xi
    assert back.theta == first_system.theta
    assert back.xi is back.xi


def test_enclosures_computed_once(seeds3, monkeypatch):
    calls = []
    original = gr.sequences.xi_certificate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gr.sequences, "xi_certificate", counted)
    system = gr.generate_system(seeds3[0], K=14)
    assert calls == []
    system.to_json()
    report = gr.verify_system(system)
    assert system.xi is system.xi
    assert len(calls) == 1
    assert report.xi is system.xi and report.theta is system.theta


def test_reports_never_form_full_width_xi(seeds3, capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("full-width xi formed")

    original = gr.sequences.XiCertificate.bounds

    def bounded(cert, s):
        if s > 2 * gr.sequences.ENDPOINT_BITS:
            refuse()
        return original(cert, s)

    # every rounding of the proof goes through bounds
    monkeypatch.setattr(gr.sequences.XiCertificate, "bounds", bounded)
    system = gr.generate_system(seeds3[0], K=22)
    xi = system.xi  # the package's one enclosure passes the guard
    dumped = system.to_json()
    assert dumped["xi"] == xi.to_json()
    gr.verify_system(system).summary()
    assert main(["seq", "--verify", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["system"] == dumped
    path = tmp_path / "window.json"
    path.write_text(json.dumps(dumped))
    assert main(["seq", "--load", str(path), "--verify", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["system"] == dumped


def test_xi_is_bounded_and_contains_full_width_xi(seeds3, first_system, full_width_xi):
    r26 = _ratio(gr.generate_system(seeds3[0], K=26).x(26))
    xi = first_system.xi
    assert xi.contains_interval(full_width_xi(first_system))
    assert xi.contains(r26)
    assert xi.width <= xi.abs_lower() / 2 ** (gr.sequences.ENDPOINT_BITS - 3)
    assert max(v.denominator.bit_length() for v in (xi.lo, xi.hi)) <= 520
    assert first_system.to_json()["xi"] == xi.to_json()


def test_xi_is_the_one_bounded_enclosure(seeds3, systems22, full_width_xi):
    # the first seed at every certified length, and every seed at K = 22;
    # verify_system needs K >= 8
    first = [gr.generate_system(seeds3[0], K) for K in range(6, 27)]
    cases = [(s, gr.verify_system(s) if s.K >= 8 else None) for s in first] + systems22
    assert len(cases) == 21 + 32
    for system, report in cases:
        xi = system.xi
        assert report is None or report.xi is xi
        assert system.to_json()["xi"] == xi.to_json()
        ends = (n for v in (xi.lo, xi.hi) for n in (v.numerator, v.denominator))
        assert max(n.bit_length() for n in ends) <= gr.sequences.ENDPOINT_BITS + 2
        # both round one proof outward to dyadic grids, and grids nest, so the
        # finer lies in the coarser: about 2**-513 against 2**-(2 bitlen(p_{K-1}) + 2),
        # which is the coarser up to K = 12
        full = full_width_xi(system)
        inner, outer = (full, xi) if system.K >= 13 else (xi, full)
        assert outer.contains_interval(inner)


def _dump(system) -> dict:
    return json.loads(json.dumps(system.to_json()))


def _edited(doc, path, edit):
    """A copy of doc with the node at path replaced by edit(node), or deleted."""
    if not path:
        return edit(doc)
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if edit is None:
        del parent[last]
    else:
        parent[last] = edit(parent[last])
    return doc


def _fullwidth(v):
    return "".join(chr(0xFF10 + int(c)) if c.isdigit() else c for c in v)


# (path into a K = 12 dump, new value from the old one; None deletes).  Most
# edits keep the value int() would read, so only the format is wrong.
@pytest.mark.parametrize(
    "path, edit",
    [
        (("window", 3), lambda t: t[:2]),
        (("window",), None),
        (("seed",), None),
        (("seed", "M", 0, 1), lambda v: v + 0.9),  # int() would truncate to 1
        (("seed", "M", 0, 1), bool),
        (("seed", "x1", 0), float),
        (("seed", "M", 0, 1), str),
        (("window", 4, 0), int),
        (("window", 4, 0), float),
        (("window", 4, 0), lambda v: False),
        (("window", 4, 0), lambda v: "1e5"),
        (("window", 4, 0), lambda v: " " + v),
        (("window", 4, 0), lambda v: v[:2] + "_" + v[2:]),
        (("window", 4, 1), lambda v: "+" + v),
        (("window", 4, 0), _fullwidth),
        (("window",), lambda w: dict(enumerate(w))),
    ],
    ids=["two-entry-row", "no-window", "no-seed", "fractional-seed", "bool-seed",
         "float-seed", "string-in-M", "int-entry", "float-entry", "bool-entry",
         "exponent", "space", "underscore", "plus", "fullwidth-digits", "window-dict"],
)
def test_from_json_rejects_malformed(small_system, path, edit):
    with pytest.raises(ValueError):
        TripleSystem.from_json(_edited(_dump(small_system), path, edit))


# what from_json's pre-check admits before it converts an entry: a term
# charges at least 3 * 64 bits, and an entry of b bits at most (b + 64) log10 2
# characters, with 30103 / 10**5 > log10 2
_MOST_ROWS = gr.sequences.WINDOW_BITS // 192
_MOST_CHARS = gr.sequences.WINDOW_BITS * 30103 // 10**5


def _longest_admitted_dump(small_system) -> dict:
    """A K = 3 dump of the most characters WINDOW_BITS admits: eight "0"
    entries and one -10**n, the fewest bits for its digits, with n as large
    as the budget allows."""
    room = gr.sequences.WINDOW_BITS - 9 * 64  # each entry's 64, then -10**n's bits
    n = int(room / math.log2(10))
    while (10**n).bit_length() > room:
        n -= 1
    while (10 ** (n + 1)).bit_length() <= room:
        n += 1
    obj = _dump(small_system)
    obj["window"] = [["-1" + "0" * n, "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    return obj


def test_from_json_caps_window_digits(small_system, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"{args} converted before the cap check")

    # the longest dump the budget admits passes the pre-check, within a few
    # hundred characters of the pre-check's limit, and so do the most terms
    # it admits; being no seed's window, each is refused by the match
    longest = _longest_admitted_dump(small_system)
    chars = sum(map(len, longest["window"][0])) + 6
    assert _MOST_CHARS - 200 < chars <= _MOST_CHARS
    zeros = dict(_dump(small_system), window=[["0", "0", "0"]] * _MOST_ROWS)
    for obj in (longest, zeros):
        with pytest.raises(VerificationError, match="^window does not start at the seed$"):
            TripleSystem.from_json(obj)
    # parse_decimal is the only path from window text to integers
    monkeypatch.setattr(gr.sequences, "parse_decimal", refuse)
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    # one character over the pre-check, and one term of tiny rows over it
    over = _edited(longest, ("window", 0, 0), lambda v: v + "0" * (_MOST_CHARS + 1 - chars))
    tiny = dict(zeros, window=[["1", "0", "1"]] * (_MOST_ROWS + 1))
    for obj, size in ((over, f"3 terms and {_MOST_CHARS + 1} characters"),
                      (tiny, f"{_MOST_ROWS + 1} terms and {3 * _MOST_ROWS + 3} characters")):
        with pytest.raises(BoundExceeded, match=f"^window of {size} cannot fit WINDOW_BITS"):
            TripleSystem.from_json(obj)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-digit limit"
)
def test_int_digit_limit_left_as_found(first_system, capsys, monkeypatch, tmp_path):
    # K = 22 window entries have about 15,000 digits, over the default 4300;
    # nothing may touch the limit to convert them
    def refuse(limit):
        raise AssertionError(f"int-digit limit set to {limit}")

    old, setter = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
    setter(4300)
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        dumped = first_system.to_json()
        summary = gr.verify_system(first_system).summary()
        assert TripleSystem.from_json(dumped).window == first_system.window
        assert main(["seq", "--verify", "--no-timestamp"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        path = tmp_path / "window.json"
        path.write_text(json.dumps(dumped))
        assert main(["seq", "--load", str(path), "--verify", "--no-timestamp"]) == 0
        loaded = json.loads(capsys.readouterr().out)["result"]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        setter(old)
    assert result["system"] == loaded["system"] == dumped
    assert result["verification"] == loaded["verification"] == summary


def test_cap_admits_windows_up_to_26(largest_windows):
    # every bound-3 seed fits at K = 26, and --bound 9 --seed-index 7 at
    # K = 24, each within WINDOW_BITS and under the pre-check of from_json
    # (decimal digits of v, sign included, are at most bits*log10(2) + 2)
    assert [s.K for s in largest_windows] == [26] * 32 + [24]
    charges = [_charge(s.window) for s in largest_windows]
    assert 1_990_000 < max(charges[:32]) and 2_040_000 < charges[32]
    assert max(charges) <= gr.sequences.WINDOW_BITS
    for system in largest_windows:
        entries = [v for t in system.window for v in t.as_tuple()]
        assert sum(int(v.bit_length() * 0.30103) + 2 for v in entries) <= _MOST_CHARS


def test_every_window_seq_prints_loads(largest_windows):
    # each dump, as to_json writes it, reads back as the same window
    for system in largest_windows:
        back = TripleSystem.from_json(system.to_json())
        assert back == system


_decimals = st.from_regex(r"-?[0-9]{1,12}", fullmatch=True)
_json_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _decimals
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


_K8_DUMP = _dump(gr.generate_system(gr.find_seeds(3, 1)[0], K=8))


@st.composite
def window_documents(draw, base=_K8_DUMP):
    """Random JSON, or a valid K = 8 dump with one node or one entry replaced."""
    kind = draw(st.sampled_from(["json", "node", "entry"]))
    if kind == "json":
        return draw(_json_values)
    if kind == "node":
        path, value = draw(st.sampled_from(list(_paths(base)))), draw(_json_values)
    else:
        path = ("window", draw(st.integers(0, 7)), draw(st.integers(0, 2)))
        value = draw(_decimals)
    return _edited(base, path, lambda _: value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window_documents(), st.booleans())
def test_loader_fuzz(obj, verify):
    try:
        assert isinstance(TripleSystem.from_json(obj), TripleSystem)
    except (ValueError, BoundExceeded, VerificationError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "window.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        argv = ["seq", "--load", path] + ["--verify"] * verify
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)


def test_window_end_ratio_certified(first_system):
    K = first_system.K
    num = RationalInterval.point(first_system.x(K).coord(0))
    den = (first_system.theta
           * first_system.x(K - 1).coord(0)
           * first_system.x(K - 2).coord(0))
    assert (num / den).within(1, Fraction(1, 10**6))


def exact_e2(system, xi):
    """Exact maxima of |xi*x0 - x1|*|x0| and |xi2*x0 - x2|*|x0| per k < K.

    xi ranges over the interval and xi2 over the range of its square; each
    maximum is a pair (n, d) of integers, the value n/d, so no gcd of the
    wide endpoints is ever taken.
    """
    L = math.lcm(xi.lo.denominator, xi.hi.denominator)
    a = xi.lo.numerator * (L // xi.lo.denominator)
    b = xi.hi.numerator * (L // xi.hi.denominator)
    squares = (a * a, a * b, b * b)
    first, second = [], []
    for k in range(1, system.K):
        x0, x1, x2 = system.x(k).as_tuple()
        y1, y2 = x1 * L, x2 * L * L
        first.append((max(abs(a * x0 - y1), abs(b * x0 - y1)) * abs(x0), L))
        second.append(
            (max(abs(min(squares) * x0 - y2), abs(max(squares) * x0 - y2)) * abs(x0), L * L)
        )
    return first, second


def test_e2_bounds_are_tight_upper_bounds(seeds3, first_system, full_width_xi):
    # the oracle: the exact products over the full-width xi of a K = 26
    # window, whose width is far below the K = 22 radius
    rep = gr.verify_system(first_system)
    first, second = exact_e2(first_system, full_width_xi(gr.generate_system(seeds3[0], K=26)))
    slack = 2**500
    for reported, exact in ((rep.e2_first, first), (rep.e2_second, second)):
        assert [k for k, _ in reported] == list(range(1, first_system.K))
        for (_, ub), (n, d) in zip(reported, exact):
            # n/d <= ub <= n/d * (1 + 2**-500)
            assert n * ub.denominator <= ub.numerator * d
            assert ub.numerator * d * slack <= n * ub.denominator * (slack + 1)


@pytest.fixture(scope="module")
def systems22(seeds3):
    """Every bound-3 seed's K = 22 window, with its report."""
    return [(s, gr.verify_system(s)) for s in (gr.generate_system(seed, K=22) for seed in seeds3)]


def test_e2_maxima_print_at_or_above_their_bounds(systems22):
    for _, rep in systems22:
        summary = rep.summary()
        for key, series in (("e2_first_max", rep.e2_first), ("e2_second_max", rep.e2_second)):
            bound = max(v for _, v in series)
            printed = summary[key]
            assert Fraction(printed) >= bound
            assert math.nextafter(printed, 0) < bound


def test_e4_dets_equal_direct_determinants(systems22):
    def det3(a, b, c):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a.as_tuple(), b.as_tuple(), c.as_tuple()
        return (a0 * b1 * c2 + a1 * b2 * c0 + a2 * b0 * c1
                - a2 * b1 * c0 - a1 * b0 * c2 - a0 * b2 * c1)

    # an odd window length as well as an even one
    odd = [gr.generate_system(systems22[0][0].seed, K=K) for K in (8, 9)]
    # every value of a21 - a12 among the seeds of find_seeds(16), by the first
    # and the last seed of each, and a seed with a11 = 0, at K = 3..9
    seeds16 = gr.find_seeds(16)
    by_value = {}
    for seed in seeds16:
        by_value.setdefault(seed.M.a21 - seed.M.a12, []).append(seed)
    assert sorted(by_value) == [-20, -18, -16, -12, -6, -2, 2, 6, 12, 16, 18, 20]
    chosen = [seed for group in by_value.values() for seed in (group[0], group[-1])]
    chosen.append(next(seed for seed in seeds16 if seed.M.a11 == 0))
    wider = [gr.generate_system(seed, K=K) for seed in chosen for K in range(3, 10)]
    assert len(systems22) == 32
    for system, rep in systems22 + [(s, gr.verify_system(s)) for s in odd + wider]:
        w = system.window
        assert rep.e4_dets == [det3(w[k], w[k + 1], w[k + 2]) for k in range(len(w) - 2)]


def test_triple_determinant_is_read_off_the_transition_matrix(seeds3, systems22):
    # Roy's constant triple determinant, as `_triple_dets` proves it:
    # det(x_k, x_{k+1}, x_{k+2}) = a21 - a12 at odd k and a12 - a21 at even k
    def expected(M, count):
        return [(M.a21 - M.a12) * (-1) ** (k + 1) for k in range(1, count + 1)]

    seeds5 = gr.find_seeds(5)
    assert len(seeds5) == 416
    for seed in seeds5:
        rep = gr.verify_system(gr.generate_system(seed, K=10))
        assert rep.e4_dets == expected(seed.M, 8)
    assert len(systems22) == 32
    for system, rep in systems22:
        assert rep.e4_dets == expected(system.seed.M, 20)
        assert rep.e4_abs_constant
