import contextlib
import dataclasses
import functools
import io
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
    # _extend forms only p00, p01 and p11 and checks nothing, by the
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


def _prefix(system: TripleSystem, K: int) -> TripleSystem:
    """The first K terms of the system's window."""
    return TripleSystem(system.seed, system.window[:K])


def test_enclosures_shrink_and_nest(seeds3, first_system, full_width_xi):
    seed = seeds3[0]
    short = gr.generate_system(seed, K=16)
    short_xi, xi = full_width_xi(short), full_width_xi(first_system)
    assert short_xi.contains_interval(xi)
    assert xi.width < short_xi.width
    # the enclosure of a 16-term prefix of the same window is the short one
    assert full_width_xi(_prefix(first_system, 16)) == short_xi
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


def test_enclosure_rejects_oscillating_window(seeds3):
    # a tail whose ratios oscillate has no limit to enclose
    triples = [SymTriple(1, 0, 1), SymTriple(1, 1, 2)] * 4
    fake = TripleSystem(seeds3[0], tuple(triples))
    for system in (fake, _prefix(fake, 5)):
        with pytest.raises(VerificationError, match="increase K"):
            gr.ratio_limit_enclosure(system)


def _seed_pair_window(M, x1, x2):
    # K = 6, ending in the seed pair; the next term is formed with M
    seed = gr.Seed(SymTriple(*x1), SymTriple(*x2), TransitionMatrix(*M))
    return TripleSystem(seed, (seed.x1,) * 5 + (seed.x2,))


@pytest.mark.parametrize("case", ["det", "symmetry", "growth", "tail"])
def test_enclosure_rejects_unproved_window(first_system, case):
    seed, head, last = first_system.seed, first_system.window[:-1], first_system.window[-1]
    system = {
        # x_K scaled by 2: x_{K+1} is symmetric, but det x_K = 4
        "det": TripleSystem(seed, head + (SymTriple(*(2 * v for v in last.as_tuple())),)),
        # x_{K,1} negated: det x_K = 1, but x_{K+1} is not symmetric
        "symmetry": TripleSystem(seed, head + (dataclasses.replace(last, x1=-last.x1),)),
        # |x_{K,0}| = 1, so lam = G min(|p_K|, |p_{K+1}|) < 2
        "growth": _seed_pair_window((-3, -1, 1, 0), (-2, -1, -1), (-1, -1, -2)),
        # the tail bound after the first step exceeds that step
        "tail": _seed_pair_window((-3, -1, 1, 0), (-1, 2, -5), (-5, -3, -2)),
    }[case]
    with pytest.raises(VerificationError, match="increase K"):
        gr.ratio_limit_enclosure(system)
    if case in ("growth", "tail"):
        # a genuine sequence: a longer window certifies
        assert gr.ratio_limit_enclosure(gr.generate_system(system.seed, K=8)).width > 0


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
    # xi_certificate forms p_{K+1} and the symmetry defect of x_K M x_{K-1}
    # from five wide products; the full product is the oracle
    product = gr.sequences._product_entries
    for seed in gr.find_seeds(4):
        longer = gr.generate_system(seed, K=17)
        for K in range(6, 17):
            prev, last = longer.x(K - 1), longer.x(K)
            M = gr.sequences._step_matrix(seed.M, K + 1)
            p00, p01, p10, _ = product(last, M, prev)
            assert p01 == p10 and gr.symmetry_defect(M, last, prev) == 0
            certificate = gr.sequences.xi_certificate(_prefix(longer, K))
            assert certificate.p_next == p00 == longer.x(K + 1).x0
        # x_16 perturbed in one entry: the defect is nonzero, and refused
        for coord in ("x0", "x1", "x2"):
            bad = dataclasses.replace(last, **{coord: getattr(last, coord) + 1})
            _, p01, p10, _ = product(bad, M, prev)
            assert gr.symmetry_defect(M, bad, prev) == p10 - p01 != 0
            with pytest.raises(VerificationError, match="increase K"):
                gr.sequences.xi_certificate(TripleSystem(seed, longer.window[:15] + (bad,)))


def _ratio(t: SymTriple) -> Fraction:
    return Fraction(t.x1, t.x0)


def test_enclosure_holds_later_ratios(seeds3, first_system, full_width_xi):
    # the bound-4 seeds include the bound-3 ones
    for seed in gr.find_seeds(4):
        longer = gr.generate_system(seed, K=22)
        for K in range(6, 17):
            xi = full_width_xi(_prefix(longer, K))
            assert all(xi.contains(_ratio(longer.x(j))) for j in range(K, K + 7))
    longer = gr.generate_system(seeds3[0], K=26)
    xi = full_width_xi(first_system)
    assert full_width_xi(_prefix(longer, 22)) == xi
    assert all(xi.contains(_ratio(longer.x(j))) for j in range(22, 27))


def test_enclosure_sound_for_unfiltered_seeds(full_width_xi):
    # Every (x1, x2, M) with entries in [-3, 3] and x2*M*x1 symmetric, also
    # those find_seeds rejects, shifted to start at term 5 so that the seed
    # pair itself ends the window at K = 6.  Entries this small keep the
    # tail bound above the rounding, so a radius short of the proved one
    # lets a later ratio escape.
    triples = gr.sequences._symmetric_unimodular(3)
    certified = 0
    for M in gr.sequences._transition_matrices(3):
        for x1 in triples:
            for x2 in triples:
                if gr.symmetry_defect(M, x2, x1) != 0:
                    continue
                seed = gr.Seed(x1, x2, M)
                window = (x1,) * 4 + gr.generate_system(seed, K=14).window
                longer = TripleSystem(seed, window)
                for K in range(6, 11):
                    try:
                        xi = full_width_xi(_prefix(longer, K))
                    except VerificationError:
                        continue
                    certified += 1
                    assert all(xi.contains(_ratio(longer.x(j))) for j in range(K, K + 7))
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


@pytest.mark.parametrize("coord", ["x0", "x2"])
@pytest.mark.parametrize("term", [3, 8, 22])  # first after the seed, middle, last
def test_verify_rejects_tampered_window(first_system, term, coord):
    bad = list(first_system.window)
    t = bad[term - 1]
    bad[term - 1] = dataclasses.replace(t, **{coord: getattr(t, coord) + 1})
    broken = TripleSystem(first_system.seed, tuple(bad))
    with pytest.raises(VerificationError, match=f"term {term}$"):
        gr.verify_system(broken)


def test_verify_rejects_wrong_seed(seeds3, first_system):
    other = next(s for s in seeds3 if s.x1 != first_system.seed.x1)
    with pytest.raises(VerificationError, match="seed"):
        gr.verify_system(TripleSystem(other, first_system.window))


def test_generate_window_too_short(seeds3):
    with pytest.raises(ValueError, match="^window length must be at least 3$"):
        gr.generate_system(seeds3[0], K=2)


def test_short_windows_certify_and_verify():
    # every length check_window admits below 9 is proved for these seeds,
    # and the tail bound's margin puts the K = 22 enclosure inside
    for seed in gr.find_seeds(4):
        xi = gr.generate_system(seed, K=22).xi
        for K in range(3, 9):
            system = gr.generate_system(seed, K=K)
            report = gr.verify_system(system)
            assert report.K == K and report.e4_abs_constant and report.theta_excludes_zero
            assert report.xi == system.xi and system.xi.contains_interval(xi)


def test_generate_window_bound(seeds3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(gr.sequences, "_extend", refuse)
    bound = gr.sequences.WINDOW_BOUND
    # K = 30 is admitted: generation starts, and here meets the patched step
    with pytest.raises(AssertionError, match="a term was formed"):
        gr.generate_system(seeds3[0], K=30)
    with pytest.raises(BoundExceeded, match=f"window length {bound + 1} exceeds bound {bound}"):
        gr.generate_system(seeds3[0], K=bound + 1)


def test_triple_system_built_directly_follows_the_window_rule(seeds3):
    seed = seeds3[0]
    longest = gr.generate_system(seed, K=gr.sequences.WINDOW_BOUND).window
    for K in (0, 1, 2):
        with pytest.raises(ValueError, match="^window length must be at least 3$"):
            TripleSystem(seed, longest[:K])
    with pytest.raises(BoundExceeded, match="window length 31 exceeds bound 30"):
        TripleSystem(seed, longest + (longest[-1],))
    for K in (3, 30):
        assert TripleSystem(seed, longest[:K]).K == K


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
    assert back.window_text is not None and first_system.window_text is None

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
def test_loaded_noncanonical_window_prints_canonical_text(seeds3, spell):
    # seed 4 starts at x_1 = (-1, 0, -1): its window has negative and zero entries
    system = gr.generate_system(seeds3[4], K=12)
    canonical = _dump(system)
    spelled = _edited(canonical, ("window",), lambda w: [[spell(v) for v in t] for t in w])
    assert spelled["window"] != canonical["window"]
    back = TripleSystem.from_json(spelled)
    assert back == system and back.window_text is None
    assert json.dumps(back.to_json()) == json.dumps(canonical)


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
    longer = gr.generate_system(seeds3[0], K=26)
    first = [_prefix(longer, K) for K in range(6, 27)]
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


def test_from_json_caps_window_digits(small_system, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"{args} converted before the cap check")

    # parse_decimal is the only path from window text to integers
    monkeypatch.setattr(gr.sequences, "parse_decimal", refuse)
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    for entry in ("1" * gr.sequences.MAX_WINDOW_DIGITS, "1" * 130_000):
        obj = _dump(small_system)
        obj["window"].append([entry, "1", "1"])
        with pytest.raises(BoundExceeded):
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


def test_cap_admits_windows_up_to_26(seeds3):
    # the last bound-3 seed has (with three others) the largest K = 26 window;
    # decimal digits of v, sign included, are at most bits*log10(2) + 2
    window = gr.generate_system(seeds3[-1], K=26).window
    digits = sum(int(v.bit_length() * 0.30103) + 2 for t in window for v in t.as_tuple())
    assert 590_000 < digits <= gr.sequences.MAX_WINDOW_DIGITS
    longest = max(int(v.bit_length() * 0.30103) + 2 for t in window for v in t.as_tuple())
    assert longest <= gr.sequences.MAX_WINDOW_DIGITS // 8


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
    except (ValueError, BoundExceeded):
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

    # an odd window length leaves the last cross product with one determinant
    odd = [gr.generate_system(systems22[0][0].seed, K=K) for K in (8, 9)]
    assert len(systems22) == 32
    for system, rep in systems22 + [(s, gr.verify_system(s)) for s in odd]:
        w = system.window
        assert rep.e4_dets == [det3(w[k], w[k + 1], w[k + 2]) for k in range(len(w) - 2)]
