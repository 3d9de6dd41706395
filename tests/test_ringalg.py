import copy
import dataclasses
import functools
import hashlib
import json
import math
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

import goldenring as gr
from goldenring import BoundExceeded, GoldenInt, MPoly, VARS_BASE
from goldenring.cli import main
from goldenring.rank import FractionEchelon, rank_certified
from goldenring.ringalg import BASIS_TOTAL_BOUND, COORD_INDEX_BOUND


def germ_values(system, k):
    # assignment for the six coordinates: offset-0 germ, then offset -1
    a, b = system.x(2 * k), system.x(2 * k - 1)
    return [a.x0, a.x1, a.x2, b.x0, b.x1, b.x2]


def test_coordinate_polys_evaluate_to_window(small_system, matrix):
    for k in (3, 4):
        vals = germ_values(small_system, k)
        for i in range(-4, 5):
            polys = gr.coordinate_polys(i, matrix)
            target = small_system.x(2 * k + i)
            for e in range(3):
                assert polys[e].evaluate(vals) == target.coord(e), (i, e)


@pytest.mark.parametrize("entries, indices, digest", [
    # the first bound-3 seed matrix
    ((-3, 1, -1, 0), range(-5, 6),
     "f69e410a230b2128b1d7f5ae26ebd42e89aecfea331281788a61b20bce4d4332"),
    # a22 != 0, so every entry of the adjugate step enters the forward germs
    ((-3, -2, -4, -3), range(-4, 5),
     "01d03c26776fe4829185438414b48a98e9990ec6372634d40fd094b0a092f22c"),
], ids=["first-seed", "a22-nonzero"])
def test_coordinate_polys_pinned(entries, indices, digest):
    # evaluating to the window fixes a polynomial only modulo the ideal;
    # the pin fixes the representative, the symmetrized entry included
    matrix = gr.TransitionMatrix(*entries)
    terms = [sorted(p.terms.items()) for i in indices for p in gr.coordinate_polys(i, matrix)]
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest


def test_coordinate_polys_base_cases(matrix):
    p0 = gr.coordinate_polys(0, matrix)
    assert p0[0] == MPoly.variable(VARS_BASE, "X0")
    pm1 = gr.coordinate_polys(-1, matrix)
    assert pm1[2] == MPoly.variable(VARS_BASE, "X2*")


def test_coordinate_polys_bound(matrix):
    with pytest.raises(BoundExceeded):
        gr.coordinate_polys(COORD_INDEX_BOUND + 1, matrix)
    with pytest.raises(BoundExceeded):
        gr.coordinate_polys(-COORD_INDEX_BOUND - 2, matrix)


def test_symmetry_defect_poly_vanishes_on_germs(small_system, matrix):
    phi = gr.symmetry_defect_poly(matrix)
    assert phi.total_degree() == 2
    for k in (2, 3, 5):
        assert phi.evaluate(germ_values(small_system, k)) == 0


def test_evaluation_ideal_kinds(matrix, small_system):
    plain = gr.evaluation_ideal("plain", matrix)
    assert len(plain.generators) == 3
    assert plain.degrees == (2, 2, 2)
    for g in plain.generators:
        for k in (2, 4):
            assert g.evaluate(germ_values(small_system, k)) == 0

    # the exact generators: det X - 1, det X* - 1 and phi, in the six coordinates
    a11, a12, a21, a22 = matrix.entries()
    x0, x1, x2, y0, y1, y2 = (MPoly.variable(VARS_BASE, n) for n in VARS_BASE)
    phi = (a11 * (y0 * x1 - y1 * x0) + a12 * (y1 * x1 - y2 * x0)
           + a21 * (y0 * x2 - y1 * x1) + a22 * (y1 * x2 - y2 * x1))
    assert plain.names == VARS_BASE
    assert plain.generators == (x0 * x2 - x1 * x1 - 1, y0 * y2 - y1 * y1 - 1, phi)
    for g, bidegree in zip(plain.generators, ((2, 0), (0, 2), (1, 1))):
        assert g.block_degrees((0, 1, 2), (3, 4, 5))[0] == bidegree

    for kind in ("total", "bi", "other"):
        with pytest.raises(ValueError, match="unknown ideal kind"):
            gr.evaluation_ideal(kind, matrix)


def test_hilbert_matches_closed_forms(matrix):
    for d in range(4):
        assert gr.hilbert_total(d, matrix) == gr.hilbert_total_closed(d)
    for d1 in range(3):
        for d2 in range(3):
            assert gr.hilbert_bi(d1, d2, matrix) == gr.hilbert_bi_closed(d1, d2)


# three distinct bound-4 matrices: the first seed's, one with a22 != 0, and
# one with larger entries of mixed sign
CHAIN_MATRICES = [gr.TransitionMatrix(*e) for e in
                  ((-3, 1, -1, 0), (-3, -2, -4, -3), (3, -2, -4, 3))]
TOTAL_TOP, BI_TOP = 7, 4


@functools.cache
def one_shot(bound, matrix):
    """The oracle: a fresh elimination of the whole piece.  Returns the
    quotient dimension (rows - rank) and the number of ideal columns."""
    grading, degrees = gr.ringalg._grading(bound)
    nrows = len(list(grading.monomials(degrees)))
    generators = gr.evaluation_ideal("plain", matrix).generators
    columns = gr.ringalg._ideal_columns(grading, degrees, generators)
    rank, _ = rank_certified(columns, nrows)
    return nrows - rank, len(columns)


@pytest.fixture
def inserted(monkeypatch):
    """A fresh shared elimination, and a list that grows by one per column
    inserted into any echelon."""
    log = []
    real = FractionEchelon.insert

    def counting(self, col, tag=None):
        log.append(1)
        return real(self, col, tag)

    monkeypatch.setattr(gr.ringalg, "_GRADED_RANKS", gr.ringalg._GradedRanks())
    monkeypatch.setattr(FractionEchelon, "insert", counting)
    return log


def _request(bound, matrix):
    if isinstance(bound, tuple):
        return gr.hilbert_bi(*bound, matrix, bound=BI_TOP)
    return gr.hilbert_total(bound, matrix, bound=TOTAL_TOP)


_TOTALS = list(range(TOTAL_TOP + 1))
_BIS = list(product(range(BI_TOP + 1), repeat=2))
_M0 = CHAIN_MATRICES[0]
REQUEST_ORDERS = {
    "ascending": [(b, M) for M in CHAIN_MATRICES for b in _TOTALS + _BIS],
    "descending": [(b, M) for M in CHAIN_MATRICES for b in _TOTALS[::-1] + _BIS[::-1]],
    "total-bi-interleaved": [
        (b, M) for M in CHAIN_MATRICES
        for pair in zip(_BIS[::3], _TOTALS + _TOTALS[::-1]) for b in pair
    ],
    "matrices-alternating": [(b, M) for b in _TOTALS + _BIS[::4] for M in CHAIN_MATRICES],
    "smaller-d2-after-larger": [
        ((d1, d2), M) for M in CHAIN_MATRICES for d1 in range(BI_TOP + 1)
        for d2 in (3, 1, 4, 0, 2)
    ],
}


@pytest.mark.parametrize("order", REQUEST_ORDERS)
def test_shared_elimination_matches_one_shot_ranks(order, inserted):
    # values equal a fresh elimination's; a request at or below the degree
    # its chain has reached inserts nothing, a higher one only the columns
    # new since, and a request on another chain starts it afresh
    held, done = None, 0
    for bound, matrix in REQUEST_ORDERS[order]:
        degrees = gr.ringalg._grading(bound)[1]
        value, ncols = one_shot(bound, matrix)  # before counting: the oracle inserts too
        if (matrix, len(degrees), degrees[:-1]) != held:
            held, done = (matrix, len(degrees), degrees[:-1]), 0
        before = len(inserted)
        assert _request(bound, matrix) == value, (order, bound)
        assert len(inserted) - before == max(ncols - done, 0), (order, bound)
        done = max(done, ncols)


def test_threads_share_one_elimination(inserted):
    results, top = {}, 6
    columns = one_shot(top, _M0)[1]

    def sweep(i):
        results[i] = [gr.hilbert_total(d, _M0, bound=top) for d in range(top + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    closed = [gr.hilbert_total_closed(d) for d in range(top + 1)]
    assert [results.get(i) for i in range(4)] == [closed] * 4
    # the four sweeps extended one chain: every column went in once
    assert len(inserted) == columns


def _assert_primitive_pivots(ech):
    """Every pivot is a nonzero integer row led by its least key, primitive
    together with its track."""
    assert ech.pivots
    for lead, row in ech.pivots.items():
        track = ech.tracks.get(lead, {})
        assert lead == min(row)
        assert all(type(x) is int and x for x in (*row.values(), *track.values()))
        assert math.gcd(*row.values(), *track.values()) == 1


def test_echelon_invariants_after_chains_and_basis(matrix, monkeypatch):
    monkeypatch.setattr(gr.ringalg, "_GRADED_RANKS", gr.ringalg._GradedRanks())
    assert gr.hilbert_total(6, matrix, bound=6) == gr.hilbert_total_closed(6)
    _assert_primitive_pivots(gr.ringalg._GRADED_RANKS._echelon)
    assert gr.hilbert_bi(3, 3, matrix) == gr.hilbert_bi_closed(3, 3)
    _assert_primitive_pivots(gr.ringalg._GRADED_RANKS._echelon)
    row_index, family, solver = gr.ringalg._basis_solver(3, matrix)
    _assert_primitive_pivots(solver)
    assert len(solver.tracks) == len(family)

    # insert and solve read the caller's dicts and leave them as they were
    grading, degrees = gr.ringalg._grading(3)
    generators = gr.evaluation_ideal("plain", matrix).generators
    columns = gr.ringalg._ideal_columns(grading, degrees, generators)
    given = copy.deepcopy(columns)
    ech = FractionEchelon()
    for col in columns:
        ech.insert(col)
    assert columns == given and ech.rank == solver.fixed_rank
    # three family members and an ideal column; the family is a basis
    # modulo the ideal, so the solution is the coefficients
    picked = {1: Fraction(3, 2), len(family) // 2: Fraction(-4), len(family) - 1: Fraction(5, 7)}
    rhs = {k: Fraction(3 * c) for k, c in columns[len(columns) // 2].items()}
    for t, q in picked.items():
        for e, c in family[t].poly.terms.items():
            rhs[row_index[e]] = rhs.get(row_index[e], 0) + q * c
    rhs = {k: x for k, x in rhs.items() if x}
    given = dict(rhs)
    assert solver.solve(rhs) == [picked.get(t, 0) for t in range(len(family))]
    assert rhs == given


def test_row_key_refuses_degrees_it_cannot_encode(matrix, inserted):
    top = gr.ringalg._KEY_MAX
    assert gr.hilbert_total(2, matrix) == 25
    held = len(inserted)
    for request in (
        lambda: gr.hilbert_total(top + 1, matrix, bound=10**6),
        lambda: gr.hilbert_bi(top + 1, 0, matrix, bound=10**6),
        lambda: gr.hilbert_bi(0, top + 1, matrix, bound=10**6),
    ):
        with pytest.raises(BoundExceeded, match="row key"):
            request()
    # refused before any work, and the held chain is still the one in use
    assert gr.hilbert_total(2, matrix) == 25
    assert len(inserted) == held
    # up to the bound, keys are distinct and follow the lexicographic order
    keys = [gr.ringalg._row_key(e) for e in sorted(product((0, 1, top - 1, top), repeat=6))]
    assert keys == sorted(set(keys))


def test_hilbert_closed_frozen_values():
    assert [gr.hilbert_total_closed(d) for d in range(6)] == [1, 7, 25, 63, 129, 231]
    assert [gr.hilbert_bi_closed(1, d2) for d2 in range(5)] == [4, 15, 32, 55, 84]
    assert gr.hilbert_bi_closed(2, 1) == 32
    assert gr.hilbert_bi_closed(4, 4) == 369


def test_hilbert_bounds(matrix):
    with pytest.raises(BoundExceeded):
        gr.hilbert_total(6, matrix)
    with pytest.raises(BoundExceeded):
        gr.hilbert_bi(5, 0, matrix)


def test_basis_family_layout(matrix):
    fam1 = gr.basis_family(1, matrix)
    assert len(fam1) == gr.hilbert_total_closed(1) == 7
    fam2 = gr.basis_family(2, matrix)
    assert len(fam2) == gr.hilbert_total_closed(2) == 25
    # zero element contributes the constant monomial
    zero_members = [m for m in fam2 if m.alpha.is_zero()]
    assert len(zero_members) == 1
    assert zero_members[0].poly == MPoly.const(VARS_BASE, 1)
    # per element, split positions run over 0..2s
    for m in fam2:
        assert 0 <= m.j <= 2 * m.size
        assert sum(m.exponents) == m.j
        assert all(0 <= e <= 2 for e in m.exponents)


def test_basis_family_bi_cardinality(matrix):
    fam = gr.basis_family((1, 1), matrix)
    assert len(fam) == gr.hilbert_bi_closed(1, 1) == 15
    for m in fam:
        assert m.block_degrees() is not None


def test_basis_monomial(matrix):
    alpha = GoldenInt(1, 1)
    m = gr.basis_monomial(alpha, 2, 3, matrix)
    assert m.alpha == alpha and m.j == 2
    with pytest.raises(ValueError):
        gr.basis_monomial(alpha, 99, 3, matrix)


def test_family_germ_values_match_polys(small_system, matrix):
    fam = gr.basis_family(2, matrix)
    for k in (3, 4, 5):
        vals = germ_values(small_system, k)
        for m in fam:
            assert m.poly.evaluate(vals) == m.germ_value(small_system, k)


def test_check_basis_rank_total(matrix):
    rep1 = gr.check_basis_rank(1, matrix)
    assert rep1.ambient_dim == 7
    assert rep1.ideal_rank == 0
    assert rep1.quotient_dim == rep1.expected_dim == 7
    assert rep1.cardinality == rep1.quotient_rank == 7
    assert rep1.spans and rep1.dependency is None

    rep2 = gr.check_basis_rank(2, matrix)
    assert rep2.ambient_dim == 28
    assert rep2.quotient_dim == rep2.expected_dim == 25
    assert rep2.cardinality == rep2.quotient_rank == 25
    assert rep2.spans

    summary = rep2.summary()
    assert summary["spans"] is True
    assert summary["bound"] == 2


def test_deficient_family_yields_dependency(matrix, monkeypatch, capsys):
    # the last member becomes 3 * (member 1) + (an ideal generator), so the
    # family no longer spans and the last member depends on member 1
    real = gr.ringalg.basis_family
    generator = gr.evaluation_ideal("plain", matrix).generators[0]

    def deficient(bound, matrix):
        family = real(bound, matrix)
        family[-1] = dataclasses.replace(family[-1], poly=family[1].poly * 3 + generator)
        return family

    def tag(m):
        return (m.alpha.m, m.alpha.n, m.j)

    # the elimination is cached per (bound, matrix): build it from the
    # patched family, and drop that build before the real family is used again
    gr.ringalg._basis_solver.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(gr.ringalg, "basis_family", deficient)
            family = gr.ringalg.basis_family(2, matrix)
            rep = gr.check_basis_rank(2, matrix)
            code, out = main(["basis", "--d", "2", "--no-timestamp"]), capsys.readouterr().out
    finally:
        gr.ringalg._basis_solver.cache_clear()
    assert not rep.spans and rep.quotient_rank == rep.expected_dim - 1
    dep = dict(rep.dependency)
    assert dep == {tag(family[-1]): 1, tag(family[1]): -3}
    by_tag = {tag(m): m.poly for m in family}
    combination = sum((by_tag[t] * c for t, c in dep.items()), MPoly.const(VARS_BASE, 0))
    assert gr.quotient_coordinates(combination, 2, matrix).in_ideal()
    assert code == 1
    result = json.loads(out)["result"]
    assert result["spans"] is False
    assert [(d["alpha_m"], d["alpha_n"], d["j"]) for d in result["dependency"]] == sorted(dep)
    assert all(d["coeff"] == str(dep[(d["alpha_m"], d["alpha_n"], d["j"])])
               for d in result["dependency"])


def test_each_graded_piece_is_built_once(matrix, monkeypatch):
    # the basis check and a reduction at the same (bound, matrix) share one
    # elimination, and the family takes one maximal quad per element
    counts = {"solvers": 0, "quads": 0}
    real_solver, real_quad = gr.ringalg.LinearSolver, gr.ringalg.maximal_quad_for_degree

    def solver(*args):
        counts["solvers"] += 1
        return real_solver(*args)

    def quad(*args):
        counts["quads"] += 1
        return real_quad(*args)

    monkeypatch.setattr(gr.ringalg, "LinearSolver", solver)
    monkeypatch.setattr(gr.ringalg, "maximal_quad_for_degree", quad)
    gr.ringalg._basis_solver.cache_clear()
    try:
        assert gr.check_basis_rank(2, matrix).spans
        x1 = MPoly.variable(VARS_BASE, "X1")
        assert not gr.quotient_coordinates(x1 * x1, 2, matrix).in_ideal()
        assert counts["solvers"] == 1
    finally:
        gr.ringalg._basis_solver.cache_clear()
    counts["quads"] = 0
    family = gr.basis_family(2, matrix)
    assert len(family) == 25
    assert counts["quads"] == len(gr.elements_up_to_degree(2))


def test_check_basis_rank_bi(matrix):
    rep = gr.check_basis_rank((1, 1), matrix)
    assert rep.quotient_dim == rep.expected_dim == 15
    assert rep.cardinality == rep.quotient_rank == 15
    assert rep.spans
    assert rep.summary()["bound"] == [1, 1]


def test_check_basis_rank_bounds(matrix):
    with pytest.raises(BoundExceeded):
        gr.check_basis_rank(4, matrix)
    with pytest.raises(BoundExceeded):
        gr.check_basis_rank((3, 1), matrix)


def test_quotient_coordinates_of_generators(matrix):
    for g in gr.evaluation_ideal("plain", matrix).generators:
        red = gr.quotient_coordinates(g, 2, matrix)
        assert red.in_ideal()
        assert red.coords == ()


def test_quotient_coordinates_frozen(matrix):
    # the first seed matrix (-3, 1, -1, 0) sends X1 to two split-1 members
    x1 = MPoly.variable(VARS_BASE, "X1")
    red = gr.quotient_coordinates(x1, 3, matrix)
    got = {((a.m, a.n), j): c for (a, j), c in red.coords}
    assert got == {((-1, 2), 1): Fraction(-1), ((1, 0), 1): Fraction(-3)}
    assert red.coefficient(GoldenInt(1, 0), 1) == -3
    assert red.coefficient(GoldenInt(5, 5), 0) == 0


def test_reduction_preserves_germ_values(small_system, matrix):
    x0, x1 = (MPoly.variable(VARS_BASE, n) for n in ("X0", "X1"))
    s2 = MPoly.variable(VARS_BASE, "X2*")
    poly = x0 * x1 - 2 * s2 + 5
    red = gr.quotient_coordinates(poly, 2, matrix)
    assert not red.in_ideal()
    for k in (3, 4, 5):
        vals = germ_values(small_system, k)
        assert red.germ_value(small_system, k) == poly.evaluate(vals)


def test_quotient_coordinates_errors(matrix):
    x0 = MPoly.variable(VARS_BASE, "X0")
    with pytest.raises(ValueError):
        gr.quotient_coordinates(x0**3, 2, matrix)  # degree above the bound
    with pytest.raises(BoundExceeded):
        gr.quotient_coordinates(x0, BASIS_TOTAL_BOUND + 1, matrix)
    with pytest.raises(ValueError):
        gr.quotient_coordinates(MPoly.variable(VARS_BASE + ("U",), "U"), 2, matrix)
    # a bi-degree bound is refused before any work, whatever its size
    for bound in ((1, 1), (9, 9)):
        for reduce in (gr.quotient_coordinates, gr.leading_form):
            with pytest.raises(ValueError, match="total degree bound"):
                reduce(x0, bound, matrix)


def test_leading_form_frozen(matrix):
    x1 = MPoly.variable(VARS_BASE, "X1")
    lf = gr.leading_form(x1 * x1, 3, matrix)
    assert (lf.alpha.m, lf.alpha.n) == (2, 0)
    assert lf.size == 2
    assert lf.coefficients == (0, 0, 1, 0, 0)


def test_leading_form_reads_size_from_family(matrix, monkeypatch):
    # the cached family already holds the lead's size; no quad is walked again
    assert gr.check_basis_rank(3, matrix).spans

    def refuse(alpha):
        raise AssertionError("quad walked again")

    monkeypatch.setattr(gr.quads, "canonical_quad", refuse)
    x1 = MPoly.variable(VARS_BASE, "X1")
    lf = gr.leading_form(x1 * x1, 3, matrix)
    assert lf == gr.LeadingForm(GoldenInt(2, 0), 2, (0, 0, 1, 0, 0))


def test_leading_form_rejects_ideal_elements(matrix):
    g = gr.evaluation_ideal("plain", matrix).generators[0]
    with pytest.raises(ValueError, match="no leading form"):
        gr.leading_form(g, 2, matrix)


def test_leading_form_picks_largest_element(matrix):
    x0 = MPoly.variable(VARS_BASE, "X0")
    s0 = MPoly.variable(VARS_BASE, "X0*")
    lf = gr.leading_form(x0 + s0, 2, matrix)
    # X0 carries alpha = 1, X0* carries alpha = 1/gamma; 1 is larger
    assert (lf.alpha.m, lf.alpha.n) == (1, 0)
