import collections
import copy
import functools
import gc
import hashlib
import json
import math
import operator
import sys
import threading
import weakref
from fractions import Fraction
from itertools import product

import pytest

import goldenring as gr
from goldenring import BoundExceeded, GoldenInt, MPoly, VARS_BASE
from goldenring.cli import main
from goldenring.mpoly import monomials_up_to_degree
from goldenring.rank import FractionEchelon, _formed, rank_certified
from goldenring.ringalg import BASIS_BOUND, COORD_INDEX_BOUND, HILBERT_BOUND


def germ_values(system, k):
    # assignment for the six coordinates: offset-0 germ, then offset -1
    a, b = system.x(2 * k), system.x(2 * k - 1)
    return [a.x0, a.x1, a.x2, b.x0, b.x1, b.x2]


def test_coordinate_polys_evaluate_to_window(small_system, matrix):
    for k in (3, 4):
        vals = germ_values(small_system, k)
        for i in range(-4, 1):
            polys = gr.coordinate_polys(i, matrix)
            target = small_system.x(2 * k + i)
            for e in range(3):
                assert polys[e].evaluate(vals) == target.coord(e), (i, e)


@pytest.mark.parametrize("entries, indices, digest", [
    # the first bound-3 seed matrix
    ((-3, 1, -1, 0), range(-5, 1),
     "318a81f50de365e11bb0cc3cc59fa82ed32b7b1307c40474bc9c428e72ac8ba6"),
    # a22 != 0, so every entry of the adjugate step enters the germs
    ((-3, -2, -4, -3), range(-4, 1),
     "226a22690b03cbbc32fc62b89bf049d2ade9b81dbf9874640004af3083931e61"),
], ids=["first-seed", "a22-nonzero"])
def test_coordinate_polys_pinned(entries, indices, digest):
    # evaluating to the window fixes a polynomial only modulo the ideal;
    # the pin fixes the representative, the symmetrized entry included.
    # Coefficients are hashed as Fractions: the pin fixes each value, and
    # `test_family_coefficients_are_canonical` checks its type
    matrix = gr.TransitionMatrix(*entries)
    terms = [sorted((e, Fraction(c)) for e, c in p.terms.items())
             for i in indices for p in gr.coordinate_polys(i, matrix)]
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest


def test_coordinate_polys_base_cases(matrix):
    p0 = gr.coordinate_polys(0, matrix)
    assert p0[0] == MPoly.variable(VARS_BASE, "X0")
    pm1 = gr.coordinate_polys(-1, matrix)
    assert pm1[2] == MPoly.variable(VARS_BASE, "X2*")


def test_coordinate_polys_bound(matrix, monkeypatch):
    def refuse(*args):
        raise AssertionError("a coordinate polynomial was formed")

    monkeypatch.setattr(gr.ringalg, "_ring", refuse)
    # the recurrence runs only backward: index 1 is refused before any work
    with pytest.raises(ValueError, match="^coordinate index must be at most 0$"):
        gr.coordinate_polys(1, matrix)
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
    assert [g.total_degree() for g in plain.generators] == [2, 2, 2]
    for g in plain.generators:
        for k in (2, 4):
            assert g.evaluate(germ_values(small_system, k)) == 0

    # the exact generators: det X - 1, det X* - 1 and phi, in the six coordinates
    a11, a12, a21, a22 = matrix.entries()
    x0, x1, x2, y0, y1, y2 = (MPoly.variable(VARS_BASE, n) for n in VARS_BASE)
    phi = (a11 * (y0 * x1 - y1 * x0) + a12 * (y1 * x1 - y2 * x0)
           + a21 * (y0 * x2 - y1 * x1) + a22 * (y1 * x2 - y2 * x1))
    assert all(g.names == VARS_BASE for g in plain.generators)
    assert plain.generators == (x0 * x2 - x1 * x1 - 1, y0 * y2 - y1 * y1 - 1, phi)
    for g, bidegree in zip(plain.generators, ((2, 0), (0, 2), (1, 1))):
        assert g.block_degrees((0, 1, 2), (3, 4, 5))[0] == bidegree

    for kind in ("total", "bi", "other"):
        with pytest.raises(ValueError, match="unknown ideal kind"):
            gr.evaluation_ideal(kind, matrix)


# the first seed's matrix (the `matrix` fixture), the same with a11 = 3, one
# with a11 = 0, whose symmetry defect leads with X0 X2*, and a bound-4 seed
# matrix, many of whose pivots lead with an entry other than 1, some
# negative, and whose family columns are Fractions
AT_THE_BOUNDS = pytest.mark.parametrize(
    "matrix",
    [gr.TransitionMatrix(*e) for e in ((-3, 1, -1, 0), (3, 1, -1, 0), (0, 1, -1, 1),
                                       (-3, -2, -4, -3))],
    ids=lambda m: ",".join(map(str, m.entries())),
)


@AT_THE_BOUNDS
def test_hilbert_matches_closed_forms(matrix):
    # up to the costliest admitted calls: the bi piece at (B, B) holds the total piece at B
    for d in (0, 1, 2, 3, HILBERT_BOUND):
        assert gr.hilbert_total(d, matrix) == gr.hilbert_total_closed(d)
    for d1, d2 in [*product(range(3), repeat=2), (HILBERT_BOUND, HILBERT_BOUND)]:
        assert gr.hilbert_bi(d1, d2, matrix) == gr.hilbert_bi_closed(d1, d2)


# three distinct bound-4 matrices: the first seed's, one with a22 != 0, and
# one with larger entries of mixed sign
CHAIN_MATRICES = [gr.TransitionMatrix(*e) for e in
                  ((-3, 1, -1, 0), (-3, -2, -4, -3), (3, -2, -4, 3))]
TOTAL_TOP, BI_TOP = 7, 4


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _rows(bound):
    """The graded piece's monomials in lexicographic order, enumerated per
    block here, so that the oracle shares no row code with the code it checks."""
    degrees, sizes = ((bound,), (6,)) if isinstance(bound, int) else (bound, (3, 3))
    per_block = [monomials_up_to_degree(n, d) for n, d in zip(sizes, degrees)]
    return [sum(parts, ()) for parts in product(*per_block)]


def _shifts(bound, matrix):
    """Every generator g_j times every monomial m that keeps it within the
    degrees, as an MPoly product, and whether g_i g_j = g_j g_i makes it
    redundant: the lex-largest monomial of an earlier generator g_i divides m."""
    rows = _rows(bound)
    within = set(rows)
    generators = gr.evaluation_ideal("plain", matrix).generators
    leads = [max(g.terms) for g in generators]
    for j, g in enumerate(generators):
        for m in rows:
            if all(tuple(map(operator.add, e, m)) in within for e in g.terms):
                redundant = any(_divides(lt, m) for lt in leads[:j])
                yield g * MPoly(VARS_BASE, {m: 1}), redundant


@functools.cache
def one_shot(bound, matrix):
    """The oracle: a fresh elimination of the whole piece, built from
    `_shifts`, with rows numbered in lexicographic order.  Returns the
    quotient dimension (rows - rank), the number of ideal columns, and how
    many of them are redundant."""
    rows = {m: r for r, m in enumerate(_rows(bound))}
    columns, redundant = [], 0
    for shifted, skip in _shifts(bound, matrix):
        columns.append({rows[e]: int(c) for e, c in shifted.terms.items()})
        redundant += skip
    rank, _ = rank_certified(columns, len(rows))
    return len(rows) - rank, len(columns), redundant


@pytest.fixture
def inserted(monkeypatch):
    """No ring held, and a list that grows by one per column the chain
    takes in, filed pending or formed and inserted: whether it raised the
    rank by one."""
    log = []
    real = gr.ringalg._ideal_columns

    def counting(grading, degrees, generators):
        for lead, terms in real(grading, degrees, generators):
            rank = gr.ringalg._RING._echelon.rank
            yield lead, terms
            log.append(gr.ringalg._RING._echelon.rank == rank + 1)

    monkeypatch.setattr(gr.ringalg, "_RING", None)
    monkeypatch.setattr(gr.ringalg, "_ideal_columns", counting)
    return log


def _columns(grading, degrees, generators):
    """`_ideal_columns` at the degrees, each column formed by the package's
    one helper, as the chain forms the columns it reads."""
    return [_formed(lead, terms)
            for lead, terms in gr.ringalg._ideal_columns(grading, degrees, generators)]


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
    # new since, less the redundant ones, and a request on another chain
    # starts it afresh; every column taken in raises the rank by one
    held, done = None, 0
    for bound, matrix in REQUEST_ORDERS[order]:
        degrees = gr.ringalg._grading(bound)[1]
        value, ncols, redundant = one_shot(bound, matrix)
        if (matrix, len(degrees), degrees[:-1]) != held:
            held, done = (matrix, len(degrees), degrees[:-1]), 0
        before = len(inserted)
        assert _request(bound, matrix) == value, (order, bound)
        assert len(inserted) - before == max(ncols - redundant - done, 0), (order, bound)
        assert all(inserted[before:]), (order, bound)
        done = max(done, ncols - redundant)


def test_threads_share_one_elimination(inserted):
    results, top = {}, 6
    _, ncols, redundant = one_shot(top, _M0)

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
    # the four sweeps extended one chain: every column that is not
    # redundant went in once, and raised the rank
    assert len(inserted) == ncols - redundant
    assert all(inserted)


# a matrix with a11 = 0: its symmetry defect leads with X0 X2*, where every
# CHAIN_MATRICES entry's leads with X0 X1*
A11_ZERO = gr.TransitionMatrix(0, 1, -1, 1)


def test_hilbert_on_a_matrix_with_a11_zero(inserted):
    assert max(gr.ringalg.symmetry_defect_poly(A11_ZERO).terms) == (1, 0, 0, 0, 0, 1)
    bounds = [*_TOTALS, *_BIS]
    oracle = {b: one_shot(b, A11_ZERO)[0] for b in bounds}
    for b in bounds:
        closed = gr.ringalg._grading(b)[0].closed(*gr.ringalg._grading(b)[1])
        assert _request(b, A11_ZERO) == closed == oracle[b], b
    assert inserted and all(inserted)


@pytest.fixture(scope="module")
def koszul_matrices():
    mats = []
    for s in gr.find_seeds(4):
        if all(s.M.entries() != m.entries() for m in mats):
            mats.append(s.M)
    assert len(mats) == 8
    return [*mats, A11_ZERO]


def _canonical(p):
    # mpoly's coefficient form: an int when integral, else a Fraction
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def test_family_coefficients_are_canonical(koszul_matrices):
    # the 8 distinct bound-4 seed matrices
    for matrix in koszul_matrices[:8]:
        for i in range(-COORD_INDEX_BOUND, 1):
            assert all(map(_canonical, gr.coordinate_polys(i, matrix))), (matrix, i)
        for bound in (BASIS_BOUND, (BASIS_BOUND, BASIS_BOUND)):
            for mono in gr.basis_family(bound, matrix):
                assert _canonical(mono.poly), (matrix, bound, mono.alpha, mono.j)


# every bound the basis check admits, in both gradings
_FAMILY_BOUNDS = [*range(BASIS_BOUND + 1), *product(range(BASIS_BOUND + 1), repeat=2)]


@pytest.mark.parametrize("order", [CHAIN_MATRICES[:2], CHAIN_MATRICES[1::-1]],
                         ids=["first-seed-first", "a22-nonzero-first"])
def test_family_products_are_formed_once_per_matrix(order, monkeypatch):
    # each member's polynomial comes from its ring's prefix products;
    # whichever matrix comes first, every member equals its product formed
    # here a factor at a time, so the products belong to the matrix and key
    # on each factor's coordinate e as well as its index
    monkeypatch.setattr(gr.ringalg, "_RING", None)
    for matrix in order:
        formed = {}
        for bound in _FAMILY_BOUNDS:
            for mono in gr.basis_family(bound, matrix):
                indices = mono.quad.indices() if mono.quad is not None else ()
                key = (indices, mono.exponents)
                if key not in formed:
                    poly = MPoly.const(VARS_BASE, 1)
                    for idx, e in zip(indices, mono.exponents):
                        poly = poly * gr.coordinate_polys(-idx, matrix)[e]
                    formed[key] = poly
                assert mono.poly == formed[key], (matrix, bound, mono.alpha, mono.j)
        # a repeated call multiplies nothing and gives equal polynomials
        family = gr.basis_family((BASIS_BOUND, BASIS_BOUND), matrix)
        products = []
        real = MPoly.__mul__
        monkeypatch.setattr(MPoly, "__mul__", lambda p, q: products.append(q) or real(p, q))
        again = gr.basis_family((BASIS_BOUND, BASIS_BOUND), matrix)
        monkeypatch.undo()
        assert [m.poly for m in again] == [m.poly for m in family] and not products


@pytest.mark.parametrize("bound", [6, (3, 3)])
def test_koszul_skipped_columns_lie_in_the_span(bound, koszul_matrices):
    # the chain's columns are the MPoly products g_j m less those with the
    # lex-largest monomial of an earlier g_i dividing m; the ones kept are
    # independent and every one left out reduces to zero against them
    ringalg = gr.ringalg
    grading, degrees = ringalg._grading(bound)
    *lead, last = degrees
    for matrix in koszul_matrices:
        generators = gr.evaluation_ideal("plain", matrix).generators
        # the lemma's precondition: each leading monomial has its
        # generator's full degree in every block
        gdegrees = [(2,)] * 3 if bound == 6 else [(2, 0), (0, 2), (1, 1)]
        for g, gdeg in zip(generators, gdegrees):
            lt = max(g.terms)
            assert lt == min(g.terms, key=ringalg._row_key)
            assert tuple(sum(lt[i] for i in slots) for slots in grading.blocks) == gdeg
        expected, skipped = [], []
        for shifted, redundant in _shifts(bound, matrix):
            col = {ringalg._row_key(e): int(c) for e, c in shifted.terms.items()}
            (skipped if redundant else expected).append(col)
        kept = [col for d in range(last + 1) for col in _columns(grading, (*lead, d), generators)]
        assert sorted(sorted(c.items()) for c in kept) == \
            sorted(sorted(c.items()) for c in expected)
        assert skipped
        ech = FractionEchelon()
        for col in kept:
            ech.insert(col)
        assert ech.rank == len(kept), matrix
        for col in skipped:
            ech.insert(col)
        assert ech.rank == len(kept), matrix


def _formed_pivots(ech):
    """The echelon's pivots, each pending one (its generator's `terms`
    tuple, filed under its lead) formed by the package's helper."""
    return {lead: _formed(lead, row) if type(row) is tuple else row
            for lead, row in ech.pivots.items()}


def _assert_primitive_pivots(ech):
    """Every pivot, formed, is a nonzero integer row led by its least key,
    primitive together with its track."""
    assert ech.pivots
    for lead, row in _formed_pivots(ech).items():
        track = ech.tracks.get(lead, {})
        assert lead == min(row)
        assert all(type(x) is int and x for x in (*row.values(), *track.values()))
        assert math.gcd(*row.values(), *track.values()) == 1


def test_echelon_invariants_after_chains_and_basis(matrix, monkeypatch):
    monkeypatch.setattr(gr.ringalg, "_RING", None)
    assert gr.hilbert_total(6, matrix, bound=6) == gr.hilbert_total_closed(6)
    ring = gr.ringalg._ring(matrix)
    _assert_primitive_pivots(ring._echelon)
    assert gr.hilbert_bi(3, 3, matrix) == gr.hilbert_bi_closed(3, 3)
    _assert_primitive_pivots(ring._echelon)
    family, solver = ring.solver(3)
    _assert_primitive_pivots(solver)
    assert len(solver.tracks) == len(family)

    # insert and solve read the caller's dicts and leave them as they were;
    # the chain steps 0..3 together hold every ideal column of degree 3
    grading = gr.ringalg._grading(3)[0]
    generators = gr.evaluation_ideal("plain", matrix).generators
    columns = [col for d in range(4) for col in _columns(grading, (d,), generators)]
    assert len(columns) == 3 * 7  # the generators times the monomials of degree <= 1
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
            key = gr.ringalg._row_key(e)
            rhs[key] = rhs.get(key, 0) + q * c
    rhs = {k: x for k, x in rhs.items() if x}
    given = dict(rhs)
    assert solver.solve(rhs) == [picked.get(t, 0) for t in range(len(family))]
    assert rhs == given


def _ideal_echelon(bound, matrix):
    """A fresh elimination of steps 0..d of the bound's chain: every column
    formed and sent through insert, none filed pending."""
    grading, degrees = gr.ringalg._grading(bound)
    *lead, last = degrees
    generators = gr.evaluation_ideal("plain", matrix).generators
    ech = FractionEchelon()
    for d in range(last + 1):
        for col in _columns(grading, (*lead, d), generators):
            ech.insert(col)
    return ech


def _with_last(bound, d):
    return (*bound[:-1], d) if isinstance(bound, tuple) else d


@pytest.mark.parametrize("state", ["other-matrix", "below", "at", "above"])
@pytest.mark.parametrize("bound", [1, 2, 3, (1, 1), (2, 1), (2, 2)])
def test_basis_solver_starts_from_the_chain_in_any_state(bound, state, matrix, monkeypatch):
    # the solver's fixed pivots are a fresh elimination of the chain steps
    # 0..d, whichever matrix and degree the held ring's chain was at before
    ra = gr.ringalg
    monkeypatch.setattr(ra, "_RING", None)
    last = ra._grading(bound)[1][-1]
    held, at = {"other-matrix": (CHAIN_MATRICES[1], last), "below": (matrix, last - 1),
                "at": (matrix, last), "above": (matrix, last + 2)}[state]
    assert (held.entries() != matrix.entries()) == (state == "other-matrix")
    _request(_with_last(bound, at), held)
    _, solver = ra._ring(matrix).solver(bound)
    fresh = _ideal_echelon(bound, matrix)
    assert solver.fixed_rank == fresh.rank
    assert list(solver.pivots.items())[:solver.fixed_rank] == list(fresh.pivots.items())


def test_built_solver_is_independent_of_the_chain(matrix, monkeypatch):
    ra = gr.ringalg
    monkeypatch.setattr(ra, "_RING", None)
    ring = ra._ring(matrix)
    _, solver = ring.solver(3)
    x1, y2 = MPoly.variable(VARS_BASE, "X1"), MPoly.variable(VARS_BASE, "X2*")
    rhs = {ra._row_key(e): c for e, c in (x1 * x1 * y2 + x1 * 2).terms.items()}
    pivots, solved = copy.deepcopy(list(solver.pivots.items())), solver.solve(rhs)
    assert solved is not None
    # extend the chain the solver started from, then move it to another matrix
    _request(6, matrix)
    assert len(ring._echelon.pivots) > solver.fixed_rank
    assert list(solver.pivots.items()) == pivots and solver.solve(rhs) == solved
    _request(3, CHAIN_MATRICES[1])
    assert list(solver.pivots.items()) == pivots and solver.solve(rhs) == solved


def test_solver_owns_its_pivots_and_leaves_the_chain_as_it_was(matrix, monkeypatch):
    # `pivots` hands the solver a fresh dict, which the solver then owns and
    # extends; the chain's own pivots are neither that dict nor changed by
    # building the solver or by solving with it
    ra = gr.ringalg
    monkeypatch.setattr(ra, "_RING", None)
    ring = ra._ring(matrix)
    # the chain at degree 3, its pending pivots formed, as a solver reads it
    ring.pivots(*ra._grading(3))
    pivots = ring._echelon.pivots
    held = copy.deepcopy(pivots)
    _, solver = ring.solver(3)
    assert solver.pivots is not pivots and len(solver.pivots) > solver.fixed_rank
    x1 = MPoly.variable(VARS_BASE, "X1")
    rhs = {ra._row_key(e): c for e, c in (x1 * x1 * 3 + x1).terms.items()}
    assert solver.solve(rhs) is not None
    _, lower = ring.solver(2)  # the same chain, at degree 2
    assert lower.pivots is not pivots and lower.solve(rhs) is not None
    assert ring._echelon.pivots is pivots and pivots == held


def test_pending_pivots_are_their_generators_terms(matrix, monkeypatch):
    # a pending pivot is filed as the `terms` tuple that `_ideal_columns`
    # builds once per generator at each step and shares among that
    # generator's columns, not as a copy or a pair holding it
    ra = gr.ringalg
    real = ra._ideal_columns
    built = []  # holds every tuple yielded, so no id is reused

    def recording(grading, degrees, generators):
        shared = {}
        for lead, terms in real(grading, degrees, generators):
            shared[id(terms)] = terms
            yield lead, terms
        assert len(shared) <= len(generators)
        built.extend(shared.values())

    monkeypatch.setattr(ra, "_RING", None)
    monkeypatch.setattr(ra, "_ideal_columns", recording)
    assert gr.hilbert_bi(5, 5, matrix) == gr.hilbert_bi_closed(5, 5)
    ids = {id(terms) for terms in built}
    pivots = ra._RING._echelon.pivots
    pending = [row for row in pivots.values() if type(row) is tuple]
    assert len(pending) > len(pivots) // 2
    assert all(id(row) in ids for row in pending)


@pytest.mark.parametrize("bound", [9, (5, 5)], ids=["total-9", "bi-5-5"])
def test_chain_pivots_equal_a_fresh_insert_elimination(bound, koszul_matrices, monkeypatch):
    # the chain files a column whose lead has no pivot pending and forms and
    # inserts the rest; most pivots are never read, so they stay pending,
    # and forming them all gives the pivots, their order and their rows of
    # an elimination that sends every column through insert
    ra = gr.ringalg
    grading, degrees = ra._grading(bound)
    calls = []
    real = FractionEchelon.insert

    def counting(self, col, tag=None):
        calls.append(col)
        return real(self, col, tag)

    for matrix in koszul_matrices:
        fresh = list(_ideal_echelon(bound, matrix).pivots.items())
        monkeypatch.setattr(ra, "_RING", None)
        monkeypatch.setattr(FractionEchelon, "insert", counting)
        del calls[:]
        assert ra._quotient_dim(grading, degrees, matrix) == grading.closed(*degrees)
        chain = ra._RING
        monkeypatch.undo()
        pending = [lead for lead, row in chain._echelon.pivots.items() if type(row) is tuple]
        assert len(pending) > len(fresh) // 2, matrix
        assert list(_formed_pivots(chain._echelon).items()) == fresh, matrix
        # both paths ran: most columns were filed, some needed a reduction
        assert 0 < len(calls) < len(fresh) // 2, matrix


@pytest.mark.parametrize("bound", [9, (5, 5)], ids=["total-9", "bi-5-5"])
def test_pending_pivots_are_formed_at_most_once(bound, matrix, monkeypatch):
    # a pending pivot is formed when a reduction first reads it or when
    # `pivots` copies it, and is stored back formed; an inserted column is
    # formed once, before its insert.  No column is formed twice on one
    # chain, however often it is read, copied or requested again, and once
    # all are copied each column the chain took in was formed exactly once
    ra = gr.ringalg
    grading, degrees = ra._grading(bound)
    monkeypatch.setattr(ra, "_RING", None)
    chain = ra._ring(matrix)
    formed = collections.Counter()

    def counting(lead, terms):
        formed[lead, terms] += 1
        return _formed(lead, terms)

    monkeypatch.setattr(gr.rank, "_formed", counting)
    monkeypatch.setattr(ra, "_formed", counting)
    assert ra._quotient_dim(grading, degrees, matrix) == grading.closed(*degrees)
    pivots = chain._echelon.pivots
    assert sum(type(row) is tuple for row in pivots.values()) > len(pivots) // 2
    assert formed and max(formed.values()) == 1
    copied = chain.pivots(grading, degrees)
    assert not any(type(row) is tuple for row in pivots.values())
    assert chain.pivots(grading, degrees) == copied
    assert ra._quotient_dim(grading, degrees, matrix) == grading.closed(*degrees)
    assert set(formed.values()) == {1} and len(formed) == len(pivots)


def test_ideal_columns_lead_with_their_least_key(koszul_matrices):
    # the chain files a column under the lead `_ideal_columns` gives, and
    # `_formed` moves the first of its terms to that lead and keeps their
    # order, so every column of every step must list its keys in ascending
    # order, from that lead
    ringalg = gr.ringalg
    for bound in (9, (5, 5)):
        grading, degrees = ringalg._grading(bound)
        *lead, last = degrees
        for matrix in koszul_matrices:
            generators = gr.evaluation_ideal("plain", matrix).generators
            for d in range(last + 1):
                for key, terms in ringalg._ideal_columns(grading, (*lead, d), generators):
                    col = _formed(key, terms)
                    assert list(col) == sorted(col) and key == min(col), (bound, d, matrix)


@pytest.mark.parametrize("change", [
    lambda g: (g[0], g[1], g[2] * 2),
    lambda g: (g[0] + Fraction(1, 2), g[1], g[2]),
], ids=["content-2", "half-coefficient"])
def test_chain_refuses_a_generator_that_is_not_primitive_integer(change, matrix, monkeypatch):
    # a pending column keeps its generator's coefficients as they are, so a
    # chain starts only on primitive integer ones; a ring keeps no refused
    # generators, so the next request is refused again
    ra = gr.ringalg
    real = ra.evaluation_ideal
    monkeypatch.setattr(ra, "_RING", None)
    monkeypatch.setattr(ra, "evaluation_ideal",
                        lambda kind, m: ra.IdealSpec(change(real(kind, m).generators)))
    for request in (lambda: gr.hilbert_total(2, matrix), lambda: gr.hilbert_bi(1, 1, matrix)):
        for _ in range(2):
            with pytest.raises(gr.VerificationError, match="primitive integer"):
                request()


def test_threads_copy_the_chain_while_others_move_it(monkeypatch):
    # each thread copies the echelon at one chain's degree and then extends
    # that chain a step; the copies interleave with other threads' moves of
    # the held ring's chain and with rings replaced for the other matrix,
    # and each is still its own steps' elimination
    ra = gr.ringalg
    monkeypatch.setattr(ra, "_RING", None)
    jobs = [(b, M) for M in CHAIN_MATRICES[:2] for b in (2, 3, (2, 1), (2, 2))]
    fresh = {job: list(_ideal_echelon(*job).pivots.items()) for job in jobs}
    results = {}

    def work(i):
        out = []
        for bound, M in jobs[i:] + jobs[:i]:
            grading, degrees = ra._grading(bound)
            pivots = ra._ring(M).pivots(grading, degrees)
            out.append(list(pivots.items()) == fresh[(bound, M)])
            _request(_with_last(bound, degrees[-1] + 1), M)
        results[i] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(i) for i in range(4)] == [[True] * len(jobs)] * 4


@pytest.fixture
def rings(monkeypatch):
    """No ring held; a weak set of the rings built from here on, and the
    list of their matrices in the order they were built."""
    alive, built = weakref.WeakSet(), []
    real = gr.ringalg._Ring.__init__

    def init(self, matrix):
        real(self, matrix)
        alive.add(self)
        built.append(matrix)

    monkeypatch.setattr(gr.ringalg, "_RING", None)
    monkeypatch.setattr(gr.ringalg._Ring, "__init__", init)
    return alive, built


def test_one_ring_is_held_for_the_latest_matrix(koszul_matrices, rings):
    # each matrix gets one ring, and once the next matrix is asked for,
    # nothing keeps the last one alive
    alive, built = rings
    x1 = MPoly.variable(VARS_BASE, "X1")
    for M in koszul_matrices:
        assert gr.hilbert_bi(2, 2, M) == gr.hilbert_bi_closed(2, 2)
        assert gr.check_basis_rank(2, M).spans
        assert not gr.quotient_coordinates(x1 * x1, 2, M).in_ideal()
    gc.collect()
    assert built == koszul_matrices
    assert list(alive) == [gr.ringalg._RING]
    assert gr.ringalg._RING.matrix == koszul_matrices[-1]


def test_a_replaced_ring_gives_the_same_results(rings, monkeypatch):
    # a matrix asked for again after another one replaced its ring gets a
    # new ring, whose reports, Hilbert values and reductions equal those of
    # a ring built with nothing held before; an equal matrix finds the held ring
    ra = gr.ringalg
    x1, y2 = MPoly.variable(VARS_BASE, "X1"), MPoly.variable(VARS_BASE, "X2*")
    poly = x1 * x1 * y2 + x1 * 3

    def results(M):
        return (gr.check_basis_rank(3, M), gr.check_basis_rank((2, 2), M),
                gr.hilbert_total(6, M), gr.hilbert_bi(3, 4, M),
                gr.quotient_coordinates(poly, 3, M).coords)

    first, second = CHAIN_MATRICES[:2]
    fresh = {}
    for M in (first, second):
        monkeypatch.setattr(ra, "_RING", None)
        fresh[M] = results(M)
    assert fresh[first][-1] != fresh[second][-1]  # the reductions tell them apart
    monkeypatch.setattr(ra, "_RING", None)
    del rings[1][:]
    for M in (first, second, first):
        assert results(M) == fresh[M]
        assert ra._ring(gr.TransitionMatrix(*M.entries())) is ra._RING
    assert rings[1] == [first, second, first]


# leads as exponents of the six coordinates; a block avoids those that lie inside it
BLOCK_KEY_AVOIDS = {
    "none": (),
    "X0X2": ((1, 0, 1, 0, 0, 0),),
    "X0X2,X0*X2*": ((1, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 1)),
    "X1^2,X1*^2": ((0, 2, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0)),
    "X0X1,X1X2,X0*X1*,X1*X2*": ((1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                                (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1)),
}


def test_block_keys_equal_the_tuple_path(koszul_matrices, monkeypatch):
    # the oracle enumerates each block's monomials as tuples, packs them
    # with `_row_key`, filters them by explicit divisibility and shifts
    # them to the block's place.  The avoid sets are the table's, and
    # those that `_ideal_columns` derives on the 8 distinct bound-4 seed
    # matrices in either grading
    ringalg = gr.ringalg
    real, derived = ringalg._block_keys, set()

    def recording(slots, d, exactly, avoid=()):
        derived.add((slots, avoid))
        return real(slots, d, exactly, avoid)

    monkeypatch.setattr(ringalg, "_block_keys", recording)
    for matrix in koszul_matrices[:8]:
        generators = gr.evaluation_ideal("plain", matrix).generators
        for grading in ringalg._GRADINGS.values():
            # the avoid sets do not depend on the degrees
            for _ in ringalg._ideal_columns(grading, (2,) * len(grading.blocks), generators):
                pass
    monkeypatch.undo()
    assert {(slots, avoid) for slots, avoid in derived if avoid} == {
        ((0, 1, 2, 3, 4, 5), ((1, 0, 1, 0, 0, 0),)),
        ((0, 1, 2, 3, 4, 5), ((1, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 1))),
        ((0, 1, 2), ((1, 0, 1),)),
        ((3, 4, 5), ((1, 0, 1),)),
    }
    ringalg._block_keys.cache_clear()
    blocks = {slots for grading in ringalg._GRADINGS.values() for slots in grading.blocks}
    assert blocks == {(0, 1, 2, 3, 4, 5), (0, 1, 2), (3, 4, 5)}
    for slots in sorted(blocks):
        n, low = len(slots), ringalg._KEY_BITS * (len(VARS_BASE) - 1 - slots[-1])
        avoids = {
            name: tuple(tuple(lead[s] for s in slots) for lead in leads
                        if sum(lead[s] for s in slots) == sum(lead))
            for name, leads in BLOCK_KEY_AVOIDS.items()
        }
        avoids.update((f"derived {avoid}", avoid) for block, avoid in derived if block == slots)
        for d, exactly in product(range(-2, HILBERT_BOUND + 1), (False, True)):
            monos = gr.monomials_of_degree(n, d) if exactly else list(monomials_up_to_degree(n, d))
            for name, avoid in avoids.items():
                want = tuple(ringalg._row_key(m) << low for m in monos
                             if not any(_divides(lead, m) for lead in avoid))
                assert ringalg._block_keys(slots, d, exactly, avoid) == want, (slots, d, exactly, name)


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
    # up to the bound, keys strictly fall as the lexicographic order rises,
    # so an echelon pivots on a column's lex-largest monomial
    keys = [gr.ringalg._row_key(e) for e in sorted(product((0, 1, top - 1, top), repeat=6))]
    assert keys == sorted(set(keys), reverse=True)


# the largest families admitted before one basis bound served both gradings,
# for the default matrix, pinned at the bytes
# they had when the basis check eliminated the ideal all at once, pivoting
# on each column's lex-smallest monomial; the one-line report is hashed in
# the layout of those pins, json.dumps(report, indent=2) + "\n"
BASIS_JSON_SHA256 = {
    ("--d", "3"): "9caf865aee80fd9b069f761166862446146f01212d44151ee7dd1c4ab187e757",
    ("--d1", "2", "--d2", "2"): "7e57c62f51b3371087033c61499770307a3041819333d88ddccc7f932f46d363",
}


@pytest.mark.parametrize("degrees", list(BASIS_JSON_SHA256))
def test_basis_json_pinned(capsys, degrees):
    assert main(["basis", *degrees, "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"
    out = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_JSON_SHA256[degrees]


def test_hilbert_closed_frozen_values():
    assert [gr.hilbert_total_closed(d) for d in range(6)] == [1, 7, 25, 63, 129, 231]
    assert [gr.hilbert_bi_closed(1, d2) for d2 in range(5)] == [4, 15, 32, 55, 84]
    assert gr.hilbert_bi_closed(2, 1) == 32
    assert gr.hilbert_bi_closed(4, 4) == 369


@pytest.fixture
def no_algebra_work(monkeypatch):
    """No ring held, and every ring, column or family build raising."""
    def refuse(*args):
        raise AssertionError("work done before the bound check")

    monkeypatch.setattr(gr.ringalg, "_RING", None)
    monkeypatch.setattr(gr.ringalg, "_Ring", refuse)
    monkeypatch.setattr(gr.ringalg, "_ideal_columns", refuse)
    monkeypatch.setattr(gr.ringalg, "basis_family", refuse)


# neither an int nor a pair of ints (bools excluded)
MALFORMED_BOUNDS = [True, False, (), (1,), (1, 2, 3), (1, True), (2.0, 1), 2.0, [1, 2], "3", None]
MALFORMED = "^a bound is a degree or a pair of degrees, not "


def test_hilbert_bounds(matrix, no_algebra_work):
    # one bound for every block of either grading, refused before any work
    top = HILBERT_BOUND + 1
    with pytest.raises(BoundExceeded, match=f"^degree {top} exceeds bound {HILBERT_BOUND}$"):
        gr.hilbert_total(top, matrix)
    for d1, d2 in ((top, 0), (0, top), (top, top)):
        with pytest.raises(BoundExceeded, match=f"^bi-degree .* exceeds bound {HILBERT_BOUND}$"):
            gr.hilbert_bi(d1, d2, matrix)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        gr.hilbert_total(-1, matrix)
    with pytest.raises(ValueError, match="^bi-degree must be nonnegative$"):
        gr.hilbert_bi(0, -1, matrix)
    for bound in MALFORMED_BOUNDS:
        with pytest.raises(ValueError, match=MALFORMED):
            gr.hilbert_total(bound, matrix)
    for d1, d2 in ((True, 1), (1, False), (1.0, 1), ((1,), 1), ((1, 2), 3)):
        with pytest.raises(ValueError, match=MALFORMED):
            gr.hilbert_bi(d1, d2, matrix)
    # a pair is a bi-degree, which the total grading refuses
    for bound in ((2, 3), (0, 0), (HILBERT_BOUND, 1)):
        with pytest.raises(ValueError, match="^hilbert_total needs a total degree bound"):
            gr.hilbert_total(bound, matrix)
        with pytest.raises(ValueError, match="^hilbert_total_closed needs a total degree bound"):
            gr.hilbert_total_closed(bound)
    for bad in MALFORMED_BOUNDS:
        with pytest.raises(ValueError, match=MALFORMED):
            gr.hilbert_total_closed(bad)
    with pytest.raises(ValueError, match=MALFORMED):
        gr.hilbert_bi_closed(2, (1, 1))


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
        assert m.poly.block_degrees((0, 1, 2), (3, 4, 5))[1]


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
        last = family[-1]
        family[-1] = gr.BasisMonomial(last.alpha, last.j, last.quad, last.exponents,
                                      family[1].poly * 3 + generator)
        return family

    def tag(m):
        return (m.alpha.m, m.alpha.n, m.j)

    # the elimination is kept per bound in the matrix's ring: build it from
    # the patched family in a new ring, and drop that ring before the real
    # family is used again
    with monkeypatch.context() as patch:
        patch.setattr(gr.ringalg, "_RING", None)
        patch.setattr(gr.ringalg, "basis_family", deficient)
        family = gr.ringalg.basis_family(2, matrix)
        rep = gr.check_basis_rank(2, matrix)
        code, out = main(["basis", "--d", "2", "--no-timestamp"]), capsys.readouterr().out
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
    real_solver, real_quad = gr.ringalg.LinearSolver, gr.ringalg._maximal_quad

    def solver(*args):
        counts["solvers"] += 1
        return real_solver(*args)

    def quad(*args):
        counts["quads"] += 1
        return real_quad(*args)

    monkeypatch.setattr(gr.ringalg, "LinearSolver", solver)
    monkeypatch.setattr(gr.ringalg, "_maximal_quad", quad)
    monkeypatch.setattr(gr.ringalg, "_RING", None)
    assert gr.check_basis_rank(2, matrix).spans
    x1 = MPoly.variable(VARS_BASE, "X1")
    assert not gr.quotient_coordinates(x1 * x1, 2, matrix).in_ideal()
    assert counts["solvers"] == 1
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


@AT_THE_BOUNDS
def test_check_basis_rank_at_the_bound(matrix):
    # the bi family at (B, B) is the costliest admitted one
    for bound in (BASIS_BOUND, (BASIS_BOUND, BASIS_BOUND)):
        assert gr.check_basis_rank(bound, matrix).spans, bound


def test_check_basis_rank_bounds(matrix, no_algebra_work):
    # one bound for every block of either grading, refused before any work
    top = BASIS_BOUND + 1
    with pytest.raises(BoundExceeded, match=f"^degree {top} exceeds bound {BASIS_BOUND}$"):
        gr.check_basis_rank(top, matrix)
    for bound in ((top, 0), (0, top), (top, 1)):
        with pytest.raises(BoundExceeded, match=f"^bi-degree .* exceeds bound {BASIS_BOUND}$"):
            gr.check_basis_rank(bound, matrix)
    for bound in MALFORMED_BOUNDS:
        with pytest.raises(ValueError, match=MALFORMED):
            gr.check_basis_rank(bound, matrix)
    # the package's own basis_family: the fixture refuses only ringalg's name
    with pytest.raises(ValueError, match=MALFORMED):
        gr.basis_family((1, 2, 3), matrix)


def test_basis_family_and_monomial_refuse_their_bound(matrix, monkeypatch):
    # one past BASIS_BOUND in either grading, and a negative bound, are
    # refused before a ring is asked for
    def refuse(*args):
        raise AssertionError("ring asked for before the bound check")

    monkeypatch.setattr(gr.ringalg, "_ring", refuse)
    top, alpha = BASIS_BOUND + 1, GoldenInt(1, 0)
    calls = (lambda bound: gr.basis_family(bound, matrix),
             lambda bound: gr.basis_monomial(alpha, 0, bound, matrix))
    for call in calls:
        with pytest.raises(BoundExceeded, match=f"^degree {top} exceeds bound {BASIS_BOUND}$"):
            call(top)
        for bound in ((top, 0), (0, top), (top, top)):
            message = rf"^bi-degree \({bound[0]}, {bound[1]}\) exceeds bound {BASIS_BOUND}$"
            with pytest.raises(BoundExceeded, match=message):
                call(bound)
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            call(-1)
        with pytest.raises(ValueError, match="^bi-degree must be nonnegative$"):
            call((1, -1))
        # the bound itself is admitted, and the call reaches the ring
        for bound in (BASIS_BOUND, (BASIS_BOUND, BASIS_BOUND)):
            with pytest.raises(AssertionError, match="ring asked for"):
                call(bound)


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


def test_quotient_coordinates_errors(matrix, no_algebra_work):
    # each refused before any work
    x0 = MPoly.variable(VARS_BASE, "X0")
    with pytest.raises(ValueError):
        gr.quotient_coordinates(x0**3, 2, matrix)  # degree above the bound
    with pytest.raises(ValueError):
        gr.quotient_coordinates(MPoly.variable(VARS_BASE + ("U",), "U"), 2, matrix)
    # a degree above the basis bound in any block, then a bi-degree within it
    top = BASIS_BOUND + 1
    for reduce in (gr.quotient_coordinates, gr.leading_form):
        for bound in (top, (top, 0), (1, top)):
            with pytest.raises(BoundExceeded, match=f"exceeds bound {BASIS_BOUND}$"):
                reduce(x0, bound, matrix)
        for bound in ((1, 1), (BASIS_BOUND, BASIS_BOUND)):
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
    assert lf == gr.LeadingForm(GoldenInt(2, 0), (0, 0, 1, 0, 0)) and lf.size == 2


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


def _product_row(matrix, size, shift, ds):
    """The row (c_0, ..., c_{2 size}) of x**shift theta(x)**ds, where
    theta(x) = a11 + (a12 + a21) x + a22 x**2."""
    theta = (matrix.a11, matrix.a12 + matrix.a21, matrix.a22)
    poly = [1]
    for _ in range(ds):
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            for k, t in enumerate(theta):
                out[i + k] += c * t
        poly = out
    row = [0] * (2 * size + 1)
    row[shift:shift + len(poly)] = poly
    return tuple(row)


def test_leading_form_of_a_product_follows_the_product_rule():
    # every pair of members at the bounds (d, e) with d + e <= BASIS_BOUND,
    # on one bound-4 matrix, and the (1, 1) pairs on all eight
    matrices = list(dict.fromkeys(seed.M for seed in gr.find_seeds(4)))
    assert len(matrices) == 8
    bounds = [(d, e) for d in range(1, BASIS_BOUND) for e in range(d, BASIS_BOUND + 1 - d)]
    assert bounds == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]
    cases = [(matrices[0], bound) for bound in bounds] + [(M, (1, 1)) for M in matrices[1:]]
    grown = 0
    for M, (d, e) in cases:
        for a in gr.basis_family(d, M):
            for b in gr.basis_family(e, M):
                lf = gr.leading_form(a.poly * b.poly, d + e, M)
                ds = lf.size - a.size - b.size
                assert lf.alpha == a.alpha + b.alpha and ds in (0, 1)
                assert lf.coefficients == _product_row(M, lf.size, a.j + b.j, ds)
                grown += ds
    assert grown > 0  # theta enters some rows
