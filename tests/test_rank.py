from copy import deepcopy
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from hypothesis import given, settings, strategies as st

from goldenring.rank import FractionEchelon, LinearSolver, rank_certified


def col(*pairs):
    return {i: Fraction(v) for i, v in pairs}


def _span(columns):
    """The pivots of an echelon of the fixed span, built by inserting its columns."""
    ech = FractionEchelon()
    for c in columns:
        ech.insert(c)
    return ech.pivots


def test_rank_certified_known_matrices():
    identity = [col((i, 1)) for i in range(3)]
    assert rank_certified(identity, 3) == (3, "echelon")
    dependent = identity + [col((0, 1), (1, 1), (2, 1))]
    assert rank_certified(dependent, 3) == (3, "echelon")
    assert rank_certified([col((0, 2)), col((0, -7))], 1) == (1, "echelon")
    v1, v2 = col((0, 1)), col((1, 1))
    assert rank_certified([v1, v2, col((0, 1), (1, 1))], 2) == (2, "echelon")
    assert rank_certified([v1, v2], 2) == (2, "echelon")
    assert rank_certified([{}], 4) == (0, "echelon")
    assert rank_certified([], 5) == (0, "empty")


def _det(m):
    """Leibniz expansion: no elimination, so independent of the engine."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _rank_by_minors(dense, nrows):
    """The largest k with a nonzero k x k minor."""
    for k in range(min(nrows, len(dense)), 0, -1):
        for cs in combinations(dense, k):
            for rs in combinations(range(nrows), k):
                if _det([[c[r] for c in cs] for r in rs]):
                    return k
    return 0


_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@settings(max_examples=80)
@given(
    st.lists(st.lists(_entries, min_size=4, max_size=4), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _entries), max_size=2),
)
def test_rank_matches_minor_oracle(base, mixes):
    # up to 6 columns; the mixed ones q*c_i + c_j make dependent sets likely
    dense = list(base)
    if base:
        for i, j, q in mixes:
            ci, cj = base[i % len(base)], base[j % len(base)]
            dense.append([q * x + y for x, y in zip(ci, cj)])
    columns = [{i: v for i, v in enumerate(c) if v} for c in dense]
    rank, _ = rank_certified(columns, 4)
    assert rank == _rank_by_minors(dense, 4)


def _vanishes(cert, vectors):
    total = {}
    for tag, coeff in cert.items():
        for k, v in vectors[tag].items():
            total[k] = total.get(k, Fraction(0)) + coeff * v
    return all(v == 0 for v in total.values())


def test_echelon_dependency_certificate():
    ech = FractionEchelon()
    a = col((0, 1), (1, 2))
    b = col((1, 3))
    assert ech.insert(dict(a), tag="a") is None
    assert ech.insert(dict(b), tag="b") is None
    combo = {k: 2 * a.get(k, Fraction(0)) - 5 * b.get(k, Fraction(0)) for k in (0, 1)}
    cert = ech.insert({k: v for k, v in combo.items() if v}, tag="c")
    assert cert is not None
    # the certificate names a vanishing combination: c - 2a + 5b = 0
    assert _vanishes(cert, {"a": a, "b": b, "c": combo})
    assert cert == {"a": -2, "b": 5, "c": 1}

    # non-integer entries and coefficients, modulo an untagged vector
    ech = FractionEchelon()
    ideal = col((2, Fraction(3, 7)))
    a = col((0, Fraction(1, 2)), (1, Fraction(2, 3)))
    b = col((1, Fraction(-3, 4)), (2, 5))
    assert ech.insert(dict(ideal)) is None
    assert ech.insert(dict(a), tag="a") is None
    assert ech.insert(dict(b), tag="b") is None
    combo = {
        k: Fraction(1, 3) * a.get(k, 0) - Fraction(7, 2) * b.get(k, 0) + 4 * ideal.get(k, 0)
        for k in (0, 1, 2)
    }
    cert = ech.insert({k: v for k, v in combo.items() if v}, tag="c")
    # c - a/3 + 7b/2 is 4 * ideal, a vector of the untagged span
    assert cert == {"a": Fraction(-1, 3), "b": Fraction(7, 2), "c": 1}
    assert all(isinstance(v, Fraction) for v in cert.values())
    assert _vanishes({**cert, "ideal": -4}, {"a": a, "b": b, "c": combo, "ideal": ideal})


def test_linear_solver_unique_solution():
    columns = [col((0, 1), (1, 1)), col((1, 2))]
    solver = LinearSolver(_span([]), columns)
    sol = solver.solve(col((0, 3), (1, 7)))
    assert sol == [Fraction(3), Fraction(2)]


def test_linear_solver_inconsistent():
    solver = LinearSolver(_span([]), [col((0, 1))])
    assert solver.solve(col((1, 1))) is None
    assert solver.solve(col((0, 5))) == [Fraction(5)]


def test_linear_solver_free_variables_zero():
    columns = [col((0, 1)), col((0, 2))]
    solver = LinearSolver(_span([]), columns)
    sol = solver.solve(col((0, 4)))
    assert sol is not None
    residual = Fraction(4) - sol[0] - 2 * sol[1]
    assert residual == 0
    assert sol[1] == 0  # second column is dependent, stays free at zero
    assert solver.fixed_rank == 0 and solver.rank == 1
    assert solver.dependencies == {1: {0: -2, 1: 1}}


def test_linear_solver_zero_rhs():
    solver = LinearSolver(_span([]), [col((0, 1), (2, -1))])
    assert solver.solve({}) == [Fraction(0)]


def test_linear_solver_modulo_fixed_span():
    # the fixed columns span e0 and e3; the third adds nothing and is no dependency
    fixed = [col((3, 1)), col((0, 1), (3, 1)), col((3, 2))]
    a = col((1, 1), (3, 7))
    b = col((0, 1), (2, Fraction(1, 2)))
    c = col((0, 1), (1, 3), (2, -2), (3, 21))  # 3a - 4b + 5 e0
    solver = LinearSolver(_span(fixed), [a, b, c])
    assert solver.fixed_rank == 2 and solver.rank == 4
    assert solver.dependencies == {2: {0: -3, 1: 4, 2: 1}}
    # 9 e0 + 2 e1 + 3 e2 - e3 is 2a + 6b modulo the fixed span
    assert solver.solve(col((0, 9), (1, 2), (2, 3), (3, -1))) == [2, 6, 0]
    assert solver.solve(col((0, 5), (3, -1))) == [0, 0, 0]
    assert solver.solve(col((4, 1))) is None
    # a column inside the fixed span depends on nothing but itself
    assert LinearSolver(_span(fixed), [col((0, 2), (3, 1))]).dependencies == {0: {0: 1}}


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
)
def test_linear_solver_recovers_combinations(u, v):
    columns = [
        {i: Fraction(x) for i, x in enumerate(u) if x},
        {i: Fraction(x) for i, x in enumerate(v) if x},
    ]
    rhs = {
        i: Fraction(2 * u[i] - 3 * v[i]) for i in range(3) if 2 * u[i] - 3 * v[i]
    }
    sol = LinearSolver(_span([]), columns).solve(rhs)
    assert sol is not None
    # verify the solution reproduces the right-hand side exactly
    for i in range(3):
        lhs = sol[0] * u[i] + sol[1] * v[i]
        assert lhs == rhs.get(i, Fraction(0))


def _gauss_jordan(dense, nrows, rhs=()):
    """Gauss-Jordan over Fractions on [dense | rhs], pivoting only in dense:
    no sparse echelon, so independent of the engine.  Returns the reduced
    rows and the pivot columns."""
    rows = [[c[r] for c in dense] + [b[r] for b in rhs] for r in range(nrows)]
    pivots = []
    for j in range(len(dense)):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nrows) if rows[r][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = [x / rows[rank][j] for x in rows[rank]]
        rows[rank] = top
        for r in range(nrows):
            if r != rank and rows[r][j]:
                f = rows[r][j]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        pivots.append(j)
    return rows, pivots


def _dense_rank(dense, nrows):
    return len(_gauss_jordan(dense, nrows)[1])


def _dense_solve(fixed, columns, rhs, nrows):
    """Coordinates of rhs over `columns` modulo the span of `fixed`, the
    non-pivot ones 0, or None, read off the reduced [fixed | columns | rhs]."""
    rows, pivots = _gauss_jordan(fixed + columns, nrows, [rhs])
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * len(columns)
    for r, j in enumerate(pivots):
        if j >= len(fixed):
            x[j - len(fixed)] = rows[r][-1]
    return x


def _combination(coeffs, dense, nrows):
    return [sum((q * c[r] for q, c in zip(coeffs, dense)), Fraction(0)) for r in range(nrows)]


def _sparse(dense):
    return [{r: x for r, x in enumerate(c) if x} for c in dense]


def _assert_primitive_pivots(ech):
    """Every pivot is an integer row led by its least key, primitive
    together with its track."""
    for lead, row in ech.pivots.items():
        entries = (*row.values(), *ech.tracks.get(lead, {}).values())
        assert lead == min(row) and all(type(x) is int and x for x in entries)
        assert gcd(*entries) == 1


# mostly zeros; the nonzero entries give leads other than +-1
_sparse_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
_ROWS = 8


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(_sparse_entries, min_size=_ROWS, max_size=_ROWS), min_size=1, max_size=7),
    st.lists(st.lists(_sparse_entries, min_size=7, max_size=7), max_size=3),
    st.integers(min_value=0, max_value=3),
    st.lists(_sparse_entries, min_size=10, max_size=10),
    st.lists(_sparse_entries, min_size=_ROWS, max_size=_ROWS),
)
def test_sparse_columns_match_dense_elimination(base, mixes, nfixed, coeffs, stray):
    # up to 10 columns of 8 rows; the mixed ones are combinations of the base
    dense = base + [_combination(q, base, _ROWS) for q in mixes]
    columns = _sparse(dense)
    given_columns = deepcopy(columns)
    assert rank_certified(columns, _ROWS)[0] == _dense_rank(dense, _ROWS)

    ech = FractionEchelon()
    for i, column in enumerate(columns):
        stored = deepcopy((ech.pivots, ech.tracks))
        dep = ech.insert(column, tag=i)
        # a stored pivot or track is never changed by a later insert, and the
        # pivots present at rank r stay the first r in dict order
        assert all(ech.pivots[k] == p for k, p in stored[0].items())
        assert list(ech.pivots.items())[:len(stored[0])] == list(stored[0].items())
        assert all(ech.tracks[k] == t for k, t in stored[1].items())
        if dep is not None:
            assert dep[i] == 1 and _vanishes(dep, columns)
    assert ech.rank == _dense_rank(dense, _ROWS)
    _assert_primitive_pivots(ech)
    assert columns == given_columns

    fixed, rest = columns[:nfixed], columns[nfixed:]
    span = _span(fixed)
    given_span = deepcopy(span)
    solver = LinearSolver(span, rest)
    # the solver starts from the span's pivots and adds to a copy of them
    assert span == given_span
    assert list(solver.pivots.items())[:solver.fixed_rank] == list(given_span.items())
    assert solver.fixed_rank == _dense_rank(dense[:nfixed], _ROWS)
    assert solver.rank == ech.rank
    assert len(solver.dependencies) == len(rest) - (solver.rank - solver.fixed_rank)
    _assert_primitive_pivots(solver)
    for i, dep in solver.dependencies.items():
        # a vanishing combination modulo the fixed span
        residual = _combination([dep.get(t, 0) for t in range(len(rest))], dense[nfixed:], _ROWS)
        assert _dense_rank(dense[:nfixed] + [residual], _ROWS) == solver.fixed_rank
    # a right-hand side in the span is solved, and the solution reproduces
    # it modulo the fixed span; a stray one is solved exactly when it is in the span
    for rhs in (_combination(coeffs, dense, _ROWS), stray):
        sparse_rhs = _sparse([rhs])[0]
        given_rhs = dict(sparse_rhs)
        sol = solver.solve(sparse_rhs)
        assert sparse_rhs == given_rhs
        in_span = _dense_rank(dense + [rhs], _ROWS) == ech.rank
        assert (sol is not None) == in_span
        assert sol == _dense_solve(dense[:nfixed], dense[nfixed:], rhs, _ROWS)
        if sol is not None:
            residual = [x - y for x, y in zip(rhs, _combination(sol, dense[nfixed:], _ROWS))]
            assert _dense_rank(dense[:nfixed] + [residual], _ROWS) == solver.fixed_rank
            assert all(sol[i] == 0 for i in solver.dependencies)
    assert columns == given_columns


def _dense(column, nrows):
    return [Fraction(column.get(r, 0)) for r in range(nrows)]


def _assert_solves_as_oracle(fixed, columns, rhs, nrows):
    solver = LinearSolver(_span(fixed), columns)
    sol = solver.solve(rhs)
    expected = _dense_solve(
        [_dense(c, nrows) for c in fixed], [_dense(c, nrows) for c in columns],
        _dense(rhs, nrows), nrows,
    )
    assert sol == expected
    if sol is not None:
        assert len(sol) == len(columns) and all(type(x) is Fraction for x in sol)
    return solver, sol


def test_linear_solver_matches_dense_oracle():
    nrows = 6
    fixed = [{3: 5}]
    a0 = col((0, -2), (1, 3), (4, 1))  # its pivot leads with -2
    a1 = col((1, Fraction(1, 2)), (2, 1))
    a2 = {k: 2 * a0.get(k, 0) - a1.get(k, 0) + (k == 3) for k in range(5)}  # dependent
    columns = [a0, a1, a2]
    # 3 a0 + a1 / 3, as ints, Fractions and zeros, one of them at key 5,
    # which no pivot leads
    rhs = {0: -6, 1: Fraction(55, 6), 2: Fraction(1, 3), 3: 0, 4: 3, 5: Fraction(0)}
    solver, sol = _assert_solves_as_oracle(fixed, columns, rhs, nrows)
    assert solver.pivots[0] == {0: -2, 1: 3, 4: 1}
    assert solver._reduce(rhs, -1)[1][-1] < 0  # the track's own entry ends negative
    assert sol == [3, Fraction(1, 3), 0]
    for rhs in (
        {5: 0, 3: Fraction(7, 2)},  # in the fixed span: every coordinate is 0
        {0: 0, 3: -10, 5: 0},
        {},
        dict(a2),  # the dependent column's own variable stays 0
        {k: 2 * x for k, x in a0.items()} | {5: 0},
        {0: Fraction(-1, 7), 5: 1},  # not in the span
    ):
        _assert_solves_as_oracle(fixed, columns, rhs, nrows)
    assert solver.solve({3: Fraction(7, 2)}) == [0, 0, 0]
    assert solver.solve(dict(a2)) == [2, -1, 0] and solver.dependencies.keys() == {2}
    assert solver.solve({0: Fraction(-1, 7), 5: 1}) is None
